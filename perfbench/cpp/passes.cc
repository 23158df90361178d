#include "passes.hh"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sys/resource.h>
#include <unistd.h>

#include "common/invariants.hh"
#include "common/log.hh"
#include "common/snapshot.hh"
#include "isa/interpreter.hh"
#include "litmus/shapes.hh"
#include "mem/main_memory.hh"
#include "multiscalar/checkpoint.hh"
#include "multiscalar/processor.hh"
#include "recovery/recovery_manager.hh"
#include "service/job_journal.hh"
#include "service/process_worker.hh"
#include "service/service.hh"
#include "svc/corruptor.hh"
#include "svc/invariants.hh"
#include "svc/system.hh"
#include "trace_io/trace_reader.hh"
#include "trace_io/trace_replayer.hh"
#include "workloads/stimulus.hh"
#include "workloads/workloads.hh"

namespace svc::perfbench
{
namespace
{

// Sizes are fixed here, not taken from the command line: a run's
// inputs depend on the seed alone. Each pass is sized to take a
// small fraction of a run, so one run repeats every part many times.

/** fig19-serial: SVC_BENCH_SCALE-style kernel size multiplier. */
constexpr unsigned kFig19Scale = 2;
/** svc-replay: generated `mixed` stream shape. */
constexpr unsigned kReplayTasks = 4096;
constexpr unsigned kReplayOpsPerTask = 24;
/** rails: recovery-cell kernel scale and litmus iterations. */
constexpr unsigned kRailsScale = 1;
constexpr std::uint64_t kLitmusIters = 20;
/** campaign: kernel scale, workers and preemption quantum in cycles
 *  (28 of the 35 scale-1 jobs run past it, so they checkpoint and
 *  resume at least once). */
constexpr unsigned kCampaignScale = 1;
constexpr unsigned kCampaignWorkers = 2;
constexpr Cycle kCampaignQuantum = 6000;

using service::ItemResult;
using service::SweepItem;

/** Records the wall and CPU time of one part of a pass. */
class PartTimer
{
  public:
    explicit PartTimer(PassResult &result)
        : out(result), cpu0(cpuSeconds()),
          wall0(std::chrono::steady_clock::now())
    {}
    ~PartTimer()
    {
        out.partWall.push_back(std::chrono::duration<double>(
                                   std::chrono::steady_clock::now() - wall0)
                                   .count());
        out.partCpu.push_back(cpuSeconds() - cpu0);
    }
    PartTimer(const PartTimer &) = delete;
    PartTimer &operator=(const PartTimer &) = delete;

  private:
    PassResult &out;
    double cpu0;
    std::chrono::steady_clock::time_point wall0;
};

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

SpecMemCounts &
callsFor(TraceData &td, Layer backend)
{
    return backend == Layer::Arb ? td.arbCalls : td.svcCalls;
}

Layer
backendLayer(const std::string &mem_kind)
{
    return mem_kind == "arb" ? Layer::Arb : Layer::Svc;
}

/** Interpreter checksum of @p program's check word. */
std::uint32_t
referenceChecksum(const isa::Program &program, Addr check_base,
                  const std::string &name, Tracer *t)
{
    Scope s(t, Layer::Isa, "isa.reference", name);
    MainMemory mem;
    const auto res = isa::Interpreter::run(program, mem, 2'000'000'000);
    if (!res.halted)
        fatal("perfbench: reference run of '%s' did not halt",
              name.c_str());
    return mem.readWord(check_base);
}

/** bench::runOn's fillMemStats, plus the traced StatSet counts. */
void
fillMemStats(bench::BenchRow &row, const SpecMem &sys, TraceData *td)
{
    row.missRatio = sys.missRatio();
    const StatSet st = sys.stats();
    if (st.has("bus.utilization"))
        row.busUtilization = st.get("bus.utilization");
    if (const Distribution *d = st.distribution("bus.occupancy"))
        row.busOccupancy = d->summarize();
    if (const Distribution *d = st.distribution("miss_latency"))
        row.missLatency = d->summarize();
    if (!td)
        return;
    auto &c = td->counts;
    auto get = [&](const char *k) { return st.has(k) ? st.get(k) : 0.0; };
    if (st.has("protocol.vol_snoops")) {
        const double accesses =
            get("protocol.loads") + get("protocol.stores");
        c["svc.accesses"] += accesses;
        c["svc.miss_weighted"] += row.missRatio * accesses;
        c["svc.vol_snoops"] += get("protocol.vol_snoops");
        c["svc.vol_hits"] += get("protocol.vol_hits");
        c["svc.vol_rebuilds"] += get("protocol.vol_rebuilds");
    }
    if (st.has("bus.busy_cycles")) {
        c["bus.transactions"] += get("bus.bus_reads") +
                                 get("bus.bus_writes") +
                                 get("bus.bus_wbacks");
        c["bus.busy_cycles"] += get("bus.busy_cycles");
        c["bus.observed_cycles"] += get("bus.observed_cycles");
        c["bus.retries"] += get("bus.retries");
    }
    if (const Distribution *d = st.distribution("bus.occupancy")) {
        for (unsigned i = 0; i < d->numBuckets(); ++i)
            td->busOccupancy[d->bucketLo(i)] += d->bucketCount(i);
    }
}

/** Processor-level counts of one finished run. */
void
noteProcessor(const Processor &cpu, const RunStats &rs, TraceData *td)
{
    if (!td)
        return;
    auto &c = td->counts;
    c["multiscalar.committed_insts"] +=
        static_cast<double>(rs.committedInstructions);
    c["multiscalar.committed_tasks"] +=
        static_cast<double>(cpu.nCommittedTasks);
    c["multiscalar.squashed_tasks"] +=
        static_cast<double>(cpu.nSquashedTasks);
    c["multiscalar.cycles"] += static_cast<double>(rs.cycles);
    const StatSet st = cpu.stats();
    if (st.has("ring.forwards"))
        c["multiscalar.ring_forwards"] += st.get("ring.forwards");
}

/** Parse the "cycles" member of a rendered bench row. */
std::uint64_t
rowCycles(const std::string &row)
{
    const char *key = "\"cycles\":";
    const std::size_t at = row.find(key);
    if (at == std::string::npos)
        return 0;
    return std::strtoull(row.c_str() + at + std::strlen(key), nullptr,
                         10);
}

trace_io::StimulusOptions
seededStimulus(std::uint64_t seed)
{
    trace_io::StimulusOptions so;
    so.seed = seed;
    so.seedSet = true;
    return so;
}

// ---------------------------------------------------------------
// fig19-serial
// ---------------------------------------------------------------

class Fig19Serial : public Workload
{
  public:
    explicit Fig19Serial(std::uint64_t s) : seed(s) {}

    void
    setup() override
    {
        items = service::buildGrid("fig19", kFig19Scale,
                                   seededStimulus(seed));
        stimuli.clear();
        for (const SweepItem &it : items)
            stimuli.push_back(bench::kernel(it.workload, it.scale, it.seed));
    }

    PassResult
    pass(TraceData *td) override
    {
        PassResult out;
        for (std::size_t i = 0; i < items.size(); ++i) {
            PartTimer part(out);
            ItemResult r;
            r.row = runProgram(items[i], *stimuli[i], td);
            out.simCycles += r.row.cycles;
            out.add(service::renderRow(items[i], r),
                    service::rowFailure(items[i], r));
        }
        return out;
    }

  private:
    std::uint64_t seed;
    std::vector<SweepItem> items;
    std::vector<std::unique_ptr<workloads::StimulusSource>> stimuli;
};

// ---------------------------------------------------------------
// svc-replay
// ---------------------------------------------------------------

class SvcReplay : public Workload
{
  public:
    SvcReplay(std::uint64_t s, const std::string &workdir)
        : seed(s), tracePath(workdir + "/svc-replay.svctrc")
    {}

    void
    setup() override
    {
        // Built from TraceGenConfig directly: the gen:<name> string
        // path rejects some of the pattern names its help text
        // advertises (see perfbench/NOTES.md).
        workloads::TraceGenConfig gen;
        gen.pattern = workloads::TracePattern::Mixed;
        gen.numTasks = kReplayTasks;
        gen.opsPerTask = kReplayOpsPerTask;
        gen.seed = seed;
        const auto stim = workloads::makeGeneratedStimulus(gen);
        bench::RunConfig rc = bench::svcRun(bench::paperSvcConfig(8));
        rc.recordPath = tracePath;
        const bench::BenchRow rec = bench::runOn(*stim, rc);
        if (!rec.verified)
            fatal("perfbench: recording the svc-replay stream failed "
                  "verification");

        trace_io::StimulusOptions so;
        so.traceIn = tracePath;
        items.clear();
        for (SweepItem &it : service::buildGrid("trace", 1, so)) {
            if (it.memKind == "svc") // no ARB run on this workload
                items.push_back(std::move(it));
        }
    }

    PassResult
    pass(TraceData *td) override
    {
        Tracer *t = td ? &td->tracer : nullptr;
        PassResult out;
        // The sequential oracle every replay is checked against.
        std::uint64_t oracle_hash = 0, oracle_mem = 0;
        {
            PartTimer part(out);
            const auto stim = open("oracle", td);
            const auto stream = stim->openStream();
            MainMemory mem;
            stim->loadInitialImage(mem);
            Scope s(t, Layer::Workloads, "workloads.oracle", "oracle");
            const workloads::SequentialStreamResult res =
                workloads::runStreamSequential(*stream, mem);
            oracle_hash = res.loadValueHash;
            oracle_mem = mem.hashAll();
        }
        for (const SweepItem &it : items) {
            PartTimer part(out);
            const auto stim = open(it.id, td);
            ItemResult r;
            r.row = runStream(it, *stim, oracle_hash, oracle_mem, td);
            out.simCycles += r.row.cycles;
            out.add(service::renderRow(it, r),
                    service::rowFailure(it, r));
        }
        return out;
    }

  private:
    /** Open + validate the recorded trace (the trace_io layer). */
    std::unique_ptr<workloads::StimulusSource>
    open(const std::string &item, TraceData *td) const
    {
        Scope s(td ? &td->tracer : nullptr, Layer::TraceIo,
                "trace_io.open", item);
        std::string err;
        auto stim = trace_io::makeTraceStimulus(tracePath, err);
        if (!stim)
            fatal("perfbench: %s", err.c_str());
        if (td) {
            td->counts["trace_io.records"] +=
                static_cast<double>(stim->openStream()->totalOps());
        }
        return stim;
    }

    std::uint64_t seed;
    std::string tracePath;
    std::vector<SweepItem> items;
};

// ---------------------------------------------------------------
// rails
// ---------------------------------------------------------------

class Rails : public Workload
{
  public:
    explicit Rails(std::uint64_t s) : seed(s) {}

    void
    setup() override
    {
        items.clear();
        programs.clear();
        // The recovery grid's cell shape (compress x every
        // corruption kind, degrade policy), one seed.
        for (FaultKind k :
             {FaultKind::CorruptVolPointer, FaultKind::CorruptMask,
              FaultKind::CorruptData, FaultKind::CorruptVolCache}) {
            SweepItem it;
            it.kind = SweepItem::Recovery;
            it.workload = "compress";
            it.scale = kRailsScale;
            it.seed = seed;
            it.faultKind = k;
            it.policy = RecoveryPolicy::Degrade;
            it.corruptions = 1 + static_cast<unsigned>(seed % 3);
            it.id = std::string("recovery/compress/") +
                    faultKindName(k) + "/s" + std::to_string(seed);
            workloads::WorkloadParams wp;
            wp.scale = it.scale;
            wp.seed = it.seed;
            programs.push_back(workloads::lookup(it.workload, wp));
            items.push_back(std::move(it));
        }
        // Every litmus shape on SVC Final under the fault mix and on
        // the fault-free ARB baseline.
        for (const std::string &shape : litmus::shapeNames()) {
            SweepItem svc;
            svc.kind = SweepItem::Litmus;
            svc.workload = shape;
            svc.seed = seed;
            svc.litmusBackend = litmus::Backend::Svc;
            svc.litmusDesign = SvcDesign::Final;
            svc.litmusFaults = true;
            svc.litmusIters = kLitmusIters;
            svc.config = "svc_Final";
            svc.id = "litmus/" + shape + "/svc_Final";
            items.push_back(svc);
            SweepItem arb = svc;
            arb.litmusBackend = litmus::Backend::Arb;
            arb.litmusFaults = false;
            arb.config = "arb";
            arb.id = "litmus/" + shape + "/arb";
            items.push_back(std::move(arb));
        }
    }

    PassResult
    pass(TraceData *td) override
    {
        Tracer *t = td ? &td->tracer : nullptr;
        PassResult out;
        for (std::size_t i = 0; i < items.size(); ++i) {
            PartTimer part(out);
            const SweepItem &it = items[i];
            ItemResult r;
            if (it.kind == SweepItem::Recovery) {
                std::uint64_t cycles = 0;
                r = runRecoveryCell(it, programs[i], td, cycles);
                out.simCycles += cycles;
            } else {
                const litmus::LitmusTest *test =
                    litmus::findShape(it.workload);
                if (!test)
                    fatal("perfbench: unknown litmus shape '%s'",
                          it.workload.c_str());
                litmus::EngineConfig cfg;
                cfg.backend = it.litmusBackend;
                cfg.design = it.litmusDesign;
                cfg.iterations = it.litmusIters;
                cfg.seed = it.seed;
                cfg.faultMode = it.litmusFaults
                                    ? litmus::FaultMode::Mix
                                    : litmus::FaultMode::None;
                {
                    Scope s(t, Layer::Litmus, "litmus.run_shape", it.id);
                    r.litmus = litmus::runShape(*test, cfg);
                }
                if (td) {
                    {
                        // The oracle runs inside runShape too; timing
                        // it needs a separate call from outside.
                        Scope s(t, Layer::LitmusOracle, "litmus.oracle",
                                it.id);
                        litmus::enumerateScOutcomes(*test);
                    }
                    td->counts["litmus.iterations"] +=
                        static_cast<double>(r.litmus.iterations);
                    td->counts["faults.injected"] +=
                        static_cast<double>(r.litmus.injected);
                    td->counts["recovery.episodes"] +=
                        static_cast<double>(r.litmus.episodes);
                }
            }
            out.add(service::renderRow(it, r),
                    service::rowFailure(it, r));
        }
        return out;
    }

  private:
    std::uint64_t seed;
    std::vector<SweepItem> items;
    /** Kernel of each recovery cell; those cells lead items. */
    std::vector<workloads::Workload> programs;
};

// ---------------------------------------------------------------
// campaign
// ---------------------------------------------------------------

class Campaign : public Workload
{
  public:
    Campaign(std::uint64_t s, const std::string &workdir)
        : seed(s), dir(workdir)
    {}

    void
    setup() override
    {
        cfg = service::ServiceConfig{};
        cfg.journalPath = dir + "/campaign.journal";
        cfg.quarantinePrefix = dir + "/campaign";
        cfg.grid = "fig19";
        cfg.scale = kCampaignScale;
        cfg.stim = seededStimulus(seed);
        cfg.workers = kCampaignWorkers;
        cfg.isolation = service::Isolation::Process;
        cfg.sliceCycles = kCampaignQuantum;
        items = service::buildGrid(cfg.grid, cfg.scale, cfg.stim);
        stimuli.clear();
        for (const SweepItem &it : items)
            stimuli.push_back(bench::kernel(it.workload, it.scale, it.seed));
    }

    PassResult
    pass(TraceData *td) override
    {
        PassResult out;
        Tracer *t = td ? &td->tracer : nullptr;
        std::vector<std::string> rows;
        {
            // Jobs overlap, so the whole campaign is one part.
            PartTimer part(out);
            Scope s(t, Layer::Service, "service.campaign", "campaign");
            rows = runCampaign(out, td);
        }
        if (td && rows.size() == items.size())
            tracedPhases(rows, out, *td);
        return out;
    }

  private:
    /** One closed-loop campaign over a fresh journal. */
    std::vector<std::string>
    runCampaign(PassResult &out, TraceData *td)
    {
        ::unlink(cfg.journalPath.c_str());
        service::SweepService svc(cfg);
        std::string err;
        if (!svc.start(err))
            fatal("perfbench: campaign start failed: %s", err.c_str());
        const bool drained = svc.drain();
        const service::ServiceCounters &c = svc.counters();
        std::vector<std::string> rows = svc.completedRows();
        for (const std::string &row : rows) {
            out.simCycles += rowCycles(row);
            out.add(row, "");
        }
        out.failed += svc.failedJobs();
        out.failures.resize(out.failures.size() + svc.failedJobs(),
                            "campaign job completed with a failed row");
        // Quarantined or never-finished jobs have no row: count them
        // as attempted and failed.
        const std::uint64_t missing = items.size() - rows.size();
        out.attempted += missing;
        out.failed += missing;
        if (missing > 0 || !drained || svc.crashed()) {
            out.failures.push_back(
                "campaign did not complete every job (" +
                std::to_string(c.quarantined) + " quarantined; " +
                (svc.crashed() ? svc.crashReason() : "no crash") + ")");
        }
        if (td) {
            td->counts["service.retries"] += static_cast<double>(c.retries);
            td->counts["service.process_attempts"] +=
                static_cast<double>(c.processAttempts);
        }
        return rows;
    }

    /**
     * The traced-only measurements: per-item process attempts, the
     * same items in-process, checkpoint save/restore at the
     * campaign's quantum, and the campaign's journal sequence. Each
     * re-derives the campaign's rows and must match them.
     */
    void
    tracedPhases(const std::vector<std::string> &rows, PassResult &out,
                 TraceData &td)
    {
        Tracer *t = &td.tracer;
        service::WorkerSupervisor sup;
        for (std::size_t i = 0; i < items.size(); ++i) {
            const SweepItem &it = items[i];
            double attempt_s = 0.0, inproc_s = 0.0;
            {
                Scope s(t, Layer::Service, "service.attempt", it.id);
                const auto t0 = std::chrono::steady_clock::now();
                const service::ProcessOutcome po = sup.runAttempt(
                    it, i, 1, service::InducedFault::None,
                    cfg.processLimits, cfg.sliceCycles, 0);
                attempt_s = secondsSince(t0);
                check(po.cls == service::ExitClass::CleanExit &&
                          po.rowJson == rows[i],
                      it.id, "process attempt row differs", out);
            }
            {
                Scope s(t, Layer::Inproc, "inproc.run_sliced", it.id);
                const auto t0 = std::chrono::steady_clock::now();
                std::vector<std::uint8_t> image;
                bench::SliceBudget budget;
                budget.sliceCycles = cfg.sliceCycles;
                budget.resumeImage = &image;
                bench::SliceOutcome oc = bench::SliceOutcome::Preempted;
                ItemResult r;
                while (oc == bench::SliceOutcome::Preempted)
                    r = service::runItemSliced(it, budget, oc);
                inproc_s = secondsSince(t0);
                check(service::renderRow(it, r) == rows[i], it.id,
                      "in-process row differs", out);
            }
            td.samples["service.attempt"].add(attempt_s);
            td.samples["service.isolation_overhead"].add(attempt_s -
                                                         inproc_s);
            check(snapshotRun(it, *stimuli[i], td) == rows[i], it.id,
                  "checkpointed row differs", out);
        }
        journalSequence(rows, td);
    }

    /** Run @p it saving and restoring into fresh components at every
     *  quantum, as the service's preemption does. */
    std::string
    snapshotRun(const SweepItem &it, const workloads::StimulusSource &stim,
                TraceData &td)
    {
        Tracer *t = &td.tracer;
        const Layer backend = backendLayer(it.memKind);
        const MultiscalarConfig cpu_cfg = bench::paperCpuConfig();
        const std::string desc = stim.name() + "/" +
                                 std::to_string(stim.scale()) + "/" +
                                 std::to_string(stim.seed()) + "/" +
                                 it.memKind;
        const std::uint64_t cfg_hash = checkpointConfigHash(
            cpu_cfg, it.memKind, snapshotFnv1a(desc.data(), desc.size()));

        struct Parts
        {
            std::unique_ptr<MainMemory> mem;
            std::unique_ptr<SpecMem> sys;
            std::unique_ptr<TimingSpecMem> port;
            std::unique_ptr<Processor> cpu;
        };
        auto build = [&] {
            Parts p;
            p.mem = std::make_unique<MainMemory>();
            {
                Scope s(t, backend);
                p.sys = makeSpecMem(it.memKind, it.cfg, *p.mem);
            }
            p.port = std::make_unique<TimingSpecMem>(
                *p.sys, *t, backend, Layer::Multiscalar,
                callsFor(td, backend));
            stim.loadInitialImage(*p.mem);
            Scope s(t, Layer::Multiscalar);
            p.cpu = std::make_unique<Processor>(cpu_cfg, *stim.program(),
                                                *p.port);
            return p;
        };
        Parts cur = build();
        constexpr Cycle kQuiesceWindow = 50'000;
        {
            Scope s(t, Layer::Multiscalar, "multiscalar.run", it.id);
            while (!cur.cpu->done() && cur.cpu->now() < cpu_cfg.maxCycles) {
                const Cycle slice_end = cur.cpu->now() + cfg.sliceCycles;
                while (!cur.cpu->done() && cur.cpu->now() < slice_end)
                    cur.cpu->tick();
                Cycle extra = 0;
                while (extra < kQuiesceWindow && !cur.cpu->done() &&
                       !cur.cpu->checkpointQuiescent()) {
                    cur.cpu->tick();
                    ++extra;
                }
                if (cur.cpu->done() || !cur.cpu->checkpointQuiescent())
                    continue;
                std::vector<std::uint8_t> image;
                std::string err;
                double save_s = 0.0, restore_s = 0.0;
                {
                    Scope sv(t, Layer::Snapshot, "snapshot.save", it.id);
                    const auto t0 = std::chrono::steady_clock::now();
                    if (!saveCheckpoint(*cur.cpu, *cur.port, *cur.mem,
                                        nullptr, cfg_hash, false, image,
                                        err))
                        fatal("perfbench: checkpoint save: %s", err.c_str());
                    save_s = secondsSince(t0);
                }
                Parts next = build();
                {
                    Scope rs(t, Layer::Snapshot, "snapshot.restore", it.id);
                    const auto t0 = std::chrono::steady_clock::now();
                    if (!restoreCheckpoint(image, *next.cpu, *next.port,
                                           *next.mem, nullptr, cfg_hash,
                                           err))
                        fatal("perfbench: checkpoint restore: %s",
                              err.c_str());
                    restore_s = secondsSince(t0);
                }
                td.samples["snapshot.save"].add(save_s);
                td.samples["snapshot.restore"].add(restore_s);
                td.samples["snapshot.image_bytes"].add(
                    static_cast<double>(image.size()));
                // Tear down in reverse dependency order: processor,
                // decorator, memory system, then main memory.
                cur.cpu.reset();
                cur.port.reset();
                cur.sys.reset();
                cur.mem.reset();
                cur = std::move(next);
            }
        }
        const RunStats rs = cur.cpu->currentStats();
        cur.port->finalizeMemory();
        ItemResult r;
        r.row.workload = stim.name();
        r.row.memSystem = cur.port->name();
        r.row.scale = stim.scale();
        r.row.seed = stim.seed();
        r.row.ipc = rs.ipc;
        r.row.instructions = rs.committedInstructions;
        r.row.cycles = rs.cycles;
        r.row.violationSquashes = rs.violationSquashes;
        r.row.taskMispredicts = rs.taskMispredicts;
        r.row.verified =
            cur.mem->readWord(stim.checkBase()) ==
            referenceChecksum(*stim.program(), stim.checkBase(),
                              stim.name(), t);
        fillMemStats(r.row, *cur.port, nullptr);
        return service::renderRow(it, r);
    }

    /** The campaign's CAMP/SUBM/STRT/CMPL journal sequence. */
    void
    journalSequence(const std::vector<std::string> &rows, TraceData &td)
    {
        Tracer *t = &td.tracer;
        const std::string path = dir + "/journal-bench.journal";
        ::unlink(path.c_str());
        service::JobJournal j;
        std::string err;
        if (!j.open(path, err))
            fatal("perfbench: %s", err.c_str());
        Samples &lat = td.samples["journal.append"];
        auto timed = [&](const char *what, auto &&append) {
            Scope s(t, Layer::Journal);
            const auto t0 = std::chrono::steady_clock::now();
            if (!append())
                fatal("perfbench: journal %s append: %s", what, err.c_str());
            lat.add(secondsSince(t0));
        };
        service::CampaignSpec spec;
        spec.grid = cfg.grid;
        spec.scale = cfg.scale;
        spec.seed = cfg.stim.seed;
        spec.seedSet = true;
        spec.itemCount = items.size();
        spec.gridFingerprint = service::gridFingerprint(items);
        timed("CAMP", [&] { return j.appendCampaign(spec, err); });
        for (std::size_t i = 0; i < items.size(); ++i) {
            timed("SUBM", [&] {
                return j.appendSubmit(i, items[i].id,
                                      service::Lane::Normal, err);
            });
            timed("STRT", [&] { return j.appendStart(i, 1, err); });
            timed("CMPL", [&] {
                return j.appendComplete(i, false, rows[i], err);
            });
        }
        j.close();
        ::unlink(path.c_str());
    }

    /** One traced cross-check, counted as an attempted operation. */
    static void
    check(bool ok, const std::string &id, const char *what,
          PassResult &out)
    {
        ++out.attempted;
        if (!ok) {
            ++out.failed;
            out.failures.push_back(id + ": " + what);
        }
    }

    std::uint64_t seed;
    std::string dir;
    service::ServiceConfig cfg;
    std::vector<SweepItem> items;
    std::vector<std::unique_ptr<workloads::StimulusSource>> stimuli;
};

} // namespace

double
cpuSeconds()
{
    double s = 0.0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
    }
    return s;
}

void
PassResult::add(const std::string &row, const std::string &failure)
{
    rows.push_back(row);
    ++attempted;
    if (!failure.empty()) {
        ++failed;
        failures.push_back(failure);
    }
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed,
             const std::string &workdir)
{
    if (name == "fig19-serial")
        return std::make_unique<Fig19Serial>(seed);
    if (name == "svc-replay")
        return std::make_unique<SvcReplay>(seed, workdir);
    if (name == "rails")
        return std::make_unique<Rails>(seed);
    if (name == "campaign")
        return std::make_unique<Campaign>(seed, workdir);
    return nullptr;
}

bench::BenchRow
runProgram(const SweepItem &it, const workloads::StimulusSource &stim,
           TraceData *td)
{
    Tracer *t = td ? &td->tracer : nullptr;
    const Layer backend = backendLayer(it.memKind);
    MainMemory mem;
    std::unique_ptr<SpecMem> sys;
    {
        Scope s(t, backend);
        sys = makeSpecMem(it.memKind, it.cfg, mem);
    }
    std::unique_ptr<TimingSpecMem> timed;
    SpecMem *port = sys.get();
    if (td) {
        timed = std::make_unique<TimingSpecMem>(
            *sys, *t, backend, Layer::Multiscalar, callsFor(*td, backend));
        port = timed.get();
    }
    {
        Scope s(t, Layer::Workloads);
        stim.loadInitialImage(mem);
    }
    RunStats rs;
    {
        Scope s(t, Layer::Multiscalar, "multiscalar.run", it.id);
        Processor cpu(bench::paperCpuConfig(), *stim.program(), *port);
        rs = cpu.run();
        noteProcessor(cpu, rs, td);
    }
    port->finalizeMemory();

    bench::BenchRow row;
    row.workload = stim.name();
    row.memSystem = port->name();
    row.kind = "program";
    row.scale = stim.scale();
    row.seed = stim.seed();
    row.ipc = rs.ipc;
    row.instructions = rs.committedInstructions;
    row.cycles = rs.cycles;
    row.violationSquashes = rs.violationSquashes;
    row.taskMispredicts = rs.taskMispredicts;
    row.verified = mem.readWord(stim.checkBase()) ==
                   referenceChecksum(*stim.program(), stim.checkBase(),
                                     it.id, t);
    fillMemStats(row, *port, td);
    return row;
}

bench::BenchRow
runStream(const SweepItem &it, const workloads::StimulusSource &stim,
          std::uint64_t oracle_hash, std::uint64_t oracle_mem_hash,
          TraceData *td)
{
    Tracer *t = td ? &td->tracer : nullptr;
    const Layer backend = backendLayer(it.memKind);
    MainMemory mem;
    std::unique_ptr<SpecMem> sys;
    {
        Scope s(t, backend);
        sys = makeSpecMem(it.memKind, it.cfg, mem);
    }
    std::unique_ptr<TimingSpecMem> timed;
    SpecMem *port = sys.get();
    if (td) {
        timed = std::make_unique<TimingSpecMem>(
            *sys, *t, backend, Layer::Replay, callsFor(*td, backend));
        port = timed.get();
    }
    std::unique_ptr<workloads::AccessStream> stream;
    {
        Scope s(t, Layer::TraceIo);
        stim.loadInitialImage(mem);
        stream = stim.openStream();
    }
    trace_io::ReplayResult res;
    {
        const bench::RunConfig defaults;
        trace_io::ReplayConfig rcfg;
        rcfg.numPus = defaults.replayPus;
        rcfg.interleaveSeed = defaults.replaySeed;
        Scope s(t, Layer::Replay, "replay.stream", it.id);
        res = trace_io::replayStream(*stream, *port, rcfg);
    }
    port->finalizeMemory();

    bench::BenchRow row;
    row.workload = stim.name();
    row.memSystem = port->name();
    row.kind = "stream";
    row.scale = stim.scale();
    row.seed = stim.seed();
    row.ops = res.ops;
    row.instructions = res.ops;
    row.cycles = res.ticks;
    row.ipc = res.ticks ? static_cast<double>(res.ops) /
                              static_cast<double>(res.ticks)
                        : 0.0;
    row.violationSquashes = res.squashes;
    row.loadValueHash = res.loadValueHash;
    row.loadMismatches = res.loadMismatches;
    const workloads::StimulusExpectations exp = stim.expectations();
    const std::uint64_t mem_hash = mem.hashAll();
    row.verified = res.ok && res.loadMismatches == 0 &&
                   exp.hasLoadValueHash &&
                   res.loadValueHash == exp.loadValueHash &&
                   (!exp.hasFinalMemoryHash ||
                    mem_hash == exp.finalMemoryHash) &&
                   res.loadValueHash == oracle_hash &&
                   mem_hash == oracle_mem_hash;
    if (!row.verified)
        warn("perfbench: replay of %s on %s failed verification",
             stim.name().c_str(), port->name());
    fillMemStats(row, *port, td);
    return row;
}

ItemResult
runRecoveryCell(const SweepItem &it, const workloads::Workload &w,
                TraceData *td, std::uint64_t &cycles)
{
    Tracer *t = td ? &td->tracer : nullptr;
    ItemResult r;
    const std::uint32_t ref_checksum =
        referenceChecksum(w.program, w.checkBase, it.id, t);
    const SvcConfig svc_cfg = bench::paperSvcConfig(8);
    cycles = 0;

    // Every SVC call goes through a TimingSpecMem when traced; the
    // recovery manager keeps the concrete SvcSystem it needs.
    auto port_for = [&](SvcSystem &sys) -> std::unique_ptr<SpecMem> {
        if (!td)
            return nullptr;
        return std::make_unique<TimingSpecMem>(
            sys, *t, Layer::Svc, Layer::Multiscalar, td->svcCalls);
    };

    // Fault-free reference: the denominator of the IPC cost.
    {
        MainMemory mem;
        SvcSystem sys(svc_cfg, mem);
        const auto port = port_for(sys);
        w.program.loadInto(mem);
        Scope s(t, Layer::Multiscalar, "multiscalar.run", it.id);
        Processor cpu(bench::paperCpuConfig(), w.program,
                      port ? *port : static_cast<SpecMem &>(sys));
        const RunStats rs = cpu.run();
        noteProcessor(cpu, rs, td);
        sys.finalizeMemory();
        r.refIpc = rs.ipc;
        cycles += rs.cycles;
    }

    MainMemory mem;
    SvcSystem sys(svc_cfg, mem);
    const auto port = port_for(sys);
    FaultConfig fcfg;
    fcfg.seed = it.seed * 7919 + 1;
    FaultInjector inj(fcfg);
    InvariantEngine eng;
    if (td) {
        // SvcSystem::attachInvariants, with each checker wrapped.
        auto wrap = [&](std::unique_ptr<InvariantChecker> c) {
            eng.addChecker(std::make_unique<TimedChecker>(
                std::move(c), *t, td->checkerCalls));
        };
        wrap(std::make_unique<SvcProtocolChecker>(sys.protocol()));
        wrap(std::make_unique<SvcSystemChecker>(sys));
        wrap(std::make_unique<SvcLostWakeupChecker>(sys));
        sys.attachTracer(&eng);
    } else {
        sys.attachInvariants(eng);
    }
    w.program.loadInto(mem);
    Processor cpu(bench::paperCpuConfig(), w.program,
                  port ? *port : static_cast<SpecMem &>(sys));
    RecoveryConfig rcfg;
    rcfg.policy = it.policy;
    RecoveryManager rm(rcfg, cpu, sys, mem, eng, nullptr, 0x5ecu);
    SvcCorruptor corruptor(sys.protocol(), inj);

    struct Event
    {
        Cycle at;
        bool fired = false;
    };
    std::vector<Event> schedule;
    const Cycle first = 300 + (it.seed % 5) * 137;
    for (unsigned i = 0; i < it.corruptions; ++i)
        schedule.push_back({first + i * 400});
    cpu.setTickHook([&](Cycle at) {
        Scope s(t, Layer::Recovery);
        for (Event &e : schedule) {
            if (e.fired || at < e.at)
                continue;
            if (corruptor.corrupt(it.faultKind).injected) {
                e.fired = true;
                ++r.injectedCount;
                // Detect before first use, as the recovery grid does.
                eng.runChecks(at);
            }
            break;
        }
        rm.onTick(at);
    });

    RunStats rs;
    {
        Scope s(t, Layer::Multiscalar, "multiscalar.run", it.id);
        rs = cpu.run();
        noteProcessor(cpu, rs, td);
    }
    sys.finalizeMemory();
    {
        Scope s(t, Layer::Recovery);
        eng.runFinalChecks();
    }
    cycles += rs.cycles;

    r.ipc = rs.ipc;
    r.episodes = rm.nEpisodes;
    r.repairs = rm.nLineRepairs;
    r.replays = rm.nTaskReplays;
    r.rollbacks = rm.nRollbacks;
    r.degraded = rm.degraded();
    r.highestStage = rm.highestStageReached();
    r.recovered = rs.halted && eng.clean() &&
                  mem.readWord(w.checkBase) == ref_checksum;
    if (td) {
        auto &c = td->counts;
        c["recovery.episodes"] += static_cast<double>(r.episodes);
        c["recovery.task_replays"] += static_cast<double>(r.replays);
        c["recovery.rollbacks"] += static_cast<double>(r.rollbacks);
        c["faults.injected"] += static_cast<double>(r.injectedCount);
    }
    return r;
}

std::uint64_t
rowsDigest(const std::vector<std::string> &rows)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::string &row : rows) {
        h = snapshotFnv1a(row.data(), row.size(), h);
        const char sep = '\n';
        h = snapshotFnv1a(&sep, 1, h);
    }
    return h;
}

} // namespace svc::perfbench
