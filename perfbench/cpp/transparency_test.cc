/**
 * @file
 * Decorator transparency: the benchmark's timing wrappers (the
 * TimingSpecMem decorator and the TimedChecker invariant wrappers)
 * must not change what the simulator computes. For one kernel on
 * each of svc and arb, a decorated run must leave the bench row, the
 * full StatSet::format text and the recorded SVCTRC1 bytes identical
 * to an undecorated run; and the benchmark's own run helpers must
 * render the same rows as the repository's bench::runOn /
 * service::runItem paths they mirror.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>

#include "bench/harness.hh"
#include "common/invariants.hh"
#include "mem/main_memory.hh"
#include "passes.hh"
#include "service/grid.hh"
#include "svc/invariants.hh"
#include "svc/system.hh"
#include "trace_io/trace_reader.hh"
#include "trace_io/trace_recorder.hh"

using namespace svc;
using namespace svc::perfbench;

namespace
{

constexpr unsigned kScale = 1;
constexpr std::uint64_t kSeed = 3;

service::SweepItem
kernelItem(const std::string &mem_kind)
{
    service::SweepItem it;
    it.memKind = mem_kind;
    it.workload = "compress";
    it.scale = kScale;
    it.seed = kSeed;
    if (mem_kind == "arb") {
        it.cfg.arb = bench::paperArbConfig(32, 2);
        it.config = "arb32k_lat2";
    } else {
        it.cfg.svc = bench::paperSvcConfig(8);
        it.config = "svc8k_final";
    }
    it.id = "transparency/compress/" + it.config;
    return it;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

struct Observed
{
    std::string row;
    std::string stats;
    std::string trace;
};

/**
 * Run @p it through the full processor with the committed traffic
 * recorded, optionally with the backend wrapped in a TimingSpecMem
 * and the invariant checkers in TimedCheckers.
 */
Observed
observe(const service::SweepItem &it, bool decorate, const std::string &tag)
{
    const auto stim = bench::kernel(it.workload, it.scale, it.seed);
    Tracer tracer;
    SpecMemCounts counts;
    std::uint64_t checker_calls = 0;

    MainMemory mem;
    std::unique_ptr<SpecMem> sys = makeSpecMem(it.memKind, it.cfg, mem);
    InvariantEngine eng;
    if (auto *svc_sys = dynamic_cast<SvcSystem *>(sys.get())) {
        if (decorate) {
            eng.addChecker(std::make_unique<TimedChecker>(
                std::make_unique<SvcProtocolChecker>(svc_sys->protocol()),
                tracer, checker_calls));
            eng.addChecker(std::make_unique<TimedChecker>(
                std::make_unique<SvcSystemChecker>(*svc_sys), tracer,
                checker_calls));
            eng.addChecker(std::make_unique<TimedChecker>(
                std::make_unique<SvcLostWakeupChecker>(*svc_sys), tracer,
                checker_calls));
            svc_sys->attachTracer(&eng);
        } else {
            svc_sys->attachInvariants(eng);
        }
    }
    if (decorate) {
        sys = std::make_unique<TimingSpecMem>(
            std::move(sys), tracer,
            it.memKind == "arb" ? Layer::Arb : Layer::Svc,
            Layer::Multiscalar, counts);
    }
    trace_io::RecordingSpecMem rec(std::move(sys), 4);
    stim->loadInitialImage(mem);
    rec.captureInitialImage(mem);
    Processor cpu(bench::paperCpuConfig(), *stim->program(), rec);
    const RunStats rs = cpu.run();
    rec.finalizeMemory();
    eng.runFinalChecks();

    Observed o;
    o.stats = cpu.stats().format() + eng.stats().format();
    if (decorate) {
        EXPECT_GT(counts.issueAccepted, 0u);
        if (it.memKind == "svc") {
            EXPECT_GT(checker_calls, 0u);
        }
    }
    EXPECT_TRUE(eng.clean()) << eng.formatReport();

    trace_io::TraceMeta meta;
    meta.name = stim->name();
    meta.source = "kernel";
    meta.scale = stim->scale();
    meta.seed = stim->seed();
    meta.checkBase = stim->checkBase();
    meta.checkLen = stim->checkLen();
    meta.finalChecksum = mem.readWord(stim->checkBase());
    const std::string path = ::testing::TempDir() + "perfbench-" + tag +
                             "-" + it.memKind + ".svctrc";
    std::string err;
    EXPECT_TRUE(rec.writeTrace(path, meta, mem, err)) << err;
    o.trace = readFile(path);
    std::remove(path.c_str());

    service::ItemResult r;
    r.row.cycles = rs.cycles;
    r.row.instructions = rs.committedInstructions;
    r.row.ipc = rs.ipc;
    o.row = service::renderRow(it, r);
    return o;
}

class Transparency : public ::testing::TestWithParam<const char *>
{};

TEST_P(Transparency, DecoratorsLeaveRowsStatsAndTraceBytesIdentical)
{
    const service::SweepItem it = kernelItem(GetParam());
    const Observed plain = observe(it, false, "plain");
    const Observed timed = observe(it, true, "timed");
    EXPECT_EQ(plain.row, timed.row);
    EXPECT_EQ(plain.stats, timed.stats);
    ASSERT_FALSE(plain.trace.empty());
    EXPECT_TRUE(plain.trace == timed.trace)
        << "SVCTRC1 bytes differ under the timing decorator";
}

TEST_P(Transparency, ProgramRunMatchesBenchRunOn)
{
    const service::SweepItem it = kernelItem(GetParam());
    const auto stim = bench::kernel(it.workload, it.scale, it.seed);
    service::ItemResult ref, plain, traced;
    ref.row = bench::runOn(*stim, [&] {
        bench::RunConfig rc;
        rc.memKind = it.memKind;
        rc.mem = it.cfg;
        return rc;
    }());
    plain.row = runProgram(it, *stim, nullptr);
    TraceData td;
    traced.row = runProgram(it, *stim, &td);
    ASSERT_TRUE(ref.row.verified);
    EXPECT_EQ(service::renderRow(it, ref), service::renderRow(it, plain));
    EXPECT_EQ(service::renderRow(it, ref), service::renderRow(it, traced));
    EXPECT_EQ(ref.row.busOccupancy, traced.row.busOccupancy);
    EXPECT_EQ(ref.row.missLatency, traced.row.missLatency);
}

INSTANTIATE_TEST_SUITE_P(Backends, Transparency,
                         ::testing::Values("svc", "arb"));

TEST(Transparency, StreamRunMatchesBenchRunOn)
{
    workloads::TraceGenConfig gen;
    gen.numTasks = 64;
    gen.seed = kSeed;
    const auto generated = workloads::makeGeneratedStimulus(gen);
    const std::string path =
        ::testing::TempDir() + "perfbench-stream.svctrc";
    bench::RunConfig rc = bench::svcRun(bench::paperSvcConfig(8));
    rc.recordPath = path;
    ASSERT_TRUE(bench::runOn(*generated, rc).verified);

    std::string err;
    const auto stim = trace_io::makeTraceStimulus(path, err);
    ASSERT_TRUE(stim) << err;
    MainMemory oracle_mem;
    stim->loadInitialImage(oracle_mem);
    const auto oracle =
        workloads::runStreamSequential(*stim->openStream(), oracle_mem);

    service::SweepItem it;
    it.memKind = "svc";
    it.workload = "trace";
    it.tracePath = path;
    it.cfg.svc = bench::paperSvcConfig(8, SvcDesign::HR);
    it.config = "svc8k_HR";
    it.id = "transparency/trace/svc8k_HR";
    service::ItemResult ref, traced;
    ref.row = bench::runOn(*stim, bench::svcRun(it.cfg.svc));
    TraceData td;
    traced.row = runStream(it, *stim, oracle.loadValueHash,
                           oracle_mem.hashAll(), &td);
    std::remove(path.c_str());
    ASSERT_TRUE(ref.row.verified);
    EXPECT_EQ(service::renderRow(it, ref), service::renderRow(it, traced));
    EXPECT_GT(td.svcCalls.issueAccepted, 0u);
}

TEST(Transparency, RecoveryCellMatchesServiceRunItem)
{
    service::SweepItem it;
    it.kind = service::SweepItem::Recovery;
    it.workload = "compress";
    it.scale = kScale;
    it.seed = kSeed;
    it.faultKind = FaultKind::CorruptMask;
    it.policy = RecoveryPolicy::Degrade;
    it.corruptions = 2;
    it.id = "transparency/recovery";
    workloads::WorkloadParams wp;
    wp.scale = it.scale;
    wp.seed = it.seed;
    const workloads::Workload w = workloads::lookup(it.workload, wp);

    const std::string ref = service::renderRow(it, service::runItem(it));
    std::uint64_t cycles = 0;
    const std::string plain =
        service::renderRow(it, runRecoveryCell(it, w, nullptr, cycles));
    TraceData td;
    const std::string traced =
        service::renderRow(it, runRecoveryCell(it, w, &td, cycles));
    EXPECT_EQ(ref, plain);
    EXPECT_EQ(ref, traced);
    EXPECT_GT(cycles, 0u);
    EXPECT_GT(td.checkerCalls, 0u);
}

} // namespace
