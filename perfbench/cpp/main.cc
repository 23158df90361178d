/**
 * @file
 * svcbench: runs one benchmark workload for a fixed time and prints
 * one JSON document with its metrics.
 *
 *   svcbench --workload NAME --seed N --seconds S --trace 0|1
 *            --workdir DIR
 *
 * Set-up is repeated before every untraced pass and its median
 * reported. Passes repeat until S seconds have passed (at least
 * kMinPasses).
 * A pass is timed in sequential parts (one per run item, or the
 * whole campaign), and wall_s / cpu_s sum each part's fastest time
 * over the run's passes. With --trace 1 the first half
 * of the time runs untraced passes (the overhead baseline) and the
 * second half traced passes, which yield the per-layer metrics; the
 * Chrome trace of the traced spans is written to DIR. Every pass
 * must render the same result rows; any failed or differing row
 * makes "correct" false.
 */

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "passes.hh"

using namespace svc;
using namespace svc::perfbench;

namespace
{

/** Each round of set-up repeats at least once, and while the round
 *  totals under kSetupRoundSeconds (up to kMaxSetupRoundReps), so a
 *  cheap set-up's median rests on many samples. */
constexpr std::size_t kMaxSetupRoundReps = 20;
constexpr double kSetupRoundSeconds = 0.02;
constexpr std::size_t kMinPasses = 3;

using Clock = std::chrono::steady_clock;

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Peak resident memory of this process and of its largest reaped
 * child, in MB. The process's own peak is VmHWM, not ru_maxrss: the
 * latter survives exec and would report the launching interpreter's
 * footprint.
 */
double
maxRssMb()
{
    long self_kb = 0;
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof(line), f)) {
            if (std::sscanf(line, "VmHWM: %ld kB", &self_kb) == 1)
                break;
        }
        std::fclose(f);
    }
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    return static_cast<double>(std::max(self_kb, kids.ru_maxrss)) / 1024.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "svcbench: %s\nusage: svcbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --workdir DIR\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v, &end, 10);
            if (*v == '\0' || *end != '\0')
                usage("--seed must be a non-negative integer");
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v, &end);
            if (*v == '\0' || *end != '\0' || !(o.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace must be 0 or 1");
            o.trace = v[0] == '1';
        } else if (a == "--workdir") {
            o.workdir = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
    }
    if (!makeWorkload(o.workload, o.seed, o.workdir))
        usage(("unknown workload '" + o.workload + "'").c_str());
    return o;
}

/** One round of timed set-ups; @return the last workload built. */
std::unique_ptr<Workload>
setUpRound(const Options &o, std::vector<double> &samples)
{
    std::unique_ptr<Workload> wl;
    double spent = 0.0;
    for (std::size_t i = 0;
         i == 0 || (spent < kSetupRoundSeconds && i < kMaxSetupRoundReps);
         ++i) {
        const auto t0 = Clock::now();
        wl = makeWorkload(o.workload, o.seed, o.workdir);
        wl->setup();
        samples.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        spent += samples.back();
    }
    return wl;
}

/** Accumulates pass outcomes and checks they agree. */
struct Run
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    bool haveDigest = false;
    std::uint64_t digest = 0;
    std::uint64_t simCycles = 0;
    std::size_t items = 0;

    void
    note(const PassResult &p, const char *kind)
    {
        attempted += p.attempted;
        failed += p.failed;
        for (const std::string &f : p.failures) {
            if (failures.size() < 16)
                failures.push_back(f);
        }
        const std::uint64_t d = rowsDigest(p.rows);
        if (!haveDigest) {
            haveDigest = true;
            digest = d;
            simCycles = p.simCycles;
            items = p.rows.size();
        } else if (d != digest || p.simCycles != simCycles) {
            ++failed;
            failures.push_back(std::string(kind) +
                               " pass rendered different result rows");
        }
    }
};

/** Pass times: whole passes, and each part across passes. */
struct Timed
{
    std::vector<double> wall;
    std::vector<std::vector<double>> partWall, partCpu;

    /**
     * Sum over parts of each part's fastest time: the pass time with
     * host interference filtered out. Interference from co-tenant
     * load only ever adds time and comes in regimes that last tens
     * of seconds, so per-part medians flip between a run that saw a
     * quiet host and one that did not, while each part's fastest
     * repeat (a part takes milliseconds) stays close to the
     * undisturbed time. Runs are compared by the median across runs.
     */
    static double
    sumOfMinima(const std::vector<std::vector<double>> &parts)
    {
        double sum = 0.0;
        for (const std::vector<double> &p : parts)
            sum += *std::min_element(p.begin(), p.end());
        return sum;
    }
};

PassResult
timedPass(Workload &wl, TraceData *td, Timed &t)
{
    const auto t0 = Clock::now();
    PassResult p = wl.pass(td);
    t.wall.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    t.partWall.resize(p.partWall.size());
    t.partCpu.resize(p.partCpu.size());
    for (std::size_t i = 0; i < p.partWall.size(); ++i) {
        t.partWall[i].push_back(p.partWall[i]);
        t.partCpu[i].push_back(p.partCpu[i]);
    }
    return p;
}

void
metric(JsonWriter &w, const std::string &name, double value,
       const char *unit)
{
    w.key(name);
    w.beginObject();
    w.member("value", value);
    w.member("unit", unit);
    w.endObject();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
count(const TraceData &td, const std::string &k)
{
    const auto it = td.counts.find(k);
    return it == td.counts.end() ? 0.0 : it->second;
}

const Samples &
samples(const TraceData &td, const std::string &k)
{
    static const Samples none;
    const auto it = td.samples.find(k);
    return it == td.samples.end() ? none : it->second;
}

/** Median, tail, tail percentile and count of one set of timings. */
void
timingMetrics(JsonWriter &w, const std::string &prefix, const Samples &s)
{
    metric(w, prefix + "_p50_s", s.median(), "s");
    metric(w, prefix + "_tail_s", s.tail(), "s");
    metric(w, prefix + "_tail_pct",
           s.values.empty() ? 0.0 : tailPercentileFor(s.count()), "%");
    metric(w, prefix + "_n", static_cast<double>(s.count()), "count");
}

/** Percentile @p p of the merged bus-occupancy histogram. */
double
occupancyPercentile(const TraceData &td, double p)
{
    std::uint64_t total = 0;
    for (const auto &[lo, n] : td.busOccupancy)
        total += n;
    if (total == 0)
        return 0.0;
    const double want = p / 100.0 * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (const auto &[lo, n] : td.busOccupancy) {
        seen += n;
        if (static_cast<double>(seen) >= want)
            return lo;
    }
    return td.busOccupancy.rbegin()->first;
}

/** The per-layer metrics of @p passes traced passes;
 *  @p untraced_wall is the median untraced pass time. */
void
layerMetrics(JsonWriter &w, const TraceData &td, double passes,
             double untraced_wall)
{
    const Tracer &tr = td.tracer;
    auto per_pass = [&](double v) { return v / passes; };
    auto self = [&](Layer l) { return per_pass(tr.selfSeconds(l)); };
    const double cycles = per_pass(count(td, "multiscalar.cycles"));

    // Self time of every layer. They sum to trace.wall_s, the traced
    // pass time as the tracer saw it; trace.unattributed_s is the
    // share no layer claims.
    for (int l = 0; l < static_cast<int>(Layer::Count); ++l) {
        metric(w, layerSelfMetric(static_cast<Layer>(l)),
               self(static_cast<Layer>(l)), "s");
    }
    const double traced_wall = per_pass(tr.totalSeconds());
    metric(w, "trace.wall_s", traced_wall, "s");
    metric(w, "trace.untraced_wall_s", untraced_wall, "s");
    metric(w, "trace.overhead_s", traced_wall - untraced_wall, "s");
    metric(w, "trace.passes", passes, "count");

    // multiscalar + event kernel
    const double tasks = count(td, "multiscalar.committed_tasks");
    metric(w, "multiscalar.ns_per_cycle",
           cycles > 0 ? 1e9 * self(Layer::Multiscalar) / cycles : 0.0, "ns");
    metric(w, "multiscalar.committed_insts",
           per_pass(count(td, "multiscalar.committed_insts")), "count");
    metric(w, "multiscalar.task_commit_ratio",
           ratio(tasks, tasks + count(td, "multiscalar.squashed_tasks")),
           "ratio");
    metric(w, "multiscalar.ring_forwards",
           per_pass(count(td, "multiscalar.ring_forwards")), "count");
    metric(w, "kernel.ticks_executed",
           per_pass(static_cast<double>(td.svcCalls.ticks +
                                        td.arbCalls.ticks)),
           "count");
    metric(w, "kernel.cycles_elided",
           per_pass(static_cast<double>(td.svcCalls.cyclesElided +
                                        td.arbCalls.cyclesElided)),
           "count");

    // backends
    for (const auto &[name, layer, calls] :
         {std::tuple{"arb", Layer::Arb, &td.arbCalls},
          std::tuple{"svc", Layer::Svc, &td.svcCalls}}) {
        const std::string n = name;
        metric(w, n + ".ns_per_access",
               calls->issueAccepted
                   ? 1e9 * tr.selfSeconds(layer) /
                         static_cast<double>(calls->issueAccepted)
                   : 0.0,
               "ns");
        metric(w, n + ".issue_accept_ratio",
               ratio(static_cast<double>(calls->issueAccepted),
                     static_cast<double>(calls->issueCalls)),
               "ratio");
        metric(w, n + ".accesses",
               per_pass(static_cast<double>(calls->issueAccepted)), "count");
    }
    metric(w, "svc.miss_ratio",
           ratio(count(td, "svc.miss_weighted"), count(td, "svc.accesses")),
           "ratio");
    metric(w, "svc.vol_cache_hit_ratio",
           ratio(count(td, "svc.vol_hits"), count(td, "svc.vol_snoops")),
           "ratio");
    metric(w, "svc.vol_rebuilds", per_pass(count(td, "svc.vol_rebuilds")),
           "count");

    // bus
    metric(w, "bus.transactions", per_pass(count(td, "bus.transactions")),
           "count");
    metric(w, "bus.utilization",
           ratio(count(td, "bus.busy_cycles"),
                 count(td, "bus.observed_cycles")),
           "ratio");
    std::uint64_t occ = 0;
    for (const auto &[lo, n] : td.busOccupancy)
        occ += n;
    const double occ_tail = tailPercentileFor(occ);
    metric(w, "bus.occupancy_p50", occupancyPercentile(td, 50.0), "cycles");
    metric(w, "bus.occupancy_tail", occupancyPercentile(td, occ_tail),
           "cycles");
    metric(w, "bus.occupancy_tail_pct", occ ? occ_tail : 0.0, "%");
    metric(w, "bus.retries", per_pass(count(td, "bus.retries")), "count");

    // trace_io, isa, workloads
    metric(w, "trace_io.records", per_pass(count(td, "trace_io.records")),
           "count");
    double oracle_s = 0.0;
    for (const Span &sp : tr.spans()) {
        if (std::strcmp(sp.name, "workloads.oracle") == 0)
            oracle_s += 1e-9 * static_cast<double>(sp.endNs - sp.startNs);
    }
    metric(w, "workloads.oracle_s", per_pass(oracle_s), "s");

    // invariants, recovery, litmus
    metric(w, "invariants.checks",
           per_pass(static_cast<double>(td.checkerCalls)), "count");
    metric(w, "recovery.episodes", per_pass(count(td, "recovery.episodes")),
           "count");
    metric(w, "recovery.task_replays",
           per_pass(count(td, "recovery.task_replays")), "count");
    metric(w, "recovery.rollbacks",
           per_pass(count(td, "recovery.rollbacks")), "count");
    metric(w, "faults.injected", per_pass(count(td, "faults.injected")),
           "count");
    metric(w, "litmus.iterations", per_pass(count(td, "litmus.iterations")),
           "count");

    // service, snapshot, journal
    timingMetrics(w, "service.attempt", samples(td, "service.attempt"));
    metric(w, "service.isolation_overhead_p50_s",
           samples(td, "service.isolation_overhead").median(), "s");
    metric(w, "service.retries", per_pass(count(td, "service.retries")),
           "count");
    metric(w, "service.process_attempts",
           per_pass(count(td, "service.process_attempts")), "count");
    timingMetrics(w, "snapshot.save", samples(td, "snapshot.save"));
    timingMetrics(w, "snapshot.restore", samples(td, "snapshot.restore"));
    auto total = [&](const char *k) {
        double sum = 0.0;
        for (double v : samples(td, k).values)
            sum += v;
        return per_pass(sum);
    };
    metric(w, "snapshot.save_s", total("snapshot.save"), "s");
    metric(w, "snapshot.restore_s", total("snapshot.restore"), "s");
    metric(w, "snapshot.image_bytes",
           samples(td, "snapshot.image_bytes").median(), "B");
    timingMetrics(w, "journal.append", samples(td, "journal.append"));
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    ::mkdir(o.workdir.c_str(), 0777);

    std::vector<double> setup;
    std::unique_ptr<Workload> wl = setUpRound(o, setup);

    Run run;
    Timed plain;
    const auto start = Clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(Clock::now() - start).count();
    };
    const double untraced_budget = o.trace ? o.seconds / 2 : o.seconds;
    const std::size_t min_plain = o.trace ? 2 : kMinPasses;
    while (plain.wall.size() < min_plain || elapsed() < untraced_budget) {
        // A set-up round before every pass spreads the set-up samples
        // over the run, as the passes are.
        if (!plain.wall.empty())
            setUpRound(o, setup);
        run.note(timedPass(*wl, nullptr, plain), "untraced");
    }

    TraceData td;
    Timed traced;
    if (o.trace) {
        while (traced.wall.empty() || elapsed() < o.seconds)
            run.note(timedPass(*wl, &td, traced), "traced");
        const std::string path =
            o.workdir + "/trace-" + o.workload + ".json";
        if (!writeChromeTrace(path, td.tracer.spans(), "svcbench " + o.workload))
            fatal("svcbench: cannot write %s", path.c_str());
    }

    const double wall = Timed::sumOfMinima(plain.partWall);
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.member("workload", o.workload);
    w.key("seed");
    w.value(o.seed);
    w.member("correct", run.failed == 0);
    w.key("attempted");
    w.value(run.attempted);
    w.key("failed");
    w.value(run.failed);
    w.key("failures");
    w.beginArray();
    for (const std::string &f : run.failures)
        w.value(f);
    w.endArray();
    char digest[20];
    std::snprintf(digest, sizeof(digest), "0x%016llx",
                  static_cast<unsigned long long>(run.digest));
    w.member("rows_digest", digest);
    w.key("items_per_pass");
    w.value(static_cast<std::uint64_t>(run.items));
    w.key("passes");
    w.value(static_cast<std::uint64_t>(plain.wall.size()));
    w.key("traced_passes");
    w.value(static_cast<std::uint64_t>(traced.wall.size()));
    w.key("pass_wall_s");
    w.beginArray();
    for (double v : plain.wall)
        w.value(v);
    w.endArray();
    w.key("metrics");
    w.beginObject();
    metric(w, "setup_s", median(setup), "s");
    metric(w, "wall_s", wall, "s");
    metric(w, "cpu_s", Timed::sumOfMinima(plain.partCpu), "s");
    metric(w, "max_rss_mb", maxRssMb(), "MB");
    metric(w, "fail_ratio",
           ratio(static_cast<double>(run.failed),
                 static_cast<double>(run.attempted)),
           "ratio");
    metric(w, "sim_cycles", static_cast<double>(run.simCycles), "cycles");
    metric(w, "sim_cycles_per_s", ratio(static_cast<double>(run.simCycles), wall),
           "cycles/s");
    metric(w, "jobs_per_s", ratio(static_cast<double>(run.items), wall),
           "1/s");
    w.endObject();
    if (o.trace) {
        w.key("layers");
        w.beginObject();
        layerMetrics(w, td, static_cast<double>(traced.wall.size()),
                     median(plain.wall));
        w.endObject();
    }
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}
