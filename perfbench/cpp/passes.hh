/**
 * @file
 * The benchmark's four workloads. Each is built from its seed in
 * setup(), then runs identical timed passes. A pass given a
 * TraceData runs the same calls with timing wrappers around each
 * layer's public entry points; given nullptr it runs untraced. The
 * rendered result rows of a pass (service::renderRow, the repo's own
 * row format) are the correctness record: every row must be healthy
 * and the rows of every pass, traced or not, must be identical.
 */

#ifndef SVC_PERFBENCH_PASSES_HH
#define SVC_PERFBENCH_PASSES_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.hh"
#include "instrument.hh"
#include "service/grid.hh"
#include "tracer.hh"

namespace svc::perfbench
{

/** Everything a traced pass measures besides layer self time. */
struct TraceData
{
    Tracer tracer;
    SpecMemCounts svcCalls;
    SpecMemCounts arbCalls;
    std::uint64_t checkerCalls = 0;
    /** Additive layer counts ("multiscalar.committed_insts", ...). */
    std::map<std::string, double> counts;
    /** Latency / size samples ("journal.append", ...). */
    std::map<std::string, Samples> samples;
    /** Merged bus.occupancy histogram: bucket low edge -> count. */
    std::map<double, std::uint64_t> busOccupancy;
};

/** Outcome of one pass. */
struct PassResult
{
    std::vector<std::string> rows;
    /**
     * Wall and CPU seconds of the pass's sequential parts (one per
     * run item, or one for a whole campaign), in the same order on
     * every pass; svcbench sums each part's fastest time.
     */
    std::vector<double> partWall;
    std::vector<double> partCpu;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;
    std::uint64_t simCycles = 0;

    /** Record one run item's row and its failure text ("" = ok). */
    void add(const std::string &row, const std::string &failure);
};

class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build every input from the seed (the timed set-up). */
    virtual void setup() = 0;
    /** One timed pass; @p td is null when untraced. */
    virtual PassResult pass(TraceData *td) = 0;
};

/** User plus system CPU seconds of this process and its reaped
 *  children. */
double cpuSeconds();

/**
 * @return workload @p name seeded with @p seed, keeping any files
 * it writes under @p workdir; nullptr for an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed,
                                       const std::string &workdir);

// ---- Shared run helpers (also used by the transparency test) ----

/**
 * One program stimulus on one backend through the full multiscalar
 * processor, exactly as bench::runOn does it, with the backend
 * wrapped in a TimingSpecMem when @p td is set.
 */
bench::BenchRow runProgram(const service::SweepItem &item,
                           const workloads::StimulusSource &stim,
                           TraceData *td);

/**
 * One access-stream stimulus on one backend through the replay
 * driver, verified against the stimulus' recorded expectations
 * (bench::runOn's check) and against @p oracle_hash /
 * @p oracle_mem_hash from the sequential oracle.
 */
bench::BenchRow runStream(const service::SweepItem &item,
                          const workloads::StimulusSource &stim,
                          std::uint64_t oracle_hash,
                          std::uint64_t oracle_mem_hash,
                          TraceData *td);

/**
 * One recovery cell exactly as service::runItem runs it (with
 * @p program already built from the item), with the
 * invariant checkers wrapped in TimedCheckers when @p td is set.
 * @p cycles receives the simulated cycles of both processor runs.
 */
service::ItemResult runRecoveryCell(const service::SweepItem &item,
                                    const workloads::Workload &program,
                                    TraceData *td,
                                    std::uint64_t &cycles);

/** Fold @p rows into one FNV-1a digest. */
std::uint64_t rowsDigest(const std::vector<std::string> &rows);

} // namespace svc::perfbench

#endif // SVC_PERFBENCH_PASSES_HH
