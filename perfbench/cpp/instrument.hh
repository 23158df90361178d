/**
 * @file
 * Benchmark-side timing wrappers around two public extension points
 * of the simulator: a SpecMem decorator and an InvariantChecker
 * decorator. Both forward every call unchanged; they only charge the
 * time spent inside to a Tracer layer and count calls. The
 * transparency test pins that wrapping leaves bench rows, StatSet
 * text and recorded SVCTRC1 bytes identical.
 */

#ifndef SVC_PERFBENCH_INSTRUMENT_HH
#define SVC_PERFBENCH_INSTRUMENT_HH

#include <cstdint>
#include <memory>

#include "common/invariants.hh"
#include "mem/spec_mem.hh"
#include "tracer.hh"

namespace svc::perfbench
{

/** Call counts a TimingSpecMem gathers. */
struct SpecMemCounts
{
    std::uint64_t issueCalls = 0;
    std::uint64_t issueAccepted = 0;
    std::uint64_t ticks = 0;        ///< tick() calls (executed cycles)
    std::uint64_t cyclesElided = 0; ///< sum of skipCycles(n)
};

/**
 * Times issue/tick/commitTask/squashTask (and the other calls that
 * do backend work) as @p self, minus the DoneFn / ViolationFn
 * callbacks it fires, which are charged back to @p caller.
 */
class TimingSpecMem : public SpecMem
{
  public:
    /** Non-owning: @p inner must outlive the decorator. */
    TimingSpecMem(SpecMem &inner, Tracer &tracer, Layer self,
                  Layer caller, SpecMemCounts &counts);
    /** Owning form, for stacking under another decorator. */
    TimingSpecMem(std::unique_ptr<SpecMem> inner, Tracer &tracer,
                  Layer self, Layer caller, SpecMemCounts &counts);
    /** The inner system's callbacks capture this object's address. */
    TimingSpecMem(const TimingSpecMem &) = delete;
    TimingSpecMem &operator=(const TimingSpecMem &) = delete;

    void setViolationHandler(ViolationFn fn) override;
    void assignTask(PuId pu, TaskSeq seq) override;
    bool issue(const MemReq &req, DoneFn done) override;
    void commitTask(PuId pu) override;
    void squashTask(PuId pu) override;
    void tick() override;
    bool busyWithRequests() const override;
    StatSet stats() const override;
    const char *name() const override;
    void attachTracer(TraceSink *sink) override;
    void finalizeMemory() override;
    double missRatio() const override;
    Cycle nextWakeCycle() const override;
    void skipCycles(Cycle n) override;
    bool checkpointQuiescent() const override;
    void saveState(SnapshotWriter &w) const override;
    bool restoreState(SnapshotReader &r) override;

  private:
    std::unique_ptr<SpecMem> owned;
    SpecMem &mem;
    Tracer &tr;
    Layer selfLayer;
    Layer callerLayer;
    SpecMemCounts &cnt;
};

/** Forwards to a wrapped checker, charging its time to
 *  Layer::Invariants and counting invocations. */
class TimedChecker : public InvariantChecker
{
  public:
    TimedChecker(std::unique_ptr<InvariantChecker> inner,
                 Tracer &tracer, std::uint64_t &calls)
        : wrapped(std::move(inner)), tr(tracer), nCalls(calls)
    {}

    const char *name() const override { return wrapped->name(); }

    void
    check(const InvariantEngine &eng, InvariantReport &rep) override
    {
        ++nCalls;
        Scope s(&tr, Layer::Invariants);
        wrapped->check(eng, rep);
    }

    void
    checkFinal(const InvariantEngine &eng,
               InvariantReport &rep) override
    {
        ++nCalls;
        Scope s(&tr, Layer::Invariants);
        wrapped->checkFinal(eng, rep);
    }

  private:
    std::unique_ptr<InvariantChecker> wrapped;
    Tracer &tr;
    std::uint64_t &nCalls;
};

} // namespace svc::perfbench

#endif // SVC_PERFBENCH_INSTRUMENT_HH
