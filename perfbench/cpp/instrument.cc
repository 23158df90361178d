#include "instrument.hh"

#include <utility>

namespace svc::perfbench
{

TimingSpecMem::TimingSpecMem(SpecMem &inner, Tracer &tracer, Layer self,
                             Layer caller, SpecMemCounts &counts)
    : mem(inner), tr(tracer), selfLayer(self), callerLayer(caller),
      cnt(counts)
{}

TimingSpecMem::TimingSpecMem(std::unique_ptr<SpecMem> inner,
                             Tracer &tracer, Layer self, Layer caller,
                             SpecMemCounts &counts)
    : owned(std::move(inner)), mem(*owned), tr(tracer),
      selfLayer(self), callerLayer(caller), cnt(counts)
{}

void
TimingSpecMem::setViolationHandler(ViolationFn fn)
{
    Scope s(&tr, selfLayer);
    mem.setViolationHandler(
        [this, fn = std::move(fn)](PuId pu) {
            Scope back(&tr, callerLayer);
            fn(pu);
        });
}

void
TimingSpecMem::assignTask(PuId pu, TaskSeq seq)
{
    Scope s(&tr, selfLayer);
    mem.assignTask(pu, seq);
}

bool
TimingSpecMem::issue(const MemReq &req, DoneFn done)
{
    ++cnt.issueCalls;
    Scope s(&tr, selfLayer);
    const bool ok = mem.issue(
        req, [this, done = std::move(done)](std::uint64_t data) {
            Scope back(&tr, callerLayer);
            done(data);
        });
    if (ok)
        ++cnt.issueAccepted;
    return ok;
}

void
TimingSpecMem::commitTask(PuId pu)
{
    Scope s(&tr, selfLayer);
    mem.commitTask(pu);
}

void
TimingSpecMem::squashTask(PuId pu)
{
    Scope s(&tr, selfLayer);
    mem.squashTask(pu);
}

void
TimingSpecMem::tick()
{
    ++cnt.ticks;
    Scope s(&tr, selfLayer);
    mem.tick();
}

bool
TimingSpecMem::busyWithRequests() const
{
    return mem.busyWithRequests();
}

StatSet
TimingSpecMem::stats() const
{
    Scope s(&tr, selfLayer);
    return mem.stats();
}

const char *
TimingSpecMem::name() const
{
    return mem.name();
}

void
TimingSpecMem::attachTracer(TraceSink *sink)
{
    mem.attachTracer(sink);
}

void
TimingSpecMem::finalizeMemory()
{
    Scope s(&tr, selfLayer);
    mem.finalizeMemory();
}

double
TimingSpecMem::missRatio() const
{
    return mem.missRatio();
}

Cycle
TimingSpecMem::nextWakeCycle() const
{
    Scope s(&tr, selfLayer);
    return mem.nextWakeCycle();
}

void
TimingSpecMem::skipCycles(Cycle n)
{
    cnt.cyclesElided += n;
    Scope s(&tr, selfLayer);
    mem.skipCycles(n);
}

bool
TimingSpecMem::checkpointQuiescent() const
{
    return mem.checkpointQuiescent();
}

void
TimingSpecMem::saveState(SnapshotWriter &w) const
{
    mem.saveState(w);
}

bool
TimingSpecMem::restoreState(SnapshotReader &r)
{
    return mem.restoreState(r);
}

} // namespace svc::perfbench
