/**
 * @file
 * Benchmark-side tracing: exclusive (self) time per simulator layer,
 * coarse spans for a Chrome trace_event file, and sample
 * distributions for latency metrics.
 *
 * Every instrumented call into a layer's public API enters that
 * layer on a stack; time is charged to whichever layer is on top,
 * so a layer's self time excludes the layers it calls back into
 * (e.g. the SVC's tick() minus the PU completion callbacks it
 * fires). Because each clock reading closes one interval and opens
 * the next, the per-layer self times of a pass sum exactly to the
 * pass's traced wall time; Layer::Bench holds the remainder that no
 * layer claims (the benchmark's own loop and bookkeeping).
 *
 * All tracing is benchmark-side: nothing under src/ is instrumented.
 * A null Tracer pointer means "untraced" everywhere, and Scope then
 * costs one branch.
 */

#ifndef SVC_PERFBENCH_TRACER_HH
#define SVC_PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace svc::perfbench
{

/** The simulator layers a pass can spend time in. */
enum class Layer : std::uint8_t
{
    Bench,       ///< unattributed: the benchmark's own code
    Multiscalar, ///< Processor::run and the PU callbacks
    Svc,         ///< SVC SpecMem calls (protocol, VOL, bus, lines)
    Arb,         ///< ARB SpecMem calls
    Isa,         ///< sequential interpreter reference pass
    Workloads,   ///< stimulus image load and the sequential oracle
    TraceIo,     ///< SVCTRC1 open/validate and stimulus build
    Replay,      ///< replayStream's own driver logic and callbacks
    Invariants,  ///< InvariantChecker check/checkFinal calls
    Recovery,    ///< RecoveryManager safe points + fault injection
    Litmus,      ///< litmus::runShape campaigns
    LitmusOracle,///< litmus::enumerateScOutcomes
    Service,     ///< SweepService campaign / WorkerSupervisor attempts
    Inproc,      ///< in-process runItemSliced (isolation baseline)
    Snapshot,    ///< saveCheckpoint / restoreCheckpoint
    Journal,     ///< JobJournal appends (fsync included)
    Count
};

/** Name of the per-layer metric holding @p layer's self time. */
const char *layerSelfMetric(Layer layer);

/** One coarse span (Chrome "X" event). */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; ///< index of the enclosing span
    std::string item;         ///< run-item id the span belongs to
};

class Tracer
{
  public:
    Tracer();

    /** Charge the elapsed interval to the current layer; push. */
    void enter(Layer layer);
    /** Charge the elapsed interval to the current layer; pop. */
    void leave();

    /** Open a span under the innermost open span. */
    std::int32_t beginSpan(const char *name, const std::string &item);
    void endSpan(std::int32_t idx);

    /** Self seconds of @p layer since construction. */
    double selfSeconds(Layer layer) const;
    /** Sum of every layer's self time (== traced wall time). */
    double totalSeconds() const;

    const std::vector<Span> &spans() const { return spanList; }

    /** Nanoseconds since construction. */
    std::int64_t nowNs() const;

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point origin;
    Clock::time_point last;
    std::array<std::int64_t, static_cast<std::size_t>(Layer::Count)>
        selfNs{};
    std::vector<Layer> stack;
    std::vector<Span> spanList;
    std::vector<std::int32_t> openSpans;
};

/**
 * RAII layer entry, optionally recording a span. A null tracer makes
 * it a no-op, so instrumented passes run unchanged when untraced.
 */
class Scope
{
  public:
    Scope(Tracer *t, Layer layer) : tr(t)
    {
        if (tr)
            tr->enter(layer);
    }
    Scope(Tracer *t, Layer layer, const char *span,
          const std::string &item)
        : tr(t)
    {
        if (tr) {
            tr->enter(layer);
            spanIdx = tr->beginSpan(span, item);
        }
    }
    ~Scope()
    {
        if (!tr)
            return;
        if (spanIdx >= 0)
            tr->endSpan(spanIdx);
        tr->leave();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tr;
    std::int32_t spanIdx = -1;
};

/** Latency samples summarised as median + tail percentile. */
struct Samples
{
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    std::size_t count() const { return values.size(); }
    double percentile(double p) const;
    double median() const { return percentile(50.0); }
    double tail() const;
};

/**
 * The tail percentile reported for @p n samples: the highest of
 * p50/p90/p99/p99.9 that still has at least ten samples beyond it
 * (p50 when fewer than twenty samples exist).
 */
double tailPercentileFor(std::size_t n);

/**
 * Write @p spans as a Chrome trace_event document through the
 * repo's JsonWriter. @return false if @p path cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans,
                      const std::string &process_name);

} // namespace svc::perfbench

#endif // SVC_PERFBENCH_TRACER_HH
