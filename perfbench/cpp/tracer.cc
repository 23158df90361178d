#include "tracer.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/json.hh"
#include "common/posix_io.hh"

namespace svc::perfbench
{

const char *
layerSelfMetric(Layer layer)
{
    switch (layer) {
    case Layer::Bench: return "trace.unattributed_s";
    case Layer::Multiscalar: return "multiscalar.self_s";
    case Layer::Svc: return "svc.self_s";
    case Layer::Arb: return "arb.self_s";
    case Layer::Isa: return "isa.reference_s";
    case Layer::Workloads: return "workloads.self_s";
    case Layer::TraceIo: return "trace_io.decode_s";
    case Layer::Replay: return "replay.self_s";
    case Layer::Invariants: return "invariants.self_s";
    case Layer::Recovery: return "recovery.self_s";
    case Layer::Litmus: return "litmus.run_s";
    case Layer::LitmusOracle: return "litmus.oracle_s";
    case Layer::Service: return "service.self_s";
    case Layer::Inproc: return "service.inproc_s";
    case Layer::Snapshot: return "snapshot.self_s";
    case Layer::Journal: return "journal.self_s";
    case Layer::Count: break;
    }
    return "?";
}

Tracer::Tracer() : origin(Clock::now()), last(origin)
{
    stack.push_back(Layer::Bench);
}

void
Tracer::enter(Layer layer)
{
    const Clock::time_point now = Clock::now();
    selfNs[static_cast<std::size_t>(stack.back())] +=
        (now - last).count();
    last = now;
    stack.push_back(layer);
}

void
Tracer::leave()
{
    const Clock::time_point now = Clock::now();
    selfNs[static_cast<std::size_t>(stack.back())] +=
        (now - last).count();
    last = now;
    if (stack.size() > 1)
        stack.pop_back();
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin)
        .count();
}

std::int32_t
Tracer::beginSpan(const char *name, const std::string &item)
{
    Span s;
    s.name = name;
    s.startNs = nowNs();
    s.parent = openSpans.empty() ? -1 : openSpans.back();
    s.item = item;
    spanList.push_back(std::move(s));
    const auto idx = static_cast<std::int32_t>(spanList.size() - 1);
    openSpans.push_back(idx);
    return idx;
}

void
Tracer::endSpan(std::int32_t idx)
{
    spanList[static_cast<std::size_t>(idx)].endNs = nowNs();
    if (!openSpans.empty() && openSpans.back() == idx)
        openSpans.pop_back();
}

double
Tracer::selfSeconds(Layer layer) const
{
    return static_cast<double>(
               selfNs[static_cast<std::size_t>(layer)]) *
           1e-9;
}

double
Tracer::totalSeconds() const
{
    std::int64_t sum = 0;
    for (std::int64_t ns : selfNs)
        sum += ns;
    return static_cast<double>(sum) * 1e-9;
}

double
Samples::percentile(double p) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> v = values;
    std::sort(v.begin(), v.end());
    // Nearest rank: the smallest value with at least p% of the
    // samples at or below it.
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(v.size()));
    std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    idx = std::min(idx, v.size() - 1);
    return v[idx];
}

double
Samples::tail() const
{
    return percentile(tailPercentileFor(values.size()));
}

double
tailPercentileFor(std::size_t n)
{
    double best = 50.0;
    for (double p : {90.0, 99.0, 99.9}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0)
            best = p;
    }
    return best;
}

bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &process_name)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("traceEvents");
    w.beginArray();
    w.beginObject();
    w.member("name", "process_name");
    w.member("ph", "M");
    w.key("pid");
    w.value(1);
    w.key("args");
    w.beginObject();
    w.member("name", process_name);
    w.endObject();
    w.endObject();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.member("name", s.name);
        w.member("ph", "X");
        w.key("pid");
        w.value(1);
        w.key("tid");
        w.value(1);
        w.member("ts", static_cast<double>(s.startNs) * 1e-3);
        w.member("dur", static_cast<double>(s.endNs - s.startNs) * 1e-3);
        w.key("args");
        w.beginObject();
        w.key("id");
        w.value(static_cast<std::uint64_t>(i));
        w.key("parent");
        w.value(static_cast<std::int64_t>(s.parent));
        w.member("item", s.item);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();

    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    const std::string &doc = w.str();
    const bool ok = fwriteAll(f, doc.data(), doc.size());
    return std::fclose(f) == 0 && ok;
}

} // namespace svc::perfbench
