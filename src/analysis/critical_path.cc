#include "analysis/critical_path.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <tuple>

namespace netsparse {

Tick
CriticalPath::attributedTicks() const
{
    Tick sum = 0;
    for (const CpSegment &s : segments)
        sum += s.ticks();
    return sum;
}

std::vector<CpContribution>
CriticalPath::contributions() const
{
    // Key order (wait, stage, comp) makes the aggregate - and with it
    // the printed report - deterministic before the by-size sort.
    std::map<std::tuple<bool, std::string, std::uint32_t>, Tick> agg;
    for (const CpSegment &s : segments)
        agg[{s.wait, s.stage, s.comp}] += s.ticks();
    std::vector<CpContribution> out;
    out.reserve(agg.size());
    for (const auto &[key, ticks] : agg)
        out.push_back(CpContribution{std::get<1>(key), std::get<2>(key),
                                     std::get<0>(key), ticks});
    std::stable_sort(out.begin(), out.end(),
                     [](const CpContribution &a, const CpContribution &b) {
                         return a.ticks > b.ticks;
                     });
    return out;
}

std::vector<std::pair<std::uint32_t, Tick>>
CriticalPath::byComp() const
{
    std::map<std::uint32_t, Tick> agg;
    for (const CpSegment &s : segments)
        agg[s.comp] += s.ticks();
    std::vector<std::pair<std::uint32_t, Tick>> out(agg.begin(),
                                                    agg.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const auto &a, const auto &b) {
                         return a.second > b.second;
                     });
    return out;
}

CriticalPath
computeCriticalPath(Tick issueTick, Tick retireTick,
                    const std::vector<CpEvent> &events)
{
    CriticalPath cp;
    cp.issueTick = issueTick;
    cp.retireTick = retireTick;
    if (retireTick < issueTick)
        throw std::runtime_error("critical path: retire before issue");

    Tick cursor = issueTick;
    for (const CpEvent &e : events) {
        // Clamp the event's service interval to the span window: under
        // retry, failed-attempt events precede the accepted attempt's
        // issue tick and must collapse to zero width, or the segments
        // would no longer tile [issue, retire].
        Tick s = std::max(e.tick, issueTick);
        Tick t = e.tick + e.dur;
        if (t > retireTick)
            t = retireTick;
        if (s > retireTick)
            s = retireTick;
        if (s > cursor) {
            cp.segments.push_back(
                CpSegment{cursor, s, e.comp, e.stage, true});
            cursor = s;
        }
        if (t > cursor) {
            cp.segments.push_back(
                CpSegment{cursor, t, e.comp, e.stage, false});
            cursor = t;
        }
    }
    // A well-formed span ends with its retire event at retireTick, so
    // this is defensive: never leave the tiling short.
    if (cursor < retireTick)
        cp.segments.push_back(CpSegment{
            cursor, retireTick,
            cp.segments.empty() ? 0 : cp.segments.back().comp,
            "unattributed", true});
    return cp;
}

const std::string &
SpanReport::componentName(std::uint32_t comp) const
{
    static const std::string unknown = "?";
    return comp < components.size() ? components[comp] : unknown;
}

SpanReport
analyzeSpans(const jsonlite::Value &spans, std::size_t runIndex,
             std::size_t maxExemplars)
{
    if (!spans.has("schema") ||
        spans.at("schema").string != "netsparse-spans-v1")
        throw std::runtime_error("not a netsparse-spans-v1 document");
    const jsonlite::Value &run = spans.at("runs").at(runIndex);

    SpanReport r;
    r.label = run.at("label").string;
    r.finalTick = static_cast<Tick>(run.at("finalTick").number);
    r.recordedSpans =
        static_cast<std::uint64_t>(run.at("recordedSpans").number);
    for (const auto &c : run.at("components").array)
        r.components.push_back(c.string);

    const auto &all = run.at("spans").array;
    r.keptSpans = all.size();

    auto build = [&](const jsonlite::Value &span) {
        SpanExemplar ex;
        ex.spanId = span.at("spanId").string;
        ex.tenant =
            static_cast<std::uint32_t>(span.at("tenant").number);
        ex.src = static_cast<NodeId>(span.at("src").number);
        ex.reqId = static_cast<std::uint32_t>(span.at("reqId").number);
        ex.totalTicks = static_cast<Tick>(span.at("totalTicks").number);
        ex.servedByCache = span.at("servedByCache").boolean;
        ex.retransmits =
            static_cast<std::uint32_t>(span.at("retransmits").number);
        ex.kept = span.at("kept").string;
        ex.finisher = span.at("finisher").boolean;
        std::vector<CpEvent> events;
        for (const auto &e : span.at("events").array) {
            CpEvent ev;
            ev.tick = static_cast<Tick>(e.at("tick").number);
            ev.dur = static_cast<Tick>(e.at("durTicks").number);
            ev.comp = static_cast<std::uint32_t>(e.at("comp").number);
            ev.stage = e.at("stage").string;
            events.push_back(std::move(ev));
        }
        ex.path = computeCriticalPath(
            static_cast<Tick>(span.at("issueTick").number),
            static_cast<Tick>(span.at("retireTick").number), events);
        return ex;
    };

    // Spans are stored largest-total-first: the head of the list is
    // the tail exemplar set. Finishers outside the head ride along so
    // makespan attribution is always present.
    for (std::size_t i = 0; i < all.size() && i < maxExemplars; ++i)
        r.exemplars.push_back(build(all.at(i)));
    for (std::size_t i = maxExemplars; i < all.size(); ++i)
        if (all.at(i).at("finisher").boolean)
            r.exemplars.push_back(build(all.at(i)));
    return r;
}

void
printSpanReport(const SpanReport &r, std::ostream &os)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "span report: %s, %llu PRs recorded, %llu kept, run "
                  "ends at %.2f us\n",
                  r.label.c_str(),
                  static_cast<unsigned long long>(r.recordedSpans),
                  static_cast<unsigned long long>(r.keptSpans),
                  ticks::toNs(r.finalTick) / 1e3);
    os << buf;

    for (const SpanExemplar &ex : r.exemplars) {
        std::snprintf(buf, sizeof(buf),
                      "\n%s %s: tenant %u, src %u, reqId %u, "
                      "%.2f us total%s%s%s\n",
                      ex.finisher ? "makespan finisher" : "tail exemplar",
                      ex.spanId.c_str(), ex.tenant, ex.src, ex.reqId,
                      ticks::toNs(ex.totalTicks) / 1e3,
                      ex.servedByCache ? ", served by ToR cache" : "",
                      ex.retransmits ? ", retransmitted" : "",
                      ex.kept == "sampled" ? " (sampled)" : "");
        os << buf;
        double total = static_cast<double>(ex.path.totalTicks());
        if (total <= 0)
            continue;
        std::size_t shown = 0;
        for (const CpContribution &c : ex.path.contributions()) {
            if (shown++ >= 8)
                break;
            std::snprintf(buf, sizeof(buf),
                          "  %5.1f%%  %-8s %-12s at %-24s %10.2f us\n",
                          100.0 * static_cast<double>(c.ticks) / total,
                          c.wait ? "queued" : "service", c.stage.c_str(),
                          r.componentName(c.comp).c_str(),
                          ticks::toNs(c.ticks) / 1e3);
            os << buf;
        }
        os << "  by component:";
        shown = 0;
        for (const auto &[comp, ticks] : ex.path.byComp()) {
            if (shown++ >= 4)
                break;
            std::snprintf(buf, sizeof(buf), " %s %.0f%%",
                          r.componentName(comp).c_str(),
                          100.0 * static_cast<double>(ticks) / total);
            os << buf;
        }
        os << '\n';
    }
    if (r.exemplars.empty())
        os << "  (no spans kept; raise --span-sample or the tail "
              "knobs)\n";
}

} // namespace netsparse
