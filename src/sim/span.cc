#include "sim/span.hh"

#include <algorithm>
#include <cstdio>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

/** "a should be kept over b" under the global tail-selection order. */
bool
keepBetter(const std::pair<Tick, std::uint64_t> &a,
           const std::pair<Tick, std::uint64_t> &b)
{
    if (a.first != b.first)
        return a.first > b.first; // larger total latency wins
    return a.second < b.second;   // smaller span id breaks ties
}

/** Deterministic merge order of one span's events. */
bool
eventBefore(const SpanEvent &a, const SpanEvent &b)
{
    if (a.tick != b.tick)
        return a.tick < b.tick;
    if (a.stage != b.stage)
        return a.stage < b.stage;
    if (a.comp != b.comp)
        return a.comp < b.comp;
    if (a.dur != b.dur)
        return a.dur < b.dur;
    return a.detail < b.detail;
}

/** 16-digit lowercase hex of a span id (the JSON encoding: 64-bit ids
 *  don't survive a double round-trip, strings do). */
std::string
hexId(std::uint64_t id)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(id));
    return std::string(buf);
}

} // namespace

const char *
spanStageName(SpanStage s)
{
    switch (s) {
    case SpanStage::Issue:
        return "issue";
    case SpanStage::Retransmit:
        return "retransmit";
    case SpanStage::NicEgress:
        return "nicEgress";
    case SpanStage::LinkTx:
        return "linkTx";
    case SpanStage::SwitchPipe:
        return "switchPipe";
    case SpanStage::CacheHit:
        return "cacheHit";
    case SpanStage::CacheMiss:
        return "cacheMiss";
    case SpanStage::CacheBypass:
        return "cacheBypass";
    case SpanStage::Fetch:
        return "fetch";
    case SpanStage::Retire:
        return "retire";
    }
    return "?";
}

void
SpanBuffer::retire(const SpanRetire &rec)
{
    retired_.push_back(rec);
    if (!params_.recordAll()) {
        // Sample-only mode: only sampled PRs carry a span id at all,
        // so everything retiring here is kept and nothing is pruned.
        return;
    }

    // Track the tenant's last-retiring span (the makespan finisher);
    // the span it displaces loses that protection.
    std::uint64_t displaced = 0;
    auto fin = finisher_.find(rec.tenant);
    if (fin == finisher_.end()) {
        finisher_.emplace(rec.tenant,
                          std::make_pair(rec.retireTick, rec.spanId));
    } else if (rec.retireTick > fin->second.first ||
               (rec.retireTick == fin->second.first &&
                rec.spanId < fin->second.second)) {
        displaced = fin->second.second;
        fin->second = {rec.retireTick, rec.spanId};
    }

    Tick total = rec.totalTicks();
    bool kept_outright =
        params_.sampled(rec.spanId) ||
        (params_.tailThreshold != 0 && total >= params_.tailThreshold);
    std::uint64_t evicted = 0;
    if (kept_outright) {
        keptIds_.insert(rec.spanId);
    } else if (params_.tailKeep != 0) {
        heap_.emplace_back(total, rec.spanId);
        heapIds_.insert(rec.spanId);
        std::push_heap(heap_.begin(), heap_.end(), keepBetter);
        if (heap_.size() > params_.tailKeep) {
            // keepBetter-as-less makes the heap front the WORST kept
            // span; pop it. The per-shard top-K under the same order
            // the merge uses is what keeps pruning loss-free.
            std::pop_heap(heap_.begin(), heap_.end(), keepBetter);
            evicted = heap_.back().second;
            heap_.pop_back();
            heapIds_.erase(evicted);
        }
    } else {
        evicted = rec.spanId; // threshold-only mode, under the bar
    }
    if (evicted)
        maybePrune(evicted);
    if (displaced)
        maybePrune(displaced);
}

void
SpanBuffer::maybePrune(std::uint64_t spanId)
{
    if (heapIds_.count(spanId) || keptIds_.count(spanId))
        return;
    for (const auto &f : finisher_)
        if (f.second.second == spanId)
            return;
    auto it = open_.find(spanId);
    if (it != open_.end()) {
        open_.erase(it);
        ++pruned_;
    }
}

Tick
SpanBuffer::issueTickOf(std::uint64_t spanId, std::uint32_t attempt) const
{
    const SpanStage stage =
        attempt ? SpanStage::Retransmit : SpanStage::Issue;
    if (const std::vector<SpanEvent> *ev = eventsOf(spanId))
        for (const SpanEvent &e : *ev)
            if (e.stage == stage && (attempt == 0 || e.detail == attempt))
                return e.tick;
    return 0;
}

void
buildSpanRun(SpanRun &run, const std::vector<SpanBuffer *> &bufs)
{
    const SpanParams &p = run.params;

    // 1. Gather every retire record. A span retires on exactly one
    // shard, so ids are unique; sorting by id gives an order that is
    // independent of how the execution was partitioned.
    std::vector<SpanRetire> recs;
    for (const SpanBuffer *b : bufs) {
        const auto &r = b->retired();
        recs.insert(recs.end(), r.begin(), r.end());
    }
    std::sort(recs.begin(), recs.end(),
              [](const SpanRetire &a, const SpanRetire &b) {
                  return a.spanId < b.spanId;
              });
    run.recordedSpans = recs.size();

    // 2. Selection: sampled, over-threshold, global top-K, and the
    // per-tenant finishers.
    std::unordered_map<std::uint64_t, const char *> keep;
    for (const SpanRetire &rec : recs) {
        if (p.sampled(rec.spanId))
            keep.emplace(rec.spanId, "sampled");
        else if (p.tailThreshold != 0 &&
                 rec.totalTicks() >= p.tailThreshold)
            keep.emplace(rec.spanId, "tail");
    }
    if (p.tailKeep != 0) {
        std::vector<std::pair<Tick, std::uint64_t>> rest;
        for (const SpanRetire &rec : recs)
            if (!keep.count(rec.spanId))
                rest.emplace_back(rec.totalTicks(), rec.spanId);
        std::sort(rest.begin(), rest.end(), keepBetter);
        for (std::size_t i = 0; i < rest.size() && i < p.tailKeep; ++i)
            keep.emplace(rest[i].second, "tail");
    }
    std::unordered_map<std::uint16_t, const SpanRetire *> finishers;
    for (const SpanRetire &rec : recs) {
        auto [it, fresh] = finishers.try_emplace(rec.tenant, &rec);
        if (!fresh &&
            (rec.retireTick > it->second->retireTick ||
             (rec.retireTick == it->second->retireTick &&
              rec.spanId < it->second->spanId)))
            it->second = &rec;
    }
    for (const auto &f : finishers)
        keep.try_emplace(f.second->spanId, "finisher");

    // 3. Build the kept records: merge each span's events from every
    // buffer and sort them into the canonical causal order.
    for (const SpanRetire &rec : recs) {
        auto kit = keep.find(rec.spanId);
        if (kit == keep.end())
            continue;
        SpanRecord out;
        out.info = rec;
        out.kept = kit->second;
        auto fit = finishers.find(rec.tenant);
        out.finisher =
            fit != finishers.end() && fit->second->spanId == rec.spanId;
        for (const SpanBuffer *b : bufs) {
            const std::vector<SpanEvent> *ev = b->eventsOf(rec.spanId);
            if (ev)
                out.events.insert(out.events.end(), ev->begin(),
                                  ev->end());
        }
        ns_assert(!out.events.empty(), "kept span ", hexId(rec.spanId),
                  " has no recorded events (flight recorder pruned a "
                  "selected span)");
        std::sort(out.events.begin(), out.events.end(), eventBefore);
        run.spans.push_back(std::move(out));
    }

    // Largest total latency first; span id breaks ties. Deterministic:
    // ids are unique.
    std::sort(run.spans.begin(), run.spans.end(),
              [](const SpanRecord &a, const SpanRecord &b) {
                  return keepBetter({a.info.totalTicks(), a.info.spanId},
                                    {b.info.totalTicks(), b.info.spanId});
              });
}

void
exportSpansToTrace(TraceWriter &tw, const SpanRun &run)
{
    for (const SpanRecord &span : run.spans) {
        std::uint32_t track = tw.track(
            "spans.tenant" + std::to_string(span.info.tenant));
        std::string args =
            traceArgs({{"tenant",
                        static_cast<double>(span.info.tenant)},
                       {"reqId", static_cast<double>(span.info.reqId)},
                       {"src", static_cast<double>(span.info.src)}});
        args += ",\"fidelity\":\"exact\",\"kept\":\"";
        args += span.kept;
        args += '"';
        // The span envelope, then one nested slice per timed stage.
        tw.asyncBegin(track, "pr", span.info.spanId, span.info.issueTick,
                      std::move(args));
        for (const SpanEvent &e : span.events) {
            if (e.dur == 0)
                continue;
            const char *comp_name =
                e.comp < run.components.size()
                    ? run.components[e.comp].c_str()
                    : "?";
            tw.asyncBegin(track, spanStageName(e.stage),
                          span.info.spanId, e.tick,
                          std::string("\"comp\":\"") + comp_name + "\"");
            tw.asyncEnd(track, spanStageName(e.stage), span.info.spanId,
                        e.tick + e.dur);
        }
        tw.asyncEnd(track, "pr", span.info.spanId, span.info.retireTick);
    }
}

void
RunFormat<SpanRun>::write(std::ostream &os, const SpanRun &run)
{
    os << ",\"sampleEvery\":" << run.params.sampleEvery
       << ",\"tailKeep\":" << run.params.tailKeep
       << ",\"tailThresholdTicks\":" << run.params.tailThreshold
       << ",\"seed\":\"" << hexId(run.params.seed)
       // Always "exact" (the only network model), kept so the
       // netsparse-spans-v1 schema does not change.
       << "\",\"fidelity\":\"exact\",\"finalTick\":" << run.finalTick
       << ",\"recordedSpans\":" << run.recordedSpans
       << ",\n\"components\":[";
    for (std::size_t c = 0; c < run.components.size(); ++c) {
        if (c)
            os << ',';
        os << '"' << jsonEscape(run.components[c]) << '"';
    }
    os << "],\n\"spans\":[";
    for (std::size_t s = 0; s < run.spans.size(); ++s) {
        const SpanRecord &span = run.spans[s];
        if (s)
            os << ',';
        os << "\n{\"spanId\":\"" << hexId(span.info.spanId)
           << "\",\"tenant\":" << span.info.tenant
           << ",\"src\":" << span.info.src
           << ",\"srcTid\":" << span.info.srcTid
           << ",\"reqId\":" << span.info.reqId
           << ",\"issueTick\":" << span.info.issueTick
           << ",\"retireTick\":" << span.info.retireTick
           << ",\"totalTicks\":" << span.info.totalTicks()
           << ",\"servedByCache\":"
           << (span.info.servedByCache ? "true" : "false")
           << ",\"retransmits\":" << span.info.retransmits
           << ",\"kept\":\"" << span.kept << "\",\"finisher\":"
           << (span.finisher ? "true" : "false") << ",\n\"events\":[";
        for (std::size_t e = 0; e < span.events.size(); ++e) {
            const SpanEvent &ev = span.events[e];
            if (e)
                os << ',';
            os << "\n{\"stage\":\"" << spanStageName(ev.stage)
               << "\",\"tick\":" << ev.tick << ",\"durTicks\":" << ev.dur
               << ",\"comp\":" << ev.comp << ",\"detail\":" << ev.detail
               << ",\"parent\":" << static_cast<long long>(e) - 1 << '}';
        }
        os << "]}";
    }
    os << "\n]}";
}

} // namespace netsparse
