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
    ++recorded_;
    records_.emplace(rec.spanId, rec);

    // Track the tenant's last-retiring span (the makespan finisher, ties
    // to the smaller id); the span it displaces loses that protection.
    std::uint64_t displaced = 0;
    const std::pair<Tick, std::uint64_t> finish{rec.retireTick, rec.spanId};
    auto [fin, fresh] = finisher_.try_emplace(rec.tenant, finish);
    if (!fresh && keepBetter(finish, fin->second)) {
        displaced = fin->second.second;
        fin->second = finish;
    }

    // A top-K candidate unless kept outright; dropped below unless kept.
    std::uint64_t evicted = rec.spanId;
    if (!keptOutright(rec) && params_.tailKeep != 0) {
        heap_.emplace_back(rec.totalTicks(), rec.spanId);
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
    }
    maybePrune(evicted);
    if (displaced)
        maybePrune(displaced);
}

bool
SpanBuffer::keptOutright(const SpanRetire &rec) const
{
    return params_.sampled(rec.spanId) ||
           (params_.tailThreshold != 0 &&
            rec.totalTicks() >= params_.tailThreshold);
}

const char *
SpanBuffer::keptAs(std::uint64_t spanId) const
{
    auto it = records_.find(spanId);
    if (it == records_.end())
        return nullptr;
    if (params_.sampled(spanId))
        return "sampled";
    if (keptOutright(it->second) || heapIds_.count(spanId))
        return "tail";
    return isFinisher(spanId) ? "finisher" : nullptr;
}

bool
SpanBuffer::isFinisher(std::uint64_t spanId) const
{
    for (const auto &f : finisher_)
        if (f.second.second == spanId)
            return true;
    return false;
}

void
SpanBuffer::maybePrune(std::uint64_t spanId)
{
    if (!keptAs(spanId) && records_.erase(spanId) && open_.erase(spanId))
        ++pruned_;
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
    // 1. Replay every shard's surviving retire records through one
    // fresh buffer. A span retires on exactly one shard, so ids are
    // unique; span-id order is independent of how the execution was
    // partitioned.
    std::vector<SpanRetire> recs;
    for (const SpanBuffer *b : bufs) {
        run.recordedSpans += b->recorded();
        for (const auto &r : b->records())
            recs.push_back(r.second);
    }
    std::sort(recs.begin(), recs.end(),
              [](const SpanRetire &a, const SpanRetire &b) {
                  return a.spanId < b.spanId;
              });
    SpanBuffer merged(run.params);
    for (const SpanRetire &rec : recs)
        merged.retire(rec);

    // 2. Build the kept records: merge each span's events from every
    // buffer and sort them into the canonical causal order.
    for (const auto &[id, rec] : merged.records()) {
        SpanRecord out;
        out.info = rec;
        out.kept = merged.keptAs(id);
        out.finisher = merged.isFinisher(id);
        for (const SpanBuffer *b : bufs) {
            const std::vector<SpanEvent> *ev = b->eventsOf(id);
            if (ev)
                out.events.insert(out.events.end(), ev->begin(),
                                  ev->end());
        }
        ns_assert(!out.events.empty(), "kept span ", hexId(id),
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
       << ",\"seed\":\"" << hexId(kSpanSeed)
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
