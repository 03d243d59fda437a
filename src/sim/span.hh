/**
 * @file
 * Causal per-PR span tracing: the flight recorder behind --spans-out.
 *
 * A PR's span id is a stateless splitmix64 draw over (seed, tenant,
 * source node, RIG unit, reqId) - the same idiom the fault injector
 * uses - so whether a PR is traced is a pure function of the request's
 * identity, independent of shard count and execution order. The PR
 * carries only a `traced` bit (net/protocol.hh), set at issue; every
 * shard's buffer holds the same seed and recomputes the id from the
 * PR's identity wherever it records an event (SpanBuffer::idOf).
 * Every component a traced PR passes through appends one SpanEvent
 * (issue, NIC egress, per-hop wire occupancy, switch pipe,
 * Property-Cache outcome, remote fetch, retransmit, retire) to its
 * event queue's SpanBuffer; the scheduler merges the per-shard
 * buffers after the run into span trees that are byte-identical at
 * any shard count.
 *
 * Two capture modes compose:
 *
 *  - sampled (1/N): only PRs whose span id falls under the sample
 *    threshold are recorded at all - the cheap steady-state mode;
 *  - tail exemplar (top-K and/or latency threshold): every PR is
 *    recorded, and at retire time the flight recorder retroactively
 *    keeps the spans whose total latency lands in the tail, pruning
 *    the rest. A per-shard keep-heap under the global (total, spanId)
 *    order makes the pruning loss-free: a span retires on exactly one
 *    shard, so the global top-K is a subset of the union of per-shard
 *    top-Ks and the merged selection is shard-invariant. The
 *    per-tenant last-retiring span (the makespan finisher) is always
 *    kept so critical-path attribution of the makespan is possible.
 *
 * The export schema is netsparse-spans-v1 (docs/observability.md);
 * spans are also emitted as Perfetto async-span events through the
 * TraceWriter when a trace is being captured. With spans disabled the
 * per-event cost is one null-pointer test behind a per-packet flag,
 * and every other output document is unchanged byte for byte.
 */

#ifndef NETSPARSE_SIM_SPAN_HH
#define NETSPARSE_SIM_SPAN_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/rng.hh"
#include "sim/run_document.hh"
#include "sim/types.hh"

namespace netsparse {

class TraceWriter;

/** The causal stages a span's events are tagged with. The enum order
 *  is the same-tick sort rank at merge time, chosen to follow the PR
 *  lifecycle, so it is part of the output contract. */
enum class SpanStage : std::uint8_t
{
    Issue,      ///< RIG client emitted the read (detail: property idx).
    Retransmit, ///< Reliable-PR layer re-sent the read (detail: attempt).
    NicEgress,  ///< The PR left its SNIC concatenator (detail: PRs/pkt).
    LinkTx,     ///< Wire occupancy on one link (dur: serialization).
    SwitchPipe, ///< Switch ingress pipe + cache port (dur: pipe delay).
    CacheHit,   ///< ToR Property Cache manufactured the response.
    CacheMiss,  ///< ToR Property Cache lookup missed.
    CacheBypass,///< Read skipped the cache (corruption refetch).
    Fetch,      ///< Remote server pipeline + PCIe + DRAM (dur: fetch).
    Retire,     ///< Accepted response retired at the issuing client.
};

/** Stable stage name ("issue", "linkTx", ...) for the JSON export. */
const char *spanStageName(SpanStage s);

/** One recorded event of a span. Events are grouped per span id inside
 *  the buffers; the id itself is the map key, not stored per event. */
struct SpanEvent
{
    Tick tick = 0;
    Tick dur = 0;
    /** Cluster-wide component id: index into the run's name table. */
    std::uint32_t comp = 0;
    SpanStage stage = SpanStage::Issue;
    /** Stage-specific detail (property idx, attempt, PRs per packet). */
    std::uint64_t detail = 0;
};

/** Span capture configuration (ClusterConfig::spans). */
struct SpanParams
{
    /** Record 1 in N issued PRs (0 = no sampling). */
    std::uint32_t sampleEvery = 0;
    /** Keep the K largest-latency spans per run (0 = off). */
    std::uint32_t tailKeep = 0;
    /** Also keep every span with total latency >= this (0 = off). */
    Tick tailThreshold = 0;
    /** Sampling-hash seed; fixed default keeps documents reproducible. */
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;

    bool
    enabled() const
    {
        return sampleEvery != 0 || tailKeep != 0 || tailThreshold != 0;
    }

    /** Tail modes must see every PR to select retroactively. */
    bool recordAll() const { return tailKeep != 0 || tailThreshold != 0; }

    /** Keep-if-below threshold over the uniform 64-bit id space. */
    std::uint64_t
    sampleThreshold() const
    {
        if (sampleEvery == 0)
            return 0;
        if (sampleEvery == 1)
            return ~0ull;
        return ~0ull / sampleEvery;
    }

    bool
    sampled(std::uint64_t spanId) const
    {
        return sampleEvery != 0 && spanId <= sampleThreshold();
    }
};

/**
 * The deterministic span id of one issued PR. A pure function of the
 * request's identity, so every shard layout computes the same id and
 * the 1/N sampling decision (id <= threshold) is shard-invariant.
 * Never returns 0.
 */
inline std::uint64_t
spanIdFor(std::uint64_t seed, std::uint16_t tenant, NodeId src,
          std::uint16_t srcTid, std::uint32_t reqId)
{
    std::uint64_t h = splitmix64(seed ^ 0x5370616eull); // "Span"
    h = splitmix64(h ^ (static_cast<std::uint64_t>(tenant) << 48) ^
                   (static_cast<std::uint64_t>(src) << 16) ^ srcTid);
    h = splitmix64(h ^ reqId);
    return h ? h : 1;
}

/** Retire-time summary of one recorded span (the selection record). */
struct SpanRetire
{
    std::uint64_t spanId = 0;
    Tick issueTick = 0;
    Tick retireTick = 0;
    std::uint16_t tenant = 0;
    NodeId src = invalidNode;
    std::uint16_t srcTid = 0;
    std::uint32_t reqId = 0;
    bool servedByCache = false;
    std::uint32_t retransmits = 0;

    Tick totalTicks() const { return retireTick - issueTick; }
};

/**
 * The per-event-queue span recorder. Components reach it through
 * EventQueue::spans() (null when capture is off), so under the sharded
 * engine every shard appends to its own buffer with no synchronization;
 * recording order within a buffer follows per-shard execution order.
 */
class SpanBuffer
{
  public:
    explicit SpanBuffer(const SpanParams &params)
        : params_(params),
          threshold_(params.recordAll() ? ~0ull : params.sampleThreshold())
    {}

    /**
     * The span id of @p pr (a PropertyRequest, net/protocol.hh): a
     * retransmit and the response share the original read's id.
     */
    template <typename Pr>
    std::uint64_t
    idOf(const Pr &pr) const
    {
        return spanIdFor(params_.seed, pr.tenant, pr.src, pr.srcTid,
                         pr.reqId);
    }

    /** Issue-time decision: record the PR whose span id is @p id? */
    bool traces(std::uint64_t id) const { return id <= threshold_; }

    /** Append one event to span @p spanId. */
    void
    record(std::uint64_t spanId, SpanStage stage, std::uint32_t comp,
           Tick tick, Tick dur = 0, std::uint64_t detail = 0)
    {
        open_[spanId].push_back(SpanEvent{tick, dur, comp, stage, detail});
    }

    /**
     * The issuing client's accepted response arrived: close the span.
     * In tail mode this is where the flight recorder decides - spans
     * that can no longer land in the kept set (not sampled, below the
     * latency threshold, pushed out of the per-shard top-K keep-heap,
     * and not the tenant's current last finisher) have their local
     * events pruned immediately, bounding sequential-run memory.
     */
    void retire(const SpanRetire &rec);

    /** Retire-time summaries, in local retire order. */
    const std::vector<SpanRetire> &retired() const { return retired_; }

    /** Spans whose events were pruned by the flight recorder. */
    std::uint64_t prunedSpans() const { return pruned_; }

    /** Events of @p spanId still held here (empty vector if none). */
    const std::vector<SpanEvent> *
    eventsOf(std::uint64_t spanId) const
    {
        auto it = open_.find(spanId);
        return it == open_.end() ? nullptr : &it->second;
    }

    const SpanParams &params() const { return params_; }

  private:
    /** Drop @p spanId's local events unless some keeper references it. */
    void maybePrune(std::uint64_t spanId);

    SpanParams params_;
    /** Trace ids up to this: all in tail modes, else 1 in sampleEvery
     *  (0 when neither, and no id is 0). */
    std::uint64_t threshold_;
    /** Events by span id: local stages of own spans plus hop events of
     *  spans issued on other shards (never retired here). */
    std::unordered_map<std::uint64_t, std::vector<SpanEvent>> open_;
    std::vector<SpanRetire> retired_;

    /** Tail keep-heap: min-heap of (total, spanId) under the global
     *  "larger total wins, smaller id breaks ties" order. */
    std::vector<std::pair<Tick, std::uint64_t>> heap_;
    std::unordered_set<std::uint64_t> heapIds_;
    /** Spans kept outright (sampled or over the latency threshold). */
    std::unordered_set<std::uint64_t> keptIds_;
    /** Per-tenant last-retiring span: tenant -> (retireTick, spanId). */
    std::unordered_map<std::uint16_t, std::pair<Tick, std::uint64_t>>
        finisher_;
    std::uint64_t pruned_ = 0;
};

/** One exported span: summary, keep reason, and its sorted event tree. */
struct SpanRecord
{
    SpanRetire info;
    /** Why the span was kept: "sampled" or "tail". */
    std::string kept;
    /** True for the per-tenant last-retiring (makespan-defining) span. */
    bool finisher = false;
    std::vector<SpanEvent> events;
    /** events[i]'s causal parent: index into events, -1 for the root. */
    std::vector<int> parent;
};

/** One run section of the netsparse-spans-v1 document. */
struct SpanRun
{
    SpanParams params;
    Tick finalTick = 0;
    /** Spans recorded before selection (retired with a span id). */
    std::uint64_t recordedSpans = 0;
    /** Component id -> name, in cluster construction order. */
    std::vector<std::string> components;
    /** Kept spans, largest total latency first. */
    std::vector<SpanRecord> spans;
};

/**
 * Merge the per-shard buffers of one run into @p run: apply the
 * selection (sampled union tail union per-tenant finishers), gather and
 * sort each kept span's events by (tick, stage rank, comp, dur,
 * detail), and build the parent chain. Deterministic for any @p bufs
 * partition of the same execution, which is what makes the document
 * byte-identical at 1/2/4 shards.
 */
void buildSpanRun(SpanRun &run, const std::vector<SpanBuffer *> &bufs);

/**
 * Emit @p run's kept spans as Perfetto async-span events ('b'/'e',
 * id = span id) on @p tw, one pair per critical-path segment, tagged
 * with tenant (plus a constant "fidelity":"exact" arg).
 */
void exportSpansToTrace(TraceWriter &tw, const SpanRun &run);

template <>
struct RunFormat<SpanRun>
{
    static constexpr const char *schema = "netsparse-spans-v1";
    static constexpr const char *noun = "spans";
    static void write(std::ostream &os, const SpanRun &run);
};

/** The collector behind --spans-out (sim/run_document.hh). */
using SpanSink = RunDocument<SpanRun>;

} // namespace netsparse

#endif // NETSPARSE_SIM_SPAN_HH
