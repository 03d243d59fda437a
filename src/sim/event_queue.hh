/**
 * @file
 * Deterministic discrete-event queue.
 *
 * The event queue is the heart of the simulator. Components schedule
 * callbacks at absolute ticks; the queue executes them in (tick, insertion
 * order) order, which makes every simulation run bit-reproducible for a
 * given seed.
 *
 * Internally the queue is a two-level scheduler over a pooled event
 * store (see event_pool.hh):
 *
 *  - a timing-wheel ring of near-future buckets (bucketGranularity
 *    ticks each) absorbs the dominant short-delay events - link
 *    serialization, switch pipes, RIG chunk steps - with O(1) insertion
 *    and a tiny per-bucket heap for dispatch;
 *  - an overflow min-heap holds far-future events (watchdogs, the
 *    simulation cap) and cascades into the ring as the wheel rotates.
 *
 * Both levels order events by one deterministic (tick, key) pair. The
 * 64-bit key carries two disjoint bands:
 *
 *  - delivery events (packet arrivals, scheduleDelivery) occupy the
 *    low band: (link ordering id, per-link packet sequence). The key
 *    is derived from the traffic itself, so the same packet sorts
 *    identically no matter which queue it was inserted into or when -
 *    the property the sharded parallel engine (sim/shard_engine.hh)
 *    needs for stats that are byte-identical at any shard count;
 *  - plain schedule() events occupy the high band with an insertion
 *    sequence, preserving exact same-tick FIFO semantics among
 *    themselves.
 *
 * At equal ticks every delivery therefore runs before every internal
 * event, mirroring the common sequential case where the arrival was
 * scheduled (a link latency ago) long before the co-tick timer.
 */

#ifndef NETSPARSE_SIM_EVENT_QUEUE_HH
#define NETSPARSE_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_pool.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace netsparse {

class SpanBuffer;
class StampBoard;
class TelemetryProbe;
class TraceWriter;

/**
 * A two-level scheduler of timestamped callbacks with FIFO tie-breaking.
 */
class EventQueue
{
  public:
    /** Compatibility alias; any move-constructible callable works. */
    using Callback = std::function<void()>;

    EventQueue() = default;
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** First key of the internal (plain schedule) band. */
    static constexpr std::uint64_t internalKeyBase = 1ull << 63;

    /**
     * The delivery-band ordering key for packet @p seq of the link with
     * ordering id @p linkId. Strictly below every internal key.
     */
    static std::uint64_t
    deliveryKey(std::uint32_t linkId, std::uint64_t seq)
    {
        ns_assert(linkId < (1u << 23), "link ordering id overflow");
        ns_assert(seq < (1ull << 40), "per-link sequence overflow");
        return (static_cast<std::uint64_t>(linkId) << 40) | seq;
    }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * @pre when >= now(), i.e. no scheduling into the past (enforced).
     */
    template <typename F>
    void
    schedule(Tick when, F &&fn)
    {
        ns_assert(when >= now_, "event scheduled in the past: when=", when,
                  " now=", now_);
        emplace(when, nextSeq_++, std::forward<F>(fn));
    }

    /**
     * Schedule a packet delivery under an explicit delivery-band
     * @p key (see deliveryKey). Same-tick deliveries execute before
     * internal events, ordered by key - an order that is a function of
     * the traffic alone, so it is identical whether the delivery was
     * scheduled locally or merged in from another shard's channel.
     */
    template <typename F>
    void
    scheduleDelivery(Tick when, std::uint64_t key, F &&fn)
    {
        ns_assert(when >= now_, "delivery scheduled in the past: when=",
                  when, " now=", now_);
        ns_assert(key < internalKeyBase, "delivery key in internal band");
        emplace(when, key, std::forward<F>(fn));
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&fn)
    {
        schedule(now_ + delay, std::forward<F>(fn));
    }

    /** True when no events remain. */
    bool empty() const { return size_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event, or maxTick when empty. */
    Tick nextEventTick() const;

    /**
     * Execute the single earliest event.
     * @return true if an event was executed.
     */
    bool step();

    /** Run until the queue drains. @return the final simulated time. */
    Tick run();

    /**
     * Run until the queue drains or simulated time would pass @p limit.
     * Events scheduled exactly at @p limit still execute.
     */
    Tick runUntil(Tick limit);

    /** Total number of events executed so far (for micro-benchmarks). */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Account @p n extra executed events on behalf of a container
     * event that stands for several logical ones (a link delivery
     * train, net/link.cc). Keeps executedEvents() - and the telemetry
     * events series built from it - equal to the split execution of
     * the same work, which is what holds the count shard-invariant.
     */
    void addExecutedEvents(std::uint64_t n) { executed_ += n; }

    /**
     * Advance now() to @p t without executing anything. The parallel
     * engine uses this after the epoch loop so every shard's clock
     * agrees on the global final tick (e.g. link utilization divides
     * by now()). No pending event may precede @p t.
     */
    void fastForward(Tick t);

    /**
     * Hook @p probe into the dispatch loop: just before executing the
     * first event at or past @p firstBoundary the queue calls
     * probe->onBoundary() and continues at the tick it returns (see
     * sim/telemetry.hh). Null detaches. The disabled-path cost is one
     * never-true comparison per event.
     */
    void
    attachProbe(TelemetryProbe *probe, Tick firstBoundary)
    {
        probe_ = probe;
        probeNext_ = probe ? firstBoundary : maxTick;
    }

    /**
     * Attach this queue's span recorder (sim/span.hh). Components
     * reach it through spans(); null (the default) disables capture.
     * Like the telemetry probe the buffer is per-queue, so under the
     * sharded engine each shard records into its own buffer without
     * synchronization.
     */
    void setSpanBuffer(SpanBuffer *spans) { spans_ = spans; }

    /** The attached span recorder, or null when capture is off. */
    SpanBuffer *spans() const { return spans_; }

    /**
     * Attach this queue's PR lifecycle stamp board (net/pr_latency.hh),
     * per queue like the span buffer. Components reach it through
     * stampBoard(); null (the default) means nothing reads the stamps.
     */
    void setStampBoard(StampBoard *board) { stamps_ = board; }

    /** The attached stamp board, or null when no one reads stamps. */
    StampBoard *stampBoard() const { return stamps_; }

    /**
     * Attach this queue's event-trace writer (sim/trace.hh), per queue
     * like the span buffer. Components reach it through trace(), which
     * NS_TRACE tests; a writer that is not capturing attaches as null.
     */
    void setTrace(TraceWriter *trace);

    /** The attached capturing trace writer, or null. */
    TraceWriter *trace() const { return trace_; }

  private:
    /** Ticks per wheel bucket, as a shift: 4096 ps (~4 ns). */
    static constexpr unsigned bucketShift = 12;
    /**
     * Wheel size: 1024 buckets x 4 ns ~= 4.2 us of horizon, covering
     * link latency (450 ns), switch pipes (300 ns), PCIe (200 ns) and
     * every serialization delay; only watchdogs and congested-link
     * arrivals overflow to the far heap.
     */
    static constexpr std::size_t numBuckets = 1024;

    /** A scheduled event: its ordering key plus the closure's slot. */
    struct Ref
    {
        Tick when;
        std::uint64_t key;
        std::uint32_t slot;
    };

    /** Min-heap comparator over the deterministic (tick, key) pair. */
    struct Later
    {
        bool
        operator()(const Ref &a, const Ref &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.key > b.key;
        }
    };

    static std::uint64_t bucketOf(Tick t) { return t >> bucketShift; }

    /** Pool the closure and route it to the right level. */
    template <typename F>
    void
    emplace(Tick when, std::uint64_t key, F &&fn)
    {
        using D = std::decay_t<F>;
        static_assert(std::is_invocable_v<D &>,
                      "event callbacks take no arguments");
        std::uint32_t slot = pool_.acquire();
        detail::EventVtable<D>::construct(pool_.slot(slot),
                                          std::forward<F>(fn));
        enqueue(when, key, slot);
    }

    /** Route an already-pooled event to the right level. */
    void enqueue(Tick when, std::uint64_t key, std::uint32_t slot);

    /**
     * Ensure cur_ holds the globally earliest events (rotating the
     * wheel / cascading the far heap as needed).
     * @return false when the queue is empty.
     */
    bool advance();

    /** Cascade far-heap events that now fall inside the wheel window. */
    void pullFar();

    EventPool pool_;

    /**
     * Events of the bucket being drained (absolute bucket <= cursor_),
     * kept as a binary heap on (when, seq). May also receive events
     * scheduled "behind" an already-advanced cursor; bucket ranges are
     * disjoint and ordered, so cur_ always holds the global minimum.
     */
    std::vector<Ref> cur_;
    /** Near-future ring: bucket b lives at ring_[b % numBuckets]. */
    std::array<std::vector<Ref>, numBuckets> ring_;
    /** Far-future overflow heap (bucket >= cursor_ + numBuckets). */
    std::vector<Ref> far_;

    /** Absolute bucket number the wheel cursor is parked on. */
    std::uint64_t cursor_ = 0;
    /** Events currently stored in ring_ (excludes cur_ and far_). */
    std::size_t nearSize_ = 0;
    /** Total pending events across all levels. */
    std::size_t size_ = 0;

    Tick now_ = 0;
    std::uint64_t nextSeq_ = internalKeyBase;
    std::uint64_t executed_ = 0;

    /** Attached telemetry probe (see attachProbe); usually null. */
    TelemetryProbe *probe_ = nullptr;
    /** Attached span recorder (see setSpanBuffer); usually null. */
    SpanBuffer *spans_ = nullptr;
    /** Attached stamp board (see setStampBoard); usually null. */
    StampBoard *stamps_ = nullptr;
    /** Attached trace writer (see setTrace); usually null. */
    TraceWriter *trace_ = nullptr;
    /** Next sample boundary; maxTick keeps the hook branch dead. */
    Tick probeNext_ = maxTick;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_EVENT_QUEUE_HH
