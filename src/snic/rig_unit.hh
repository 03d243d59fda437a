/**
 * @file
 * RIG Units (Sections 5.1-5.3, Figure 5).
 *
 * A client RIG unit executes coarse-grained Remote Indexed Gather
 * commands: it DMAs a batch of nonzero idxs from host memory, walks them
 * at one idx per SNIC cycle in a pipelined fashion, drops redundant ones
 * against the node-wide Idx Filter (filtering) and its private Pending
 * PR Table (coalescing), resolves the destination node of survivors, and
 * emits read PRs toward the NIC concatenator. It stalls only when the
 * Pending PR Table is full or the NIC transmit path backpressures.
 *
 * A server RIG unit turns incoming read PRs into response PRs by
 * fetching the property from its host's memory over PCIe, pipelined at
 * one PR per cycle.
 *
 * Simulation note: idx processing is batched into chunk events
 * (chunkPerEvent idxs per event) with exact cycle accounting, which
 * preserves throughput and stall behaviour at a tiny event cost.
 */

#ifndef NETSPARSE_SNIC_RIG_UNIT_HH
#define NETSPARSE_SNIC_RIG_UNIT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "snic/idx_filter.hh"
#include "snic/pcie.hh"
#include "snic/pending_table.hh"
#include "sparse/partition.hh"

namespace netsparse {

struct PrLatencyStats;
class TraceWriter;

/**
 * The reliable-PR transport policy of a client RIG unit.
 *
 * When enabled, every issued read PR is tracked until its response
 * arrives; a PR whose response is overdue is retransmitted with
 * exponential backoff under a bounded retry budget, corrupt responses
 * are NACKed and refetched from the home node (bypassing the Property
 * Cache), and duplicate responses - the flip side of retransmission -
 * are suppressed by reqId. Disabled by default: the lossless fabric of
 * the paper needs none of it, and the zero-fault event stream must stay
 * bit-identical to the non-resilient simulator.
 */
struct RetryPolicy
{
    bool enabled = false;
    /** Response timeout of a PR's first attempt. */
    Tick timeout = 100 * ticks::us;
    /** Timeout multiplier per successive attempt. */
    double backoff = 2.0;
    /**
     * Retransmissions allowed per PR before the command fails; at most
     * 255, the range of PropertyRequest::attempt.
     */
    std::uint32_t maxRetries = 6;
};

/** Per-RIG-unit parameters (Table 5 defaults). */
struct RigUnitConfig
{
    /** SNIC clock. */
    double clockHz = 2.2e9;
    /** Pending PR Table entries. */
    std::uint32_t pendingCapacity = 256;
    /** Idx Buffer SRAM (DMA staging for idx batches). */
    std::uint32_t idxBufferBytes = 4096;
    /** Rx Property Buffer SRAM. */
    std::uint32_t propBufferBytes = 4096;
    /** Idxs processed per simulation event. */
    std::uint32_t chunkPerEvent = 32;
    /** Drop PRs whose Idx Filter bit is set. */
    bool filterEnabled = true;
    /** Drop PRs matching an outstanding entry of this unit. */
    bool coalesceEnabled = true;
    /** How long to wait before re-checking a backpressured Tx path. */
    Tick txRetryInterval = 100 * ticks::ns;
    /** Host DRAM access latency seen by server units. */
    Tick serverMemLatency = 100 * ticks::ns;
    /** Watchdog timeout for a RIG operation; 0 disables (Section 7.1). */
    Tick watchdogTimeout = 0;
    /** Reliable-PR retransmission layer (see RetryPolicy). */
    RetryPolicy retry;
};

/** One Remote Indexed Gather command (the IBV_WR_RIG work request). */
struct RigCommand
{
    /** Host-memory idx list (one entry per nonzero of the batch). */
    const std::uint32_t *idxs = nullptr;
    std::size_t count = 0;
    /** Property size in bytes (K * 4). */
    std::uint32_t propBytes = 0;
    /** Caller-chosen identifier. */
    std::uint64_t commandId = 0;
    /** Invoked once, with success=false on watchdog failure. */
    std::function<void(bool success)> onComplete;
};

/** Services an SNIC provides to its RIG units. */
class SnicContext
{
  public:
    virtual ~SnicContext() = default;

    /** This node's id. */
    virtual NodeId selfNode() const = 0;
    /** Tenant (job) id this SNIC slice belongs to; 0 on single-job
     *  runs (see PropertyRequest::tenant). */
    virtual std::uint16_t tenant() const { return 0; }
    /** The home node of a property (the Destination Solver's answer). */
    virtual NodeId ownerOf(PropIdx idx) const = 0;
    /**
     * The partition behind ownerOf, when there is one, or null. The
     * per-idx client loop uses it to resolve owners inline (the
     * equal-rows stride divide) instead of paying a virtual call plus
     * a std::function dispatch per nonzero. Must agree with ownerOf.
     */
    virtual const Partition1D *ownerPartition() const { return nullptr; }
    /** Hand a PR to the NIC transmit path. */
    virtual void sendPr(PropertyRequest &&pr, NodeId dest) = 0;
    /** True while the transmit buffer is too full to accept PRs. */
    virtual bool txBackpressured() const = 0;
    /** The node-wide Idx Filter. */
    virtual IdxFilter &idxFilter() = 0;
    /** The host-SNIC PCIe connection. */
    virtual PcieModel &pcie() = 0;

    /** Trace/stats identity of the owning SNIC (e.g. "node3.snic"). */
    virtual const std::string &
    nodeName() const
    {
        static const std::string fallback = "snic";
        return fallback;
    }

    /**
     * The node's PR latency collector, or null when lifecycle
     * accounting is off (the telemetry-disabled default).
     */
    virtual PrLatencyStats *prLatency() { return nullptr; }

    /** This SNIC's component id in the run's span name table
     *  (sim/span.hh); only consulted for traced PRs. */
    virtual std::uint32_t spanComp() const { return 0; }
};

/** Statistics of one client RIG unit. */
struct RigClientStats
{
    std::uint64_t commands = 0;
    std::uint64_t idxsProcessed = 0;
    std::uint64_t localIdxs = 0;
    std::uint64_t prsIssued = 0;
    std::uint64_t filtered = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t responses = 0;
    std::uint64_t staleResponses = 0;
    std::uint64_t pendingStalls = 0;
    std::uint64_t txStalls = 0;
    std::uint64_t watchdogFailures = 0;
    // Recovery counters; all zero unless RetryPolicy::enabled.
    std::uint64_t retransmits = 0;
    std::uint64_t nacks = 0;
    std::uint64_t corruptDropped = 0;
    std::uint64_t duplicatesSuppressed = 0;
    std::uint64_t retriesExhausted = 0;
};

/** A RIG unit configured as a client thread. */
class RigClientUnit
{
  public:
    RigClientUnit(EventQueue &eq, const RigUnitConfig &cfg,
                  SnicContext &ctx, std::uint16_t tid);

    /** True while a command is executing. */
    bool busy() const { return active_; }

    std::uint16_t tid() const { return tid_; }

    /** Begin a RIG command. @pre !busy(). */
    void start(RigCommand cmd);

    /** Deliver a response PR addressed to this unit. */
    void onResponse(const PropertyRequest &pr);

    const RigClientStats &stats() const { return stats_; }

    /** The unit's Pending PR Table (occupancy statistics). */
    const PendingPrTable &pendingTable() const { return pending_; }

    /** Issued read PRs still awaiting a response (telemetry). */
    std::uint64_t outstandingPrs() const { return outstanding_; }

  private:
    /** One issued read PR awaiting its response (retry enabled). */
    struct InflightPr
    {
        PropIdx idx = 0;
        NodeId dest = invalidNode;
        /** Retransmissions performed so far. */
        std::uint32_t attempts = 0;
        /** When the next missing response triggers a retransmit. */
        Tick deadline = 0;
        /** Refetch after corruption: skip the Property Cache. */
        bool bypassCache = false;
    };

    void scheduleChunk(Tick when);
    /** Trace track for this unit ("<node>.rig<tid>") in @p tw. */
    std::uint32_t traceTrack(TraceWriter &tw) const;
    void processChunk();
    void maybeComplete();
    void finish(bool success);
    /** Build and transmit one read PR; @p attempt > 0 on retransmits
     *  (span events tag re-sends instead of re-opening the span). */
    void sendReadPr(std::uint32_t reqId, PropIdx idx, NodeId dest,
                    bool bypassCache, std::uint32_t attempt = 0);
    /** Backoff delay before attempt number @p attempts times out. */
    Tick retryDelay(std::uint32_t attempts) const;
    /** Ensure the retry timer fires no later than @p deadline. */
    void armRetryTimer(Tick deadline);
    /** Retransmit every overdue in-flight PR; fail on budget burnout. */
    void checkRetransmits();

    EventQueue &eq_;
    RigUnitConfig cfg_;
    SnicContext &ctx_;
    std::uint16_t tid_;
    Clock clock_;
    PendingPrTable pending_;

    bool active_ = false;
    RigCommand cmd_;
    std::size_t nextIdx_ = 0;
    std::uint64_t outstanding_ = 0;
    std::uint32_t nextReqId_ = 0;
    /** First reqId of the live command: the staleness watermark. */
    std::uint32_t cmdReqIdBase_ = 0;
    bool chunkScheduled_ = false;
    bool waitingForPending_ = false;
    std::uint64_t epoch_ = 0; // invalidates watchdogs/events across cmds
    Tick lastWriteDone_ = 0;

    /** In-flight reads by reqId; ordered so retransmit scans are
     *  deterministic. Populated only when retry is enabled. */
    std::map<std::uint32_t, InflightPr> inflight_;
    /** Deadline the armed retry timer targets; 0 when unarmed. */
    Tick retryTimerAt_ = 0;
    /** Invalidates superseded retry-timer events. */
    std::uint64_t retryTimerGen_ = 0;

    RigClientStats stats_;
};

/** Statistics of one server RIG unit. */
struct RigServerStats
{
    std::uint64_t readsServed = 0;
    std::uint64_t bytesFetched = 0;
};

/** A RIG unit configured as a server thread. */
class RigServerUnit
{
  public:
    RigServerUnit(EventQueue &eq, const RigUnitConfig &cfg,
                  SnicContext &ctx, std::uint16_t tid);

    std::uint16_t tid() const { return tid_; }

    /** Serve one incoming read PR. */
    void handleRead(PropertyRequest &&pr);

    /**
     * Serve one read without scheduling the response event: performs
     * the full pipeline and PCIe/memory accounting, rewrites @p pr
     * into its response in place, and returns the fetch-complete tick.
     * The caller owns sending the response at (or after) that tick -
     * the SNIC's batched receive path (snic.cc) uses this to collapse
     * a packet's worth of reads into a single response-send event.
     */
    Tick prepareRead(PropertyRequest &pr);

    const RigServerStats &stats() const { return stats_; }

  private:
    EventQueue &eq_;
    RigUnitConfig cfg_;
    SnicContext &ctx_;
    std::uint16_t tid_;
    Clock clock_;
    Tick nextIssue_ = 0;

    RigServerStats stats_;
};

} // namespace netsparse

#endif // NETSPARSE_SNIC_RIG_UNIT_HH
