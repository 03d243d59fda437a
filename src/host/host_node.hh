/**
 * @file
 * The host-side driver of one node's communication phase.
 *
 * A single CPU core (Section 8.1: NetSparse dedicates one core per node
 * to control the SNIC) walks the node's nonzero idx stream, slices it
 * into RIG batches, and keeps every free client RIG unit fed. Command
 * issue costs the core a fixed overhead, serializing issues, which is
 * what makes very small batch sizes expensive (Figure 15).
 */

#ifndef NETSPARSE_HOST_HOST_NODE_HH
#define NETSPARSE_HOST_HOST_NODE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "host/verbs.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"
#include "snic/snic.hh"

namespace netsparse {

/** How the host chooses RIG batch sizes. */
enum class BatchPolicy : std::uint8_t
{
    /** Fixed batchSize (0 = one-shot automatic sizing). */
    Static,
    /**
     * The Section 9.4 future-work extension: adapt the batch size at
     * runtime with an AIMD rule - when completions find many client
     * units idle the batches are too coarse (intra-node imbalance), so
     * halve them; when all units stay busy, grow batches additively to
     * amortize the per-command issue overhead.
     */
    Adaptive,
};

/** Host driver parameters. */
struct HostConfig
{
    /**
     * Nonzeros per RIG command (paper default 32k / 8k per matrix).
     * 0 selects automatic sizing: the stream is split so every client
     * RIG unit gets work (about two batches each), clamped to
     * [autoBatchMin, HostNode::kAutoBatchMax]. This keeps scaled-down
     * matrices from collapsing onto a single unit.
     */
    std::uint32_t batchSize = 0;
    std::uint32_t autoBatchMin = 512;
    /** Batch-size selection policy. */
    BatchPolicy policy = BatchPolicy::Static;
};

/** Drives one node's gather through the verbs layer. */
class HostNode
{
  public:
    /**
     * @param idx_stream the cids of the node's nonzeros in row-scan
     *        order. The vector must outlive the run.
     */
    HostNode(EventQueue &eq, HostConfig cfg, Snic &snic,
             std::vector<std::uint32_t> idx_stream,
             std::uint32_t prop_bytes);

    /** Kick off the gather; done() turns true when all batches finish. */
    void start();

    /** Simulated time when the last batch completed. */
    Tick finishTick() const { return finishTick_; }

    /** True once every batch completed (successfully or not). */
    bool done() const { return done_; }

    /** Command completions that reported failure (pre-retry). */
    std::uint64_t failures() const { return failures_; }

    /** Failed commands the host re-posted. */
    std::uint64_t commandRetries() const { return commandRetries_; }

    /** Batches abandoned after exhausting kCommandRetries. */
    std::uint64_t permanentFailures() const { return permanentFailures_; }

    std::uint64_t commandsIssued() const { return commandsIssued_; }

  private:
    /**
     * Re-posts of a RIG command after a watchdog/retry-budget failure
     * before the host gives up on that batch. The zero-fault path never
     * fails a command, so this costs nothing when the fabric is
     * lossless.
     */
    static constexpr std::uint32_t kCommandRetries = 3;
    /** Largest automatic or adaptive batch (paper default 32k). */
    static constexpr std::uint32_t kAutoBatchMax = 32768;
    /** Core time to assemble and post one work request. */
    static constexpr Tick kCommandIssueOverhead = 250 * ticks::ns;

    /** One posted batch, remembered until its completion arrives so a
     *  watchdog-failed command can be re-posted (retry-after-failure). */
    struct InflightBatch
    {
        std::size_t offset = 0;
        std::size_t count = 0;
        std::uint32_t attempts = 0;
    };

    /** A posted batch keyed by its work-request id. */
    struct InflightEntry
    {
        std::uint64_t wrId = 0;
        InflightBatch batch;
    };

    void pump();
    void drainCq();

    EventQueue &eq_;
    HostConfig cfg_;
    Snic &snic_;
    std::vector<std::uint32_t> stream_;
    std::uint32_t propBytes_;
    RigQueuePair qp_;

    std::size_t nextOffset_ = 0;
    Tick coreFreeAt_ = 0;
    bool issueScheduled_ = false;
    bool done_ = false;
    Tick finishTick_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t commandsIssued_ = 0;
    std::uint64_t nextWrId_ = 1;

    /**
     * Posted batches, wrId-sorted (ids are issued monotonically, so
     * push_back keeps the order). Outstanding depth is bounded by the
     * SNIC's client-unit count, so a flat vector replaces the former
     * std::map: no per-batch heap node, and at 1024 nodes the host-side
     * bookkeeping stays a few cache lines per node.
     */
    std::vector<InflightEntry> inflightBatches_;
    /** Failed batches waiting to be re-posted, oldest first. */
    std::deque<InflightBatch> retryQueue_;
    std::uint64_t commandRetries_ = 0;
    std::uint64_t permanentFailures_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_HOST_HOST_NODE_HH
