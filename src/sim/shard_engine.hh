/**
 * @file
 * Conservative parallel execution of a sharded discrete-event
 * simulation.
 *
 * The cluster's component graph is partitioned into shards whose only
 * cross-shard edges are links with a positive latency floor. That
 * latency is the classic conservative-DES lookahead: an event executed
 * at tick t can only influence another shard at t + lookahead or
 * later. ShardEngine exploits it with epoch barriers:
 *
 *   1. drain phase: every shard merges the deliveries its peers sent
 *      last epoch into its private EventQueue;
 *   2. window phase: a barrier reduction computes the global earliest
 *      pending tick T; the epoch window is [T, T + lookahead);
 *   3. run phase: every shard executes its local events inside the
 *      window, depositing cross-shard packet deliveries into per-
 *      (source, destination) EpochMailbox channels.
 *
 * Any delivery generated inside the window lands at or after the
 * window's end, so it is always merged (step 1 of a later epoch)
 * before the destination shard can reach its tick - no shard ever
 * receives an event in its past.
 *
 * Determinism: deliveries are merged under their traffic-derived
 * delivery keys (EventQueue::deliveryKey) and every queue executes in
 * exact (tick, key) order, so the execution each component observes -
 * and therefore every statistic - is independent of the shard count
 * and of thread scheduling. The engine is exercised for byte-identical
 * stats JSON at 1/2/4 shards by tests/integration/
 * test_parallel_gather.cpp.
 *
 * Threading: one worker thread per shard, synchronized by a
 * std::barrier (futex-backed, so oversubscribed or single-core hosts
 * degrade gracefully). Each shard's components reach their per-run
 * instruments (trace writer, span buffer, stamp board) through its
 * queue, so a worker binds nothing.
 */

#ifndef NETSPARSE_SIM_SHARD_ENGINE_HH
#define NETSPARSE_SIM_SHARD_ENGINE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace netsparse {

class EventQueue;

class ShardEngine
{
  public:
    /** One shard: its event queue plus the engine's merge hook. */
    struct Shard
    {
        EventQueue *eq = nullptr;
        /**
         * Merge every delivery other shards queued for this shard into
         * eq (called at each epoch barrier, on this shard's worker).
         * May be empty when the shard has no inbound channels.
         */
        std::function<void()> drainInbox;
    };

    struct Result
    {
        /** Global tick of the last executed event. */
        Tick finalTick = 0;
        /** Epoch barriers the run took (observability / tests). */
        std::uint64_t epochs = 0;
        /** Events executed across all shards. */
        std::uint64_t executedEvents = 0;
    };

    /**
     * Run every shard until all queues and channels drain or the next
     * event would pass @p limit (events at exactly @p limit still
     * execute, matching EventQueue::runUntil). @p lookahead must be
     * positive and no larger than the minimum cross-shard link
     * latency. After the run every shard's now() equals the global
     * final tick. The first shard's exception (by shard index) is
     * rethrown on the calling thread.
     */
    static Result run(std::vector<Shard> shards, Tick lookahead,
                      Tick limit);
};

} // namespace netsparse

#endif // NETSPARSE_SIM_SHARD_ENGINE_HH
