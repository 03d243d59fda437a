#include "sim/shard_engine.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <exception>
#include <thread>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace netsparse {

namespace {

void
atomicMinTick(std::atomic<Tick> &slot, Tick value)
{
    Tick seen = slot.load(std::memory_order_relaxed);
    while (value < seen &&
           !slot.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

ShardEngine::Result
ShardEngine::run(std::vector<Shard> shards, Tick lookahead, Tick limit)
{
    const std::size_t numShards = shards.size();
    ns_assert(numShards > 0, "shard engine needs at least one shard");
    for (const Shard &s : shards)
        ns_assert(s.eq, "shard without an event queue");

    Result result;
    if (numShards == 1) {
        // Degenerate sharding: plain sequential execution, no threads,
        // no barriers. The delivery-key merge order is the same one the
        // local scheduling path uses, so this is the N-shard reference.
        if (shards[0].drainInbox)
            shards[0].drainInbox();
        result.finalTick = shards[0].eq->runUntil(limit);
        result.executedEvents = shards[0].eq->executedEvents();
        return result;
    }
    ns_assert(lookahead > 0,
              "conservative sharding needs positive lookahead");

    // The epoch window start is the earliest pending tick across all
    // shards, computed as a min-reduction right before each barrier.
    // Double-buffered by epoch parity: while epoch e reads buffer
    // (e & 1), buffer ((e + 1) & 1) is being reset for the next epoch.
    std::atomic<Tick> windowStart[2] = {maxTick, maxTick};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(numShards);
    std::atomic<std::uint64_t> epochs{0};
    std::barrier<> barrier(static_cast<std::ptrdiff_t>(numShards));

    auto worker = [&](std::size_t self) {
        EventQueue &eq = *shards[self].eq;
        for (std::uint64_t e = 0;; ++e) {
            try {
                if (shards[self].drainInbox)
                    shards[self].drainInbox();
            } catch (...) {
                if (!errors[self])
                    errors[self] = std::current_exception();
            }
            // Failures (this epoch's drain or the last epoch's window)
            // are published only here, before the first barrier. Other
            // shards read the flag between the two barriers, so a store
            // made from inside the window could reach some of them and
            // not others: those would leave the loop while the rest
            // waited at the second barrier forever.
            if (errors[self])
                failed.store(true, std::memory_order_relaxed);
            atomicMinTick(windowStart[e & 1], eq.nextEventTick());
            barrier.arrive_and_wait();
            // Every worker reads the same reduced value and the same
            // failure flag (both written before the barrier), so all
            // shards leave the loop at the same epoch.
            // start == maxTick means no shard has pending work and the
            // just-drained channels were empty: the system is globally
            // idle (deliveries produced in epoch e are merged at epoch
            // e + 1 before this reduction, so in-flight work always
            // shows up here).
            Tick start = windowStart[e & 1].load(std::memory_order_relaxed);
            if (start == maxTick || start > limit ||
                failed.load(std::memory_order_relaxed)) {
                if (self == 0)
                    epochs.store(e, std::memory_order_relaxed);
                break;
            }
            Tick end = start + lookahead - 1;
            if (end < start || end > limit) // saturate near maxTick
                end = limit;
            try {
                eq.runUntil(end);
            } catch (...) {
                if (!errors[self])
                    errors[self] = std::current_exception();
            }
            windowStart[(e + 1) & 1].store(maxTick,
                                           std::memory_order_relaxed);
            barrier.arrive_and_wait();
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(numShards);
    for (std::size_t i = 0; i < numShards; ++i)
        pool.emplace_back(worker, i);
    for (std::thread &t : pool)
        t.join();

    for (std::size_t i = 0; i < numShards; ++i)
        if (errors[i])
            std::rethrow_exception(errors[i]);

    result.epochs = epochs.load(std::memory_order_relaxed);
    for (const Shard &s : shards) {
        result.finalTick = std::max(result.finalTick, s.eq->now());
        result.executedEvents += s.eq->executedEvents();
    }
    // Align every shard clock with the global end of simulation so
    // time-normalized statistics (link utilization, goodput) read the
    // same denominator a single-queue run would.
    for (const Shard &s : shards)
        s.eq->fastForward(result.finalTick);
    return result;
}

} // namespace netsparse
