#include "concat/concatenator.hh"

#include <algorithm>

#include "sim/arena.hh"
#include "sim/logging.hh"
#include "sim/trace.hh"

namespace netsparse {

Concatenator::Concatenator(EventQueue &eq, ConcatConfig cfg, Emit emit,
                           std::string name)
    : eq_(eq), cfg_(cfg), emit_(std::move(emit)), name_(std::move(name))
{
    ns_assert(emit_, "concatenator needs an emit sink");
    if (cfg_.virtualized) {
        ns_assert(cfg_.physicalCqBytes > cfg_.proto.prHeaderBytes,
                  "physical CQs too small to hold any PR");
    }
}

void
Concatenator::emitSolo(PropertyRequest &&pr, NodeId dest)
{
    Packet pkt;
    pkt.src = pr.src;
    pkt.dest = dest;
    pkt.type = pr.type;
    pkt.tenant = pr.tenant;
    pkt.concatenated = false;
    pkt.spanned = pr.traced;
    pkt.prs = acquirePrBuffer(1);
    pkt.prs.push_back(std::move(pr));
    ++packetsEmitted_;
    prsPerPacket_.sample(1.0);
    emit_(std::move(pkt));
}

std::uint32_t
Concatenator::physicalBlocks(std::uint32_t bytes) const
{
    if (bytes == 0)
        return 0;
    return (bytes + cfg_.physicalCqBytes - 1) / cfg_.physicalCqBytes;
}

void
Concatenator::evictForSpace()
{
    // The physical pool is exhausted: concatenate the fullest virtual CQ
    // into a packet to recycle its blocks. Ties go to the lowest dense
    // index (dest-major order), which is deterministic by construction.
    Cq *victim = nullptr;
    for (auto &cq : queues_) {
        if (cq.bytes == 0)
            continue;
        if (!victim || cq.bytes > victim->bytes)
            victim = &cq;
    }
    ns_assert(victim, "physical CQ pool exhausted with no occupant");
    flush(*victim, "flush.evict");
}

void
Concatenator::push(PropertyRequest &&pr, NodeId dest)
{
    ++prsPushed_;
    if (!cfg_.enabled) {
        emitSolo(std::move(pr), dest);
        return;
    }

    std::size_t idx = denseKey(pr.type, dest, pr.tenant);
    if (idx >= queues_.size())
        queues_.resize(idx + 1);
    Cq &cq = queues_[idx];
    if (cq.dest == invalidNode) {
        cq.dest = dest;
        cq.type = pr.type;
    }

    std::uint32_t pr_bytes = cfg_.proto.prWireBytes(pr);
    std::uint32_t capacity =
        cfg_.proto.mtuBytes - cfg_.proto.concatBaseBytes();
    ns_assert(pr_bytes <= capacity, "one PR larger than the MTU: ",
              pr_bytes, " > ", capacity);

    // A PR that does not fit forces the CQ's current content out first.
    if (cq.bytes + pr_bytes > capacity) {
        ++flushesByFill_;
        flush(cq, "flush.fill");
    }

    if (cfg_.virtualized) {
        // Allocate physical blocks on demand; recycle when out of pool.
        while (blocksInUse_ - physicalBlocks(cq.bytes) +
                   physicalBlocks(cq.bytes + pr_bytes) >
               cfg_.numPhysicalCqs) {
            std::uint32_t before = cq.bytes;
            evictForSpace();
            // Eviction may have flushed this very CQ.
            if (cq.bytes < before)
                break;
        }
        blocksInUse_ -= physicalBlocks(cq.bytes);
        blocksInUse_ += physicalBlocks(cq.bytes + pr_bytes);
    }

    bool was_empty = cq.prs.empty();
    cq.spanned |= pr.traced;
    cq.prs.push_back(std::move(pr));
    Tick now = eq_.now();
    if (was_empty)
        cq.enterFirst = now;
    cq.enterLast = now;
    cq.enterSum += now;
    cq.bytes += pr_bytes;
    ++pendingPrs_;
    occupiedBytes_ += pr_bytes;
    maxOccupiedBytes_ = std::max(maxOccupiedBytes_, occupiedBytes_);

    if (was_empty)
        arm(idx);

    // Nothing smaller than a bare PR header can ever arrive, so a CQ with
    // less than that much room left can only be flushed; do it eagerly.
    if (cq.bytes + cfg_.proto.prHeaderBytes > capacity) {
        ++flushesByFill_;
        flush(cq, "flush.fill");
    }
}

void
Concatenator::arm(std::size_t idx)
{
    Cq &cq = queues_[idx];
    if (cfg_.delay == 0) {
        // Degenerate configuration: PRs never wait; flush immediately.
        ++flushesByExpiry_;
        flush(cq, "flush.expiry");
        return;
    }
    cq.armed = true;
    ++eqOccupancy_;
    maxEqOccupancy_ = std::max(maxEqOccupancy_, eqOccupancy_);
    std::uint64_t generation = cq.generation;
    eq_.scheduleIn(cfg_.delay, [this, idx, generation] {
        --eqOccupancy_;
        // The EQ entry was cleared if the CQ flushed (filled) meanwhile.
        Cq &target = queues_[idx];
        if (target.generation != generation)
            return;
        ++flushesByExpiry_;
        flush(target, "flush.expiry");
    });
}

void
Concatenator::flush(Cq &cq, const char *reason)
{
    ++cq.generation; // clears any outstanding EQ entry
    cq.armed = false;
    if (cq.prs.empty())
        return;

    Packet pkt;
    pkt.src = cq.prs.front().src;
    pkt.dest = cq.dest;
    pkt.type = cq.type;
    pkt.tenant = cq.prs.front().tenant;
    pkt.concatenated = true;
    pkt.spanned = cq.spanned;
    // Steal cq.prs wholesale and hand the CQ a recycled buffer: packets
    // die at a deconcatenation point on this same thread, so the pool
    // feeds grown-to-size buffers back and steady-state refills never
    // reallocate - without copying a packet's worth of PRs per flush.
    pkt.prs = std::move(cq.prs);
    cq.prs = acquirePrBuffer(pkt.prs.size());

    // Waits are monotone within a CQ (pushes are time-ordered), so the
    // summary yields the per-PR statistics exactly: integer arithmetic,
    // bit-identical to sampling each wait individually.
    Tick now = eq_.now();
    std::uint64_t n = pkt.prs.size();
    std::uint64_t wait_sum = n * now - cq.enterSum;
    prWaitTicks_.sampleBatch(n, static_cast<double>(wait_sum),
                             static_cast<double>(now - cq.enterLast),
                             static_cast<double>(now - cq.enterFirst));
    prsPerPacket_.sample(static_cast<double>(pkt.prs.size()));
    ++packetsEmitted_;

    NS_TRACE(eq_, tw.instant(
        tw.track(name_), reason, eq_.now(),
        traceArgs({{"prs", static_cast<double>(pkt.prs.size())},
                   {"bytes", static_cast<double>(cq.bytes)},
                   {"dest", static_cast<double>(cq.dest)}})));

    pendingPrs_ -= pkt.prs.size();
    occupiedBytes_ -= cq.bytes;
    if (cfg_.virtualized)
        blocksInUse_ -= physicalBlocks(cq.bytes);

    cq.prs.clear();
    cq.enterSum = 0;
    cq.bytes = 0;
    cq.spanned = false;

    emit_(std::move(pkt));
}

void
Concatenator::flushAll()
{
    for (auto &cq : queues_) {
        if (!cq.prs.empty())
            flush(cq, "flush.drain");
    }
}

std::uint64_t
Concatenator::heldBufferBytes() const
{
    std::uint64_t prs = 0;
    for (const auto &cq : queues_)
        prs += cq.prs.capacity();
    return prs * sizeof(PropertyRequest);
}

void
Concatenator::exportStats(StatRegistry &reg,
                          const std::string &prefix) const
{
    reg.set(prefix + ".prsPushed", static_cast<double>(prsPushed_));
    reg.set(prefix + ".packetsEmitted",
            static_cast<double>(packetsEmitted_));
    reg.set(prefix + ".flushesByFill",
            static_cast<double>(flushesByFill_));
    reg.set(prefix + ".flushesByExpiry",
            static_cast<double>(flushesByExpiry_));
    reg.set(prefix + ".maxEqOccupancy",
            static_cast<double>(maxEqOccupancy_));
    reg.set(prefix + ".maxOccupiedBytes",
            static_cast<double>(maxOccupiedBytes_));
    reg.setAverage(prefix + ".prsPerPacket", prsPerPacket_);
    reg.setAverage(prefix + ".prWaitTicks", prWaitTicks_);
}

std::vector<PropertyRequest>
deconcatenate(Packet &&pkt)
{
    return std::move(pkt.prs);
}

std::vector<PropertyRequest>
acquirePrBuffer(std::size_t reserve)
{
    return BufferArena<PropertyRequest>::local().acquire(reserve);
}

void
recyclePrBuffer(std::vector<PropertyRequest> &&buf)
{
    BufferArena<PropertyRequest>::local().recycle(std::move(buf));
}

} // namespace netsparse
