/**
 * @file
 * PR concatenation hardware (Section 6.1.2, Figure 7).
 *
 * A Concatenation Point holds one Concatenation Queue (CQ) per (PR type,
 * destination node). PRs wait in their CQ until either the CQ fills to
 * the MTU or the CQ's Expiration Time (first-arrival time + DelayCycles)
 * passes; then the CQ's PRs are concatenated into a single packet.
 *
 * The hardware tracks expirations with a circular Expiration Time Queue
 * (EQ) whose head is checked every cycle. Because the delay is a
 * constant, EQ insertion order equals expiration order, so the simulator
 * models the EQ with one scheduled event per CQ activation plus a
 * generation check (an entry "cleared" because its CQ filled early simply
 * finds a newer generation and does nothing). The EQ occupancy is still
 * tracked and bounded to 2(N-1) entries, as in the paper.
 *
 * The module also implements the virtualized-CQ variant of Section 7.2:
 * a fixed pool of small "physical" CQs dynamically linked into per-
 * destination "virtual" CQs, for deployments where 2(N-1) MTU-sized
 * queues would be wasteful.
 */

#ifndef NETSPARSE_CONCAT_CONCATENATOR_HH
#define NETSPARSE_CONCAT_CONCATENATOR_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "net/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace netsparse {

/** Configuration of one concatenation point. */
struct ConcatConfig
{
    ProtocolParams proto;
    /** Max time a PR may wait in a CQ (DelayCycles * clock period). */
    Tick delay = 0;
    /** When false, every PR is emitted immediately as a solo packet. */
    bool enabled = true;
    /** Virtualized-CQ mode (Section 7.2). */
    bool virtualized = false;
    /** Physical CQ size in virtualized mode. */
    std::uint32_t physicalCqBytes = 128;
    /** Number of physical CQs in virtualized mode. */
    std::uint32_t numPhysicalCqs = 64;
    /**
     * Per-tenant CQ lanes: with more than one lane, PRs of different
     * tenants never share a CQ (so no packet mixes tenants and the
     * emitted Packet::tenant is well defined). The default single lane
     * keeps the dense table layout - and thus the whole event stream -
     * bit-identical to the pre-tenancy simulator.
     */
    std::uint32_t tenantLanes = 1;
};

/**
 * One concatenation point (lives in an SNIC or a switch middle pipe).
 */
class Concatenator
{
  public:
    using Emit = std::function<void(Packet &&)>;

    /**
     * @param eq the event queue driving expirations.
     * @param cfg configuration.
     * @param emit sink invoked with each finished packet.
     * @param name trace/stats identity (e.g. "node3.snic.concat").
     */
    Concatenator(EventQueue &eq, ConcatConfig cfg, Emit emit,
                 std::string name = "concat");

    /** Accept one PR headed for node @p dest. */
    void push(PropertyRequest &&pr, NodeId dest);

    /** Flush every CQ (end-of-kernel drain or control-plane barrier). */
    void flushAll();

    /** Number of PRs currently waiting across all CQs. */
    std::uint64_t pendingPrs() const { return pendingPrs_; }

    /** Bytes of SRAM currently occupied by waiting PRs. */
    std::uint64_t occupiedBytes() const { return occupiedBytes_; }

    // Statistics.
    std::uint64_t prsPushed() const { return prsPushed_; }
    std::uint64_t packetsEmitted() const { return packetsEmitted_; }
    std::uint64_t flushesByFill() const { return flushesByFill_; }
    std::uint64_t flushesByExpiry() const { return flushesByExpiry_; }
    std::uint64_t maxEqOccupancy() const { return maxEqOccupancy_; }
    std::uint64_t maxOccupiedBytes() const { return maxOccupiedBytes_; }
    const Average &prsPerPacket() const { return prsPerPacket_; }
    const Average &prWaitTicks() const { return prWaitTicks_; }
    const std::string &name() const { return name_; }

    /**
     * Host memory the CQ buffers hold: allocated capacity, not
     * occupancy, times sizeof(PropertyRequest). A simulator cost, not
     * modeled SRAM (that is occupiedBytes()).
     */
    std::uint64_t heldBufferBytes() const;

    /**
     * Register every counter under "<prefix>." (the docs/observability.md
     * concatenator contract).
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

  private:
    struct Cq
    {
        std::vector<PropertyRequest> prs;
        std::uint32_t bytes = 0; // PR-layer bytes (headers + payloads)
        std::uint64_t generation = 0;
        bool armed = false; // an EQ entry (timer) is outstanding
        /** Some waiting PR is traced (becomes Packet::spanned). */
        bool spanned = false;
        NodeId dest = invalidNode;
        PrType type = PrType::Read;
        /**
         * Enter-time summary replacing a per-PR timestamp vector:
         * pushes are time-ordered, so (first, last, sum, prs.size())
         * reproduces the flush-time wait statistics exactly - min wait
         * is now-enterLast, max is now-enterFirst, and the sum is
         * prs.size()*now - enterSum, all in exact integer arithmetic.
         */
        Tick enterFirst = 0;
        Tick enterLast = 0;
        std::uint64_t enterSum = 0;
    };

    /**
     * Index of (type, dest[, tenant lane]) in the dense CQ table.
     * Grouped by dest so both of a destination's CQs share cache
     * lines; with multiple tenant lanes a destination owns a
     * contiguous lane strip.
     */
    std::size_t
    denseKey(PrType type, NodeId dest, std::uint16_t tenant) const
    {
        std::size_t slot = static_cast<std::size_t>(dest);
        if (cfg_.tenantLanes > 1)
            slot = slot * cfg_.tenantLanes + (tenant % cfg_.tenantLanes);
        return (slot << 1) | static_cast<std::size_t>(type);
    }

    void emitSolo(PropertyRequest &&pr, NodeId dest);
    void flush(Cq &cq, const char *reason);
    void arm(std::size_t idx);
    /** Bytes the pool must hold for @p cq's current content. */
    std::uint32_t physicalBlocks(std::uint32_t bytes) const;
    /** Free one block-equivalent by flushing the fullest virtual CQ. */
    void evictForSpace();

    EventQueue &eq_;
    ConcatConfig cfg_;
    Emit emit_;
    std::string name_;

    /**
     * Dense CQ table indexed by denseKey (grown on demand to
     * 2*(max dest + 1) entries; a few hundred KB at 1024 nodes). The
     * CQ lookup sits on the hottest simulator path - one per PR sent -
     * and profiling at bench scale showed the former hash map's lookup
     * as the single largest cost, so the table trades a bounded strip
     * of memory for an indexed load. Expiry timers capture the index,
     * never a pointer: the table may grow while a timer is in flight.
     */
    std::vector<Cq> queues_;
    std::uint64_t pendingPrs_ = 0;
    std::uint64_t occupiedBytes_ = 0;
    std::uint32_t blocksInUse_ = 0;
    std::uint64_t eqOccupancy_ = 0;

    std::uint64_t prsPushed_ = 0;
    std::uint64_t packetsEmitted_ = 0;
    std::uint64_t flushesByFill_ = 0;
    std::uint64_t flushesByExpiry_ = 0;
    std::uint64_t maxEqOccupancy_ = 0;
    std::uint64_t maxOccupiedBytes_ = 0;
    Average prsPerPacket_;
    Average prWaitTicks_;
};

/**
 * Deconcatenation: split a packet back into its PRs. Free of delay
 * cycles per Table 5.
 */
std::vector<PropertyRequest> deconcatenate(Packet &&pkt);

/**
 * Per-shard recycling of Packet::prs buffers, backed by the calling
 * thread's BufferArena<PropertyRequest> (sim/arena.hh). Every packet is
 * born at a concatenation point and dies at a deconcatenation point on
 * the same simulation thread, so returning the drained vector here lets
 * the next flush reuse its capacity instead of hitting the allocator
 * once per packet (a measurable fraction of simulator time).
 */
std::vector<PropertyRequest> acquirePrBuffer(std::size_t reserve);

/** Return a drained PR buffer to the calling shard's arena. */
void recyclePrBuffer(std::vector<PropertyRequest> &&buf);

} // namespace netsparse

#endif // NETSPARSE_CONCAT_CONCATENATOR_HH
