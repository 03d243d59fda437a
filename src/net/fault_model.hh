/**
 * @file
 * Deterministic per-link fault injection (the "lossy network" model).
 *
 * The paper assumes a lossless fabric (Section 7.1); this module lets us
 * relax that assumption in a controlled, reproducible way. Every link
 * owns a LinkFaultInjector that draws per-packet fault decisions from a
 * stateless splitmix64 hash keyed on (seed, link orderingId, per-link
 * send sequence). Because the sequence of sends on any one link is
 * identical at every shard count, the injected fault pattern - and
 * therefore the stats JSON - is byte-identical at 1, 2 or 4 shards.
 *
 * Four fault classes are modeled:
 *  - drop:    independent per-packet loss; the packet burns wire time
 *             (the NIC transmitted it) but is never delivered.
 *  - corrupt: payload corruption; one response PR's checksum is flipped
 *             and the packet is delivered. Receivers detect the bad
 *             checksum and NACK/refetch (see docs/resilience.md).
 *  - down:    transient link-down windows; sends inside a window are
 *             discarded before touching the wire (the port is dead).
 *  - degrade: transient bandwidth degradation; serialization runs at
 *             degradeFactor of the configured rate for the window.
 */

#ifndef NETSPARSE_NET_FAULT_MODEL_HH
#define NETSPARSE_NET_FAULT_MODEL_HH

#include <cstdint>
#include <functional>
#include <string>

#include "net/protocol.hh"
#include "sim/types.hh"

namespace netsparse {

/** Cluster-wide fault-injection knobs (see FaultConfig::parse). */
struct FaultConfig
{
    /** Per-packet probability of a random wire drop. */
    double dropRate = 0.0;
    /** Per-packet probability of payload corruption (responses). */
    double corruptRate = 0.0;
    /** Per-send probability of opening a link-down window. */
    double linkDownRate = 0.0;
    /** Length of one link-down window. */
    Tick linkDownTicks = 5 * ticks::us;
    /** Per-send probability of opening a degraded-bandwidth window. */
    double degradeRate = 0.0;
    /** Length of one degraded-bandwidth window. */
    Tick degradeTicks = 20 * ticks::us;
    /** Bandwidth multiplier inside a degraded window, in (0, 1]. */
    double degradeFactor = 0.25;
    /** Root seed; every link derives its own stream from it. */
    std::uint64_t seed = 1;

    /** True when any fault class is active. */
    bool
    enabled() const
    {
        return dropRate > 0.0 || corruptRate > 0.0 ||
               linkDownRate > 0.0 || degradeRate > 0.0;
    }

    /**
     * Parse a CLI spec: comma-separated key:value pairs, e.g.
     * "drop:1e-4,corrupt:1e-5,down:1e-6,downUs:5,degrade:1e-5,
     *  degradeUs:20,degradeFactor:0.25,seed:7".
     * Unknown keys or malformed values are fatal (user error).
     */
    static FaultConfig parse(const std::string &spec);
};

/**
 * The per-link fault engine. Owned by a Link; consulted once per send.
 *
 * Decisions are pure functions of (seed, orderingId, sendSeq, fault
 * class), so two runs - or the same run at different shard counts -
 * inject exactly the same faults at the same points in the traffic.
 */
class LinkFaultInjector
{
  public:
    /** What Link::send should do with the packet. */
    struct Verdict
    {
        /** Discard before serialization (link down: no wire time). */
        bool dropBeforeWire = false;
        /** Discard after serialization (random loss: burns wire time). */
        bool dropOnWire = false;
        /** A PR checksum was flipped in place; deliver normally. */
        bool corrupted = false;
        /** Serialization bandwidth multiplier for this packet. */
        double bandwidthFactor = 1.0;
    };

    /** Per-category fault counters (exported via the link's stats). */
    struct Stats
    {
        std::uint64_t randomDrops = 0;
        std::uint64_t scriptedDrops = 0;
        std::uint64_t corruptedPrs = 0;
        std::uint64_t linkDownDrops = 0;
        std::uint64_t downWindows = 0;
        Tick linkDownTicks = 0;
        std::uint64_t degradeWindows = 0;
        Tick degradedTicks = 0;
    };

    LinkFaultInjector(const FaultConfig &cfg, std::uint32_t orderingId)
        : cfg_(cfg),
          streamBase_(splitmix64(cfg.seed ^
                                 (0x9e3779b97f4a7c15ull *
                                  (orderingId + 1))))
    {}

    /**
     * Judge (and possibly mutate) @p pkt about to be sent at @p now.
     * Advances the per-link send sequence; call exactly once per send.
     */
    Verdict onSend(Packet &pkt, Tick now);

    /**
     * Test hooks: scripted drop / corrupt predicates evaluated before
     * the probabilistic draws. A scripted drop loses the packet on the
     * wire; a scripted corruption flips the first response PR checksum.
     */
    void
    scriptDrop(std::function<bool(const Packet &)> fn)
    {
        scriptedDrop_ = std::move(fn);
    }
    void
    scriptCorrupt(std::function<bool(const Packet &)> fn)
    {
        scriptedCorrupt_ = std::move(fn);
    }

    const Stats &stats() const { return stats_; }

  private:
    /** Uniform [0,1) draw for (current seq, fault-class salt). */
    double
    draw(std::uint64_t salt) const
    {
        std::uint64_t h = splitmix64(splitmix64(streamBase_ + seq_) ^
                                     salt);
        return static_cast<double>(h >> 11) * 0x1.0p-53;
    }

    /** Flip one response PR's checksum; returns false if none. */
    bool corruptPacket(Packet &pkt);

    FaultConfig cfg_;
    std::uint64_t streamBase_;
    /** Packets offered to this injector so far (the draw key). */
    std::uint64_t seq_ = 0;
    Tick downUntil_ = 0;
    Tick degradedUntil_ = 0;
    std::function<bool(const Packet &)> scriptedDrop_;
    std::function<bool(const Packet &)> scriptedCorrupt_;
    Stats stats_;
};

} // namespace netsparse

#endif // NETSPARSE_NET_FAULT_MODEL_HH
