/**
 * @file
 * Synthetic background traffic for multi-tenant interference studies.
 *
 * A BackgroundSource per host injects raw packets (Packet::rawBytes -
 * no PRs, exactly rawBytes on the wire) into that host's NIC egress
 * link, contending with the gather jobs for fabric bandwidth. Switches
 * forward raw packets without middle-pipe processing and the
 * destination's demux discards them on arrival, so the traffic is pure
 * load: it consumes link time and queue space and nothing else.
 *
 * Determinism: every inter-packet gap and destination draw is a pure
 * splitmix64 hash of (seed, source node, packet ordinal) - no stateful
 * RNG - and each source schedules only on its own node's event queue,
 * so the injected stream is byte-identical across shard counts. The
 * per-source budget is a fixed packet count, never "until the jobs
 * finish": a completion-triggered stop would couple the background
 * stream to job timing and break shard invariance of the tail.
 *
 * Patterns:
 *  - Incast:   every source sends to one victim node (the victim
 *              itself stays silent), concentrating load on the
 *              victim's downlink - the classic many-to-one burst.
 *  - AllToAll: each packet picks a hash-uniform destination, spreading
 *              load across the whole fabric.
 *  - Storage:  each source streams bursts of 8 back-to-back packets to
 *              a fixed partner (nid + N/2 mod N), modeling replication
 *              or backup flows - few, fat, long-lived.
 */

#ifndef NETSPARSE_NET_BACKGROUND_HH
#define NETSPARSE_NET_BACKGROUND_HH

#include <string>

#include "net/link.hh"
#include "net/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace netsparse {

enum class BackgroundPattern { Incast, AllToAll, Storage };

/** Static background-traffic parameters (one config for all sources). */
struct BackgroundTrafficConfig
{
    BackgroundPattern pattern = BackgroundPattern::AllToAll;
    /** Injection rate as a fraction of one host NIC's line rate. */
    double load = 0.0;
    /** Raw bytes per injected packet (wire bytes, headers included). */
    std::uint32_t packetBytes = 1500;
    /** Fixed per-source packet budget; 0 disables the source. */
    std::uint32_t packetsPerSource = 0;
    /** Base seed of the deterministic gap/destination streams. */
    std::uint64_t seed = 1;

    bool
    enabled() const
    {
        return load > 0.0 && packetsPerSource > 0;
    }

    /**
     * Parse "pattern:load[:packets[:bytes]]" (e.g. "incast:0.5:2000").
     * Patterns: incast | alltoall | storage; load in (0, 1], counts
     * positive 32-bit, all in parseNumber()/parseUint()'s grammar.
     * Returns false (and leaves @p out untouched) on a malformed spec.
     */
    static bool parse(const std::string &spec,
                      BackgroundTrafficConfig &out);
};

/** One host's background injector, driving its NIC egress link. */
class BackgroundSource
{
  public:
    BackgroundSource(EventQueue &eq, const BackgroundTrafficConfig &cfg,
                     NodeId self, std::uint32_t numNodes, Link &egress);

    /** Schedule the first injection (no-op for a silent source). */
    void start();

    std::uint64_t packetsInjected() const { return injected_; }
    std::uint64_t bytesInjected() const { return bytesInjected_; }

  private:
    void inject(std::uint32_t ordinal);
    NodeId destOf(std::uint32_t ordinal) const;
    Tick gapAfter(std::uint32_t ordinal) const;

    EventQueue &eq_;
    BackgroundTrafficConfig cfg_;
    NodeId self_;
    std::uint32_t numNodes_;
    Link &egress_;

    std::uint64_t injected_ = 0;
    std::uint64_t bytesInjected_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_NET_BACKGROUND_HH
