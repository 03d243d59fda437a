/**
 * @file
 * Network switch model, with optional NetSparse ToR extensions
 * (Section 6.2.1, Figure 8).
 *
 * A plain switch forwards packets: arrival -> pipeline latency ->
 * deterministic route -> output link (which models serialization and
 * queueing).
 *
 * A NetSparse ToR switch adds the "middle pipes": each arriving packet
 * is deconcatenated, every PR optionally interacts with the Property
 * Cache, and the PRs re-concatenate (sharing headers across PRs from
 * different sources) before heading to their output ports through the
 * second crossbar.
 *
 * Cache organization: by default the switch's cache budget behaves as
 * one shared cache (the middle-pipe layer plus the second crossbar make
 * every pipe's SRAM reachable; with our per-destination deterministic
 * routing this is the organization that keeps a read's lookup and the
 * matching response's insert in the same array for every source/home
 * pair). Set cachePerPipe to model strictly per-pipe caches as in
 * Figure 8 - reads then use the pipe of their egress port and responses
 * the pipe of their ingress port, which requires rack-pair-symmetric
 * routing to be effective.
 *
 * Cache gating (the cache stores only properties fetched from remote
 * racks, for sharing within the local rack):
 *  - read PR:     looked up only when it arrives from a local host and
 *                 leaves toward the spine (home outside this rack);
 *  - response PR: inserted only when it arrives from the spine and is
 *                 destined to a local host.
 */

#ifndef NETSPARSE_NET_SWITCH_HH
#define NETSPARSE_NET_SWITCH_HH

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/property_cache.hh"
#include "concat/concatenator.hh"
#include "net/link.hh"
#include "net/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace netsparse {

/** Static switch parameters. */
struct SwitchConfig
{
    ProtocolParams proto;
    /** Ingress-to-egress pipeline latency (Table 5: 300 ns). */
    Tick pipelineLatency = 300 * ticks::ns;
    /** Ports grouped per pipe (32 ports / 8 pipes = 4). */
    std::uint32_t portsPerPipe = 4;
    /** Switch pipe clock (2 GHz). */
    double pipeClockHz = 2e9;
    /** True for ToR switches carrying the NetSparse extensions. */
    bool netsparseEnabled = false;
    /** Per-middle-pipe concatenator settings (delay in ticks). */
    ConcatConfig concat;
    /** Whole-switch Property Cache budget. */
    PropertyCacheConfig cache;
    /** Split the cache per middle pipe (Figure 8) vs one shared array. */
    bool cachePerPipe = false;
    /**
     * Verify response checksums before Property Cache insertion and
     * reject mismatches (cache poisoning protection). Enabled by the
     * cluster whenever fault injection is active; off by default so the
     * lossless fast path stays untouched.
     */
    bool verifyResponses = false;
    /**
     * Concurrent tenants (jobs) sharing this switch. More than one
     * tenant-qualifies every Property Cache key (the same idx names
     * different data per tenant) and sizes the fair-queueing lanes and
     * per-tenant counters. 1 (the default) keeps the single-job fast
     * path - and its stats document - untouched.
     */
    std::uint32_t numTenants = 1;
    /**
     * Partition the cache budget into per-tenant slices of
     * totalBytes / numTenants (isolation) instead of one shared array
     * (statistical multiplexing). Requires numTenants > 1; mutually
     * exclusive with cachePerPipe.
     */
    bool tenantCachePartitioned = false;
    /**
     * Deficit-round-robin fair queueing at the output ports, one lane
     * per tenant plus one for raw background traffic, quantum = MTU.
     * Default FIFO: packets go straight to the output link's busy-until
     * chain in arrival order, exactly the pre-QoS behaviour.
     */
    bool fairQueue = false;
};

/** One switch. */
class Switch : public PacketSink
{
  public:
    Switch(EventQueue &eq, SwitchConfig cfg, SwitchId id,
           std::string name);

    /**
     * Attach the outgoing link of @p port. @p toHost marks "down" ports.
     * Ports must be attached contiguously from 0.
     */
    void attachPort(std::uint32_t port, Link *out, bool toHost);

    /** Install the routing function: destination node -> output port. */
    void
    setRouteFn(std::function<std::uint32_t(NodeId)> fn)
    {
        route_ = std::move(fn);
    }

    /** Control plane: configure caches for a kernel and invalidate. */
    void configureForKernel(std::uint32_t propBytes);

    void receivePacket(Packet &&pkt, std::uint32_t inPort) override;

    SwitchId id() const { return id_; }
    const std::string &name() const { return name_; }

    // Aggregated statistics over all middle pipes.
    std::uint64_t cacheLookups() const;
    std::uint64_t cacheHits() const;
    std::uint64_t cacheInserts() const;
    std::uint64_t cacheEvictions() const;
    std::uint64_t prsServedByCache() const { return servedByCache_; }
    std::uint64_t packetsForwarded() const { return forwarded_; }
    /**
     * Tenant @p tenant's share of prsServedByCache; a switch with one
     * tenant keeps no split, so that tenant's share is all of it.
     */
    std::uint64_t
    prsServedByCache(std::uint32_t tenant) const
    {
        return servedByCacheTenant_.empty() ? servedByCache_
                                            : servedByCacheTenant_[tenant];
    }
    /** Packets that went through a fair-queueing lane (vs direct). */
    std::uint64_t fqEnqueued() const { return fqEnqueued_; }
    /** Corrupt responses kept out of the cache (verifyResponses). */
    std::uint64_t poisonRejected() const { return poisonRejected_; }
    /** Reads that skipped the cache on the requester's demand. */
    std::uint64_t cacheBypasses() const { return cacheBypasses_; }

    /**
     * Register this switch's counters under "<prefix>." following the
     * docs/observability.md contract: "<prefix>.packetsForwarded",
     * "<prefix>.prsServedByCache", "<prefix>.cache.*" (ToRs with the
     * extensions) and "<prefix>.concat.*" aggregated over middle pipes.
     */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

    /** Host memory held by the middle pipes' CQ buffers. */
    std::uint64_t concatHeldBytes() const;

    /** Attached output links in port order (telemetry samplers). */
    const std::vector<Link *> &outLinks() const { return out_; }

    /** Set this switch's id in the run's span component name table
     *  (sim/span.hh); assigned by the scheduler. */
    void setSpanComp(std::uint32_t comp) { spanComp_ = comp; }

    /** The middle-pipe Property Cache of pipe @p i (for tests). */
    PropertyCache &pipeCache(std::uint32_t i) { return *caches_[i]; }
    std::uint32_t numPipes() const
    {
        return static_cast<std::uint32_t>(caches_.size());
    }

  private:
    void forward(Packet &&pkt);
    void processMiddlePipe(Packet &&pkt, std::uint32_t inPort);
    std::uint32_t pipeOf(std::uint32_t port) const
    {
        return port / cfg_.portsPerPipe;
    }
    /** The cache array serving @p pr through middle pipe @p pipe. */
    PropertyCache &cacheFor(const PropertyRequest &pr,
                            std::uint32_t pipe);
    /** Tenant-qualified Property Cache key (see SwitchConfig). */
    PropIdx
    cacheKey(const PropertyRequest &pr) const
    {
        if (cfg_.numTenants <= 1)
            return pr.idx;
        return pr.idx | (static_cast<PropIdx>(pr.tenant) << 40);
    }
    /** Fair-queueing lane of @p pkt (tenants, then raw traffic). */
    std::uint32_t
    laneOf(const Packet &pkt) const
    {
        if (pkt.rawBytes)
            return cfg_.numTenants;
        return pkt.tenant < cfg_.numTenants ? pkt.tenant
                                            : cfg_.numTenants - 1;
    }
    /** One DRR arbitration step on output port @p p. */
    void drainPort(std::uint32_t p);
    /** Arm the drain event of port @p p if it is not armed. */
    void scheduleDrain(std::uint32_t p);

    EventQueue &eq_;
    SwitchConfig cfg_;
    SwitchId id_;
    std::string name_;

    std::vector<Link *> out_;
    std::vector<bool> hostPort_;
    std::function<std::uint32_t(NodeId)> route_;

    // Middle-pipe hardware (only populated when netsparseEnabled).
    std::vector<std::unique_ptr<PropertyCache>> caches_;
    std::vector<std::unique_ptr<Concatenator>> concats_;
    Tick cacheLatency_ = 0;

    /** Span component id (sim/span.hh); meaningful only when spans on. */
    std::uint32_t spanComp_ = 0;
    std::uint64_t servedByCache_ = 0;
    std::uint64_t forwarded_ = 0;
    std::uint64_t poisonRejected_ = 0;
    std::uint64_t cacheBypasses_ = 0;
    /** Per-tenant cache-serve counters (sized when numTenants > 1). */
    std::vector<std::uint64_t> servedByCacheTenant_;

    /**
     * Per-output-port deficit-round-robin arbiter (fairQueue only).
     * Invariant: drainScheduled <=> some lane is nonempty. A packet
     * arriving at an idle, lane-empty port is sent directly (identical
     * timing to FIFO when uncontended); otherwise it waits in its lane
     * and one packet leaves per drain event, re-armed at the output
     * link's queueDelay so the wire never idles under backlog.
     */
    struct OutPortFq
    {
        std::vector<std::deque<Packet>> lanes;
        std::vector<std::int64_t> deficit;
        std::uint32_t rr = 0;
        bool drainScheduled = false;
        std::uint64_t queued = 0;
    };
    std::vector<OutPortFq> fq_;
    std::uint64_t fqEnqueued_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_NET_SWITCH_HH
