/**
 * @file
 * A unidirectional network link with serialization, queueing and
 * propagation delay.
 *
 * The link is modeled as a single server: a packet occupies the wire for
 * wireBytes/bandwidth, waits behind earlier packets (busy-until chain),
 * then propagates for the configured latency. This captures the
 * first-order queueing contention that shapes the paper's results; the
 * network is lossless (Section 7.1) unless a fault model is configured,
 * in which case the link's LinkFaultInjector decides per packet whether
 * it is dropped, corrupted, delayed or discarded (see
 * net/fault_model.hh).
 */

#ifndef NETSPARSE_NET_LINK_HH
#define NETSPARSE_NET_LINK_HH

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "net/fault_model.hh"
#include "net/protocol.hh"
#include "sim/channel.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace netsparse {

/** Anything that can accept packets from a link. */
class PacketSink
{
  public:
    virtual ~PacketSink() = default;

    /** Deliver @p pkt, which arrived on the receiver's port @p inPort. */
    virtual void receivePacket(Packet &&pkt, std::uint32_t inPort) = 0;
};

/**
 * A packet in flight across a shard boundary: everything the receiving
 * shard needs to schedule the delivery on its own queue under the same
 * (tick, delivery key) the sending shard would have used locally.
 */
struct PendingDelivery
{
    Tick when = 0;
    std::uint64_t key = 0;
    PacketSink *sink = nullptr;
    std::uint32_t port = 0;
    Packet pkt;
};

/** The per-(source shard, destination shard) delivery channel. */
using DeliveryMailbox = EpochMailbox<PendingDelivery>;

/** Static link parameters. */
struct LinkConfig
{
    Bandwidth bandwidth = Bandwidth::fromGbps(400.0);
    Tick latency = 450 * ticks::ns;
};

/** One directed link. */
class Link
{
  public:
    /**
     * @param proto the wire protocol (constants; see ProtocolParams).
     * @param batched delivery-train batching (docs/scaling.md), on
     *        under ClusterConfig::eventBatching. When a burst backs up
     *        the wire, consecutive deliveries whose arrival falls
     *        within the hold window of the train head are executed by
     *        one scheduled event at the train's deadline, in exact
     *        (tick, key) order; telemetry-identified link backlogs are
     *        where the event count concentrates, and this collapses
     *        them by up to kTrainMaxPackets. Deliveries on an idle wire
     *        stay exactly on time. Off by default (timing-exact
     *        per-packet delivery). Statistics stay byte-identical
     *        across shard counts either way - a cross-shard train
     *        splits into per-packet events at the same ticks and keys,
     *        and the executed-event accounting matches by construction.
     */
    Link(EventQueue &eq, LinkConfig cfg, ProtocolParams proto,
         PacketSink *sink, std::uint32_t sinkPort, std::string name,
         bool batched = false);

    /** Enqueue @p pkt for transmission. */
    void send(Packet &&pkt);

    /** Time the wire is already committed beyond now. */
    Tick
    queueDelay() const
    {
        return busyUntil_ > eq_.now() ? busyUntil_ - eq_.now() : 0;
    }

    /** Bytes of transmit buffering currently committed. */
    std::uint64_t
    queuedBytes() const
    {
        return static_cast<std::uint64_t>(
            static_cast<double>(queueDelay()) *
            cfg_.bandwidth.bytesPerPs());
    }

    /**
     * Attach a fault injector configured from @p cfg. Must run after
     * setOrderingId: the injector keys its deterministic fault stream
     * on the link's cluster-wide ordering id.
     */
    void
    configureFaults(const FaultConfig &cfg)
    {
        faults_ = std::make_unique<LinkFaultInjector>(cfg, orderingId_);
    }

    /** The attached injector, or nullptr when the link is lossless. */
    LinkFaultInjector *faults() { return faults_.get(); }
    const LinkFaultInjector *faults() const { return faults_.get(); }

    /**
     * Assign the cluster-wide ordering id used to build delivery keys.
     * Ids must be unique per cluster and identical across runs (the
     * builder assigns them in construction order) - they are the
     * same-tick tie-break at a sink, so they are what keeps execution
     * independent of the shard count.
     */
    void setOrderingId(std::uint32_t id) { orderingId_ = id; }
    std::uint32_t orderingId() const { return orderingId_; }

    /**
     * Mark this link as crossing a shard boundary: deliveries are
     * deposited into @p outbox (drained by the destination shard at
     * the next epoch barrier) instead of being scheduled on the
     * sender's queue. The link's latency must be >= the engine's
     * lookahead.
     */
    void setCrossShardOutbox(DeliveryMailbox *outbox) { outbox_ = outbox; }

    // Statistics.
    std::uint64_t packetsSent() const { return packets_; }
    std::uint64_t bytesSent() const { return bytes_; }
    std::uint64_t payloadBytesSent() const { return payloadBytes_; }
    std::uint64_t packetsDropped() const { return dropped_; }
    Tick busyTicks() const { return busyTicks_; }
    const std::string &name() const { return name_; }

    /** Utilization of the wire over [0, now]. */
    double
    utilization() const
    {
        return eq_.now() ? static_cast<double>(busyTicks_) / eq_.now()
                         : 0.0;
    }

    /** Bytes of transmit buffering committed beyond tick @p t. */
    double
    queuedBytesAt(Tick t) const
    {
        return busyUntil_ > t
                   ? static_cast<double>(busyUntil_ - t) *
                         cfg_.bandwidth.bytesPerPs()
                   : 0.0;
    }

    const LinkConfig &config() const { return cfg_; }

  private:
    /** Train cap and hold window past the head's arrival (batched). */
    static constexpr std::uint32_t kTrainMaxPackets = 16;
    static constexpr Tick kTrainHoldTicks = 500 * ticks::ns;

    /**
     * A delivery train: packets whose arrivals share one hold window,
     * delivered together at @p deadline by a single event (intra-shard)
     * or as per-packet mailbox records at the same tick (cross-shard).
     */
    struct Train
    {
        Tick deadline = 0;
        std::uint32_t count = 0;
        std::vector<Packet> pkts; // empty on cross-shard links
    };

    /** Deliver @p pkt alone at @p when under @p key: through the
     *  cross-shard mailbox, else as one event on this queue. */
    void deliverAt(Tick when, std::uint64_t key, Packet &&pkt);

    /** Route one sent packet through the train batcher. */
    void sendBatched(Tick arrival, std::uint64_t key, Tick start,
                     Packet &&pkt);

    /** Deliver the oldest train (its scheduled flush event). */
    void flushTrain();

    EventQueue &eq_;
    LinkConfig cfg_;
    bool batched_;
    PacketSink *sink_;
    std::uint32_t sinkPort_;
    std::string name_;

    Tick busyUntil_ = 0;
    std::unique_ptr<LinkFaultInjector> faults_;
    std::uint32_t orderingId_ = 0;
    /** Delivered-packet count; the low half of the delivery key. */
    std::uint64_t deliverySeq_ = 0;
    DeliveryMailbox *outbox_ = nullptr;
    /** Open and not-yet-flushed trains, oldest first (see Train); on
     *  a cross-shard link only the newest. */
    std::deque<Train> trains_;

    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t payloadBytes_ = 0;
    std::uint64_t dropped_ = 0;
    Tick busyTicks_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_NET_LINK_HH
