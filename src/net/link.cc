#include "net/link.hh"

#include "sim/arena.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace netsparse {

Link::Link(EventQueue &eq, LinkConfig cfg, ProtocolParams proto,
           PacketSink *sink, std::uint32_t sinkPort, std::string name)
    : eq_(eq), cfg_(cfg), proto_(proto), sink_(sink), sinkPort_(sinkPort),
      name_(std::move(name))
{
    ns_assert(sink_, "link ", name_, " has no sink");
}

void
Link::send(Packet &&pkt)
{
    std::uint64_t wire = pkt.wireBytes(proto_);
    ns_assert(wire <= proto_.mtuBytes, "packet exceeds MTU on ", name_,
              ": ", wire, " > ", proto_.mtuBytes);

    LinkFaultInjector::Verdict verdict;
    if (faults_)
        verdict = faults_->onSend(pkt, eq_.now());

    if (verdict.dropBeforeWire) {
        // A dead port (link-down window) discards the packet before
        // serialization: no wire time is burned.
        ++dropped_;
        droppedBytes_ += wire;
        NS_TRACE(eq_, tw.instant(tw.track(name_), "fault.linkDown",
                                 eq_.now()));
        return;
    }

    Tick start = std::max(eq_.now(), busyUntil_);
    Tick ser = cfg_.bandwidth.serialize(wire);
    if (verdict.bandwidthFactor != 1.0)
        ser = static_cast<Tick>(static_cast<double>(ser) /
                                verdict.bandwidthFactor);
    busyUntil_ = start + ser;
    busyTicks_ += ser;

    NS_TRACE(eq_, tw.complete(
        tw.track(name_), "tx", start, busyUntil_,
        traceArgs({{"bytes", static_cast<double>(wire)},
                   {"prs", static_cast<double>(pkt.prs.size())},
                   {"dest", static_cast<double>(pkt.dest)}})));

    if (pkt.spanned) {
        // Wire occupancy of every traced PR aboard; recorded before the
        // drop verdict because a dropped-then-retransmitted attempt
        // really burned this wire time. Links use their cluster-wide
        // ordering id as the span component id (the scheduler registers
        // the name table in the same order).
        if (SpanBuffer *sb = eq_.spans())
            for (const auto &pr : pkt.prs)
                if (pr.traced)
                    sb->record(sb->idOf(pr), SpanStage::LinkTx,
                               orderingId_, start, ser, wire);
    }

    if (verdict.dropOnWire) {
        // A dropped packet burns wire time (accounted above via
        // busyTicks_) but is never delivered, so it counts only in the
        // drop statistics - not in the sent packet/byte/payload totals.
        ++dropped_;
        droppedBytes_ += wire;
        NS_TRACE(eq_, tw.instant(tw.track(name_), "drop", busyUntil_));
        return;
    }
    if (verdict.corrupted)
        NS_TRACE(eq_, tw.instant(tw.track(name_), "fault.corrupt",
                                 busyUntil_));

    ++packets_;
    bytes_ += wire;
    payloadBytes_ += pkt.payloadBytes();

    Tick arrival = busyUntil_ + cfg_.latency;
    std::uint64_t key = EventQueue::deliveryKey(orderingId_,
                                               deliverySeq_++);
    // Zero-latency links cannot train: a same-tick flush could race
    // the append (and such configurations run single-shard anyway).
    if (cfg_.batchMaxPackets > 1 && cfg_.latency > 0) {
        sendBatched(arrival, key, start, std::move(pkt));
        return;
    }
    if (outbox_) {
        // Cross-shard edge: hand the packet to the destination shard's
        // mailbox; it schedules the delivery on its own queue under the
        // same key at the next epoch barrier.
        outbox_->push(PendingDelivery{arrival, key, sink_, sinkPort_,
                                      std::move(pkt)});
        return;
    }
    // The callback owns the packet until delivery (moved into pooled
    // event storage; no heap holder).
    eq_.scheduleDelivery(arrival, key,
                         [this, p = std::move(pkt)]() mutable {
                             sink_->receivePacket(std::move(p), sinkPort_);
                         });
}

void
Link::sendBatched(Tick arrival, std::uint64_t key, Tick start,
                  Packet &&pkt)
{
    // Arrivals are nondecreasing (busy-until chain) and keys strictly
    // increase, so appending to the newest train keeps every train's
    // packets in exact (tick, key) order, and train deadlines are
    // nondecreasing front to back - no delivery can overtake another.
    if (!trains_.empty()) {
        Train &back = trains_.back();
        if (back.count < cfg_.batchMaxPackets && arrival <= back.deadline) {
            ++back.count;
            if (outbox_)
                outbox_->push(PendingDelivery{back.deadline, key, sink_,
                                              sinkPort_, std::move(pkt)});
            else
                back.pkts.push_back(std::move(pkt));
            return;
        }
    }
    // Open a train when the wire is backlogged (the burst case the
    // batching targets), or when an exact-time delivery would overtake
    // packets an older (full) train is still holding.
    bool backlogged = start > eq_.now();
    bool would_overtake =
        !trains_.empty() && arrival <= trains_.back().deadline;
    if (backlogged || would_overtake) {
        Train t;
        t.deadline = arrival + cfg_.batchHoldTicks;
        t.count = 1;
        if (outbox_) {
            outbox_->push(PendingDelivery{t.deadline, key, sink_,
                                          sinkPort_, std::move(pkt)});
        } else {
            t.pkts = BufferArena<Packet>::local().acquire(
                cfg_.batchMaxPackets);
            t.pkts.push_back(std::move(pkt));
            eq_.scheduleDelivery(t.deadline, key,
                                 [this] { flushTrain(); });
        }
        trains_.push_back(std::move(t));
        return;
    }
    // Idle wire: deliver exactly on time, per packet.
    if (outbox_) {
        outbox_->push(PendingDelivery{arrival, key, sink_, sinkPort_,
                                      std::move(pkt)});
        return;
    }
    eq_.scheduleDelivery(arrival, key,
                         [this, p = std::move(pkt)]() mutable {
                             sink_->receivePacket(std::move(p), sinkPort_);
                         });
}

void
Link::flushTrain()
{
    ns_assert(!trains_.empty(), "train flush with no train");
    Train t = std::move(trains_.front());
    trains_.pop_front();
    // This one event stands for the whole train; account the rest so
    // executedEvents() equals the cross-shard (per-packet) execution.
    eq_.addExecutedEvents(t.pkts.size() - 1);
    for (auto &p : t.pkts)
        sink_->receivePacket(std::move(p), sinkPort_);
    BufferArena<Packet>::local().recycle(std::move(t.pkts));
}

} // namespace netsparse
