#include "snic/snic.hh"

#include "net/pr_latency.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace netsparse {

Snic::Snic(EventQueue &eq, SnicConfig cfg, ConcatConfig nic_concat,
           NodeId self, std::uint16_t tenant, Partition1D owners,
           std::uint64_t num_idxs, std::string name, bool filter,
           bool coalesce, bool batched_reads)
    : eq_(eq), cfg_(cfg), self_(self), tenant_(tenant),
      owners_(std::move(owners)), name_(std::move(name)),
      filtering_(filter), coalescing_(coalesce),
      batchedReads_(batched_reads), filter_(num_idxs), pcie_(eq, cfg.pcie)
{
    ns_assert(cfg_.numRigUnits >= 2, "need at least 1 client + 1 server");
    std::uint32_t num_clients = cfg_.numRigUnits / 2;
    for (std::uint32_t c = 0; c < num_clients; ++c) {
        clients_.push_back(std::make_unique<RigClientUnit>(
            eq_, cfg_.rigUnit, *this, static_cast<std::uint16_t>(c)));
    }
    for (std::uint32_t s = num_clients; s < cfg_.numRigUnits; ++s) {
        servers_.push_back(std::make_unique<RigServerUnit>(
            eq_, cfg_.rigUnit, *this, static_cast<std::uint16_t>(s)));
    }
    concat_ = std::make_unique<Concatenator>(
        eq_, nic_concat,
        [this](Packet &&pkt) {
            ns_assert(egress_, "SNIC ", name_, " has no egress link");
            StampBoard *board = eq_.stampBoard();
            if (board && pkt.type == PrType::Read) {
                // Lifecycle stamp: the reads leave the SNIC onto the
                // NIC egress link (StampBoard).
                for (const auto &pr : pkt.prs)
                    board->stampEgress(pr, eq_.now());
            }
            if (SpanBuffer *sb = eq_.spans())
                for (const auto &pr : pkt.prs)
                    if (pr.traced)
                        sb->record(sb->idOf(pr), SpanStage::NicEgress,
                                   spanComp_, eq_.now(), 0,
                                   pkt.prs.size());
            egress_->send(std::move(pkt));
        },
        name_ + ".concat");
}

std::uint64_t
Snic::inflightPrs() const
{
    std::uint64_t n = 0;
    for (const auto &c : clients_)
        n += c->outstandingPrs();
    return n;
}

std::uint64_t
Snic::totalRetransmits() const
{
    std::uint64_t n = 0;
    for (const auto &c : clients_)
        n += c->stats().retransmits;
    return n;
}

void
Snic::configureForKernel()
{
    filter_.clear();
}

void
Snic::postRig(std::uint32_t c, RigCommand cmd)
{
    ns_assert(c < clients_.size(), "no such client unit: ", c);
    ns_assert(!clients_[c]->busy(), "client unit ", c, " is busy");
    // The doorbell write crosses PCIe before the unit sees the command.
    eq_.scheduleIn(pcie_.latency(),
                   [this, c, moved = std::move(cmd)]() mutable {
                       clients_[c]->start(std::move(moved));
                   });
}

void
Snic::sendPr(PropertyRequest &&pr, NodeId dest)
{
    ns_assert(dest != self_, "PR addressed to its own node");
    concat_->push(std::move(pr), dest);
}

bool
Snic::txBackpressured() const
{
    if (!egress_)
        return false;
    return egress_->queuedBytes() + concat_->occupiedBytes() >
           kTxBufferBytes;
}

void
Snic::receivePacket(Packet &&pkt, std::uint32_t in_port)
{
    (void)in_port;
    ++rxPackets_;
    rxBytes_ += pkt.wireBytes();
    rxPayloadBytes_ += pkt.payloadBytes();

    NS_TRACE(eq_, tw.instant(
        tw.track(name_), "rx", eq_.now(),
        traceArgs({{"bytes", static_cast<double>(pkt.wireBytes())},
                   {"prs", static_cast<double>(pkt.prs.size())}})));

    std::vector<PropertyRequest> prs = deconcatenate(std::move(pkt));
    // With batched reads every read of the packet is prepared here,
    // and all its responses leave with one event at the last fetch
    // completion. Fetch ticks are nondecreasing across the packet (the
    // shared PCIe busy-until chain), so no response leaves early.
    const bool batched = batchedReads_;
    std::vector<PropertyRequest> responses;
    if (batched)
        responses.reserve(prs.size());
    Tick last_fetch = 0;
    for (auto &pr : prs) {
        if (pr.type == PrType::Response) {
            ++rxResponses_;
            ns_assert(pr.src == self_,
                      "response delivered to the wrong node");
            ns_assert(pr.srcTid < clients_.size(),
                      "response for unknown client tid ", pr.srcTid);
            clients_[pr.srcTid]->onResponse(pr);
            continue;
        }
        ++rxReads_;
        // Q Control: dispatch reads to server units round-robin.
        RigServerUnit &server = *servers_[nextServer_];
        nextServer_ = (nextServer_ + 1) %
                      static_cast<std::uint32_t>(servers_.size());
        if (batched) {
            last_fetch = std::max(last_fetch, server.prepareRead(pr));
            responses.push_back(std::move(pr));
        } else {
            server.handleRead(std::move(pr));
        }
    }
    if (!batched || responses.empty())
        return;
    // This one event stands for one response send per read; account
    // the rest so executedEvents() stays comparable to the per-event
    // path (and shard-invariant: the whole burst is node-local).
    eq_.addExecutedEvents(responses.size() - 1);
    eq_.schedule(last_fetch, [this, rs = std::move(responses)]() mutable {
        for (auto &resp : rs) {
            NodeId back = resp.src;
            sendPr(std::move(resp), back);
        }
    });
}

RigClientStats
Snic::aggregateClientStats() const
{
    RigClientStats out;
    for (const auto &c : clients_) {
        const auto &s = c->stats();
        out.commands += s.commands;
        out.idxsProcessed += s.idxsProcessed;
        out.localIdxs += s.localIdxs;
        out.prsIssued += s.prsIssued;
        out.filtered += s.filtered;
        out.coalesced += s.coalesced;
        out.responses += s.responses;
        out.staleResponses += s.staleResponses;
        out.pendingStalls += s.pendingStalls;
        out.txStalls += s.txStalls;
        out.watchdogFailures += s.watchdogFailures;
        out.retransmits += s.retransmits;
        out.nacks += s.nacks;
        out.corruptDropped += s.corruptDropped;
        out.duplicatesSuppressed += s.duplicatesSuppressed;
        out.retriesExhausted += s.retriesExhausted;
    }
    return out;
}

RigServerStats
Snic::aggregateServerStats() const
{
    RigServerStats out;
    for (const auto &s : servers_) {
        out.readsServed += s->stats().readsServed;
        out.bytesFetched += s->stats().bytesFetched;
    }
    return out;
}

void
Snic::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    std::uint64_t filter_hits = 0;
    for (std::size_t c = 0; c < clients_.size(); ++c) {
        const RigClientStats &s = clients_[c]->stats();
        std::string rig = prefix + ".rig" + std::to_string(c);
        reg.set(rig + ".commands", static_cast<double>(s.commands));
        reg.set(rig + ".idxsProcessed",
                static_cast<double>(s.idxsProcessed));
        reg.set(rig + ".localIdxs", static_cast<double>(s.localIdxs));
        reg.set(rig + ".prsIssued", static_cast<double>(s.prsIssued));
        reg.set(rig + ".filtered", static_cast<double>(s.filtered));
        reg.set(rig + ".coalesced", static_cast<double>(s.coalesced));
        reg.set(rig + ".responses", static_cast<double>(s.responses));
        reg.set(rig + ".staleResponses",
                static_cast<double>(s.staleResponses));
        reg.set(rig + ".pendingStalls",
                static_cast<double>(s.pendingStalls));
        reg.set(rig + ".txStalls", static_cast<double>(s.txStalls));
        reg.set(rig + ".watchdogFailures",
                static_cast<double>(s.watchdogFailures));
        if (cfg_.rigUnit.retry.enabled) {
            // Recovery keys exist only when the reliable-PR layer is
            // on, keeping zero-fault documents byte-identical.
            reg.set(rig + ".retransmits",
                    static_cast<double>(s.retransmits));
            reg.set(rig + ".nacks", static_cast<double>(s.nacks));
            reg.set(rig + ".corruptDropped",
                    static_cast<double>(s.corruptDropped));
            reg.set(rig + ".duplicatesSuppressed",
                    static_cast<double>(s.duplicatesSuppressed));
            reg.set(rig + ".retriesExhausted",
                    static_cast<double>(s.retriesExhausted));
        }
        reg.set(rig + ".pendingMaxOccupancy",
                static_cast<double>(
                    clients_[c]->pendingTable().maxOccupancy()));
        filter_hits += s.filtered;
    }
    reg.set(prefix + ".idxFilter.hits",
            static_cast<double>(filter_hits));
    reg.set(prefix + ".idxFilter.sizeBytes",
            static_cast<double>(filter_.sizeBytes()));

    RigServerStats server = aggregateServerStats();
    reg.set(prefix + ".server.readsServed",
            static_cast<double>(server.readsServed));
    reg.set(prefix + ".server.bytesFetched",
            static_cast<double>(server.bytesFetched));

    concat_->exportStats(reg, prefix + ".concat");

    reg.set(prefix + ".rx.packets", static_cast<double>(rxPackets_));
    reg.set(prefix + ".rx.bytes", static_cast<double>(rxBytes_));
    reg.set(prefix + ".rx.payloadBytes",
            static_cast<double>(rxPayloadBytes_));
    reg.set(prefix + ".rx.responses",
            static_cast<double>(rxResponses_));
    reg.set(prefix + ".rx.reads", static_cast<double>(rxReads_));
}

} // namespace netsparse
