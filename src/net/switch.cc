#include "net/switch.hh"

#include "net/pr_latency.hh"
#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/trace.hh"

namespace netsparse {

Switch::Switch(EventQueue &eq, SwitchConfig cfg, SwitchId id,
               std::string name)
    : eq_(eq), cfg_(cfg), id_(id), name_(std::move(name))
{
    Clock pipe_clock(cfg_.pipeClockHz);
    cacheLatency_ = pipe_clock.cycles(cfg_.cache.latencyCycles);
    if (cfg_.numTenants > 1)
        servedByCacheTenant_.assign(cfg_.numTenants, 0);
}

void
Switch::attachPort(std::uint32_t port, Link *out, bool to_host)
{
    ns_assert(port == out_.size(), "ports must be attached in order");
    out_.push_back(out);
    hostPort_.push_back(to_host);
    if (cfg_.fairQueue) {
        OutPortFq fq;
        fq.lanes.resize(cfg_.numTenants + 1);
        fq.deficit.assign(cfg_.numTenants + 1, 0);
        fq_.push_back(std::move(fq));
    }
}

void
Switch::configureForKernel(std::uint32_t prop_bytes)
{
    if (!cfg_.netsparseEnabled)
        return;
    ns_assert(!out_.empty(), "configure called before ports attached");

    std::uint32_t pipes =
        (static_cast<std::uint32_t>(out_.size()) + cfg_.portsPerPipe - 1) /
        cfg_.portsPerPipe;

    if (caches_.empty()) {
        if (cfg_.tenantCachePartitioned && cfg_.numTenants > 1) {
            // Per-tenant isolation: each job owns an equal slice of
            // the budget, so one tenant's working set cannot evict
            // another's. Orthogonal to (and exclusive with) the
            // per-pipe organization.
            ns_assert(!cfg_.cachePerPipe,
                      "tenant-partitioned cache is exclusive with "
                      "cachePerPipe on ", name_);
            PropertyCacheConfig per_tenant = cfg_.cache;
            per_tenant.totalBytes =
                cfg_.cache.totalBytes / cfg_.numTenants;
            for (std::uint32_t t = 0; t < cfg_.numTenants; ++t)
                caches_.push_back(
                    std::make_unique<PropertyCache>(per_tenant));
        } else if (cfg_.cachePerPipe) {
            PropertyCacheConfig per_pipe = cfg_.cache;
            per_pipe.totalBytes = cfg_.cache.totalBytes / pipes;
            for (std::uint32_t p = 0; p < pipes; ++p)
                caches_.push_back(
                    std::make_unique<PropertyCache>(per_pipe));
        } else {
            caches_.push_back(
                std::make_unique<PropertyCache>(cfg_.cache));
        }
    }
    for (auto &c : caches_)
        c->configureForKernel(prop_bytes);

    concats_.clear();
    for (std::uint32_t p = 0; p < pipes; ++p) {
        concats_.push_back(std::make_unique<Concatenator>(
            eq_, cfg_.concat,
            [this](Packet &&pkt) { forward(std::move(pkt)); },
            name_ + ".pipe" + std::to_string(p) + ".concat"));
    }
}

void
Switch::receivePacket(Packet &&pkt, std::uint32_t in_port)
{
    Tick delay = cfg_.pipelineLatency;
    if (cfg_.netsparseEnabled)
        delay += cacheLatency_;
    if (pkt.spanned) {
        if (SpanBuffer *sb = eq_.spans())
            for (const auto &pr : pkt.prs)
                if (pr.traced)
                    sb->record(sb->idOf(pr), SpanStage::SwitchPipe,
                               spanComp_, eq_.now(), delay, in_port);
    }
    NS_TRACE(eq_, tw.complete(
        tw.track(name_), "pipe", eq_.now(), eq_.now() + delay,
        traceArgs({{"prs", static_cast<double>(pkt.prs.size())},
                   {"inPort", static_cast<double>(in_port)}})));
    eq_.scheduleIn(delay, [this, p = std::move(pkt), in_port]() mutable {
        // Raw background packets carry no PRs: the middle pipes have
        // nothing to do with them, they just cross to their egress.
        if (cfg_.netsparseEnabled && !p.rawBytes)
            processMiddlePipe(std::move(p), in_port);
        else
            forward(std::move(p));
    });
}

PropertyCache &
Switch::cacheFor(const PropertyRequest &pr, std::uint32_t pipe)
{
    if (cfg_.tenantCachePartitioned && cfg_.numTenants > 1) {
        std::uint32_t t = pr.tenant < cfg_.numTenants
                              ? pr.tenant
                              : cfg_.numTenants - 1;
        return *caches_[t];
    }
    // With the shared organization there is a single cache array; in
    // per-pipe mode each middle pipe owns a slice (see header comment).
    ns_assert(!cfg_.cachePerPipe || pipe < caches_.size(),
              "pipe ", pipe, " has no cache slice on ", name_);
    return *caches_[cfg_.cachePerPipe ? pipe : 0];
}

void
Switch::processMiddlePipe(Packet &&pkt, std::uint32_t in_port)
{
    ns_assert(!concats_.empty(),
              "NetSparse switch ", name_, " was not configured");

    bool from_host = hostPort_[in_port];
    std::uint32_t egress = route_(pkt.dest);
    bool egress_host = hostPort_[egress];

    // Reads use the pipe of their egress port; responses the pipe of
    // their ingress port (Figure 8).
    std::uint32_t pipe = pkt.type == PrType::Read ? pipeOf(egress)
                                                  : pipeOf(in_port);
    // Every attached port maps to a configured pipe; a pipe index out
    // of range means configureForKernel built fewer pipes than the
    // port layout implies, and silently wrapping it would route PRs
    // through the wrong pipe's cache slice.
    ns_assert(pipe < concats_.size(), "pipe ", pipe, " out of range on ",
              name_, " (", concats_.size(), " middle pipes)");
    Concatenator &concat = *concats_[pipe];

    NodeId pkt_dest = pkt.dest;
    std::vector<PropertyRequest> prs = deconcatenate(std::move(pkt));
    NS_TRACE(eq_, tw.instant(
        tw.track(name_), "deconcat", eq_.now(),
        traceArgs({{"prs", static_cast<double>(prs.size())}})));
    StampBoard *board = eq_.stampBoard();
    for (auto &pr : prs) {
        if (board && pr.type == PrType::Read && from_host) {
            // Lifecycle stamp: the read reached its requester's ToR
            // middle pipe (net/pr_latency.hh). The shard map keeps a
            // rack's hosts on its ToR's queue, so this is the board
            // the read's entry was opened on.
            board->stampTorIngress(pr, eq_.now());
        }
        if (pr.type == PrType::Read && from_host && !egress_host &&
            pr.bypassCache) {
            // A corruption refetch: the requester demands the
            // authoritative home-node copy, not a possibly-poisoned
            // cached one.
            ++cacheBypasses_;
            if (pr.traced)
                if (SpanBuffer *sb = eq_.spans())
                    sb->record(sb->idOf(pr), SpanStage::CacheBypass,
                               spanComp_, eq_.now(), 0, pr.idx);
            NS_TRACE(eq_, tw.instant(
                tw.track(name_), "cache.bypass", eq_.now(),
                traceArgs({{"idx", static_cast<double>(pr.idx)}})));
        } else if (pr.type == PrType::Read && from_host && !egress_host) {
            // A read leaving the rack: try to serve it locally.
            std::uint64_t csum = 0;
            if (cacheFor(pr, pipe).lookup(cacheKey(pr), csum)) {
                pr.type = PrType::Response;
                pr.payloadBytes = pr.propBytes;
                pr.checksum = csum;
                pr.fetchTick = eq_.now();
                pr.servedByCache = true;
                ++servedByCache_;
                if (!servedByCacheTenant_.empty())
                    ++servedByCacheTenant_[pr.tenant < cfg_.numTenants
                                               ? pr.tenant
                                               : cfg_.numTenants - 1];
                if (pr.traced)
                    if (SpanBuffer *sb = eq_.spans())
                        sb->record(sb->idOf(pr), SpanStage::CacheHit,
                                   spanComp_, eq_.now(), 0, pr.idx);
                NS_TRACE(eq_, tw.instant(
                    tw.track(name_), "cache.hit", eq_.now(),
                    traceArgs(
                        {{"idx", static_cast<double>(pr.idx)}})));
                NodeId back = pr.src;
                concat.push(std::move(pr), back);
                continue;
            }
            if (pr.traced)
                if (SpanBuffer *sb = eq_.spans())
                    sb->record(sb->idOf(pr), SpanStage::CacheMiss,
                               spanComp_, eq_.now(), 0, pr.idx);
            NS_TRACE(eq_, tw.instant(
                tw.track(name_), "cache.miss", eq_.now(),
                traceArgs({{"idx", static_cast<double>(pr.idx)}})));
        } else if (pr.type == PrType::Response && !from_host &&
                   egress_host && cfg_.verifyResponses &&
                   pr.checksum != propertyChecksum(pr.idx, pr.tenant)) {
            // A corrupt response must not poison the cache. It is
            // still forwarded: the requesting RIG unit detects the bad
            // checksum and NACK-refetches.
            ++poisonRejected_;
            NS_TRACE(eq_, tw.instant(
                tw.track(name_), "cache.poisonRejected", eq_.now(),
                traceArgs({{"idx", static_cast<double>(pr.idx)}})));
        } else if (pr.type == PrType::Response && !from_host &&
                   egress_host) {
            // A response entering the rack: remember it for neighbors.
            PropertyCache &cache = cacheFor(pr, pipe);
            std::uint64_t evictionsBefore = cache.evictions();
            bool written = cache.insert(cacheKey(pr), pr.checksum);
            NS_TRACE(eq_, if (written) tw.instant(
                tw.track(name_),
                cache.evictions() > evictionsBefore ? "cache.evict"
                                                    : "cache.insert",
                eq_.now(),
                traceArgs({{"idx", static_cast<double>(pr.idx)}})));
        }
        concat.push(std::move(pr), pkt_dest);
    }
    recyclePrBuffer(std::move(prs));
}

void
Switch::forward(Packet &&pkt)
{
    std::uint32_t p = route_(pkt.dest);
    ns_assert(p < out_.size() && out_[p], "bad egress port ", p, " on ",
              name_);
    ++forwarded_;
    if (!cfg_.fairQueue) {
        out_[p]->send(std::move(pkt));
        return;
    }
    OutPortFq &fq = fq_[p];
    if (fq.queued == 0 && out_[p]->queueDelay() == 0) {
        // Uncontended port: bypass the lanes so timing is identical to
        // FIFO when there is nothing to arbitrate between.
        out_[p]->send(std::move(pkt));
        return;
    }
    fq.lanes[laneOf(pkt)].push_back(std::move(pkt));
    ++fq.queued;
    ++fqEnqueued_;
    scheduleDrain(p);
}

void
Switch::scheduleDrain(std::uint32_t p)
{
    OutPortFq &fq = fq_[p];
    if (fq.drainScheduled || fq.queued == 0)
        return;
    fq.drainScheduled = true;
    // Wake exactly when the wire frees: one packet leaves per drain
    // event, so the link's busy-until chain never grows beyond one
    // arbitrated packet and the lanes keep their backlog.
    eq_.scheduleIn(out_[p]->queueDelay(), [this, p] { drainPort(p); });
}

void
Switch::drainPort(std::uint32_t p)
{
    OutPortFq &fq = fq_[p];
    fq.drainScheduled = false;
    if (fq.queued == 0)
        return;
    std::uint32_t lanes = static_cast<std::uint32_t>(fq.lanes.size());
    // Deficit round robin, quantum = MTU: since no packet exceeds the
    // MTU, one full pass over the lanes always releases a packet -
    // bound the scan accordingly.
    std::uint32_t scanned = 0;
    for (;;) {
        ns_assert(scanned++ <= 2 * lanes,
                  "DRR failed to release a packet on ", name_);
        auto &lane = fq.lanes[fq.rr];
        if (lane.empty()) {
            // An idle lane forfeits its deficit (standard DRR).
            fq.deficit[fq.rr] = 0;
            fq.rr = (fq.rr + 1) % lanes;
            continue;
        }
        auto wire = static_cast<std::int64_t>(
            lane.front().wireBytes(cfg_.proto));
        if (fq.deficit[fq.rr] < wire) {
            fq.deficit[fq.rr] +=
                static_cast<std::int64_t>(cfg_.proto.mtuBytes);
            fq.rr = (fq.rr + 1) % lanes;
            continue;
        }
        fq.deficit[fq.rr] -= wire;
        Packet pkt = std::move(lane.front());
        lane.pop_front();
        --fq.queued;
        out_[p]->send(std::move(pkt));
        break;
    }
    scheduleDrain(p);
}

std::uint64_t
Switch::concatHeldBytes() const
{
    std::uint64_t n = 0;
    for (const auto &c : concats_)
        n += c->heldBufferBytes();
    return n;
}

std::uint64_t
Switch::cacheLookups() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches_)
        n += c->lookups();
    return n;
}

std::uint64_t
Switch::cacheHits() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches_)
        n += c->hits();
    return n;
}

std::uint64_t
Switch::cacheInserts() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches_)
        n += c->inserts();
    return n;
}

std::uint64_t
Switch::cacheEvictions() const
{
    std::uint64_t n = 0;
    for (const auto &c : caches_)
        n += c->evictions();
    return n;
}

void
Switch::exportStats(StatRegistry &reg, const std::string &prefix) const
{
    reg.set(prefix + ".packetsForwarded",
            static_cast<double>(forwarded_));
    if (cfg_.fairQueue)
        reg.set(prefix + ".fq.enqueued",
                static_cast<double>(fqEnqueued_));
    if (!cfg_.netsparseEnabled)
        return;
    reg.set(prefix + ".prsServedByCache",
            static_cast<double>(servedByCache_));
    for (std::size_t t = 0; t < servedByCacheTenant_.size(); ++t)
        reg.set(prefix + ".tenant" + std::to_string(t) +
                    ".prsServedByCache",
                static_cast<double>(servedByCacheTenant_[t]));
    if (cfg_.verifyResponses) {
        // Resilience keys exist only when fault handling is on, so a
        // zero-fault run's document is unchanged.
        reg.set(prefix + ".cache.poisonRejected",
                static_cast<double>(poisonRejected_));
        reg.set(prefix + ".cache.bypasses",
                static_cast<double>(cacheBypasses_));
    }
    if (caches_.size() == 1) {
        caches_[0]->exportStats(reg, prefix + ".cache");
    } else {
        // Sliced caches (per pipe or per tenant): export each slice
        // and the aggregate counters.
        const char *slice =
            cfg_.tenantCachePartitioned ? ".tenant" : ".pipe";
        for (std::size_t p = 0; p < caches_.size(); ++p)
            caches_[p]->exportStats(
                reg, prefix + slice + std::to_string(p) + ".cache");
        reg.set(prefix + ".cache.lookups",
                static_cast<double>(cacheLookups()));
        reg.set(prefix + ".cache.hits",
                static_cast<double>(cacheHits()));
        reg.set(prefix + ".cache.hitRate",
                cacheLookups() ? static_cast<double>(cacheHits()) /
                                     cacheLookups()
                               : 0.0);
        reg.set(prefix + ".cache.inserts",
                static_cast<double>(cacheInserts()));
        reg.set(prefix + ".cache.evictions",
                static_cast<double>(cacheEvictions()));
    }
    // Middle-pipe concatenators, aggregated into one "<prefix>.concat".
    Average prs_per_packet, pr_wait;
    std::uint64_t pushed = 0, emitted = 0, by_fill = 0, by_expiry = 0;
    for (const auto &c : concats_) {
        pushed += c->prsPushed();
        emitted += c->packetsEmitted();
        by_fill += c->flushesByFill();
        by_expiry += c->flushesByExpiry();
        prs_per_packet.merge(c->prsPerPacket());
        pr_wait.merge(c->prWaitTicks());
    }
    reg.set(prefix + ".concat.prsPushed", static_cast<double>(pushed));
    reg.set(prefix + ".concat.packetsEmitted",
            static_cast<double>(emitted));
    reg.set(prefix + ".concat.flushesByFill",
            static_cast<double>(by_fill));
    reg.set(prefix + ".concat.flushesByExpiry",
            static_cast<double>(by_expiry));
    reg.setAverage(prefix + ".concat.prsPerPacket", prs_per_packet);
    reg.setAverage(prefix + ".concat.prWaitTicks", pr_wait);
}

} // namespace netsparse
