#include "runtime/job_scheduler.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "net/pr_latency.hh"
#include "runtime/shard_map.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/shard_engine.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

/**
 * Per-node tenant demultiplexer: the sink of every host downlink.
 * Protocol packets dispatch to their tenant's slice in place (no extra
 * event, so packet timing matches a direct SNIC sink); raw background
 * packets terminate here - they are pure load and carry nothing
 * deliverable.
 */
class TenantDemux : public PacketSink
{
  public:
    void attach(Snic *slice) { slices_.push_back(slice); }

    void
    receivePacket(Packet &&pkt, std::uint32_t in_port) override
    {
        if (pkt.rawBytes) {
            ++rawPackets_;
            rawBytes_ += pkt.rawBytes;
            return;
        }
        ns_assert(pkt.tenant < slices_.size(),
                  "packet for unknown tenant ", pkt.tenant);
        slices_[pkt.tenant]->receivePacket(std::move(pkt), in_port);
    }

    std::uint64_t rawPackets() const { return rawPackets_; }
    std::uint64_t rawBytes() const { return rawBytes_; }

  private:
    std::vector<Snic *> slices_;
    std::uint64_t rawPackets_ = 0;
    std::uint64_t rawBytes_ = 0;
};

/**
 * The per-tenant SLO document ("cluster.tenant<t>.*",
 * docs/observability.md): completion, goodput and work counters for
 * one job, keyed so concurrent jobs never collide in the registry.
 */
void
exportTenantStats(StatRegistry &reg, const std::string &prefix,
                  const GatherRunResult &r, Tick start_delay)
{
    r.exportSummary(reg, prefix);
    Tick duration =
        r.commTicks > start_delay ? r.commTicks - start_delay : 0;
    reg.set(prefix + ".durationTicks", static_cast<double>(duration));
    reg.set(prefix + ".startDelayTicks",
            static_cast<double>(start_delay));
    double rx_bytes = 0, rx_payload = 0, rx_packets = 0;
    for (const NodeRunStats &st : r.nodes) {
        rx_bytes += static_cast<double>(st.rxBytes);
        rx_payload += static_cast<double>(st.rxPayloadBytes);
        rx_packets += static_cast<double>(st.rxPackets);
    }
    reg.set(prefix + ".rxBytes", rx_bytes);
    reg.set(prefix + ".rxPayloadBytes", rx_payload);
    reg.set(prefix + ".rxPackets", rx_packets);
}

Topology
buildTopology(const ClusterConfig &cfg)
{
    switch (cfg.topology) {
      case TopologyKind::LeafSpine:
        return Topology::leafSpine(
            (cfg.numNodes + cfg.nodesPerRack - 1) / cfg.nodesPerRack,
            cfg.nodesPerRack, cfg.numSpines);
      case TopologyKind::HyperX:
        // 4x4x2 switches, 4 hosts each, width-4 trunks (Section 9.6)
        ns_assert(cfg.numNodes == 128,
                  "the HyperX configuration is 128 nodes");
        return Topology::hyperX(4, 4, 2, 4, 4);
      case TopologyKind::Dragonfly:
        ns_assert(cfg.numNodes == 128,
                  "the Dragonfly configuration is 128 nodes");
        return Topology::dragonfly(4, 8, 4, 4);
    }
    ns_panic("unknown topology kind");
}

struct alignas(64) PaddedMailbox
{
    DeliveryMailbox box; // padded: neighbors belong to other threads
};

/**
 * Everything one run builds, and the questions the run asks of it.
 * Slices and hosts are one per (node, tenant), nid-major. Construction
 * is the same for one job and for many; `multi` only picks the
 * tenant-qualified names and the cluster.tenant<t>.* stats document.
 */
struct Fabric
{
    Fabric(const ClusterConfig &config, std::uint32_t tenants,
           bool multi_tenant)
        : cfg(config), T(tenants), multi(multi_tenant),
          topo(buildTopology(config))
    {
        ns_assert(topo.numNodes() == cfg.numNodes,
                  "topology node mismatch");
        // Rack-granular partition: a ToR plus its rack's hosts and
        // SNICs share one queue; a zero-latency link would leave no
        // lookahead, so such configurations fall back to a single
        // shard.
        std::uint32_t request =
            resolveShardCount(cfg.simShards, topo.numTors());
        shardMap = ShardMap::build(topo, cfg.link.latency == 0 ? 1
                                                               : request);
        for (std::uint32_t s = 0; s < numShards(); ++s)
            queues.push_back(std::make_unique<EventQueue>());
        mailboxes.resize(numShards());
        for (auto &row : mailboxes)
            row = std::vector<PaddedMailbox>(numShards());
    }

    const ClusterConfig &cfg;
    const std::uint32_t T;
    const bool multi;
    Topology topo;
    ShardMap shardMap;
    std::vector<std::unique_ptr<EventQueue>> queues;
    std::vector<std::unique_ptr<Snic>> snics;
    /** demuxes[nid]: the sink of node nid's downlink. */
    std::vector<std::unique_ptr<TenantDemux>> demuxes;
    std::vector<std::unique_ptr<Switch>> switches;
    /** Stats/telemetry identity: "tor<i>"/"spine<j>", numbered in
     *  construction order like the stats document. */
    std::vector<std::string> switchNames;
    /** mailboxes[src][dst]: cross-shard deliveries, drained by dst. */
    std::vector<std::vector<PaddedMailbox>> mailboxes;
    std::vector<std::unique_ptr<Link>> links;
    /** links[i] is driven (and sampled) by its sender's shard. */
    std::vector<std::uint32_t> linkShards;
    std::vector<Link *> nicEgress;
    std::vector<std::unique_ptr<HostNode>> hosts;
    std::vector<std::unique_ptr<BackgroundSource>> bgSources;
    /** Minimum cross-shard link latency: the engine's lookahead. */
    Tick lookahead = maxTick;

    std::uint32_t numShards() const { return shardMap.numShards; }
    Snic &snic(NodeId n, std::uint32_t t) const { return *snics[n * T + t]; }
    HostNode &host(NodeId n, std::uint32_t t) const
    {
        return *hosts[n * T + t];
    }
    EventQueue &nodeQueue(NodeId n) const
    {
        return *queues[shardMap.shardOfNode(n)];
    }
    EventQueue &switchQueue(SwitchId s) const
    {
        return *queues[shardMap.shardOfSwitch(s)];
    }

    /** "node<i>", or "node<i>.job<t>" under tenant-qualified names. */
    std::string
    sliceName(NodeId nid, std::uint32_t t) const
    {
        std::string node = "node" + std::to_string(nid);
        return multi ? node + ".job" + std::to_string(t) : node;
    }

    /**
     * Append a link driven by shard @p src_shard's queue. Ordering ids
     * are assigned in construction order - a per-run-deterministic
     * numbering that forms the same-tick arrival tie-break at every
     * sink, which is what keeps execution identical across shard
     * counts. Cross-shard links (always switch-to-switch under the rack
     * partition) deposit deliveries into per-(src, dst) shard
     * mailboxes; their minimum latency is the engine's lookahead.
     */
    Link &
    addLink(const LinkConfig &lc, PacketSink *sink, std::uint32_t sink_port,
            std::string name, std::uint32_t src_shard,
            std::uint32_t dst_shard)
    {
        links.push_back(std::make_unique<Link>(
            *queues[src_shard], lc, cfg.proto, sink, sink_port,
            std::move(name), cfg.eventBatching));
        Link &link = *links.back();
        link.setOrderingId(static_cast<std::uint32_t>(links.size() - 1));
        linkShards.push_back(src_shard);
        // The injector keys its fault stream on the ordering id just
        // assigned, so the injected pattern is shard-count-invariant.
        if (cfg.faults.enabled())
            link.configureFaults(cfg.faults);
        if (src_shard != dst_shard) {
            link.setCrossShardOutbox(&mailboxes[src_shard][dst_shard].box);
            lookahead = std::min(lookahead, lc.latency);
        }
        return link;
    }

    /**
     * Cluster-wide component ids, final once every link exists: links
     * by ordering id (link.cc records spans under it directly), then
     * switches, then slices nid-major. Spans and telemetry order keys
     * share them; telemetry's per-tenant entities follow the slices as
     * sliceComp(numNodes, t).
     */
    std::uint32_t
    switchComp(SwitchId s) const
    {
        return static_cast<std::uint32_t>(links.size()) + s;
    }
    std::uint32_t sliceComp(NodeId n, std::uint32_t t) const
    {
        return switchComp(topo.numSwitches()) + n * T + t;
    }
};

/**
 * Build every component in the order that fixes link ordering ids and
 * component ids: SNIC slices, switches, switch-port links, NIC egress
 * links, hosts, background sources. Host streams are moved out of
 * @p jobs.
 */
void
buildComponents(Fabric &f, std::vector<JobSpec> &jobs,
                const BackgroundTrafficConfig &bg)
{
    const ClusterConfig &cfg = f.cfg;

    // --- SNICs: one virtual slice per (node, tenant) ---
    // Each tenant keeps its own RIG units, Idx Filter and retry state;
    // the node's physical NIC egress link is shared below.
    ConcatConfig nic_concat;
    nic_concat.enabled = cfg.features.concatNic;
    nic_concat.delay =
        Clock(RigUnitConfig::clockHz).cycles(cfg.nicConcatDelayCycles);
    nic_concat.virtualized = cfg.virtualizedCqs;
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        f.demuxes.push_back(std::make_unique<TenantDemux>());
        for (std::uint32_t t = 0; t < f.T; ++t) {
            f.snics.push_back(std::make_unique<Snic>(
                f.nodeQueue(nid), cfg.snic, nic_concat, nid,
                static_cast<std::uint16_t>(t), jobs[t].work.part,
                jobs[t].work.numIdxs, f.sliceName(nid, t) + ".snic",
                cfg.features.filter, cfg.features.coalesce,
                cfg.eventBatching));
            f.demuxes.back()->attach(f.snics.back().get());
        }
    }

    // --- Switches ---
    Clock switch_clock(Switch::kPipeClockHz);
    std::uint32_t tors = 0, spines = 0;
    for (SwitchId sid = 0; sid < f.topo.numSwitches(); ++sid) {
        SwitchConfig sw_cfg;
        sw_cfg.pipelineLatency = cfg.switchPipelineLatency;
        sw_cfg.netsparseEnabled =
            f.topo.isTor(sid) &&
            (cfg.features.concatSwitch || cfg.features.switchCache);
        sw_cfg.concat.enabled = cfg.features.concatSwitch;
        sw_cfg.concat.delay =
            switch_clock.cycles(cfg.switchConcatDelayCycles);
        sw_cfg.concat.virtualized = cfg.virtualizedCqs;
        // Concurrent tenants must not share concatenated packets: the
        // destination demux dispatches whole packets by tenant.
        sw_cfg.concat.tenantLanes = f.T;
        sw_cfg.cache = cfg.cacheGeometry;
        sw_cfg.cache.totalBytes =
            cfg.features.switchCache ? cfg.propertyCacheBytes : 0;
        sw_cfg.cacheLayout = cfg.cacheLayout;
        sw_cfg.numTenants = f.T;
        sw_cfg.fairQueue = cfg.fairQueue;
        // Corrupt responses must not poison the rack caches.
        sw_cfg.verifyResponses = cfg.faults.enabled();
        f.switches.push_back(std::make_unique<Switch>(
            f.switchQueue(sid), sw_cfg, sid,
            "switch" + std::to_string(sid)));
        f.switchNames.push_back(f.topo.isTor(sid)
                                    ? "tor" + std::to_string(tors++)
                                    : "spine" + std::to_string(spines++));
    }

    // --- Links ---
    // One directed link per (switch port, direction) plus one egress
    // link per host NIC.
    for (SwitchId sid = 0; sid < f.topo.numSwitches(); ++sid) {
        const auto &ports = f.topo.ports(sid);
        const std::uint32_t src_shard = f.shardMap.shardOfSwitch(sid);
        for (std::uint32_t p = 0; p < ports.size(); ++p) {
            const PortPeer &peer = ports[p];
            LinkConfig lc = cfg.link;
            lc.bandwidth = Bandwidth::fromGBps(
                cfg.link.bandwidth.bytesPerSecond() / 1e9 *
                peer.bwMultiplier);
            const bool to_host = peer.kind == PortPeer::Kind::Host;
            PacketSink *sink = to_host
                                   ? static_cast<PacketSink *>(
                                         f.demuxes[peer.id].get())
                                   : f.switches[peer.id].get();
            std::uint32_t dst_shard =
                to_host ? f.shardMap.shardOfNode(peer.id)
                        : f.shardMap.shardOfSwitch(peer.id);
            ns_assert(!to_host || dst_shard == src_shard,
                      "host severed from its ToR by the partition");
            Link &link = f.addLink(
                lc, sink, to_host ? 0 : peer.peerPort,
                "sw" + std::to_string(sid) + ".p" + std::to_string(p),
                src_shard, dst_shard);
            f.switches[sid]->attachPort(p, &link, to_host);
        }
    }
    // Host egress links (NIC -> ToR); always intra-shard. Every tenant
    // slice of a node transmits through the same physical link - its
    // busy-until chain is where the slices contend.
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        SwitchId tor = f.topo.switchOf(nid);
        Link &link = f.addLink(
            cfg.link, f.switches[tor].get(), f.topo.hostPort(nid),
            "node" + std::to_string(nid) + ".tx",
            f.shardMap.shardOfNode(nid), f.shardMap.shardOfSwitch(tor));
        f.nicEgress.push_back(&link);
        for (std::uint32_t t = 0; t < f.T; ++t)
            f.snic(nid, t).attachEgress(&link);
    }
    ns_assert(f.numShards() == 1 ||
                  (f.lookahead > 0 && f.lookahead != maxTick),
              "multi-shard run without a positive cross-shard latency");

    // --- Component ids, routing and per-kernel configuration ---
    // Shared or partitioned, the cache provisions for the widest
    // property in flight (capacity accounting only; checksums are
    // what is stored).
    std::uint32_t max_prop_bytes = 0;
    for (const JobSpec &job : jobs)
        max_prop_bytes = std::max(max_prop_bytes, 4 * job.k);
    for (SwitchId sid = 0; sid < f.topo.numSwitches(); ++sid) {
        Switch &sw = *f.switches[sid];
        sw.setSpanComp(f.switchComp(sid));
        sw.setRouteFn([&topo = f.topo, sid](NodeId dest) {
            return topo.route(sid, dest);
        });
        sw.configureForKernel(max_prop_bytes);
    }

    // --- Hosts: one per (node, tenant), admitted at its startDelay ---
    for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < f.T; ++t) {
            Snic &sn = f.snic(nid, t);
            sn.setSpanComp(f.sliceComp(nid, t));
            sn.configureForKernel();
            f.hosts.push_back(std::make_unique<HostNode>(
                f.nodeQueue(nid), cfg.host, sn,
                std::move(jobs[t].work.streams[nid]), 4 * jobs[t].k));
            // Completion is read off HostNode::done() after the run; a
            // shared counter would be written concurrently from
            // several shards.
            HostNode *h = f.hosts.back().get();
            if (jobs[t].startDelay == 0)
                h->start();
            else
                f.nodeQueue(nid).schedule(jobs[t].startDelay,
                                          [h] { h->start(); });
        }
    }

    // --- Background traffic ---
    if (bg.enabled()) {
        for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
            f.bgSources.push_back(std::make_unique<BackgroundSource>(
                f.nodeQueue(nid), bg, nid, cfg.numNodes,
                *f.nicEgress[nid]));
            f.bgSources.back()->start();
        }
    }
}

/**
 * Interval telemetry: one probe per shard; every entity is registered
 * on the shard whose events drive its state, under its component id
 * as the cluster-wide order key, so the merged document is independent
 * of the shard count. Samplers read only their own entity, and
 * boundary samples observe exactly the events with tick < boundary
 * (sim/telemetry.hh), so every series is byte-identical at 1/2/4
 * shards.
 */
std::vector<std::unique_ptr<TelemetryProbe>>
attachTelemetry(const Fabric &f)
{
    const Tick interval = f.cfg.telemetryInterval;
    std::vector<std::unique_ptr<TelemetryProbe>> probes;
    for (const auto &q : f.queues) {
        probes.push_back(std::make_unique<TelemetryProbe>(interval));
        probes.back()->attachTo(*q);
    }
    for (std::size_t i = 0; i < f.links.size(); ++i) {
        Link *lk = f.links[i].get();
        probes[f.linkShards[i]]->addEntity(
            i, lk->name(), "link", {"utilization", "queuedBytes"},
            [lk, interval, last_busy = Tick{0}](
                Tick boundary, std::vector<double> &out) mutable {
                // Wire time committed this interval over the interval;
                // a burst that books the wire past the boundary can
                // push it above 1 (the backlog then shows up in
                // queuedBytes).
                Tick busy = lk->busyTicks();
                out.push_back(static_cast<double>(busy - last_busy) /
                              static_cast<double>(interval));
                last_busy = busy;
                out.push_back(lk->queuedBytesAt(boundary));
            });
    }
    for (SwitchId sid = 0; sid < f.topo.numSwitches(); ++sid) {
        Switch *sw = f.switches[sid].get();
        probes[f.shardMap.shardOfSwitch(sid)]->addEntity(
            f.switchComp(sid), f.switchNames[sid], "switch",
            {"outQueueBytes", "cacheHits", "cacheMisses", "cacheInserts"},
            [sw, last_hits = std::uint64_t{0},
             last_lookups = std::uint64_t{0},
             last_inserts = std::uint64_t{0}](
                Tick boundary, std::vector<double> &out) mutable {
                double backlog = 0.0;
                for (const Link *l : sw->outLinks())
                    backlog += l->queuedBytesAt(boundary);
                out.push_back(backlog);
                std::uint64_t hits = sw->cacheHits();
                std::uint64_t lookups = sw->cacheLookups();
                std::uint64_t inserts = sw->cacheInserts();
                out.push_back(static_cast<double>(hits - last_hits));
                out.push_back(static_cast<double>(
                    (lookups - last_lookups) - (hits - last_hits)));
                out.push_back(static_cast<double>(inserts - last_inserts));
                last_hits = hits;
                last_lookups = lookups;
                last_inserts = inserts;
            });
    }
    for (NodeId nid = 0; nid < f.cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < f.T; ++t) {
            Snic *sn = &f.snic(nid, t);
            probes[f.shardMap.shardOfNode(nid)]->addEntity(
                f.sliceComp(nid, t), f.sliceName(nid, t) + ".rig", "rig",
                {"inflightPrs", "retransmits"},
                [sn, last_retx = std::uint64_t{0}](
                    Tick, std::vector<double> &out) mutable {
                    out.push_back(static_cast<double>(sn->inflightPrs()));
                    std::uint64_t retx = sn->totalRetransmits();
                    out.push_back(static_cast<double>(retx - last_retx));
                    last_retx = retx;
                });
        }
    }
    if (!f.multi)
        return probes;
    // Cluster-wide per-tenant series. Each shard samples its own slice
    // of the tenant (its nodes' virtual SNICs) under the tenant's
    // shared order key and id; mergeTelemetry folds same-id slices
    // elementwise, so the published series is the cluster-wide sum
    // regardless of how nodes landed on shards.
    for (std::uint32_t s = 0; s < f.numShards(); ++s) {
        for (std::uint32_t t = 0; t < f.T; ++t) {
            std::vector<Snic *> slice;
            for (NodeId nid = 0; nid < f.cfg.numNodes; ++nid)
                if (f.shardMap.shardOfNode(nid) == s)
                    slice.push_back(&f.snic(nid, t));
            if (slice.empty())
                continue;
            probes[s]->addEntity(
                f.sliceComp(f.cfg.numNodes, t), "tenant" + std::to_string(t),
                "tenant", {"inflightPrs", "rxPayloadBytes"},
                [slice = std::move(slice), last_payload = std::uint64_t{0}](
                    Tick, std::vector<double> &out) mutable {
                    std::uint64_t inflight = 0, payload = 0;
                    for (const Snic *sn : slice) {
                        inflight += sn->inflightPrs();
                        payload += sn->rxPayloadBytes();
                    }
                    out.push_back(static_cast<double>(inflight));
                    out.push_back(
                        static_cast<double>(payload - last_payload));
                    last_payload = payload;
                });
        }
    }
    return probes;
}

void
mergeTelemetry(const Fabric &f,
               std::vector<std::unique_ptr<TelemetryProbe>> &probes,
               Tick final_tick)
{
    // Boundaries past each shard's last event never fired in the
    // dispatch loop; sample them against the global final tick so
    // every probe ends with the same timeline.
    for (auto &p : probes)
        p->flushUntil(final_tick);
    const std::size_t samples = probes[0]->numSamples();
    for (const auto &p : probes)
        ns_assert(p->numSamples() == samples,
                  "telemetry probes disagree on the sample count");
    TelemetryRun &trun = TelemetrySink::instance().beginRun();
    trun.intervalTicks = f.cfg.telemetryInterval;
    trun.finalTick = final_tick;
    trun.sampleTicks.reserve(samples);
    for (std::size_t i = 1; i <= samples; ++i)
        trun.sampleTicks.push_back(i * f.cfg.telemetryInterval);
    for (auto &p : probes) {
        for (auto &e : p->takeEntities()) {
            // Fold each tenant's per-shard slices into one entity.
            auto it = trun.entities.end();
            if (e.kind == "tenant")
                it = std::find_if(
                    trun.entities.begin(), trun.entities.end(),
                    [&e](const TelemetryEntity &o) { return o.id == e.id; });
            if (it == trun.entities.end()) {
                trun.entities.push_back(std::move(e));
                continue;
            }
            for (std::size_t si = 0; si < e.series.size(); ++si)
                for (std::size_t j = 0; j < e.series[si].size(); ++j)
                    it->series[si][j] += e.series[si][j];
        }
    }
    std::sort(trun.entities.begin(), trun.entities.end(),
              [](const TelemetryEntity &a, const TelemetryEntity &b) {
                  return a.order < b.order;
              });
    // Per-shard event throughput is the one inherently shard-dependent
    // series; the document carries the cluster-wide sum as a single
    // trailing "sim" entity (exact: the counts are integers far below
    // 2^53).
    TelemetryEntity sim;
    sim.order = f.sliceComp(f.cfg.numNodes, f.T);
    sim.id = "sim";
    sim.kind = "sim";
    sim.seriesNames = {"events"};
    sim.series.emplace_back(samples, 0.0);
    for (const auto &p : probes) {
        const auto &ev = p->eventsPerInterval();
        for (std::size_t i = 0; i < samples; ++i)
            sim.series[0][i] += ev[i];
    }
    trun.entities.push_back(std::move(sim));
}

/**
 * Run every queue until it drains or reaches the simulation cap. Fatal,
 * naming the first stuck slice, unless every host finished.
 */
ShardEngine::Result
runFabric(Fabric &f)
{
    std::vector<ShardEngine::Shard> shards(f.numShards());
    for (std::uint32_t d = 0; d < f.numShards(); ++d) {
        shards[d].eq = f.queues[d].get();
        // Drain inbound mailboxes in fixed source order; the banded
        // delivery keys then restore the canonical event order inside
        // the destination queue.
        shards[d].drainInbox = [&f, d] {
            EventQueue &dst = *f.queues[d];
            for (auto &row : f.mailboxes) {
                row[d].box.drain([&dst](PendingDelivery &&rec) {
                    dst.scheduleDelivery(
                        rec.when, rec.key,
                        [sink = rec.sink, port = rec.port,
                         p = std::move(rec.pkt)]() mutable {
                            sink->receivePacket(std::move(p), port);
                        });
                });
            }
        };
    }
    const ShardEngine::Result res = ShardEngine::run(
        std::move(shards), f.lookahead, f.cfg.maxSimTime);
    auto finished = [](const auto &h) { return h->done(); };
    auto stuck = std::find_if_not(f.hosts.begin(), f.hosts.end(), finished);
    if (stuck != f.hosts.end()) {
        const auto i = static_cast<std::uint32_t>(stuck - f.hosts.begin());
        ns_fatal("gather deadlocked or exceeded the simulation cap: ",
                 std::count_if(f.hosts.begin(), f.hosts.end(), finished),
                 "/", f.hosts.size(), " hosts finished by ",
                 ticks::toNs(res.finalTick), " ns; first unfinished: ",
                 f.sliceName(i / f.T, i % f.T), " with ",
                 f.snic(i / f.T, i % f.T).inflightPrs(), " PRs in flight");
    }
    return res;
}

MultiJobResult
collectResults(const Fabric &f, const std::vector<JobSpec> &jobs,
               const ShardEngine::Result &res)
{
    const ClusterConfig &cfg = f.cfg;
    MultiJobResult mr;
    mr.jobs.resize(f.T);
    // Shared-fabric totals, summed once. The single-job result carries
    // them itself; a multi-tenant run defines only the cluster-wide
    // copies.
    GatherRunResult shared;
    GatherRunResult &fab = f.multi ? shared : mr.jobs[0];
    for (const auto &l : f.links) {
        fab.totalWireBytes += l->bytesSent();
        fab.packetsDropped += l->packetsDropped();
        if (const LinkFaultInjector *fi = l->faults()) {
            fab.corruptedPrs += fi->stats().corruptedPrs;
            fab.linkDownDrops += fi->stats().linkDownDrops;
            fab.linkDownTicks += fi->stats().linkDownTicks;
            fab.degradedTicks += fi->stats().degradedTicks;
        }
    }
    for (const auto &sw : f.switches) {
        fab.cacheLookups += sw->cacheLookups();
        fab.cacheHits += sw->cacheHits();
        fab.cachePoisonRejected += sw->poisonRejected();
        fab.cacheBypasses += sw->cacheBypasses();
        mr.prsServedByCache += sw->prsServedByCache(); // split by job below
    }
    mr.totalWireBytes = fab.totalWireBytes;
    mr.packetsDropped = fab.packetsDropped;
    mr.cacheLookups = fab.cacheLookups;
    mr.cacheHits = fab.cacheHits;
    mr.executedEvents = res.executedEvents;
    mr.finalTick = res.finalTick;
    mr.simShards = f.numShards();
    mr.lookaheadTicks = f.numShards() > 1 ? f.lookahead : 0;
    mr.epochs = res.epochs;
    for (const auto &src : f.bgSources) {
        mr.backgroundPackets += src->packetsInjected();
        mr.backgroundBytes += src->bytesInjected();
    }
    for (const auto &d : f.demuxes) {
        mr.backgroundDelivered += d->rawPackets();
        mr.backgroundDeliveredBytes += d->rawBytes();
    }

    for (std::uint32_t t = 0; t < f.T; ++t) {
        GatherRunResult &r = mr.jobs[t];
        r.nodes.resize(cfg.numNodes);
        std::uint64_t job_rx_prs = 0, job_rx_packets = 0;
        for (NodeId nid = 0; nid < cfg.numNodes; ++nid) {
            NodeRunStats &st = r.nodes[nid];
            const HostNode &host = f.host(nid, t);
            const Snic &sn = f.snic(nid, t);
            static_cast<RigClientStats &>(st) = sn.aggregateClientStats();
            st.finishTick = host.finishTick();
            st.commandsIssued = host.commandsIssued();
            st.commandRetries = host.commandRetries();
            st.permanentFailures = host.permanentFailures();
            st.rxPackets = sn.rxPackets();
            st.rxBytes = sn.rxBytes();
            st.rxPayloadBytes = sn.rxPayloadBytes();
            st.rxResponses = sn.rxResponses();
            st.rxReads = sn.rxReads();
            job_rx_prs += st.rxResponses + st.rxReads;
            job_rx_packets += st.rxPackets;
            if (st.finishTick > r.commTicks) {
                r.commTicks = st.finishTick;
                r.tailNode = nid;
            }
        }
        r.recoveryEnabled = cfg.snic.rigUnit.retry.enabled;
        r.faultsEnabled = cfg.faults.enabled();
        r.avgPrsPerPacket =
            job_rx_packets ? static_cast<double>(job_rx_prs) /
                                 job_rx_packets
                           : 0.0;
        r.executedEvents = mr.executedEvents;
        r.finalTick = mr.finalTick;
        r.simShards = mr.simShards;
        r.lookaheadTicks = mr.lookaheadTicks;
        r.epochs = mr.epochs;
        // The job's share of the cache serves (all of them when the
        // switches serve one tenant).
        for (const auto &sw : f.switches)
            r.prsServedByCache += sw->prsServedByCache(t);
        // The SLO denominator is the job's own active span: admission
        // (startDelay) to its tail node's completion. With one job at
        // t0 this is exactly the single-job commTicks window.
        Tick duration = r.commTicks > jobs[t].startDelay
                            ? r.commTicks - jobs[t].startDelay
                            : 0;
        if (duration > 0) {
            double line_bpp = cfg.link.bandwidth.bytesPerPs();
            const NodeRunStats &tail = r.tail();
            r.tailLineUtil =
                static_cast<double>(tail.rxBytes) /
                (static_cast<double>(duration) * line_bpp);
            r.tailGoodput =
                static_cast<double>(tail.rxPayloadBytes) /
                (static_cast<double>(duration) * line_bpp);
        }
        mr.makespanTicks = std::max(mr.makespanTicks, r.commTicks);
    }
    return mr;
}

/**
 * The --stats-json snapshot. Deposited while the components are still
 * alive, so it carries per-RIG-unit, per-concatenator and
 * per-switch-cache counters that GatherRunResult does not retain.
 */
void
exportRunStats(const Fabric &f, const MultiJobResult &mr,
               const std::vector<JobSpec> &jobs,
               const BackgroundTrafficConfig &bg, const StampBoard *board)
{
    StatRegistry &reg = StatsExport::instance().beginRun();
    if (!f.multi) {
        mr.jobs[0].exportStats(reg);
    } else {
        reg.set("cluster.jobs", static_cast<double>(f.T));
        reg.set("cluster.makespanTicks",
                static_cast<double>(mr.makespanTicks));
        reg.set("cluster.totalWireBytes",
                static_cast<double>(mr.totalWireBytes));
        reg.set("cluster.cacheLookups",
                static_cast<double>(mr.cacheLookups));
        reg.set("cluster.cacheHits", static_cast<double>(mr.cacheHits));
        reg.set("cluster.prsServedByCache",
                static_cast<double>(mr.prsServedByCache));
        for (std::uint32_t t = 0; t < f.T; ++t)
            exportTenantStats(reg, "cluster.tenant" + std::to_string(t),
                              mr.jobs[t], jobs[t].startDelay);
        if (bg.enabled()) {
            reg.set("cluster.background.packetsInjected",
                    static_cast<double>(mr.backgroundPackets));
            reg.set("cluster.background.bytesInjected",
                    static_cast<double>(mr.backgroundBytes));
            reg.set("cluster.background.packetsDelivered",
                    static_cast<double>(mr.backgroundDelivered));
            reg.set("cluster.background.bytesDelivered",
                    static_cast<double>(mr.backgroundDeliveredBytes));
        }
    }
    for (NodeId nid = 0; nid < f.cfg.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < f.T; ++t) {
            const std::string &name = f.snic(nid, t).name();
            f.snic(nid, t).exportStats(reg, name);
            if (board)
                reg.setAverage(name + ".prLatency.totalNs",
                               board->totalNs(nid, t));
        }
        std::string node = "node" + std::to_string(nid);
        const Link *tx = f.nicEgress[nid];
        reg.set(node + ".tx.packets",
                static_cast<double>(tx->packetsSent()));
        reg.set(node + ".tx.bytes", static_cast<double>(tx->bytesSent()));
        reg.set(node + ".tx.payloadBytes",
                static_cast<double>(tx->payloadBytesSent()));
        reg.set(node + ".tx.busyTicks",
                static_cast<double>(tx->busyTicks()));
        reg.set(node + ".tx.utilization", tx->utilization());
    }
    for (SwitchId sid = 0; sid < f.topo.numSwitches(); ++sid)
        f.switches[sid]->exportStats(reg, f.switchNames[sid]);
    reg.set("sim.executedEvents", static_cast<double>(mr.executedEvents));
    reg.set("sim.finalTick", static_cast<double>(mr.finalTick));
    if (board) {
        // Cluster-wide PR latency decomposition beside the per-slice
        // averages above. The board exists only with telemetry on, so
        // the telemetry-off document stays byte-identical.
        for (std::uint32_t t = 0; t < f.T; ++t)
            board->latency(t).exportStats(
                reg, f.multi ? "cluster.tenant" + std::to_string(t) +
                                   ".prLatency"
                             : "cluster.prLatency");
    }
    if (f.cfg.memoryStats) {
        // The host memory the CQ buffers of every SNIC and switch pipe
        // hold. Gated: a host diagnostic outside the modeled stats
        // (see ClusterConfig).
        std::uint64_t held = 0;
        for (const auto &sn : f.snics)
            held += sn->concatHeldBytes();
        for (const auto &sw : f.switches)
            held += sw->concatHeldBytes();
        reg.set("cluster.memory.concatHeldBytes",
                static_cast<double>(held));
    }
}

} // namespace

JobScheduler::JobScheduler(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    // A lossy fabric needs the reliable-PR layer to terminate; the
    // user may also enable it explicitly on a lossless one.
    if (cfg_.faults.enabled())
        cfg_.snic.rigUnit.retry.enabled = true;
    ns_assert(cfg_.numNodes >= 1, "cluster needs nodes");
    ns_assert(!cfg_.features.switchCache || cfg_.features.concatSwitch,
              "the Property Cache lives in the middle pipes; enable "
              "switch concatenation with it");
}

MultiJobResult
JobScheduler::run(std::vector<JobSpec> &&jobs,
                  const BackgroundTrafficConfig &bg)
{
    const auto T = static_cast<std::uint32_t>(jobs.size());
    ns_assert(T >= 1, "the scheduler needs at least one job");
    for (std::uint32_t t = 0; t < T; ++t) {
        const GatherWorkload &work = jobs[t].work;
        ns_assert(work.part.numParts() == cfg_.numNodes, "job ", t,
                  ": partition has ", work.part.numParts(),
                  " parts for ", cfg_.numNodes, " nodes");
        ns_assert(work.streams.size() == cfg_.numNodes, "job ", t,
                  ": workload has ", work.streams.size(),
                  " streams for ", cfg_.numNodes, " nodes");
        ns_assert(work.numIdxs >= work.part.total(), "job ", t,
                  ": property space smaller than the partition");
        // The tenant id salts checksums and cache keys above bit 40.
        ns_assert(T == 1 || work.numIdxs <= (1ull << 40), "job ", t,
                  ": property space too large for tenant-qualified keys");
        ns_assert(jobs[t].k >= 1, "job ", t, ": k must be positive");
    }
    // One job without background traffic keeps the single-job
    // cluster's names and stats document (see the header comment).
    Fabric f(cfg_, T, T > 1 || bg.enabled());

    // Span tracing (sim/span.hh): one recorder per shard, reached
    // through the shard's own queue; the post-run merge restores one
    // shard-count-invariant document. An enabled sink with all-zero
    // params (the NETSPARSE_SPANS_OUT env path, where nothing touches
    // ClusterConfig) falls back to the representative 1/64 sample,
    // matching the CLI default.
    const bool spans_on = SpanSink::instance().enabled();
    SpanParams span_params = cfg_.spans;
    if (spans_on && !span_params.enabled())
        span_params.sampleEvery = 64;
    std::vector<std::unique_ptr<SpanBuffer>> span_bufs;
    if (spans_on) {
        for (auto &q : f.queues) {
            span_bufs.push_back(std::make_unique<SpanBuffer>(span_params));
            q->setSpanBuffer(span_bufs.back().get());
        }
    }
    // Interval telemetry and the PR latency lifecycle share one gate:
    // both cost nothing (no collectors, no stamping, a dead probe
    // branch in the dispatch loop) unless the sink is enabled.
    const bool telemetry_on =
        TelemetrySink::instance().enabled() && cfg_.telemetryInterval > 0;
    // The PR-latency recorder (net/pr_latency.hh): one board for every
    // shard, since each slice in it is written by its rack's queue only
    // and each latency collector by its own shard.
    std::unique_ptr<StampBoard> board;
    if (telemetry_on) {
        board = std::make_unique<StampBoard>(f.shardMap.nodeShard, T,
                                             cfg_.snic.numRigUnits / 2);
        for (auto &q : f.queues)
            q->setStampBoard(board.get());
    }
    // The event trace (sim/trace.hh): the calling thread's writer
    // captures a one-shard run. Track ids cannot be merged across
    // writers, so a sharded run gives each queue its own writer at
    // "dir/run.shard<s>.json"; their destructors write the files even
    // when the run ends in an exception.
    TraceWriter &trace = TraceWriter::instance();
    std::vector<std::unique_ptr<TraceWriter>> shard_traces;
    for (std::uint32_t s = 0; trace.enabled() && s < f.numShards(); ++s) {
        TraceWriter *w = &trace;
        if (f.numShards() > 1) {
            shard_traces.push_back(std::make_unique<TraceWriter>());
            w = shard_traces.back().get();
            const std::string path = TraceWriter::derivedPath(
                trace.path(), "shard" + std::to_string(s));
            if (!w->open(path))
                ns_warn("cannot open per-shard trace ", path, "; shard ",
                        s, " runs untraced");
        }
        f.queues[s]->setTrace(w);
    }

    buildComponents(f, jobs, bg);
    std::vector<std::unique_ptr<TelemetryProbe>> probes;
    if (telemetry_on)
        probes = attachTelemetry(f);

    const ShardEngine::Result res = runFabric(f);

    if (spans_on) {
        std::vector<SpanBuffer *> bufs;
        for (auto &b : span_bufs)
            bufs.push_back(b.get());
        SpanRun &srun = SpanSink::instance().beginRun();
        srun.params = span_params;
        srun.finalTick = res.finalTick;
        // The name table: every component id's stats identity.
        for (const auto &l : f.links)
            srun.components.push_back(l->name());
        for (const std::string &name : f.switchNames)
            srun.components.push_back(name);
        for (const auto &sn : f.snics)
            srun.components.push_back(sn->name());
        buildSpanRun(srun, bufs);
        // Also render the kept spans as Perfetto async spans when a
        // trace is being captured alongside.
        if (trace.enabled())
            exportSpansToTrace(trace, srun);
    }
    if (telemetry_on)
        mergeTelemetry(f, probes, res.finalTick);

    MultiJobResult mr = collectResults(f, jobs, res);
    if (StatsExport::instance().enabled())
        exportRunStats(f, mr, jobs, bg, board.get());
    return mr;
}

} // namespace netsparse
