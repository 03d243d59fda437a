#include "runtime/job_scheduler.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "runtime/shard_map.hh"
#include "sim/arena.hh"
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
 * Per-node tenant demultiplexer: the sink of a host's downlink when
 * more than one virtual SNIC slice (or background traffic) shares the
 * node. Protocol packets dispatch to their tenant's slice in place (no
 * extra event, so packet timing matches the single-tenant sink); raw
 * background packets terminate here - they are pure load and carry
 * nothing deliverable.
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
    reg.set(prefix + ".commTicks", static_cast<double>(r.commTicks));
    Tick duration =
        r.commTicks > start_delay ? r.commTicks - start_delay : 0;
    reg.set(prefix + ".durationTicks", static_cast<double>(duration));
    reg.set(prefix + ".startDelayTicks",
            static_cast<double>(start_delay));
    reg.set(prefix + ".tailNode", static_cast<double>(r.tailNode));
    reg.set(prefix + ".avgPrsPerPacket", r.avgPrsPerPacket);
    reg.set(prefix + ".prsServedByCache",
            static_cast<double>(r.prsServedByCache));
    reg.set(prefix + ".tailGoodput", r.tailGoodput);
    reg.set(prefix + ".tailLineUtil", r.tailLineUtil);
    double prs = 0, filtered = 0, coalesced = 0, idxs = 0;
    double rx_bytes = 0, rx_payload = 0, rx_packets = 0;
    for (const NodeRunStats &st : r.nodes) {
        prs += static_cast<double>(st.prsIssued);
        filtered += static_cast<double>(st.filtered);
        coalesced += static_cast<double>(st.coalesced);
        idxs += static_cast<double>(st.idxsProcessed);
        rx_bytes += static_cast<double>(st.rxBytes);
        rx_payload += static_cast<double>(st.rxPayloadBytes);
        rx_packets += static_cast<double>(st.rxPackets);
    }
    reg.set(prefix + ".prsIssued", prs);
    reg.set(prefix + ".filtered", filtered);
    reg.set(prefix + ".coalesced", coalesced);
    reg.set(prefix + ".idxsProcessed", idxs);
    reg.set(prefix + ".rxBytes", rx_bytes);
    reg.set(prefix + ".rxPayloadBytes", rx_payload);
    reg.set(prefix + ".rxPackets", rx_packets);
    reg.setHistogram(prefix + ".finishTimeNs", r.finishTimeHistogram());
}

} // namespace

JobScheduler::JobScheduler(ClusterConfig cfg) : cfg_(std::move(cfg))
{
    if (cfg_.eventBatching) {
        if (cfg_.link.batchMaxPackets <= 1)
            cfg_.link.batchMaxPackets = 16;
        cfg_.snic.batchedServerReads = true;
    }
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
    // A single job with no background traffic is the legacy cluster:
    // identical construction order, component names and stats
    // document, by design (see the header comment).
    const bool multi = T > 1 || bg.enabled();

    std::vector<std::uint32_t> prop_bytes(T);
    std::uint32_t max_prop_bytes = 0;
    for (std::uint32_t t = 0; t < T; ++t) {
        const JobSpec &job = jobs[t];
        ns_assert(job.work.part.numParts() == cfg_.numNodes,
                  "job ", t, ": partition has ",
                  job.work.part.numParts(), " parts for ", cfg_.numNodes,
                  " nodes");
        ns_assert(job.work.streams.size() == cfg_.numNodes,
                  "job ", t, ": workload has ", job.work.streams.size(),
                  " streams for ", cfg_.numNodes, " nodes");
        ns_assert(job.work.numIdxs >= job.work.part.total(),
                  "job ", t, ": property space smaller than the "
                  "partition");
        // The tenant id salts checksums and cache keys above bit 40.
        ns_assert(T == 1 || job.work.numIdxs <= (1ull << 40),
                  "job ", t, ": property space too large for "
                  "tenant-qualified keys");
        ns_assert(job.k >= 1, "job ", t, ": k must be positive");
        prop_bytes[t] = 4 * job.k;
        max_prop_bytes = std::max(max_prop_bytes, prop_bytes[t]);
    }

    // --- Topology ---
    Topology topo = [&] {
        switch (cfg_.topology) {
          case TopologyKind::LeafSpine: {
            std::uint32_t racks =
                (cfg_.numNodes + cfg_.nodesPerRack - 1) /
                cfg_.nodesPerRack;
            return Topology::leafSpine(racks, cfg_.nodesPerRack,
                                       cfg_.numSpines);
          }
          case TopologyKind::HyperX:
            // 4x4x2 switches, 4 hosts each, width-4 trunks (Section 9.6)
            ns_assert(cfg_.numNodes == 128,
                      "the HyperX configuration is 128 nodes");
            return Topology::hyperX(4, 4, 2, 4, 4);
          case TopologyKind::Dragonfly:
            ns_assert(cfg_.numNodes == 128,
                      "the Dragonfly configuration is 128 nodes");
            return Topology::dragonfly(4, 8, 4, 4);
        }
        ns_panic("unknown topology kind");
    }();
    ns_assert(topo.numNodes() == cfg_.numNodes, "topology node mismatch");

    // --- Shard map and per-shard event queues ---
    // Rack-granular partition: a ToR plus its rack's hosts and SNICs
    // share one queue; a zero-latency link would leave no lookahead,
    // so such configurations fall back to a single shard.
    std::uint32_t shard_request =
        resolveShardCount(cfg_.simShards, topo.numTors());
    if (cfg_.link.latency == 0)
        shard_request = 1;
    ShardMap shard_map = ShardMap::build(topo, shard_request);
    const std::uint32_t num_shards = shard_map.numShards;

    std::vector<std::unique_ptr<EventQueue>> queues;
    queues.reserve(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s)
        queues.push_back(std::make_unique<EventQueue>());

    // --- Span tracing (sim/span.hh) ---
    // One recorder per shard, reached through the shard's own queue;
    // the post-run merge restores one shard-count-invariant document.
    // An enabled sink with all-zero params (the NETSPARSE_SPANS_OUT
    // env path, where nothing touches ClusterConfig) falls back to the
    // representative 1/64 sample, matching the CLI default.
    const bool spans_on = SpanSink::instance().enabled();
    SpanParams span_params = cfg_.spans;
    if (spans_on && !span_params.enabled())
        span_params.sampleEvery = 64;
    std::vector<std::unique_ptr<SpanBuffer>> span_bufs;
    if (spans_on) {
        span_bufs.reserve(num_shards);
        for (std::uint32_t s = 0; s < num_shards; ++s) {
            span_bufs.push_back(
                std::make_unique<SpanBuffer>(span_params));
            queues[s]->setSpanBuffer(span_bufs.back().get());
        }
    }
    auto node_queue = [&](NodeId n) -> EventQueue & {
        return *queues[shard_map.shardOfNode(n)];
    };
    auto switch_queue = [&](SwitchId s) -> EventQueue & {
        return *queues[shard_map.shardOfSwitch(s)];
    };

    // --- SNICs: one virtual slice per (node, tenant) ---
    SnicConfig snic_base = cfg_.snic;
    snic_base.proto = cfg_.proto;
    snic_base.rigUnit.filterEnabled = cfg_.features.filter;
    snic_base.rigUnit.coalesceEnabled = cfg_.features.coalesce;
    Clock snic_clock(snic_base.rigUnit.clockHz);
    snic_base.concat.proto = cfg_.proto;
    snic_base.concat.enabled = cfg_.features.concatNic;
    snic_base.concat.delay =
        snic_clock.cycles(cfg_.nicConcatDelayCycles);
    snic_base.concat.virtualized = cfg_.virtualizedCqs;
    // A lossy fabric needs the reliable-PR layer to terminate; the
    // user may also enable it explicitly on a lossless one.
    if (cfg_.faults.enabled())
        snic_base.rigUnit.retry.enabled = true;
    if (spans_on) {
        snic_base.rigUnit.spanSampleThreshold =
            span_params.sampleThreshold();
        snic_base.rigUnit.spanRecordAll = span_params.recordAll();
        snic_base.rigUnit.spanSeed = span_params.seed;
    }
    const bool recovery_enabled = snic_base.rigUnit.retry.enabled;

    // Interval telemetry and the PR latency lifecycle share one gate:
    // both cost nothing (no collectors, no stamping, a dead probe
    // branch in the dispatch loop) unless the sink is enabled.
    const bool telemetry_on =
        TelemetrySink::instance().enabled() && cfg_.telemetryInterval > 0;

    // Slices are nid-major (snics[nid * T + t]): each tenant keeps its
    // own RIG units, Idx Filter and retry state; the node's physical
    // NIC egress link is shared below.
    std::vector<std::unique_ptr<Snic>> snics;
    snics.reserve(std::size_t{cfg_.numNodes} * T);
    auto snic_at = [&](NodeId nid, std::uint32_t t) -> Snic & {
        return *snics[std::size_t{nid} * T + t];
    };
    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t) {
            SnicConfig sc = snic_base;
            sc.tenant = static_cast<std::uint16_t>(t);
            std::string name =
                multi ? "node" + std::to_string(nid) + ".job" +
                            std::to_string(t) + ".snic"
                      : "node" + std::to_string(nid) + ".snic";
            const Partition1D *jpart = &jobs[t].work.part;
            snics.push_back(std::make_unique<Snic>(
                node_queue(nid), sc, nid,
                [jpart](PropIdx idx) {
                    return jpart->ownerOf(
                        static_cast<std::uint32_t>(idx));
                },
                jobs[t].work.numIdxs, std::move(name)));
            snics.back()->setOwnerPartition(jobs[t].work.part);
            if (telemetry_on)
                snics.back()->enablePrLatency();
        }
    }

    // Multi-tenant downlinks terminate at a per-node demux.
    std::vector<std::unique_ptr<TenantDemux>> demuxes;
    if (multi) {
        demuxes.reserve(cfg_.numNodes);
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            demuxes.push_back(std::make_unique<TenantDemux>());
            for (std::uint32_t t = 0; t < T; ++t)
                demuxes.back()->attach(&snic_at(nid, t));
        }
    }

    // --- Switches ---
    Clock switch_clock(cfg_.switchClockHz);
    std::vector<std::unique_ptr<Switch>> switches;
    switches.reserve(topo.numSwitches());
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        SwitchConfig sw_cfg;
        sw_cfg.proto = cfg_.proto;
        sw_cfg.pipelineLatency = cfg_.switchPipelineLatency;
        sw_cfg.pipeClockHz = cfg_.switchClockHz;
        bool tor_extensions =
            topo.isTor(sid) &&
            (cfg_.features.concatSwitch || cfg_.features.switchCache);
        sw_cfg.netsparseEnabled = tor_extensions;
        sw_cfg.concat.proto = cfg_.proto;
        sw_cfg.concat.enabled = cfg_.features.concatSwitch;
        sw_cfg.concat.delay =
            switch_clock.cycles(cfg_.switchConcatDelayCycles);
        sw_cfg.concat.virtualized = cfg_.virtualizedCqs;
        // Concurrent tenants must not share concatenated packets: the
        // destination demux dispatches whole packets by tenant.
        sw_cfg.concat.tenantLanes = T;
        sw_cfg.cache = cfg_.cacheGeometry;
        sw_cfg.cache.totalBytes =
            cfg_.features.switchCache ? cfg_.propertyCacheBytes : 0;
        sw_cfg.cachePerPipe = cfg_.cachePerPipe;
        sw_cfg.numTenants = T;
        sw_cfg.tenantCachePartitioned =
            cfg_.tenantCachePartitioned && T > 1;
        sw_cfg.fairQueue = cfg_.fairQueue;
        // Corrupt responses must not poison the rack caches.
        sw_cfg.verifyResponses = cfg_.faults.enabled();
        switches.push_back(std::make_unique<Switch>(
            switch_queue(sid), sw_cfg, sid,
            "switch" + std::to_string(sid)));
    }
    // Stats/telemetry identity of each switch ("tor<i>"/"spine<j>",
    // numbered in construction order like the stats document).
    std::vector<std::string> switch_names(topo.numSwitches());
    {
        std::uint32_t tors = 0, spines = 0;
        for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid)
            switch_names[sid] =
                topo.isTor(sid) ? "tor" + std::to_string(tors++)
                                : "spine" + std::to_string(spines++);
    }

    // --- Links ---
    // One directed link per (switch port, direction) plus one egress
    // link per host NIC. Ordering ids are assigned in construction
    // order - a per-run-deterministic numbering that forms the
    // same-tick arrival tie-break at every sink, which is what keeps
    // execution identical across shard counts.
    //
    // Cross-shard links (always switch-to-switch under the rack
    // partition) deposit deliveries into per-(src, dst) shard
    // mailboxes; their minimum latency is the engine's lookahead.
    struct alignas(64) PaddedMailbox
    {
        DeliveryMailbox box; // padded: neighbors belong to other threads
    };
    std::vector<std::vector<PaddedMailbox>> mailboxes(num_shards);
    for (auto &row : mailboxes)
        row = std::vector<PaddedMailbox>(num_shards);
    Tick lookahead = maxTick;
    std::uint32_t next_link_id = 0;
    std::vector<std::unique_ptr<Link>> links;
    // links[i] is sampled by the shard whose events drive it: its
    // sender's (telemetry registration below).
    std::vector<std::uint32_t> link_shards;

    auto bind_link = [&](Link &link, std::uint32_t src_shard,
                         std::uint32_t dst_shard, Tick latency) {
        link.setOrderingId(next_link_id++);
        link_shards.push_back(src_shard);
        // The injector keys its fault stream on the ordering id just
        // assigned, so the injected pattern is shard-count-invariant.
        if (cfg_.faults.enabled())
            link.configureFaults(cfg_.faults);
        if (src_shard != dst_shard) {
            link.setCrossShardOutbox(
                &mailboxes[src_shard][dst_shard].box);
            lookahead = std::min(lookahead, latency);
        }
    };

    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        const auto &ports = topo.ports(sid);
        for (std::uint32_t p = 0; p < ports.size(); ++p) {
            const PortPeer &peer = ports[p];
            LinkConfig lc = cfg_.link;
            lc.bandwidth = Bandwidth::fromGBps(
                cfg_.link.bandwidth.bytesPerSecond() / 1e9 *
                peer.bwMultiplier);
            PacketSink *sink = nullptr;
            std::uint32_t sink_port = 0;
            std::uint32_t dst_shard = 0;
            bool to_host = false;
            if (peer.kind == PortPeer::Kind::Host) {
                sink = multi ? static_cast<PacketSink *>(
                                   demuxes[peer.id].get())
                             : static_cast<PacketSink *>(
                                   &snic_at(peer.id, 0));
                to_host = true;
                dst_shard = shard_map.shardOfNode(peer.id);
                ns_assert(dst_shard == shard_map.shardOfSwitch(sid),
                          "host severed from its ToR by the partition");
            } else {
                sink = switches[peer.id].get();
                sink_port = peer.peerPort;
                dst_shard = shard_map.shardOfSwitch(peer.id);
            }
            links.push_back(std::make_unique<Link>(
                switch_queue(sid), lc, cfg_.proto, sink, sink_port,
                "sw" + std::to_string(sid) + ".p" + std::to_string(p)));
            bind_link(*links.back(), shard_map.shardOfSwitch(sid),
                      dst_shard, lc.latency);
            switches[sid]->attachPort(p, links.back().get(), to_host);
        }
    }
    // Host egress links (NIC -> ToR); always intra-shard. Every tenant
    // slice of a node transmits through the same physical link - its
    // busy-until chain is where the slices contend.
    std::vector<Link *> nic_egress(cfg_.numNodes);
    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
        SwitchId tor = topo.switchOf(nid);
        links.push_back(std::make_unique<Link>(
            node_queue(nid), cfg_.link, cfg_.proto, switches[tor].get(),
            topo.hostPort(nid), "node" + std::to_string(nid) + ".tx"));
        bind_link(*links.back(), shard_map.shardOfNode(nid),
                  shard_map.shardOfSwitch(tor), cfg_.link.latency);
        nic_egress[nid] = links.back().get();
        for (std::uint32_t t = 0; t < T; ++t)
            snic_at(nid, t).attachEgress(links.back().get());
    }
    ns_assert(num_shards == 1 || (lookahead > 0 && lookahead != maxTick),
              "multi-shard run without a positive cross-shard latency");

    // Span component id space, in cluster construction order: links by
    // ordering id (link.cc records LinkTx under orderingId directly),
    // then switches, then SNIC slices nid-major / tenant-minor. The
    // name table ships inside the spans document so every component id
    // resolves to its stats/telemetry identity.
    std::vector<std::string> span_comps;
    if (spans_on) {
        span_comps.reserve(links.size() + topo.numSwitches() +
                           snics.size());
        for (const auto &l : links)
            span_comps.push_back(l->name());
        const auto L = static_cast<std::uint32_t>(links.size());
        for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
            switches[sid]->setSpanComp(L + sid);
            span_comps.push_back(switch_names[sid]);
        }
        const auto S = static_cast<std::uint32_t>(topo.numSwitches());
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            for (std::uint32_t t = 0; t < T; ++t) {
                Snic &sn = snic_at(nid, t);
                sn.setSpanComp(L + S +
                               static_cast<std::uint32_t>(
                                   std::size_t{nid} * T + t));
                span_comps.push_back(sn.name());
            }
        }
    }

    // --- Routing and per-kernel configuration ---
    for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
        Switch *sw = switches[sid].get();
        sw->setRouteFn([&topo, sid](NodeId dest) {
            return topo.route(sid, dest);
        });
        // Shared or partitioned, the cache provisions for the widest
        // property in flight (capacity accounting only; checksums are
        // what is stored).
        sw->configureForKernel(max_prop_bytes);
    }
    for (auto &snic : snics)
        snic->configureForKernel();

    // --- Hosts: one per (node, tenant), admitted at its startDelay ---
    std::vector<std::unique_ptr<HostNode>> hosts;
    hosts.reserve(std::size_t{cfg_.numNodes} * T);
    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
        for (std::uint32_t t = 0; t < T; ++t) {
            hosts.push_back(std::make_unique<HostNode>(
                node_queue(nid), cfg_.host, snic_at(nid, t),
                std::move(jobs[t].work.streams[nid]), prop_bytes[t]));
            // Completion is read off HostNode::done() after the run; a
            // shared counter would be written concurrently from
            // several shards.
            if (jobs[t].startDelay == 0) {
                hosts.back()->start([] {});
            } else {
                HostNode *h = hosts.back().get();
                node_queue(nid).schedule(jobs[t].startDelay,
                                         [h] { h->start([] {}); });
            }
        }
    }
    auto host_at = [&](NodeId nid, std::uint32_t t) -> HostNode & {
        return *hosts[std::size_t{nid} * T + t];
    };

    // --- Background traffic ---
    std::vector<std::unique_ptr<BackgroundSource>> bg_sources;
    if (bg.enabled()) {
        bg_sources.reserve(cfg_.numNodes);
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            bg_sources.push_back(std::make_unique<BackgroundSource>(
                node_queue(nid), bg, nid, cfg_.numNodes,
                *nic_egress[nid]));
            bg_sources.back()->start();
        }
    }

    // --- Interval telemetry ---
    // One probe per shard; every entity is registered on the shard
    // whose events drive its state, under a cluster-wide order key
    // (links by ordering id, then switches, then RIGs, then tenants)
    // so the merged document is independent of the shard count.
    // Samplers read only their own entity, and boundary samples
    // observe exactly the events with tick < boundary
    // (sim/telemetry.hh), so every series is byte-identical at
    // 1/2/4 shards.
    const Tick tele_interval = cfg_.telemetryInterval;
    std::vector<std::unique_ptr<TelemetryProbe>> probes;
    if (telemetry_on) {
        probes.reserve(num_shards);
        for (std::uint32_t s = 0; s < num_shards; ++s) {
            probes.push_back(
                std::make_unique<TelemetryProbe>(tele_interval));
            probes.back()->attachTo(*queues[s]);
        }
        const std::size_t num_links = links.size();
        for (std::size_t i = 0; i < num_links; ++i) {
            Link *lk = links[i].get();
            probes[link_shards[i]]->addEntity(
                i, lk->name(), "link", {"utilization", "queuedBytes"},
                [lk, tele_interval, last_busy = Tick{0}](
                    Tick boundary, std::vector<double> &out) mutable {
                    // Wire time committed this interval over the
                    // interval; a burst that books the wire past the
                    // boundary can push it above 1 (the backlog then
                    // shows up in queuedBytes).
                    Tick busy = lk->busyTicks();
                    out.push_back(static_cast<double>(busy - last_busy) /
                                  static_cast<double>(tele_interval));
                    last_busy = busy;
                    out.push_back(lk->queuedBytesAt(boundary));
                });
        }
        for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid) {
            Switch *sw = switches[sid].get();
            probes[shard_map.shardOfSwitch(sid)]->addEntity(
                num_links + sid, switch_names[sid], "switch",
                {"outQueueBytes", "cacheHits", "cacheMisses",
                 "cacheInserts"},
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
                    out.push_back(
                        static_cast<double>(hits - last_hits));
                    out.push_back(static_cast<double>(
                        (lookups - last_lookups) - (hits - last_hits)));
                    out.push_back(
                        static_cast<double>(inserts - last_inserts));
                    last_hits = hits;
                    last_lookups = lookups;
                    last_inserts = inserts;
                });
        }
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            for (std::uint32_t t = 0; t < T; ++t) {
                Snic *sn = &snic_at(nid, t);
                std::string rig_id =
                    multi ? "node" + std::to_string(nid) + ".job" +
                                std::to_string(t) + ".rig"
                          : "node" + std::to_string(nid) + ".rig";
                probes[shard_map.shardOfNode(nid)]->addEntity(
                    num_links + topo.numSwitches() +
                        std::size_t{nid} * T + t,
                    rig_id, "rig", {"inflightPrs", "retransmits"},
                    [sn, last_retx = std::uint64_t{0}](
                        Tick, std::vector<double> &out) mutable {
                        out.push_back(
                            static_cast<double>(sn->inflightPrs()));
                        std::uint64_t retx = sn->totalRetransmits();
                        out.push_back(
                            static_cast<double>(retx - last_retx));
                        last_retx = retx;
                    });
            }
        }
        if (multi) {
            // Cluster-wide per-tenant series. Each shard samples its
            // own slice of the tenant (its nodes' virtual SNICs) under
            // the tenant's shared order key and id; the merge below
            // folds same-id slices elementwise, so the published
            // series is the cluster-wide sum regardless of how nodes
            // landed on shards.
            const std::size_t base = links.size() + topo.numSwitches() +
                                     std::size_t{cfg_.numNodes} * T;
            for (std::uint32_t s = 0; s < num_shards; ++s) {
                for (std::uint32_t t = 0; t < T; ++t) {
                    std::vector<Snic *> slice;
                    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid)
                        if (shard_map.shardOfNode(nid) == s)
                            slice.push_back(&snic_at(nid, t));
                    if (slice.empty())
                        continue;
                    probes[s]->addEntity(
                        base + t, "tenant" + std::to_string(t),
                        "tenant", {"inflightPrs", "rxPayloadBytes"},
                        [slice = std::move(slice),
                         last_payload = std::uint64_t{0}](
                            Tick, std::vector<double> &out) mutable {
                            std::uint64_t inflight = 0, payload = 0;
                            for (const Snic *sn : slice) {
                                inflight += sn->inflightPrs();
                                payload += sn->rxPayloadBytes();
                            }
                            out.push_back(
                                static_cast<double>(inflight));
                            out.push_back(static_cast<double>(
                                payload - last_payload));
                            last_payload = payload;
                        });
                }
            }
        }
    }

    // --- Run ---
    Tick final_tick = 0;
    std::uint64_t executed_events = 0;
    std::uint64_t epochs = 0;
    if (num_shards == 1) {
        queues[0]->runUntil(cfg_.maxSimTime);
        final_tick = queues[0]->now();
        executed_events = queues[0]->executedEvents();
    } else {
        std::vector<ShardEngine::Shard> shards(num_shards);
        for (std::uint32_t d = 0; d < num_shards; ++d) {
            shards[d].eq = queues[d].get();
            // Drain inbound mailboxes in fixed source order; the
            // banded delivery keys then restore the canonical event
            // order inside the destination queue.
            shards[d].drainInbox = [&mailboxes, &queues, d,
                                    num_shards] {
                EventQueue &dst = *queues[d];
                for (std::uint32_t s = 0; s < num_shards; ++s) {
                    mailboxes[s][d].box.drain(
                        [&dst](PendingDelivery &&rec) {
                            dst.scheduleDelivery(
                                rec.when, rec.key,
                                [sink = rec.sink, port = rec.port,
                                 p = std::move(rec.pkt)]() mutable {
                                    sink->receivePacket(std::move(p),
                                                        port);
                                });
                        });
                }
            };
        }
        ShardEngine::Result res =
            ShardEngine::run(std::move(shards), lookahead,
                             cfg_.maxSimTime);
        final_tick = res.finalTick;
        executed_events = res.executedEvents;
        epochs = res.epochs;
    }
    std::uint32_t done_count = 0;
    for (const auto &h : hosts)
        done_count += h->done() ? 1 : 0;
    if (done_count != cfg_.numNodes * T) {
        ns_fatal("gather deadlocked or exceeded the simulation cap: ",
                 done_count, "/", cfg_.numNodes * T,
                 " hosts finished by ", ticks::toNs(final_tick), " ns");
    }

    // --- Merge spans ---
    if (spans_on) {
        std::vector<SpanBuffer *> bufs;
        bufs.reserve(span_bufs.size());
        for (auto &b : span_bufs)
            bufs.push_back(b.get());
        SpanRun &srun = SpanSink::instance().beginRun();
        srun.params = span_params;
        srun.finalTick = final_tick;
        srun.components = span_comps;
        buildSpanRun(srun, bufs);
        // Also render the kept spans as Perfetto async spans when a
        // trace is being captured alongside.
        if (NS_TRACE_ON())
            exportSpansToTrace(TraceWriter::instance(), srun);
    }

    // --- Merge telemetry ---
    if (telemetry_on) {
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
        trun.intervalTicks = tele_interval;
        trun.finalTick = final_tick;
        trun.sampleTicks.reserve(samples);
        for (std::size_t i = 1; i <= samples; ++i)
            trun.sampleTicks.push_back(i * tele_interval);
        for (auto &p : probes)
            for (auto &e : p->takeEntities())
                trun.entities.push_back(std::move(e));
        if (multi) {
            // Fold each tenant's per-shard slices into one entity.
            std::vector<TelemetryEntity> folded;
            for (auto &e : trun.entities) {
                if (e.kind != "tenant") {
                    folded.push_back(std::move(e));
                    continue;
                }
                auto it = std::find_if(
                    folded.begin(), folded.end(),
                    [&e](const TelemetryEntity &f) {
                        return f.kind == "tenant" && f.id == e.id;
                    });
                if (it == folded.end()) {
                    folded.push_back(std::move(e));
                    continue;
                }
                for (std::size_t si = 0; si < e.series.size(); ++si)
                    for (std::size_t j = 0; j < e.series[si].size();
                         ++j)
                        it->series[si][j] += e.series[si][j];
            }
            trun.entities = std::move(folded);
        }
        std::sort(trun.entities.begin(), trun.entities.end(),
                  [](const TelemetryEntity &a, const TelemetryEntity &b) {
                      return a.order < b.order;
                  });
        // Per-shard event throughput is the one inherently
        // shard-dependent series; the document carries the cluster-wide
        // sum as a single trailing "sim" entity (exact: the counts are
        // integers far below 2^53).
        TelemetryEntity sim;
        sim.order = links.size() + topo.numSwitches() +
                    std::size_t{cfg_.numNodes} * T + (multi ? T : 0);
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

    // --- Collect results ---
    MultiJobResult mr;
    mr.jobs.resize(T);
    for (std::uint32_t t = 0; t < T; ++t) {
        GatherRunResult &r = mr.jobs[t];
        r.nodes.resize(cfg_.numNodes);
        std::uint64_t job_rx_prs = 0, job_rx_packets = 0;
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            NodeRunStats &st = r.nodes[nid];
            const HostNode &host = host_at(nid, t);
            const Snic &sn = snic_at(nid, t);
            st.finishTick = host.finishTick();
            RigClientStats cs = sn.aggregateClientStats();
            st.idxsProcessed = cs.idxsProcessed;
            st.localIdxs = cs.localIdxs;
            st.prsIssued = cs.prsIssued;
            st.filtered = cs.filtered;
            st.coalesced = cs.coalesced;
            st.watchdogFailures = cs.watchdogFailures;
            st.pendingStalls = cs.pendingStalls;
            st.txStalls = cs.txStalls;
            st.commandsIssued = host.commandsIssued();
            st.retransmits = cs.retransmits;
            st.nacks = cs.nacks;
            st.corruptDropped = cs.corruptDropped;
            st.duplicatesSuppressed = cs.duplicatesSuppressed;
            st.retriesExhausted = cs.retriesExhausted;
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
        r.recoveryEnabled = recovery_enabled;
        r.faultsEnabled = cfg_.faults.enabled();
        r.avgPrsPerPacket =
            job_rx_packets ? static_cast<double>(job_rx_prs) /
                                 job_rx_packets
                           : 0.0;
        r.executedEvents = executed_events;
        r.finalTick = final_tick;
        r.simShards = num_shards;
        r.lookaheadTicks = num_shards > 1 ? lookahead : 0;
        r.epochs = epochs;
        if (T > 1)
            for (const auto &sw : switches)
                r.prsServedByCache += sw->prsServedByCache(t);
        // The SLO denominator is the job's own active span: admission
        // (startDelay) to its tail node's completion. With one job at
        // t0 this is exactly the legacy commTicks window.
        Tick duration = r.commTicks > jobs[t].startDelay
                            ? r.commTicks - jobs[t].startDelay
                            : 0;
        if (duration > 0) {
            double line_bpp = cfg_.link.bandwidth.bytesPerPs();
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
    for (const auto &l : links) {
        mr.totalWireBytes += l->bytesSent();
        mr.packetsDropped += l->packetsDropped();
    }
    for (const auto &sw : switches) {
        mr.cacheLookups += sw->cacheLookups();
        mr.cacheHits += sw->cacheHits();
        mr.prsServedByCache += sw->prsServedByCache();
    }
    mr.executedEvents = executed_events;
    mr.finalTick = final_tick;
    mr.simShards = num_shards;
    mr.lookaheadTicks = num_shards > 1 ? lookahead : 0;
    mr.epochs = epochs;
    for (const auto &src : bg_sources) {
        mr.backgroundPackets += src->packetsInjected();
        mr.backgroundBytes += src->bytesInjected();
    }
    for (const auto &d : demuxes) {
        mr.backgroundDelivered += d->rawPackets();
        mr.backgroundDeliveredBytes += d->rawBytes();
    }
    if (!multi) {
        // The legacy single-job result carries the fabric-wide totals
        // itself (shared-fabric splits are well defined with one
        // tenant).
        GatherRunResult &r = mr.jobs[0];
        for (const auto &l : links) {
            r.totalWireBytes += l->bytesSent();
            r.packetsDropped += l->packetsDropped();
            if (const LinkFaultInjector *fi = l->faults()) {
                r.corruptedPrs += fi->stats().corruptedPrs;
                r.linkDownDrops += fi->stats().linkDownDrops;
                r.linkDownTicks += fi->stats().linkDownTicks;
                r.degradedTicks += fi->stats().degradedTicks;
            }
        }
        for (const auto &sw : switches) {
            r.cacheLookups += sw->cacheLookups();
            r.cacheHits += sw->cacheHits();
            r.prsServedByCache += sw->prsServedByCache();
            r.cachePoisonRejected += sw->poisonRejected();
            r.cacheBypasses += sw->cacheBypasses();
        }
    }

    // --- Detailed observability snapshot (--stats-json) ---
    // Deposited while the components are still alive, so the snapshot
    // carries per-RIG-unit, per-concatenator and per-switch-cache
    // counters that GatherRunResult does not retain.
    if (StatsExport::instance().enabled()) {
        StatRegistry &reg = StatsExport::instance().beginRun();
        if (!multi) {
            // The legacy single-job document, byte for byte.
            mr.jobs[0].exportStats(reg);
        } else {
            reg.set("cluster.jobs", static_cast<double>(T));
            reg.set("cluster.makespanTicks",
                    static_cast<double>(mr.makespanTicks));
            reg.set("cluster.totalWireBytes",
                    static_cast<double>(mr.totalWireBytes));
            reg.set("cluster.cacheLookups",
                    static_cast<double>(mr.cacheLookups));
            reg.set("cluster.cacheHits",
                    static_cast<double>(mr.cacheHits));
            reg.set("cluster.prsServedByCache",
                    static_cast<double>(mr.prsServedByCache));
            for (std::uint32_t t = 0; t < T; ++t)
                exportTenantStats(reg,
                                  "cluster.tenant" + std::to_string(t),
                                  mr.jobs[t], jobs[t].startDelay);
            if (bg.enabled()) {
                reg.set("cluster.background.packetsInjected",
                        static_cast<double>(mr.backgroundPackets));
                reg.set("cluster.background.bytesInjected",
                        static_cast<double>(mr.backgroundBytes));
                reg.set("cluster.background.packetsDelivered",
                        static_cast<double>(mr.backgroundDelivered));
                reg.set("cluster.background.bytesDelivered",
                        static_cast<double>(
                            mr.backgroundDeliveredBytes));
            }
        }
        for (NodeId nid = 0; nid < cfg_.numNodes; ++nid) {
            std::string node = "node" + std::to_string(nid);
            for (std::uint32_t t = 0; t < T; ++t)
                snic_at(nid, t).exportStats(
                    reg, multi ? node + ".job" + std::to_string(t) +
                                     ".snic"
                               : node + ".snic");
            const Link *tx = nic_egress[nid];
            reg.set(node + ".tx.packets",
                    static_cast<double>(tx->packetsSent()));
            reg.set(node + ".tx.bytes",
                    static_cast<double>(tx->bytesSent()));
            reg.set(node + ".tx.payloadBytes",
                    static_cast<double>(tx->payloadBytesSent()));
            reg.set(node + ".tx.busyTicks",
                    static_cast<double>(tx->busyTicks()));
            reg.set(node + ".tx.utilization", tx->utilization());
        }
        for (SwitchId sid = 0; sid < topo.numSwitches(); ++sid)
            switches[sid]->exportStats(reg, switch_names[sid]);
        reg.set("sim.executedEvents",
                static_cast<double>(executed_events));
        reg.set("sim.finalTick", static_cast<double>(final_tick));
        if (telemetry_on) {
            // Cluster-wide PR latency decomposition; per-node averages
            // ride each SNIC's own exportStats above. Gated so the
            // telemetry-off document stays byte-identical.
            if (!multi) {
                PrLatencyStats agg;
                for (const auto &sn : snics)
                    agg.merge(*sn->prLatency());
                agg.exportStats(reg, "cluster.prLatency");
            } else {
                for (std::uint32_t t = 0; t < T; ++t) {
                    PrLatencyStats agg;
                    for (NodeId nid = 0; nid < cfg_.numNodes; ++nid)
                        agg.merge(*snic_at(nid, t).prLatency());
                    agg.exportStats(reg, "cluster.tenant" +
                                             std::to_string(t) +
                                             ".prLatency");
                }
            }
        }
        if (cfg_.memoryStats) {
            // Per-shard arena accounting (sim/arena.hh). Shard workers
            // were joined above, so their arenas have flushed into the
            // registry; fold in the calling thread's live arenas (the
            // sequential engine's buffers live here). Gated: these are
            // process-lifetime host diagnostics, outside the
            // byte-identical stats contract (see ClusterConfig).
            ArenaStats mem = ArenaStatsRegistry::instance().totals();
            mem.add(BufferArena<Packet>::local().stats());
            mem.add(BufferArena<PropertyRequest>::local().stats());
            reg.set("cluster.memory.arenaReservedBytes",
                    static_cast<double>(mem.reservedBytes));
            reg.set("cluster.memory.arenaHighWaterBytes",
                    static_cast<double>(mem.highWaterBytes));
            reg.set("cluster.memory.arenaPoolHits",
                    static_cast<double>(mem.poolHits));
            reg.set("cluster.memory.arenaPoolMisses",
                    static_cast<double>(mem.poolMisses));
        }
    }
    return mr;
}

} // namespace netsparse
