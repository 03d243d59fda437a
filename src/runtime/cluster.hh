/**
 * @file
 * Cluster assembly and the end-to-end communication simulation.
 *
 * ClusterSim instantiates the whole machine of Table 5 / Figure 11 -
 * hosts, NetSparse SNICs, links, ToR and spine switches - for one of
 * the three topologies, runs a distributed gather (the communication
 * phase of one SpMM/SpMV/SDDMM iteration) through the event queue, and
 * reports the statistics the paper's tables and figures are built from.
 */

#ifndef NETSPARSE_RUNTIME_CLUSTER_HH
#define NETSPARSE_RUNTIME_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "host/host_node.hh"
#include "net/link.hh"
#include "net/switch.hh"
#include "net/topology.hh"
#include "runtime/feature_set.hh"
#include "sim/span.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "snic/snic.hh"
#include "sparse/csr.hh"
#include "sparse/partition.hh"

namespace netsparse {

/** Which network to build (Section 9.6). */
enum class TopologyKind
{
    LeafSpine,
    HyperX,
    Dragonfly,
};

/** Full-machine configuration (Table 5 defaults). */
struct ClusterConfig
{
    TopologyKind topology = TopologyKind::LeafSpine;
    std::uint32_t numNodes = 128;
    std::uint32_t nodesPerRack = 16;
    std::uint32_t numSpines = 16;

    LinkConfig link; // 400 Gbps, 450 ns
    ProtocolParams proto;
    SnicConfig snic;
    HostConfig host;

    /**
     * Fault injection (drops, corruption, link-down, degraded
     * bandwidth; see net/fault_model.hh). When any fault class is
     * active the cluster auto-enables the SNIC reliable-PR layer and
     * switch-side response verification so the gather still completes
     * correctly. All zeros (default) = the paper's lossless fabric.
     */
    FaultConfig faults;

    Tick switchPipelineLatency = 300 * ticks::ns;
    std::uint32_t switchConcatDelayCycles = 125; // at 2 GHz
    std::uint32_t nicConcatDelayCycles = 500;    // at 2.2 GHz
    double switchClockHz = 2e9;
    std::uint64_t propertyCacheBytes = 32ull << 20; // per ToR switch
    PropertyCacheConfig cacheGeometry;              // sizes filled below
    /** Strictly per-pipe caches (Figure 8) vs one shared array. */
    bool cachePerPipe = false;
    /**
     * Multi-tenant QoS (runtime/job_scheduler.hh). fairQueue arms
     * deficit-round-robin per-tenant lanes at every switch output
     * port; tenantCachePartitioned slices each ToR cache budget into
     * equal per-tenant partitions (only meaningful with > 1 job).
     * Both default off: FIFO output queues and one shared array.
     */
    bool fairQueue = false;
    bool tenantCachePartitioned = false;

    FeatureSet features;
    /** Use the Section 7.2 virtualized-CQ concatenators. */
    bool virtualizedCqs = false;

    /**
     * Batched event execution (docs/scaling.md): turns on link
     * delivery trains (LinkConfig::batchMaxPackets) and batched server
     * reads (SnicConfig::batchedServerReads) across the cluster.
     * Deterministic and shard-invariant, but a coarser timing model
     * than the default per-event execution: deliveries backed up on a
     * wire may land up to the train hold window late, and a packet's
     * read responses leave together at the last fetch completion. The
     * perf benchmark and the paper-scale presets enable it; figure
     * reproductions keep it off.
     */
    bool eventBatching = false;

    /**
     * Export per-shard arena allocator accounting under
     * "cluster.memory.*" (--memory-stats). Off by default: the numbers
     * are a host-side diagnostic of the simulator process (they vary
     * with shard count and prior runs in the same process), so they are
     * excluded from the byte-identical stats contract.
     */
    bool memoryStats = false;

    /**
     * Shards (worker threads) for the parallel engine: 1 runs
     * sequentially, N partitions the cluster rack-granularly onto N
     * private event queues (src/runtime/shard_map.hh), 0 consults
     * NETSPARSE_SIM_SHARDS (default 1). Statistics are byte-identical
     * at any shard count.
     */
    std::uint32_t simShards = 0;

    /**
     * Simulated-time telemetry sampling interval (--telemetry-interval).
     * Takes effect only when the TelemetrySink is enabled; 0 disables
     * sampling even then. Also gates the per-PR latency lifecycle
     * collectors (net/pr_latency.hh).
     */
    Tick telemetryInterval = 10 * ticks::us;

    /**
     * Causal span tracing (sim/span.hh, --spans-out): 1/N sampling
     * and/or tail-exemplar capture. Takes effect only when the SpanSink
     * is enabled; the all-zero default then samples 1 in 64
     * (JobScheduler::run). With the sink off every other output
     * document is byte-identical.
     */
    SpanParams spans;

    /** Simulation safety cap; exceeding it is a deadlock. */
    Tick maxSimTime = 60 * ticks::s;
};

/** Per-node outcome of a gather run: RIG client, rx and host sides. */
struct NodeRunStats : RigClientStats
{
    Tick finishTick = 0;
    std::uint64_t rxPackets = 0;
    std::uint64_t rxBytes = 0;
    std::uint64_t rxPayloadBytes = 0;
    std::uint64_t rxResponses = 0;
    std::uint64_t rxReads = 0;
    std::uint64_t commandsIssued = 0;
    // Host recovery counters; nonzero only with the reliable-PR layer.
    std::uint64_t commandRetries = 0;
    std::uint64_t permanentFailures = 0;

    /** Remote idxs = PR opportunities before filtering/coalescing. */
    std::uint64_t
    remoteIdxs() const
    {
        return idxsProcessed - localIdxs;
    }

    /** Fraction of potential PRs dropped (Table 7, "F+C Rate"). */
    double
    fcRate() const
    {
        return remoteIdxs()
                   ? static_cast<double>(filtered + coalesced) /
                         remoteIdxs()
                   : 0.0;
    }
};

/** Whole-run outcome. */
struct GatherRunResult
{
    Tick commTicks = 0;
    NodeId tailNode = 0;
    std::vector<NodeRunStats> nodes;

    /** Sum over links of bytes placed on wires (counts every hop). */
    std::uint64_t totalWireBytes = 0;
    /** PRs per packet, averaged over packets delivered to NICs. */
    double avgPrsPerPacket = 0.0;

    std::uint64_t cacheLookups = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t prsServedByCache = 0;

    double tailGoodput = 0.0;
    double tailLineUtil = 0.0;

    /** Simulator events dispatched during the run (for bench_perf). */
    std::uint64_t executedEvents = 0;
    /** Simulated time when the event queue drained. */
    Tick finalTick = 0;

    // Parallel-engine observability (not part of the stats-JSON
    // contract: the exported document must stay byte-identical across
    // shard counts).
    /** Shards the run actually used (1 = sequential). */
    std::uint32_t simShards = 1;
    /** Conservative lookahead = min cross-shard link latency (0 seq). */
    Tick lookaheadTicks = 0;
    /** Epoch barriers the parallel run took (0 sequential). */
    std::uint64_t epochs = 0;

    // Resilience observability. The flags gate the exported keys so a
    // zero-fault, retry-off run's document stays byte-identical to the
    // non-resilient simulator's.
    /** The reliable-PR layer was active this run. */
    bool recoveryEnabled = false;
    /** Fault injection was active this run. */
    bool faultsEnabled = false;
    /** Packets lost on links (all fault classes). */
    std::uint64_t packetsDropped = 0;
    /** Response PRs whose checksum was flipped in flight. */
    std::uint64_t corruptedPrs = 0;
    /** Packets discarded inside link-down windows. */
    std::uint64_t linkDownDrops = 0;
    /** Aggregate link-down window time over all links. */
    Tick linkDownTicks = 0;
    /** Aggregate degraded-bandwidth window time over all links. */
    Tick degradedTicks = 0;
    /** Corrupt responses the ToRs kept out of their caches. */
    std::uint64_t cachePoisonRejected = 0;
    /** Reads that bypassed the Property Cache (refetches). */
    std::uint64_t cacheBypasses = 0;

    /** Sum of a recovery counter over all nodes. */
    template <typename F>
    std::uint64_t
    sumNodes(F &&field) const
    {
        std::uint64_t total = 0;
        for (const auto &st : nodes)
            total += field(st);
        return total;
    }

    /** Cache hit rate over all ToR lookups. */
    double
    cacheHitRate() const
    {
        return cacheLookups ? static_cast<double>(cacheHits) / cacheLookups
                            : 0.0;
    }

    const NodeRunStats &tail() const { return nodes[tailNode]; }

    /**
     * Distribution of node finish times in nanoseconds - the exact
     * histogram exported as "cluster.finishTimeNs", so percentiles
     * computed from it agree with the stats JSON by construction.
     */
    Histogram finishTimeHistogram() const;

    /**
     * Export everything into a named stats registry (gem5/SST style),
     * under "cluster.*" aggregates and "nodeN.*" per-node values.
     */
    void exportStats(StatRegistry &reg) const;
};

/**
 * A gather described directly by its per-node index streams.
 *
 * This is the form the simulation actually consumes: each node's stream
 * is the concatenated column indices of its owned rows, in row-scan
 * order. Paper-scale runs build it with sparse/stream_gen.hh (via
 * PartitionedMatrix::takeStreams()) so no global matrix is ever held;
 * the Csr overload of runGather produces the identical workload by
 * slicing, so both paths yield byte-identical statistics.
 */
struct GatherWorkload
{
    /** Property-space width = matrix columns (sizes the Idx Filters). */
    std::uint32_t numIdxs = 0;
    /** Property ownership; numParts() must equal the cluster's nodes. */
    Partition1D part;
    /** streams[n] = node n's row-scan index stream (moved into hosts). */
    std::vector<std::vector<std::uint32_t>> streams;

    /** Slice @p m's rows into one stream per part of @p part. */
    static GatherWorkload slice(const Csr &m, const Partition1D &part);
};

/** Builds and runs one cluster. */
class ClusterSim
{
  public:
    /** Defaulting and validation happen in the JobScheduler. */
    explicit ClusterSim(ClusterConfig cfg) : cfg_(std::move(cfg)) {}

    /**
     * Run the communication phase of one kernel iteration: every node
     * gathers the remote input properties its nonzeros touch.
     *
     * @param m the (square) sparse matrix.
     * @param part the 1-D partition; numParts() must equal numNodes.
     * @param k property width in 4-byte elements.
     */
    GatherRunResult runGather(const Csr &m, const Partition1D &part,
                              std::uint32_t k);

    /**
     * Same run, from pre-partitioned per-node streams (the streaming
     * paper-scale path). The workload's streams are consumed.
     */
    GatherRunResult runGather(GatherWorkload &&work, std::uint32_t k);

  private:
    ClusterConfig cfg_;
};

/** Table-5-default cluster configuration for @p nodes nodes. */
ClusterConfig defaultClusterConfig(std::uint32_t nodes = 128);

} // namespace netsparse

#endif // NETSPARSE_RUNTIME_CLUSTER_HH
