/**
 * @file
 * The cluster-to-shard binding used by the parallel simulation engine.
 *
 * A ShardMap fixes which shard (worker thread / private EventQueue)
 * owns every component of a cluster: each ToR switch together with the
 * hosts and SNICs of its rack forms the indivisible unit (they
 * exchange doorbells and completions synchronously, so they must share
 * a queue), and spine switches are spread across shards. The partition
 * is rack-granular, so every cross-shard edge in the component graph
 * is a Link - whose latency is the conservative lookahead bound
 * (sim/shard_engine.hh).
 *
 * The shard count comes from ClusterConfig::simShards, with the
 * NETSPARSE_SIM_SHARDS environment variable as the fallback:
 * unset/"1" runs sequentially, an integer asks for that many shards,
 * "racks" or "auto" picks one shard per rack capped at the host's
 * hardware concurrency, and anything else is fatal. Requests are
 * clamped to [1, racks].
 */

#ifndef NETSPARSE_RUNTIME_SHARD_MAP_HH
#define NETSPARSE_RUNTIME_SHARD_MAP_HH

#include <cstdint>
#include <vector>

#include "net/topology.hh"
#include "sim/types.hh"

namespace netsparse {

struct ShardMap
{
    std::uint32_t numShards = 1;
    /** Shard owning each switch (index: SwitchId). */
    std::vector<std::uint32_t> switchShard;
    /** Shard owning each host + SNIC pair (index: NodeId). */
    std::vector<std::uint32_t> nodeShard;

    std::uint32_t shardOfSwitch(SwitchId s) const
    {
        return switchShard[s];
    }
    std::uint32_t shardOfNode(NodeId n) const { return nodeShard[n]; }

    /**
     * Build the rack-granular map: @p shards clamped to [1, racks],
     * ToRs in contiguous blocks, spines spread proportionally, every
     * node co-located with its ToR.
     */
    static ShardMap build(const Topology &topo, std::uint32_t shards);
};

/**
 * Resolve the effective shard count for a cluster with @p racks racks:
 * @p requested when nonzero (0 = consult NETSPARSE_SIM_SHARDS, see
 * file comment), clamped to [1, racks].
 */
std::uint32_t resolveShardCount(std::uint32_t requested,
                                std::uint32_t racks);

} // namespace netsparse

#endif // NETSPARSE_RUNTIME_SHARD_MAP_HH
