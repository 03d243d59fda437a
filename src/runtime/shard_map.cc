#include "runtime/shard_map.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "sim/logging.hh"

namespace netsparse {

ShardMap
ShardMap::build(const Topology &topo, std::uint32_t shards)
{
    ShardMap map;
    map.numShards = std::clamp<std::uint32_t>(shards, 1, topo.numTors());
    map.switchShard = topo.rackPartition(map.numShards);
    map.nodeShard.resize(topo.numNodes());
    for (NodeId n = 0; n < topo.numNodes(); ++n)
        map.nodeShard[n] = map.switchShard[topo.switchOf(n)];
    return map;
}

std::uint32_t
resolveShardCount(std::uint32_t requested, std::uint32_t racks)
{
    std::uint32_t want = requested;
    if (want == 0) {
        const char *env = std::getenv("NETSPARSE_SIM_SHARDS");
        if (env && (!std::strcmp(env, "racks") ||
                    !std::strcmp(env, "auto"))) {
            std::uint32_t cores = std::thread::hardware_concurrency();
            want = std::max<std::uint32_t>(1, std::min(racks, cores));
        } else {
            want = envUint("NETSPARSE_SIM_SHARDS", 1, 1);
        }
    }
    return std::clamp<std::uint32_t>(want, 1, std::max(1u, racks));
}

} // namespace netsparse
