/**
 * @file
 * Cluster topology descriptions and deterministic routing.
 *
 * Three topologies from the paper are supported:
 *  - Leaf-Spine (Figure 11): racks of hosts under ToR switches, all ToRs
 *    connected to every spine.
 *  - HyperX (Section 9.6): switches on a 3-D grid, fully connected along
 *    each dimension. The paper's "width 4" trunking is modeled as a 4x
 *    bandwidth multiplier on inter-switch links.
 *  - Dragonfly (Section 9.6): fully-connected groups with parallel
 *    inter-group links, minimal routing.
 *
 * Routing is deterministic: per destination switch, a BFS computes the
 * shortest-path candidate ports, and the tie among equal-cost ports is
 * broken by the destination *node* id (D-mod-k style). Every packet to
 * a given node therefore follows one fixed path - deterministic, loop
 * free - while traffic to different nodes spreads across the parallel
 * spines/links, avoiding rack-pair hotspots.
 */

#ifndef NETSPARSE_NET_TOPOLOGY_HH
#define NETSPARSE_NET_TOPOLOGY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace netsparse {

/** What is attached at the far end of a switch port. */
struct PortPeer
{
    enum class Kind : std::uint8_t
    {
        None,
        Host,
        Switch,
    };

    Kind kind = Kind::None;
    std::uint32_t id = 0;
    /** Bandwidth multiplier (trunked links), 1.0 for plain links. */
    double bwMultiplier = 1.0;
    /** The matching port index on the peer switch (Switch kind only). */
    std::uint32_t peerPort = 0;
};

/** A switch-level description of the cluster graph plus route tables. */
class Topology
{
  public:
    /** racks ToR switches, @p nodesPerRack hosts each, @p spines spines. */
    static Topology leafSpine(std::uint32_t racks,
                              std::uint32_t nodesPerRack,
                              std::uint32_t spines);

    /**
     * 3-D HyperX: dims[0] x dims[1] x dims[2] switches, fully connected
     * along each dimension with @p width-trunked links.
     */
    static Topology hyperX(std::uint32_t dx, std::uint32_t dy,
                           std::uint32_t dz, std::uint32_t hostsPerSwitch,
                           std::uint32_t width);

    /**
     * Dragonfly: @p groups groups of @p switchesPerGroup fully-connected
     * switches; each group pair is joined by @p interGroupLinks parallel
     * links whose endpoints are spread round-robin over the group.
     */
    static Topology dragonfly(std::uint32_t groups,
                              std::uint32_t switchesPerGroup,
                              std::uint32_t hostsPerSwitch,
                              std::uint32_t interGroupLinks);

    std::uint32_t numNodes() const { return numNodes_; }
    std::uint32_t numSwitches() const
    {
        return static_cast<std::uint32_t>(ports_.size());
    }

    /** The switch node @p n attaches to (also its "rack" identity). */
    SwitchId switchOf(NodeId n) const { return hostSwitch_[n]; }

    /** The switch port node @p n attaches to. */
    std::uint32_t hostPort(NodeId n) const { return hostPort_[n]; }

    /** True when switch @p s has hosts attached (ToR / edge switch). */
    bool isTor(SwitchId s) const { return torFlag_[s]; }

    /** Port list of switch @p s. */
    const std::vector<PortPeer> &ports(SwitchId s) const
    {
        return ports_[s];
    }

    /**
     * Output port of switch @p sw toward node @p dest (a host port when
     * the node attaches here, a switch port otherwise).
     */
    std::uint32_t route(SwitchId sw, NodeId dest) const;

    /** Hop count (switches traversed) from node @p a to node @p b. */
    std::uint32_t hopCount(NodeId a, NodeId b) const;

    /** Human-readable topology name. */
    const std::string &name() const { return name_; }

    /** Number of switches with hosts attached (= racks). */
    std::uint32_t numTors() const;

    /**
     * Rack-granular partition of the switch graph into @p shards
     * pieces for the parallel engine (sim/shard_engine.hh): ToR r of R
     * gets shard r*shards/R (contiguous rack blocks), switches without
     * hosts (spines) are spread proportionally. Every host then lives
     * in its ToR's shard, so the only cross-shard edges are
     * switch-to-switch links - each one a Link whose latency bounds
     * the engine's lookahead. @p shards must be in [1, numTors()].
     *
     * @return per-switch shard ids.
     */
    std::vector<std::uint32_t> rackPartition(std::uint32_t shards) const;

  private:
    void addSwitchLink(SwitchId a, SwitchId b, double bwMult);
    void attachHost(SwitchId s, NodeId n);
    void computeRoutes();

    std::string name_;
    std::uint32_t numNodes_ = 0;
    std::vector<SwitchId> hostSwitch_;
    std::vector<std::uint32_t> hostPort_;
    std::vector<std::vector<PortPeer>> ports_;
    std::vector<bool> torFlag_;
    /** candidates_[sw][destSwitch]: equal-cost shortest-path ports. */
    std::vector<std::vector<std::vector<std::uint16_t>>> candidates_;
    /** distance_[sw][destSwitch] in switch hops. */
    std::vector<std::vector<std::uint16_t>> distance_;
};

} // namespace netsparse

#endif // NETSPARSE_NET_TOPOLOGY_HH
