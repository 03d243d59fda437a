#include "net/topology.hh"

#include <algorithm>
#include <deque>

#include "sim/logging.hh"

namespace netsparse {

void
Topology::addSwitchLink(SwitchId a, SwitchId b, double bw_mult)
{
    ns_assert(a != b, "self link on switch ", a);
    auto pa = static_cast<std::uint32_t>(ports_[a].size());
    auto pb = static_cast<std::uint32_t>(ports_[b].size());
    ports_[a].push_back({PortPeer::Kind::Switch, b, bw_mult, pb});
    ports_[b].push_back({PortPeer::Kind::Switch, a, bw_mult, pa});
}

void
Topology::attachHost(SwitchId s, NodeId n)
{
    ports_[s].push_back({PortPeer::Kind::Host, n, 1.0, 0});
    hostSwitch_[n] = s;
    hostPort_[n] = static_cast<std::uint32_t>(ports_[s].size()) - 1;
    torFlag_[s] = true;
}

Topology
Topology::leafSpine(std::uint32_t racks, std::uint32_t nodes_per_rack,
                    std::uint32_t spines)
{
    ns_assert(racks >= 1 && nodes_per_rack >= 1, "empty leaf-spine");
    Topology t;
    t.name_ = "leaf-spine";
    t.numNodes_ = racks * nodes_per_rack;
    std::uint32_t num_switches = racks + (racks > 1 ? spines : 0);
    t.ports_.resize(num_switches);
    t.torFlag_.assign(num_switches, false);
    t.hostSwitch_.resize(t.numNodes_);
    t.hostPort_.resize(t.numNodes_);

    // ToR switches are 0..racks-1, spines follow. Hosts first so host
    // ports form the low "down" port range of each ToR.
    for (std::uint32_t r = 0; r < racks; ++r) {
        for (std::uint32_t h = 0; h < nodes_per_rack; ++h)
            t.attachHost(r, r * nodes_per_rack + h);
    }
    if (racks > 1) {
        for (std::uint32_t s = 0; s < spines; ++s) {
            for (std::uint32_t r = 0; r < racks; ++r)
                t.addSwitchLink(r, racks + s, 1.0);
        }
    }
    t.computeRoutes();
    return t;
}

Topology
Topology::hyperX(std::uint32_t dx, std::uint32_t dy, std::uint32_t dz,
                 std::uint32_t hosts_per_switch, std::uint32_t width)
{
    ns_assert(dx >= 1 && dy >= 1 && dz >= 1, "empty HyperX");
    Topology t;
    t.name_ = "hyperx";
    std::uint32_t num_switches = dx * dy * dz;
    t.numNodes_ = num_switches * hosts_per_switch;
    t.ports_.resize(num_switches);
    t.torFlag_.assign(num_switches, false);
    t.hostSwitch_.resize(t.numNodes_);
    t.hostPort_.resize(t.numNodes_);

    auto sid = [&](std::uint32_t x, std::uint32_t y, std::uint32_t z) {
        return (z * dy + y) * dx + x;
    };

    for (std::uint32_t s = 0; s < num_switches; ++s) {
        for (std::uint32_t h = 0; h < hosts_per_switch; ++h)
            t.attachHost(s, s * hosts_per_switch + h);
    }

    double bw = static_cast<double>(width);
    for (std::uint32_t z = 0; z < dz; ++z) {
        for (std::uint32_t y = 0; y < dy; ++y) {
            for (std::uint32_t x = 0; x < dx; ++x) {
                for (std::uint32_t x2 = x + 1; x2 < dx; ++x2)
                    t.addSwitchLink(sid(x, y, z), sid(x2, y, z), bw);
                for (std::uint32_t y2 = y + 1; y2 < dy; ++y2)
                    t.addSwitchLink(sid(x, y, z), sid(x, y2, z), bw);
                for (std::uint32_t z2 = z + 1; z2 < dz; ++z2)
                    t.addSwitchLink(sid(x, y, z), sid(x, y, z2), bw);
            }
        }
    }
    t.computeRoutes();
    return t;
}

Topology
Topology::dragonfly(std::uint32_t groups, std::uint32_t per_group,
                    std::uint32_t hosts_per_switch,
                    std::uint32_t inter_group_links)
{
    ns_assert(groups >= 1 && per_group >= 1, "empty Dragonfly");
    Topology t;
    t.name_ = "dragonfly";
    std::uint32_t num_switches = groups * per_group;
    t.numNodes_ = num_switches * hosts_per_switch;
    t.ports_.resize(num_switches);
    t.torFlag_.assign(num_switches, false);
    t.hostSwitch_.resize(t.numNodes_);
    t.hostPort_.resize(t.numNodes_);

    for (std::uint32_t s = 0; s < num_switches; ++s) {
        for (std::uint32_t h = 0; h < hosts_per_switch; ++h)
            t.attachHost(s, s * hosts_per_switch + h);
    }

    // Full connectivity inside each group.
    for (std::uint32_t g = 0; g < groups; ++g) {
        for (std::uint32_t a = 0; a < per_group; ++a) {
            for (std::uint32_t b = a + 1; b < per_group; ++b)
                t.addSwitchLink(g * per_group + a, g * per_group + b, 1.0);
        }
    }
    // Parallel global links between every group pair, endpoints spread
    // round-robin over the group members.
    for (std::uint32_t g1 = 0; g1 < groups; ++g1) {
        for (std::uint32_t g2 = g1 + 1; g2 < groups; ++g2) {
            for (std::uint32_t l = 0; l < inter_group_links; ++l) {
                std::uint32_t a =
                    g1 * per_group + (g2 * inter_group_links + l) %
                                         per_group;
                std::uint32_t b =
                    g2 * per_group + (g1 * inter_group_links + l) %
                                         per_group;
                t.addSwitchLink(a, b, 1.0);
            }
        }
    }
    t.computeRoutes();
    return t;
}

void
Topology::computeRoutes()
{
    std::uint32_t n = numSwitches();
    candidates_.assign(n, {});
    for (auto &per_dest : candidates_)
        per_dest.resize(n);
    distance_.assign(n, std::vector<std::uint16_t>(n, 0xffff));

    for (SwitchId dest = 0; dest < n; ++dest) {
        auto &dist = distance_[dest]; // dist[sw] = hops from sw to dest
        dist[dest] = 0;
        std::deque<SwitchId> frontier{dest};
        while (!frontier.empty()) {
            SwitchId cur = frontier.front();
            frontier.pop_front();
            for (const auto &peer : ports_[cur]) {
                if (peer.kind != PortPeer::Kind::Switch)
                    continue;
                if (dist[peer.id] == 0xffff) {
                    dist[peer.id] =
                        static_cast<std::uint16_t>(dist[cur] + 1);
                    frontier.push_back(peer.id);
                }
            }
        }

        for (SwitchId sw = 0; sw < n; ++sw) {
            if (sw == dest || dist[sw] == 0xffff)
                continue;
            // Candidate ports: any neighbor one hop closer to dest.
            auto &candidates = candidates_[sw][dest];
            const auto &pl = ports_[sw];
            for (std::uint16_t p = 0; p < pl.size(); ++p) {
                if (pl[p].kind == PortPeer::Kind::Switch &&
                    dist[pl[p].id] + 1 == dist[sw])
                    candidates.push_back(p);
            }
            ns_assert(!candidates.empty(), "no route from ", sw, " to ",
                      dest);
        }
    }

    // distance_[dest][sw] computed above is symmetric in an undirected
    // graph, so it can be read either way.
}

std::uint32_t
Topology::route(SwitchId sw, NodeId dest) const
{
    SwitchId ds = hostSwitch_[dest];
    if (ds == sw)
        return hostPort_[dest];
    const auto &candidates = candidates_[sw][ds];
    ns_assert(!candidates.empty(), "no route from switch ", sw,
              " to node ", dest);
    // Deterministic per-destination-node spreading over the equal-cost
    // ports (see file comment).
    return candidates[dest % candidates.size()];
}

std::uint32_t
Topology::hopCount(NodeId a, NodeId b) const
{
    SwitchId sa = hostSwitch_[a];
    SwitchId sb = hostSwitch_[b];
    if (sa == sb)
        return 1;
    return 1u + distance_[sb][sa];
}

std::uint32_t
Topology::numTors() const
{
    return static_cast<std::uint32_t>(
        std::count(torFlag_.begin(), torFlag_.end(), true));
}

std::vector<std::uint32_t>
Topology::rackPartition(std::uint32_t shards) const
{
    std::uint32_t tors = numTors();
    ns_assert(shards >= 1 && shards <= tors, "shard count ", shards,
              " outside [1, ", tors, "]");
    std::vector<std::uint32_t> assignment(numSwitches(), 0);
    std::uint32_t tor = 0, spine = 0;
    std::uint32_t spines = numSwitches() - tors;
    for (SwitchId s = 0; s < numSwitches(); ++s) {
        if (torFlag_[s]) {
            assignment[s] = tor++ * shards / tors;
        } else {
            // Proportional spread keeps the spine load per shard even
            // whether or not the counts divide.
            assignment[s] = spine++ * shards / spines;
        }
    }
    return assignment;
}

} // namespace netsparse
