#include "net/background.hh"

#include <cstdint>
#include <vector>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace netsparse {

bool
BackgroundTrafficConfig::parse(const std::string &spec,
                               BackgroundTrafficConfig &out)
{
    std::vector<std::string> field;
    std::size_t from = 0;
    for (std::size_t colon; (colon = spec.find(':', from)) != spec.npos;
         from = colon + 1)
        field.push_back(spec.substr(from, colon - from));
    field.push_back(spec.substr(from));
    if (field.size() < 2 || field.size() > 4)
        return false;

    BackgroundTrafficConfig cfg;
    if (field[0] == "incast")
        cfg.pattern = BackgroundPattern::Incast;
    else if (field[0] == "alltoall")
        cfg.pattern = BackgroundPattern::AllToAll;
    else if (field[0] == "storage")
        cfg.pattern = BackgroundPattern::Storage;
    else
        return false;
    // The numbers follow the command line's grammar (sim/logging.hh).
    if (!readNumber(field[1].c_str(), cfg.load, true) || cfg.load > 1.0)
        return false;
    std::uint64_t n[] = {2000, cfg.packetBytes}; // packets, bytes
    for (std::size_t i = 2; i < field.size(); ++i)
        if (!readUint(field[i].c_str(), n[i - 2]) || n[i - 2] == 0 ||
            n[i - 2] > UINT32_MAX)
            return false;
    cfg.packetsPerSource = static_cast<std::uint32_t>(n[0]);
    cfg.packetBytes = static_cast<std::uint32_t>(n[1]);
    out = cfg;
    return true;
}

BackgroundSource::BackgroundSource(EventQueue &eq,
                                   const BackgroundTrafficConfig &cfg,
                                   NodeId self, std::uint32_t num_nodes,
                                   Link &egress)
    : eq_(eq), cfg_(cfg), self_(self), numNodes_(num_nodes),
      egress_(egress)
{
    ns_assert(numNodes_ > 1, "background traffic needs >= 2 nodes");
}

NodeId
BackgroundSource::destOf(std::uint32_t ordinal) const
{
    switch (cfg_.pattern) {
    case BackgroundPattern::Incast:
        return static_cast<NodeId>(cfg_.seed % numNodes_);
    case BackgroundPattern::AllToAll: {
        std::uint64_t h = splitmix64(
            cfg_.seed ^ (static_cast<std::uint64_t>(self_) << 32) ^
            (0xb9ull << 56) ^ ordinal);
        auto dest = static_cast<NodeId>(h % numNodes_);
        return dest == self_ ? (dest + 1) % numNodes_ : dest;
    }
    case BackgroundPattern::Storage:
        return static_cast<NodeId>((self_ + numNodes_ / 2) % numNodes_);
    }
    return 0;
}

Tick
BackgroundSource::gapAfter(std::uint32_t ordinal) const
{
    // Mean gap = serialization time / load fraction, jittered by a
    // stateless hash to +/- 50% so sources do not phase-lock.
    Tick ser = egress_.config().bandwidth.serialize(cfg_.packetBytes);
    auto base = static_cast<double>(ser) / cfg_.load;
    std::uint64_t h = splitmix64(
        cfg_.seed ^ (static_cast<std::uint64_t>(self_) << 32) ^
        (0x6aull << 56) ^ ordinal);
    double jitter =
        0.5 + static_cast<double>(h % 1000003) / 1000003.0;
    if (cfg_.pattern == BackgroundPattern::Storage) {
        // Bursts of 8 back-to-back packets, then a long idle gap that
        // restores the configured mean rate.
        if (ordinal % 8 != 7)
            return ser;
        return static_cast<Tick>(8.0 * base * jitter);
    }
    return static_cast<Tick>(base * jitter);
}

void
BackgroundSource::start()
{
    if (!cfg_.enabled())
        return;
    // The incast victim and a storage node that is its own partner
    // stay silent.
    if (destOf(0) == self_)
        return;
    // Desynchronized start: each source begins a hash-deterministic
    // fraction of one mean gap into the run.
    std::uint64_t h = splitmix64(
        cfg_.seed ^ (static_cast<std::uint64_t>(self_) << 32) ^
        (0x57ull << 56));
    Tick first = static_cast<Tick>(
        static_cast<double>(gapAfter(0)) *
        (static_cast<double>(h % 1000003) / 1000003.0));
    eq_.scheduleIn(first, [this] { inject(0); });
}

void
BackgroundSource::inject(std::uint32_t ordinal)
{
    Packet pkt;
    pkt.src = self_;
    pkt.dest = destOf(ordinal);
    pkt.rawBytes = cfg_.packetBytes;
    ++injected_;
    bytesInjected_ += cfg_.packetBytes;
    egress_.send(std::move(pkt));
    if (ordinal + 1 < cfg_.packetsPerSource)
        eq_.scheduleIn(gapAfter(ordinal),
                       [this, next = ordinal + 1] { inject(next); });
}

} // namespace netsparse
