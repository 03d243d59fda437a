#include "net/fault_model.hh"

#include "sim/logging.hh"

namespace netsparse {

namespace {

/** Salts keeping the per-class draws independent at one send seq. */
constexpr std::uint64_t saltDrop = 0x64726f70ull;      // "drop"
constexpr std::uint64_t saltCorrupt = 0x636f7272ull;   // "corr"
constexpr std::uint64_t saltDown = 0x646f776eull;      // "down"
constexpr std::uint64_t saltDegrade = 0x64656772ull;   // "degr"
constexpr std::uint64_t saltVictim = 0x76696374ull;    // "vict"

/** The corruption pattern: a checksum no honest sender ever produces. */
constexpr std::uint64_t corruptionMask = 0xbadc0ffee0ddf00dull;

} // namespace

FaultConfig
FaultConfig::parse(const std::string &spec)
{
    FaultConfig cfg;
    std::size_t pos = 0;
    while (pos < spec.size()) {
        std::size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        std::size_t colon = item.find(':');
        if (colon == std::string::npos)
            ns_fatal("--faults: expected key:value, got '", item, "'");
        std::string key = item.substr(0, colon);
        const std::string name = std::string("--faults ") + key;
        const char *val = item.c_str() + colon + 1;
        auto number = [&] { return parseNumber(name.c_str(), val); };
        if (key == "drop") {
            cfg.dropRate = number();
        } else if (key == "corrupt") {
            cfg.corruptRate = number();
        } else if (key == "down") {
            cfg.linkDownRate = number();
        } else if (key == "downUs") {
            cfg.linkDownTicks = static_cast<Tick>(number() * ticks::us);
        } else if (key == "degrade") {
            cfg.degradeRate = number();
        } else if (key == "degradeUs") {
            cfg.degradeTicks = static_cast<Tick>(number() * ticks::us);
        } else if (key == "degradeFactor") {
            cfg.degradeFactor = number();
        } else if (key == "seed") {
            cfg.seed = parseUint(name.c_str(), val);
        } else {
            ns_fatal("--faults: unknown key '", key,
                     "' (expected drop, corrupt, down, downUs, degrade,"
                     " degradeUs, degradeFactor or seed)");
        }
    }
    if (cfg.dropRate >= 1 || cfg.corruptRate >= 1 ||
        cfg.linkDownRate >= 1 || cfg.degradeRate >= 1)
        ns_fatal("--faults: rates must lie in [0, 1)");
    if (cfg.degradeFactor <= 0 || cfg.degradeFactor > 1)
        ns_fatal("--faults: degradeFactor must lie in (0, 1]");
    return cfg;
}

bool
LinkFaultInjector::corruptPacket(Packet &pkt)
{
    // Only response payloads carry data worth corrupting; reads are
    // pure headers and header corruption is modeled as a drop.
    if (pkt.type != PrType::Response || pkt.prs.empty())
        return false;
    std::uint64_t victim =
        splitmix64(splitmix64(streamBase_ + seq_) ^ saltVictim) %
        pkt.prs.size();
    pkt.prs[victim].checksum ^= corruptionMask;
    ++stats_.corruptedPrs;
    return true;
}

LinkFaultInjector::Verdict
LinkFaultInjector::onSend(Packet &pkt, Tick now)
{
    Verdict v;

    // Link-down windows: a dead port discards everything before the
    // wire. Window openings are drawn per send so the pattern stays a
    // pure function of the link's traffic sequence.
    if (now < downUntil_) {
        ++stats_.linkDownDrops;
        ++seq_;
        v.dropBeforeWire = true;
        return v;
    }
    if (cfg_.linkDownRate > 0.0 && draw(saltDown) < cfg_.linkDownRate) {
        downUntil_ = now + cfg_.linkDownTicks;
        ++stats_.downWindows;
        stats_.linkDownTicks += cfg_.linkDownTicks;
        ++stats_.linkDownDrops;
        ++seq_;
        v.dropBeforeWire = true;
        return v;
    }

    // Degraded-bandwidth windows slow serialization but lose nothing.
    if (cfg_.degradeRate > 0.0 && now >= degradedUntil_ &&
        draw(saltDegrade) < cfg_.degradeRate) {
        degradedUntil_ = now + cfg_.degradeTicks;
        ++stats_.degradeWindows;
        stats_.degradedTicks += cfg_.degradeTicks;
    }
    if (now < degradedUntil_)
        v.bandwidthFactor = cfg_.degradeFactor;

    // Scripted faults (tests) take precedence over the random draws.
    if (scriptedDrop_ && scriptedDrop_(pkt)) {
        ++stats_.scriptedDrops;
        ++seq_;
        v.dropOnWire = true;
        return v;
    }
    if (scriptedCorrupt_ && scriptedCorrupt_(pkt))
        v.corrupted = corruptPacket(pkt);

    if (cfg_.dropRate > 0.0 && draw(saltDrop) < cfg_.dropRate) {
        ++stats_.randomDrops;
        ++seq_;
        v.dropOnWire = true;
        return v;
    }
    if (!v.corrupted && cfg_.corruptRate > 0.0 &&
        draw(saltCorrupt) < cfg_.corruptRate)
        v.corrupted = corruptPacket(pkt);

    ++seq_;
    return v;
}

} // namespace netsparse
