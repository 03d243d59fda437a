/**
 * @file
 * Fundamental simulation types and unit helpers.
 *
 * The simulator measures time in integer picoseconds ("ticks"), like gem5.
 * All hardware clocks and link rates used in the paper's Table 5 convert
 * exactly or near-exactly into picoseconds:
 *   - SNIC clock 2.2 GHz   -> ~455 ps period
 *   - switch pipes 2 GHz   -> 500 ps period
 *   - 400 Gbps link        -> 50 bytes/ns -> 0.05 bytes/ps
 */

#ifndef NETSPARSE_SIM_TYPES_HH
#define NETSPARSE_SIM_TYPES_HH

#include <cstdint>
#include <limits>

namespace netsparse {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** Sentinel for "never" / unscheduled. */
constexpr Tick maxTick = std::numeric_limits<Tick>::max();

/** Identifier of a cluster node (host + SNIC pair). */
using NodeId = std::uint32_t;

/** Identifier of a rack (group of nodes under one ToR switch). */
using RackId = std::uint32_t;

/** Identifier of a switch in the network graph. */
using SwitchId = std::uint32_t;

/** Property index: the column id (cid) of a nonzero in the sparse matrix. */
using PropIdx = std::uint64_t;

/** Sentinel node id used for "no node" / broadcast-invalid situations. */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

namespace ticks {

constexpr Tick ps = 1;
constexpr Tick ns = 1000 * ps;
constexpr Tick us = 1000 * ns;
constexpr Tick ms = 1000 * us;
constexpr Tick s = 1000 * ms;

/** Convert a tick count to (floating point) seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(s);
}

/** Convert a tick count to (floating point) nanoseconds. */
constexpr double
toNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(ns);
}

/** Convert (floating point) seconds to ticks, rounding to nearest. */
constexpr Tick
fromSeconds(double sec)
{
    return static_cast<Tick>(sec * static_cast<double>(s) + 0.5);
}

} // namespace ticks

/**
 * A clock domain: converts between cycles and ticks.
 *
 * Periods are kept in double picoseconds internally so that non-integral
 * periods (e.g. 2.2 GHz -> 454.55 ps) accumulate without systematic drift.
 */
class Clock
{
  public:
    /** Construct a clock from a frequency in Hz. */
    explicit Clock(double freq_hz)
        : periodPs_(1e12 / freq_hz), freqHz_(freq_hz)
    {}

    /** Ticks consumed by @p cycles clock cycles (rounded to nearest). */
    Tick
    cycles(std::uint64_t n) const
    {
        return static_cast<Tick>(periodPs_ * static_cast<double>(n) + 0.5);
    }

    /** One clock period in ticks (rounded). */
    Tick period() const { return cycles(1); }

    /** The clock frequency in Hz. */
    double frequency() const { return freqHz_; }

  private:
    double periodPs_;
    double freqHz_;
};

/**
 * A bandwidth: converts between byte counts and serialization time.
 */
class Bandwidth
{
  public:
    /** Construct from bits per second. */
    static constexpr Bandwidth
    fromGbps(double gbps)
    {
        return Bandwidth(gbps * 1e9 / 8.0);
    }

    /** Construct from bytes per second. */
    static constexpr Bandwidth
    fromGBps(double gbytes_per_s)
    {
        return Bandwidth(gbytes_per_s * 1e9);
    }

    /** Time in ticks to move @p bytes at this rate (rounded up). */
    Tick
    serialize(std::uint64_t bytes) const
    {
        double t = static_cast<double>(bytes) / bytesPerPs_;
        return static_cast<Tick>(t + 0.999999);
    }

    /** The rate in bytes per second. */
    double bytesPerSecond() const { return bytesPerPs_ * 1e12; }

    /** The rate in bytes per picosecond. */
    double bytesPerPs() const { return bytesPerPs_; }

  private:
    explicit constexpr Bandwidth(double bytes_per_s)
        : bytesPerPs_(bytes_per_s / 1e12)
    {}

    double bytesPerPs_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_TYPES_HH
