/**
 * @file
 * A simple PCIe / DMA cost model (Table 5: Gen6, 256 GB/s, 200 ns
 * one-way latency). Transfers chain on a busy-until server so heavy DMA
 * activity exhibits queueing, although at 256 GB/s the host link is
 * never the bottleneck against a 400 Gbps (50 GB/s) network.
 */

#ifndef NETSPARSE_SNIC_PCIE_HH
#define NETSPARSE_SNIC_PCIE_HH

#include <cstdint>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace netsparse {

/** PCIe parameters. */
struct PcieConfig
{
    Tick latency = 200 * ticks::ns;
};

/** One node's PCIe connection between host and SNIC. */
class PcieModel
{
  public:
    /** Link rate (Table 5: Gen6). */
    static constexpr Bandwidth kBandwidth = Bandwidth::fromGBps(256.0);

    PcieModel(EventQueue &eq, PcieConfig cfg) : eq_(eq), cfg_(cfg) {}

    /**
     * Occupy the link for a @p bytes transfer starting no earlier than
     * now. @return the completion time (data visible at the far side).
     */
    Tick
    transfer(std::uint64_t bytes)
    {
        Tick start = std::max(eq_.now(), busyUntil_);
        busyUntil_ = start + kBandwidth.serialize(bytes);
        return busyUntil_ + cfg_.latency;
    }

    /** One-way latency only (e.g. an MMIO doorbell write). */
    Tick latency() const { return cfg_.latency; }

  private:
    EventQueue &eq_;
    PcieConfig cfg_;
    Tick busyUntil_ = 0;
};

} // namespace netsparse

#endif // NETSPARSE_SNIC_PCIE_HH
