/** @file Tests for the PCIe/DMA cost model. */

#include <gtest/gtest.h>

#include "snic/pcie.hh"

using namespace netsparse;

TEST(Pcie, TransferIsLatencyPlusSerialization)
{
    EventQueue eq;
    PcieModel pcie(eq, {});
    // 4 KB at 256 GB/s = 16 ns, plus 200 ns of latency.
    EXPECT_EQ(pcie.transfer(4096), 216u * ticks::ns);
}

TEST(Pcie, BackToBackTransfersChain)
{
    EventQueue eq;
    PcieModel pcie(eq, {});
    Tick first = pcie.transfer(4096);
    Tick second = pcie.transfer(4096);
    // The second starts when the first's serialization ends.
    EXPECT_EQ(second, first + 16 * ticks::ns);
}

TEST(Pcie, IdleLinkRestartsFromNow)
{
    EventQueue eq;
    PcieModel pcie(eq, {});
    pcie.transfer(4096);
    eq.schedule(1 * ticks::us, [] {});
    eq.run();
    // Well past the previous busy window: full latency again.
    EXPECT_EQ(pcie.transfer(4096), 1 * ticks::us + 216 * ticks::ns);
}

TEST(Pcie, ZeroByteDoorbellCostsOnlyLatency)
{
    EventQueue eq;
    PcieModel pcie(eq, {});
    EXPECT_EQ(pcie.transfer(0), 200u * ticks::ns);
    EXPECT_EQ(pcie.latency(), 200u * ticks::ns);
}
