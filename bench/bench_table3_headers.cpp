/**
 * @file
 * Table 3: contribution of packet headers to total SA network traffic
 * for different property widths K, assuming one PR per packet.
 *
 * The paper's stack (Slingshot RDMA) carries ~160 B of headers; the
 * NetSparse solo packet carries 78 B. The second row shows how
 * concatenating N=17 PRs (the queen average of Table 7) shrinks the
 * effective per-PR header to 12/17 + 18 bytes.
 */

#include "analysis/comm_pattern.hh"
#include "bench_common.hh"
#include "net/protocol.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    banner("Header share of SA traffic vs property width", "Table 3");
    ProtocolParams proto;

    std::printf("%-26s", "K");
    for (std::uint32_t k = 1; k <= 256; k *= 2)
        std::printf("%7u", k);
    std::printf("\n");

    auto row = [&](const char *name, double header_bytes) {
        std::printf("%-26s", name);
        for (std::uint32_t k = 1; k <= 256; k *= 2) {
            std::printf("%6.1f%%",
                        100.0 * headerShare(
                                    k, static_cast<std::uint32_t>(
                                           header_bytes)));
        }
        std::printf("\n");
    };
    row("paper stack (160B)", 160);
    row("NetSparse solo (78B)", proto.upperHeaderBytes +
                                    proto.soloHeaderBytes +
                                    proto.prHeaderBytes);
    // With concatenation, the fixed 62 B is shared across ~17 PRs.
    double concat_eff =
        proto.prHeaderBytes +
        static_cast<double>(proto.concatBaseBytes()) / 17.0;
    row("NetSparse concat (N=17)", concat_eff);
    return 0;
}
