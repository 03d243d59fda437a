#include "baseline/baselines.hh"

#include <algorithm>
#include <unordered_map>

#include "sim/logging.hh"

namespace netsparse {

namespace {

/** Ticks to move @p bytes at @p rate. */
Tick
wireTime(std::uint64_t bytes, const Bandwidth &rate)
{
    return rate.serialize(bytes);
}

} // namespace

BaselineResult
runSuOpt(const Csr &m, const Partition1D &part, std::uint32_t k,
         const BaselineParams &p)
{
    const std::uint32_t n = part.numParts();
    const std::uint64_t prop_bytes = 4ull * k;

    BaselineResult r;
    r.perNodeTicks.resize(n);
    r.perNodeRxBytes.resize(n);
    r.perNodePrs.assign(n, 0);

    for (NodeId i = 0; i < n; ++i) {
        std::uint64_t bytes =
            static_cast<std::uint64_t>(m.cols - part.size(i)) * prop_bytes;
        r.perNodeRxBytes[i] = bytes;
        r.perNodeTicks[i] = wireTime(bytes, p.lineRate);
        r.totalWireBytes += bytes;
        if (r.perNodeTicks[i] > r.commTicks) {
            r.commTicks = r.perNodeTicks[i];
            r.tailNode = i;
        }
    }
    r.totalPayloadBytes = r.totalWireBytes; // SUOpt pays no headers
    double line_bpp = p.lineRate.bytesPerPs();
    if (r.commTicks > 0) {
        r.tailLineUtil = static_cast<double>(
                             r.perNodeRxBytes[r.tailNode]) /
                         (static_cast<double>(r.commTicks) * line_bpp);
        r.tailGoodput = r.tailLineUtil;
    }
    return r;
}

BaselineResult
runSaOpt(const Csr &m, const Partition1D &part, std::uint32_t k,
         const BaselineParams &p)
{
    const std::uint32_t n = part.numParts();
    const std::uint64_t prop_bytes = 4ull * k;
    const std::uint32_t pr_resp_bytes = ProtocolParams::prHeaderBytes +
                                        static_cast<std::uint32_t>(prop_bytes);
    const std::uint32_t msg_capacity =
        p.messageBytes - ProtocolParams::concatBaseBytes();
    const std::uint32_t msg_overhead = ProtocolParams::concatBaseBytes();

    BaselineResult r;
    r.perNodeTicks.assign(n, 0);
    r.perNodeRxBytes.assign(n, 0);
    r.perNodePrs.assign(n, 0);

    // Per-node traffic accumulators.
    std::vector<std::uint64_t> prs_issued(n, 0), prs_served(n, 0);
    std::vector<std::uint64_t> rx_resp(n, 0), tx_resp(n, 0);
    std::vector<std::uint64_t> rx_req(n, 0), tx_req(n, 0);
    std::vector<std::uint64_t> payload_rx(n, 0);

    // Rank-local perfect pre-filtering: each of the node's ranks owns a
    // contiguous block of the node's rows and deduplicates its own PRs.
    std::vector<std::uint32_t> last_epoch(m.cols, 0);
    std::uint32_t epoch = 0;
    std::vector<std::uint64_t> dest_count(n, 0);

    for (NodeId node = 0; node < n; ++node) {
        std::uint32_t row0 = part.begin(node);
        std::uint32_t row1 = part.end(node);
        std::uint32_t rows = row1 - row0;
        std::uint32_t ranks = std::min(p.ranksPerNode, std::max(1u, rows));
        for (std::uint32_t rank = 0; rank < ranks; ++rank) {
            std::uint32_t rb = row0 + static_cast<std::uint32_t>(
                                          std::uint64_t(rows) * rank /
                                          ranks);
            std::uint32_t re = row0 + static_cast<std::uint32_t>(
                                          std::uint64_t(rows) *
                                          (rank + 1) / ranks);
            ++epoch;
            std::fill(dest_count.begin(), dest_count.end(), 0);
            for (std::uint32_t row = rb; row < re; ++row) {
                for (auto c : m.rowCols(row)) {
                    NodeId owner = part.ownerOf(c);
                    if (owner == node)
                        continue;
                    if (last_epoch[c] == epoch)
                        continue; // perfectly pre-filtered within rank
                    last_epoch[c] = epoch;
                    ++dest_count[owner];
                }
            }
            for (NodeId dest = 0; dest < n; ++dest) {
                std::uint64_t c = dest_count[dest];
                if (c == 0)
                    continue;
                prs_issued[node] += c;
                prs_served[dest] += c;
                payload_rx[node] += c * prop_bytes;

                // Responses: PR header + payload per PR, aggregated into
                // MTU-sized messages that share the upper headers.
                std::uint64_t resp_payload = c * pr_resp_bytes;
                std::uint64_t resp_msgs =
                    (resp_payload + msg_capacity - 1) / msg_capacity;
                std::uint64_t resp_bytes =
                    resp_payload + resp_msgs * msg_overhead;
                rx_resp[node] += resp_bytes;
                tx_resp[dest] += resp_bytes;

                // Requests: 4 B idx per PR, also aggregated.
                std::uint64_t req_payload = c * 4;
                std::uint64_t req_msgs =
                    (req_payload + msg_capacity - 1) / msg_capacity;
                std::uint64_t req_bytes =
                    req_payload + req_msgs * msg_overhead;
                tx_req[node] += req_bytes;
                rx_req[dest] += req_bytes;
            }
        }
    }

    double line_bpp = p.lineRate.bytesPerPs();
    for (NodeId i = 0; i < n; ++i) {
        std::uint64_t handled = prs_issued[i] + prs_served[i];
        Tick sw = static_cast<Tick>(
            static_cast<double>(handled) * p.softwareOverheadPerPr /
            p.coresPerNode);
        std::uint64_t rx = rx_resp[i] + rx_req[i];
        std::uint64_t tx = tx_resp[i] + tx_req[i];
        Tick wire = wireTime(std::max(rx, tx), p.lineRate);
        r.perNodeTicks[i] = std::max(sw, wire);
        r.perNodeRxBytes[i] = rx;
        r.perNodePrs[i] = prs_issued[i];
        r.totalWireBytes += tx;
        r.totalPayloadBytes += payload_rx[i];
        if (r.perNodeTicks[i] > r.commTicks) {
            r.commTicks = r.perNodeTicks[i];
            r.tailNode = i;
        }
    }
    if (r.commTicks > 0) {
        NodeId t = r.tailNode;
        r.tailLineUtil = static_cast<double>(r.perNodeRxBytes[t]) /
                         (static_cast<double>(r.commTicks) * line_bpp);
        r.tailGoodput = static_cast<double>(payload_rx[t]) /
                        (static_cast<double>(r.commTicks) * line_bpp);
    }
    return r;
}

double
saOptIdealGoodput(std::uint32_t cores, std::uint32_t k,
                  const BaselineParams &p)
{
    ns_assert(cores > 0, "need at least one core");
    // Each core retires one PR (4k payload bytes) per software-overhead
    // window; perfectly balanced, no network.
    double bytes_per_sec = static_cast<double>(cores) * 4.0 * k /
                           ticks::toSeconds(p.softwareOverheadPerPr);
    return std::min(1.0, bytes_per_sec / p.lineRate.bytesPerSecond());
}

NaiveSaResult
runNaiveSa2Node(const Csr &m, std::uint32_t k, const NaiveSaParams &p)
{
    Partition1D part = Partition1D::equalRows(m.rows, 2);

    std::uint64_t nnz_node[2] = {0, 0};
    std::uint64_t prs_node[2] = {0, 0};
    for (NodeId node = 0; node < 2; ++node) {
        for (std::uint32_t r = part.begin(node); r < part.end(node); ++r) {
            for (auto c : m.rowCols(r)) {
                ++nnz_node[node];
                if (part.ownerOf(c) != node)
                    ++prs_node[node];
            }
        }
    }

    auto node_time = [&](int i) {
        return static_cast<double>(nnz_node[i]) *
                   ticks::toSeconds(p.scanCostPerNnz) +
               static_cast<double>(prs_node[i]) *
                   ticks::toSeconds(p.overheadPerPr);
    };
    double t = std::max(node_time(0), node_time(1));
    std::uint64_t prs = prs_node[0] + prs_node[1];
    double payload = static_cast<double>(prs) * 4.0 * k;
    double wire = static_cast<double>(prs) * (4.0 * k + p.headerBytes);

    NaiveSaResult r;
    if (t > 0) {
        r.transferRateGbps = wire / t * 8.0 / 1e9;
        r.lineUtilization = wire / t / p.lineRate.bytesPerSecond();
        r.goodput = payload / t / p.lineRate.bytesPerSecond();
    }
    return r;
}

} // namespace netsparse
