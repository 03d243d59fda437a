/**
 * @file
 * Domain example: PageRank over a web-crawl graph on a NetSparse
 * cluster. PageRank is repeated SpMV - exactly the multi-iteration
 * sparse kernel of the paper's Section 2.1: each iteration's output
 * property array (the rank vector) becomes the next iteration's input,
 * and every iteration re-gathers the remote ranks its edges reference.
 *
 * The example runs the distributed executor, then reports both the
 * numeric result (top-ranked pages) and what the cluster did per
 * iteration. The gather is the same every iteration (only the rank
 * values change), so only the first iteration simulates it.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <vector>

#include "runtime/distributed_kernels.hh"
#include "sim/logging.hh"
#include "sparse/generators.hh"

using namespace netsparse;

int
main()
try {
    const std::uint32_t nodes = 16;
    const std::uint32_t iterations = 5;
    const float damping = 0.85f;

    // A small uk-2002-style web crawl; A^T so that rank flows along
    // in-links (column j of A^T = out-links of page j).
    WebCrawlParams wp;
    wp.rows = 1 << 14;
    wp.avgDeg = 12;
    Csr graph = Csr::fromCoo(makeWebCrawl(wp)).transposed();

    // Column-stochastic normalization: divide each column by its
    // out-degree so every page distributes one unit of rank.
    std::vector<float> out_degree(graph.cols, 0.0f);
    for (auto c : graph.colIdx)
        out_degree[c] += 1.0f;
    graph.vals.resize(graph.nnz());
    for (std::size_t i = 0; i < graph.nnz(); ++i)
        graph.vals[i] = 1.0f / std::max(out_degree[graph.colIdx[i]], 1.0f);

    Partition1D part = Partition1D::equalRows(graph.rows, nodes);
    ClusterConfig cfg = defaultClusterConfig(nodes);

    std::printf("PageRank: %u pages, %zu links, %u nodes, %u "
                "iterations\n\n",
                graph.rows, graph.nnz(), nodes, iterations);

    // Iterate r <- d * A r + (1 - d)/N by hand around the distributed
    // SpMV so the damping stays outside the kernel.
    std::vector<float> rank(graph.rows, 1.0f / graph.rows);
    GatherRunResult comm;
    Tick total_comm = 0;
    for (std::uint32_t it = 0; it < iterations; ++it) {
        DistributedKernelResult step =
            distributedSpmv(cfg, graph, part, rank, /*simulate=*/it == 0);
        for (std::uint32_t v = 0; v < graph.rows; ++v) {
            rank[v] = damping * step.output[v] +
                      (1.0f - damping) / graph.rows;
        }
        if (it == 0)
            comm = step.iterations.front();
        total_comm += comm.commTicks;
        std::printf("iteration %u: comm %7.1f us, tail F+C %3.0f%%, "
                    "PRs/pkt %4.1f, cache %3.0f%%\n",
                    it + 1, ticks::toNs(comm.commTicks) / 1e3,
                    100.0 * comm.tail().fcRate(), comm.avgPrsPerPacket,
                    100.0 * comm.cacheHitRate());
    }

    std::vector<std::uint32_t> order(graph.rows);
    std::iota(order.begin(), order.end(), 0);
    std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                      [&](std::uint32_t a, std::uint32_t b) {
                          return rank[a] > rank[b];
                      });
    std::printf("\ntop pages: ");
    for (int i = 0; i < 5; ++i)
        std::printf("%u(%.5f) ", order[i], rank[order[i]]);
    std::printf("\ntotal gather time: %.1f us over %u iterations\n",
                ticks::toNs(total_comm) / 1e3, iterations);
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has printed the message
}
