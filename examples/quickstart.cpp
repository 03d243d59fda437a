/**
 * @file
 * Quickstart: simulate one distributed sparse gather on a small
 * NetSparse cluster and print what the hardware did.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "runtime/cluster.hh"
#include "sim/logging.hh"
#include "sparse/generators.hh"

using namespace netsparse;

int
main()
try {
    // A 16-node cluster, two racks of 8, paper-default hardware.
    ClusterConfig cfg = defaultClusterConfig(16);
    cfg.nodesPerRack = 8;

    // A small power-law "web crawl" matrix (arabic-2005 style).
    WebCrawlParams wp;
    wp.rows = 1 << 14;
    wp.avgDeg = 16;
    Csr matrix = Csr::fromCoo(makeWebCrawl(wp));
    Partition1D part = Partition1D::equalRows(matrix.rows, cfg.numNodes);

    std::printf("matrix: %u x %u, %zu nonzeros\n", matrix.rows,
                matrix.cols, matrix.nnz());

    // Gather the input properties (K = 16 floats per property) that
    // every node's nonzeros need, through the full NetSparse stack:
    // RIG units -> Idx Filter -> concatenators -> switches -> caches.
    const std::uint32_t k = 16;
    ClusterSim sim(cfg);
    GatherRunResult r = sim.runGather(matrix, part, k);

    const NodeRunStats &tail = r.tail();
    std::printf("\ncommunication finished in %.2f us (tail node %u)\n",
                ticks::toNs(r.commTicks) / 1000.0, r.tailNode);
    std::printf("  idxs processed      : %llu\n",
                (unsigned long long)tail.idxsProcessed);
    std::printf("  PRs issued          : %llu\n",
                (unsigned long long)tail.prsIssued);
    std::printf("  filtered + coalesced: %llu + %llu  (F+C rate %.0f%%)\n",
                (unsigned long long)tail.filtered,
                (unsigned long long)tail.coalesced, 100.0 * tail.fcRate());
    std::printf("  avg PRs per packet  : %.1f\n", r.avgPrsPerPacket);
    std::printf("  property-cache hits : %llu / %llu lookups (%.0f%%)\n",
                (unsigned long long)r.cacheHits,
                (unsigned long long)r.cacheLookups,
                100.0 * r.cacheHitRate());
    std::printf("  tail line util      : %.1f%%\n",
                100.0 * r.tailLineUtil);
    std::printf("  tail goodput        : %.1f%%\n", 100.0 * r.tailGoodput);
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has printed the message
}
