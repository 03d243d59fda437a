/**
 * @file
 * Figure 19: inter-node communication imbalance assuming no computation
 * cost - the number of nodes still actively communicating as execution
 * progresses (normalized time), from each node's communication volume.
 *
 * Shape to reproduce: queen stays near-fully active to the end (its
 * band partitions evenly); the web crawls and stokes tail off early,
 * leaving a few overloaded nodes to determine the finish time. The
 * imbalance comes from the partitioning, not the NetSparse hardware.
 */

#include "analysis/comm_pattern.hh"
#include "bench_common.hh"

using namespace netsparse;
using namespace netsparse::bench;

int
benchMain(int, char **)
{
    std::uint32_t nodes = benchNodes();
    double scale = benchScale();
    banner("Active nodes vs normalized execution time", "Figure 19");
    std::printf("(%u nodes; volume = unique remote properties + serve "
                "load per node)\n\n",
                nodes);

    const std::uint32_t samples = 10;
    std::printf("%-8s", "matrix");
    for (std::uint32_t s = 0; s < samples; ++s)
        std::printf("%6.0f%%", 100.0 * s / samples);
    std::printf("\n");

    auto suite = benchmarkSuite(scale);
    std::vector<std::vector<std::uint32_t>> profiles(suite.size());
    runSweep(profiles.size(), [&](std::size_t i) {
        const auto &bm = suite[i];
        Partition1D part = Partition1D::equalRows(bm.matrix.rows, nodes);
        CommPattern cp = analyzeCommPattern(bm.matrix, part);

        // A node is busy while it still receives its unique remote
        // properties or serves other nodes' requests; both are
        // per-node wire volumes under sparsity-aware communication.
        std::vector<std::uint64_t> serve(nodes, 0);
        std::vector<bool> seen(bm.matrix.cols, false);
        std::vector<std::uint32_t> touched;
        for (NodeId n = 0; n < nodes; ++n) {
            touched.clear();
            for (std::uint32_t r = part.begin(n); r < part.end(n); ++r) {
                for (auto col : bm.matrix.rowCols(r)) {
                    NodeId owner = part.ownerOf(col);
                    if (owner == n || seen[col])
                        continue;
                    seen[col] = true;
                    touched.push_back(col);
                    ++serve[owner];
                }
            }
            for (auto col : touched)
                seen[col] = false;
        }
        std::vector<std::uint64_t> volume(nodes);
        for (NodeId n = 0; n < nodes; ++n)
            volume[n] = cp.nodes[n].uniqueRemote + serve[n];

        profiles[i] = activeNodeProfile(volume, samples);
    });

    for (std::size_t m = 0; m < suite.size(); ++m) {
        std::printf("%-8s", suite[m].name.c_str());
        for (auto v : profiles[m])
            std::printf("%7u", v);
        std::printf("\n");
    }
    return 0;
}
