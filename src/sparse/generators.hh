/**
 * @file
 * Synthetic sparse-matrix generators.
 *
 * The paper evaluates on five SuiteSparse matrices (arabic-2005,
 * europe_osm, queen_4147, stokes, uk-2002). Those files are not available
 * offline, so this module synthesizes structural analogues whose
 * *communication-relevant* characteristics match the paper's
 * characterization (Tables 1 and 4, Section 3):
 *
 *  - arabic / uk  : power-law web crawls. Lexicographic URL ordering gives
 *                   strong index locality; hub pages give heavy idx
 *                   repetition (high filter rates) and rack-level sharing.
 *  - europe_osm   : road network. Degree ~2, near-diagonal, almost no idx
 *                   repetition (SA ratio 1:0.02, filter rate 8%).
 *  - queen_4147   : 3-D FEM. Wide band around the diagonal; perfect
 *                   temporal destination locality (1.00 in Table 4).
 *  - stokes       : coupled solver. Band plus a far off-diagonal coupling
 *                   block, so every node talks to one far partner; no
 *                   rack-level sharing (cache hit rate 6%).
 *
 * All generators are deterministic for a given seed, and every row draws
 * from its own splitmix64-derived RNG stream: row r of a matrix is a pure
 * function of (params, r). That independence is what lets the streaming
 * builder (sparse/stream_gen.hh) emit per-node CSR partitions chunk by
 * chunk without ever materializing the global matrix, while staying
 * byte-equivalent to the materializing path here.
 */

#ifndef NETSPARSE_SPARSE_GENERATORS_HH
#define NETSPARSE_SPARSE_GENERATORS_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "sparse/csr.hh"

namespace netsparse {

/**
 * Parameters for the power-law web-crawl generator.
 *
 * Pages are ordered lexicographically by URL, so links are either
 * *local* (same host: a short hop in index space) or *foreign*
 * (another host: a popular "region" of the index space, with popularity
 * following a zipf law). Links within one page tend to stay on the same
 * foreign host, which is what gives web crawls their strong temporal
 * remote destination locality (Table 4).
 */
struct WebCrawlParams
{
    std::uint32_t rows = 1 << 17;
    /** Mean out-degree. */
    double avgDeg = 28.0;
    /** Probability that a link targets a nearby page. */
    double pLocal = 0.55;
    /** Mean distance of a local link. */
    double localRange = 150.0;
    /** Number of foreign host regions; 0 means rows / 1024. */
    std::uint32_t numRegions = 0;
    /** Pages of one region a link can land on. */
    std::uint32_t regionWidth = 32;
    /** Zipf exponent of region popularity (higher -> more reuse). */
    double regionAlpha = 1.30;
    /** Chance a foreign link jumps to a new region mid-page. */
    double pNewRegion = 0.15;
    std::uint64_t seed = 0xA2AB1C;
};

/** Power-law web crawl (arabic-2005 / uk-2002 style). */
Coo makeWebCrawl(const WebCrawlParams &p);

/** Parameters for the road-network generator. */
struct RoadNetworkParams
{
    std::uint32_t rows = 1 << 18;
    /** Probability of each of the two along-road neighbors. */
    double pChain = 0.75;
    /** Probability of a cross-street edge (distance ~ gridWidth). */
    double pCross = 0.28;
    /** Cross-street stride; 0 means sqrt(rows). */
    std::uint32_t gridWidth = 0;
    /** Probability of a long-range edge (highway ramp / ferry). */
    double pLong = 0.03;
    std::uint64_t seed = 0xE00905;
};

/** Low-degree near-diagonal road network (europe_osm style). */
Coo makeRoadNetwork(const RoadNetworkParams &p);

/** Parameters for the banded FEM generator. */
struct BandedFemParams
{
    std::uint32_t rows = 1 << 16;
    /** Half bandwidth: columns fall in [r-band, r+band]. */
    std::uint32_t band = 96;
    /** Mean nonzeros per row. */
    std::uint32_t deg = 79;
    std::uint64_t seed = 0x04EE17;
};

/** Wide-band FEM matrix (queen_4147 style). */
Coo makeBandedFem(const BandedFemParams &p);

/** Parameters for the coupled-solver generator. */
struct StokesLikeParams
{
    std::uint32_t rows = 3 << 15;
    /** Half bandwidth of the local block. */
    std::uint32_t band = 64;
    /** Mean nonzeros per row. */
    std::uint32_t deg = 31;
    /** Fraction of nonzeros in the far coupling block. */
    double pCoupled = 0.25;
    /** Jitter around the coupling target. */
    std::uint32_t couplingJitter = 48;
    std::uint64_t seed = 0x570CE5;
};

/** Band + far-coupling solver matrix (stokes style). */
Coo makeStokesLike(const StokesLikeParams &p);

/** Any generator's parameter set, for kind-generic code. */
using GeneratorParams = std::variant<WebCrawlParams, RoadNetworkParams,
                                     BandedFemParams, StokesLikeParams>;

/** Materialize the matrix a parameter set describes. */
Coo makeMatrix(const GeneratorParams &p);

/**
 * Single-row emitter over any generator.
 *
 * emitRow(r) appends exactly the column indices makeMatrix() would push
 * for row r, in the same order, independent of every other row: each row
 * draws from its own RNG stream seeded by splitmix64(seed, r). The
 * materializing makeX() entry points are themselves built on this class,
 * so the equivalence is by construction, not by parallel maintenance.
 */
class RowEmitter
{
  public:
    explicit RowEmitter(const GeneratorParams &p);

    /** Total rows of the described matrix. */
    std::uint32_t rows() const { return rows_; }

    /** Append row @p r's column indices in emission order. */
    void emitRow(std::uint32_t r, std::vector<std::uint32_t> &out) const;

    /** Mean nonzeros per row the parameters target (for reserve()). */
    double expectedDegree() const;

  private:
    GeneratorParams p_; // defaults (numRegions, gridWidth) resolved
    std::uint32_t rows_ = 0;
    std::vector<std::uint32_t> regionBase_; // web crawl only
};

/** The five benchmark matrices of the paper's evaluation. */
enum class MatrixKind
{
    Arabic,
    Europe,
    Queen,
    Stokes,
    Uk,
};

/** Short lowercase name used in tables ("arabic", "europe", ...). */
const char *matrixName(MatrixKind kind);

/** All five kinds, in the paper's table order. */
std::vector<MatrixKind> allMatrixKinds();

/**
 * Resolved generator parameters for a paper benchmark analogue at a
 * given linear row-count scale. makeBenchmarkMatrix() materializes
 * these; buildPartitionedMatrix() (sparse/stream_gen.hh) streams them.
 */
GeneratorParams benchmarkParams(MatrixKind kind, double scale = 1.0);

/**
 * Build the structural analogue of a paper benchmark matrix.
 *
 * @param kind which matrix to synthesize.
 * @param scale linear scale on the row count (1.0 gives the default
 *        sizes, which are roughly 100-200x smaller than the SuiteSparse
 *        originals but preserve per-node structure at 128 nodes; see
 *        paperScale() in sparse/stream_gen.hh for full-size runs).
 */
Csr makeBenchmarkMatrix(MatrixKind kind, double scale = 1.0);

/** A named benchmark matrix. */
struct BenchmarkMatrix
{
    MatrixKind kind;
    std::string name;
    Csr matrix;
};

/** Generate the full 5-matrix suite. */
std::vector<BenchmarkMatrix> benchmarkSuite(double scale = 1.0);

} // namespace netsparse

#endif // NETSPARSE_SPARSE_GENERATORS_HH
