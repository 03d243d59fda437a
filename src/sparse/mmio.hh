/**
 * @file
 * Matrix Market (.mtx) coordinate-format I/O.
 *
 * Supports the subset of the format used by SuiteSparse downloads:
 * "matrix coordinate {real|integer|pattern} {general|symmetric}".
 * This lets users of the library run every experiment on the *actual*
 * paper matrices when they have them on disk.
 */

#ifndef NETSPARSE_SPARSE_MMIO_HH
#define NETSPARSE_SPARSE_MMIO_HH

#include <iosfwd>
#include <string>

#include "sparse/coo.hh"

namespace netsparse {

/** Parse a Matrix Market stream. Throws via ns_fatal on malformed input. */
Coo readMatrixMarket(std::istream &in);

/** Load a Matrix Market file from disk. */
Coo readMatrixMarketFile(const std::string &path);

/** Write @p m in Matrix Market coordinate format. */
void writeMatrixMarket(std::ostream &out, const Coo &m);

} // namespace netsparse

#endif // NETSPARSE_SPARSE_MMIO_HH
