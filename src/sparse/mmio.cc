#include "sparse/mmio.hh"

#include <fstream>
#include <sstream>

#include "sim/logging.hh"

namespace netsparse {

Coo
readMatrixMarket(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line))
        ns_fatal("empty Matrix Market stream");

    std::istringstream header(line);
    std::string banner, object, fmt, field, symmetry;
    header >> banner >> object >> fmt >> field >> symmetry;
    if (banner != "%%MatrixMarket")
        ns_fatal("missing %%MatrixMarket banner, got: ", line);
    if (object != "matrix" || fmt != "coordinate")
        ns_fatal("only 'matrix coordinate' is supported, got: ", line);
    bool pattern = field == "pattern";
    bool symmetric = symmetry == "symmetric";
    if (!pattern && field != "real" && field != "integer")
        ns_fatal("unsupported field type: ", field);
    if (!symmetric && symmetry != "general")
        ns_fatal("unsupported symmetry: ", symmetry);

    // Skip comments.
    do {
        if (!std::getline(in, line))
            ns_fatal("Matrix Market stream ended before the size line");
    } while (!line.empty() && line[0] == '%');

    std::istringstream sizes(line);
    std::uint64_t rows = 0, cols = 0, entries = 0;
    sizes >> rows >> cols >> entries;
    if (sizes.fail() || rows == 0 || cols == 0)
        ns_fatal("malformed size line: ", line);

    Coo m;
    m.rows = static_cast<std::uint32_t>(rows);
    m.cols = static_cast<std::uint32_t>(cols);
    m.rowIdx.reserve(symmetric ? 2 * entries : entries);
    m.colIdx.reserve(symmetric ? 2 * entries : entries);
    if (!pattern)
        m.vals.reserve(symmetric ? 2 * entries : entries);

    for (std::uint64_t i = 0; i < entries; ++i) {
        std::uint64_t r = 0, c = 0;
        double v = 1.0;
        in >> r >> c;
        if (!pattern)
            in >> v;
        if (in.fail())
            ns_fatal("malformed entry ", i + 1, " of ", entries);
        if (r == 0 || c == 0 || r > rows || c > cols)
            ns_fatal("entry ", i + 1, " out of range: ", r, " ", c);
        if (pattern) {
            m.push(static_cast<std::uint32_t>(r - 1),
                   static_cast<std::uint32_t>(c - 1));
            if (symmetric && r != c)
                m.push(static_cast<std::uint32_t>(c - 1),
                       static_cast<std::uint32_t>(r - 1));
        } else {
            m.push(static_cast<std::uint32_t>(r - 1),
                   static_cast<std::uint32_t>(c - 1),
                   static_cast<float>(v));
            if (symmetric && r != c)
                m.push(static_cast<std::uint32_t>(c - 1),
                       static_cast<std::uint32_t>(r - 1),
                       static_cast<float>(v));
        }
    }
    return m;
}

Coo
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        ns_fatal("cannot open ", path);
    return readMatrixMarket(in);
}

void
writeMatrixMarket(std::ostream &out, const Coo &m)
{
    out << "%%MatrixMarket matrix coordinate "
        << (m.hasValues() ? "real" : "pattern") << " general\n";
    out << m.rows << " " << m.cols << " " << m.nnz() << "\n";
    for (std::size_t i = 0; i < m.nnz(); ++i) {
        out << m.rowIdx[i] + 1 << " " << m.colIdx[i] + 1;
        if (m.hasValues())
            out << " " << m.vals[i];
        out << "\n";
    }
}

} // namespace netsparse
