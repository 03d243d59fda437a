/**
 * @file
 * Machine-readable export of the statistics registry.
 *
 * writeStatsJson() serializes one StatRegistry as a JSON object mapping
 * each stat name to a typed record:
 *
 *   scalar:    {"type":"scalar","value":V}
 *   average:   {"type":"average","count":N,"sum":S,"mean":M,
 *               "min":lo,"max":hi}
 *   histogram: {"type":"histogram","lo":L,"hi":H,"total":N,
 *               "buckets":[underflow, b0, ..., bk, overflow]}
 *
 * StatsExport is the collector behind the --stats-json flag (and the
 * NETSPARSE_STATS_JSON environment variable): every
 * ClusterSim::runGather() deposits a full registry snapshot into it,
 * and the collector (sim/run_document.hh) writes all runs as one
 * document
 *
 *   {"schema":"netsparse-stats-v1",
 *    "runs":[{"run":0,"label":"gather0","stats":{...}}, ...]}
 *
 * The stat naming contract is documented in docs/observability.md.
 */

#ifndef NETSPARSE_SIM_STATS_EXPORT_HH
#define NETSPARSE_SIM_STATS_EXPORT_HH

#include <ostream>

#include "sim/run_document.hh"
#include "sim/stats.hh"

namespace netsparse {

/** Serialize @p reg as one JSON object (the "stats" value above). */
void writeStatsJson(const StatRegistry &reg, std::ostream &os);

template <>
struct RunFormat<StatRegistry>
{
    static constexpr const char *schema = "netsparse-stats-v1";
    static constexpr const char *noun = "stats";
    static void write(std::ostream &os, const StatRegistry &reg);
};

/** The stats collector behind --stats-json. */
using StatsExport = RunDocument<StatRegistry>;

} // namespace netsparse

#endif // NETSPARSE_SIM_STATS_EXPORT_HH
