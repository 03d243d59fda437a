/**
 * @file
 * telemetry_report: rank the bottlenecks of a simulated run.
 *
 * Consumes the netsparse-telemetry-v1 timeline written by
 * `netsparse_sim --telemetry-out` (and, optionally, the matching
 * `--stats-json` snapshot for the PR latency decomposition) and
 * prints saturated links and switches, phase boundaries, the dominant
 * lifecycle stage, and per-tenant slices on multi-tenant runs. With
 * `--spans SPANS.json` (the `--spans-out` document) it also prints
 * the critical-path breakdown of the tail exemplars and the makespan
 * finishers. See docs/observability.md for the report format.
 *
 * Usage:
 *   telemetry_report TELEMETRY.json [STATS.json] [--spans SPANS.json]
 *                    [--run N]
 *   telemetry_report --spans SPANS.json [--run N]
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/critical_path.hh"
#include "analysis/telemetry_report.hh"
#include "sim/logging.hh"

using namespace netsparse;

namespace {

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [TELEMETRY.json [STATS.json]] "
                 "[--spans SPANS.json] [--run N]\n",
                 argv0);
    std::exit(2);
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::ostringstream os;
    os << is.rdbuf();
    out = os.str();
    return true;
}

} // namespace

int
main(int argc, char **argv)
try {
    std::string telemetry_path, stats_path, spans_path;
    std::size_t run_index = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--run") {
            if (++i >= argc)
                usage(argv[0]);
            run_index = parseUint("--run", argv[i], 0, SIZE_MAX);
        } else if (a == "--spans") {
            if (++i >= argc)
                usage(argv[0]);
            spans_path = argv[i];
        } else if (telemetry_path.empty()) {
            telemetry_path = a;
        } else if (stats_path.empty()) {
            stats_path = a;
        } else {
            usage(argv[0]);
        }
    }
    if (telemetry_path.empty() && spans_path.empty())
        usage(argv[0]);

    if (!telemetry_path.empty()) {
        std::string text;
        if (!readFile(telemetry_path, text)) {
            std::fprintf(stderr, "cannot read %s\n",
                         telemetry_path.c_str());
            return 1;
        }
        jsonlite::Value telemetry = jsonlite::parse(text);
        jsonlite::Value stats;
        bool have_stats = false;
        if (!stats_path.empty()) {
            std::string stext;
            if (!readFile(stats_path, stext)) {
                std::fprintf(stderr, "cannot read %s\n",
                             stats_path.c_str());
                return 1;
            }
            stats = jsonlite::parse(stext);
            have_stats = true;
        }
        TelemetryReport report = analyzeTelemetry(
            telemetry, have_stats ? &stats : nullptr, run_index);
        printTelemetryReport(report, std::cout);
    }
    if (!spans_path.empty()) {
        std::string stext;
        if (!readFile(spans_path, stext)) {
            std::fprintf(stderr, "cannot read %s\n",
                         spans_path.c_str());
            return 1;
        }
        jsonlite::Value spans = jsonlite::parse(stext);
        if (!telemetry_path.empty())
            std::cout << '\n';
        SpanReport sreport = analyzeSpans(spans, run_index);
        printSpanReport(sreport, std::cout);
    }
    return 0;
} catch (const FatalError &) {
    return 1; // fatal() has printed the message
} catch (const std::exception &e) {
    std::fprintf(stderr, "telemetry_report: %s\n", e.what());
    return 1;
}
