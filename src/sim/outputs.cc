#include "sim/outputs.hh"

#include <cstdlib>
#include <string>

#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

namespace {

template <typename Document>
bool
openDocument(const std::string &path)
{
    return Document::instance().setOutputPath(path);
}

/** Each output's flag, its variable, and how its sink opens a path. */
const struct
{
    const char *flag, *env;
    bool (*open)(const std::string &path);
} outputs[] = {
    {"--trace-out", "NETSPARSE_TRACE_OUT",
     [](const std::string &p) { return TraceWriter::instance().open(p); }},
    {"--stats-json", "NETSPARSE_STATS_JSON", openDocument<StatsExport>},
    {"--telemetry-out", "NETSPARSE_TELEMETRY_OUT",
     openDocument<TelemetrySink>},
    {"--spans-out", "NETSPARSE_SPANS_OUT", openDocument<SpanSink>},
};

} // namespace

void
openOutputs(int &argc, char **argv)
{
    for (const auto &o : outputs) {
        const char *source = o.env;
        const char *path = std::getenv(o.env);
        int kept = 1;
        for (int i = 1; i < argc; ++i) {
            if (i + 1 < argc && argv[i] == std::string(o.flag)) {
                source = o.flag;
                path = argv[++i];
            } else {
                argv[kept++] = argv[i];
            }
        }
        argc = kept;
        argv[argc] = nullptr;
        if (path && *path && !o.open(path))
            ns_fatal("cannot open ", source, " output ", path);
    }
}

} // namespace netsparse
