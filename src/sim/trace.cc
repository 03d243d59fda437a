#include "sim/trace.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "sim/logging.hh"

namespace netsparse {

namespace {

/** Ticks (ps) to the trace_events "ts" unit (us), keeping ps precision. */
double
toTraceUs(Tick t)
{
    return static_cast<double>(t) / 1e6;
}

} // namespace

std::string
traceArgs(std::initializer_list<std::pair<const char *, double>> kvs)
{
    std::ostringstream os;
    bool first = true;
    for (const auto &[k, v] : kvs) {
        if (!first)
            os << ',';
        first = false;
        os << '"' << k << "\":" << v;
    }
    return os.str();
}

bool
TraceWriter::open(const std::string &path)
{
    if (enabled_)
        close();
    std::FILE *probe = std::fopen(path.c_str(), "w");
    if (!probe) {
        ns_warn("cannot open trace output ", path);
        return false;
    }
    std::fclose(probe);

    path_ = path;
    enabled_ = true;
    events_.clear();
    tracks_.clear();
    trackNames_.clear();
    return true;
}

std::uint32_t
TraceWriter::track(const std::string &name)
{
    auto it = tracks_.find(name);
    if (it != tracks_.end())
        return it->second;
    auto id = static_cast<std::uint32_t>(trackNames_.size());
    tracks_.emplace(name, id);
    trackNames_.push_back(name);
    return id;
}

void
TraceWriter::instant(std::uint32_t track, const char *name, Tick ts,
                     std::string args)
{
    events_.push_back(
        Event{ts, 0, 'i', track, name, std::move(args), 0, 0});
}

void
TraceWriter::complete(std::uint32_t track, const char *name, Tick start,
                      Tick end, std::string args)
{
    ns_assert(end >= start, "trace span ends before it starts: ", name);
    events_.push_back(Event{start, end - start, 'X', track, name,
                            std::move(args), 0, 0});
}

void
TraceWriter::counter(std::uint32_t track, const char *name, Tick ts,
                     double value)
{
    events_.push_back(Event{ts, 0, 'C', track, name, {}, value, 0});
}

void
TraceWriter::asyncBegin(std::uint32_t track, const char *name,
                        std::uint64_t id, Tick ts, std::string args)
{
    events_.push_back(
        Event{ts, 0, 'b', track, name, std::move(args), 0, id});
}

void
TraceWriter::asyncEnd(std::uint32_t track, const char *name,
                      std::uint64_t id, Tick ts)
{
    events_.push_back(Event{ts, 0, 'e', track, name, {}, 0, id});
}

std::string
TraceWriter::derivedPath(const std::string &base, const std::string &tag)
{
    // Insert ".<tag>" before the final extension of the last path
    // component (never before a dot inside a directory name), so
    // "out/trace.json" derives "out/trace.point3.json" and an
    // extension-less base simply appends.
    std::size_t slash = base.find_last_of("/\\");
    std::size_t start = slash == std::string::npos ? 0 : slash + 1;
    std::size_t dot = base.find_last_of('.');
    if (dot == std::string::npos || dot <= start)
        return base + "." + tag;
    return base.substr(0, dot) + "." + tag + base.substr(dot);
}

void
TraceWriter::writeEvents(std::FILE *f)
{
    // Stable sort keeps same-tick events in emission order, and makes
    // the "ts" sequence monotonically non-decreasing for consumers.
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event &a, const Event &b) {
                         return a.ts < b.ts;
                     });

    std::fputs("{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n", f);
    std::fputs("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
               "\"tid\":0,\"args\":{\"name\":\"netsparse\"}}",
               f);
    for (std::size_t t = 0; t < trackNames_.size(); ++t) {
        std::fprintf(f,
                     ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                     "\"pid\":0,\"tid\":%zu,\"args\":{\"name\":\"%s\"}}",
                     t, trackNames_[t].c_str());
    }
    for (const Event &e : events_) {
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"ph\":\"%c\",\"pid\":0,"
                     "\"tid\":%u,\"ts\":%.6f",
                     e.name, e.ph, e.tid, toTraceUs(e.ts));
        if (e.ph == 'X')
            std::fprintf(f, ",\"dur\":%.6f", toTraceUs(e.dur));
        if (e.ph == 'i')
            std::fputs(",\"s\":\"t\"", f);
        if (e.ph == 'b' || e.ph == 'e')
            std::fprintf(f, ",\"cat\":\"span\",\"id\":\"0x%llx\"",
                         static_cast<unsigned long long>(e.id));
        if (e.ph == 'C')
            std::fprintf(f, ",\"args\":{\"value\":%g}", e.value);
        else if (!e.args.empty())
            std::fprintf(f, ",\"args\":{%s}", e.args.c_str());
        std::fputc('}', f);
    }
    std::fputs("\n]\n}\n", f);
}

void
TraceWriter::close()
{
    if (!enabled_)
        return;
    enabled_ = false;
    std::FILE *f = std::fopen(path_.c_str(), "w");
    if (!f) {
        ns_warn("cannot write trace output ", path_);
    } else {
        writeEvents(f);
        std::fclose(f);
    }
    events_.clear();
    tracks_.clear();
    trackNames_.clear();
    path_.clear();
}

} // namespace netsparse
