/**
 * @file
 * The collector behind every per-run JSON output document.
 *
 * A RunDocument<Run> gathers one Run per simulation and writes them all
 * as one document,
 *
 *   {"schema":"netsparse-<kind>-v1",
 *    "runs":[{"run":0,"label":"gather0", <the run's own fields>}, ...]}
 *
 * either explicitly via writeFile() or automatically at process exit.
 * The stats (sim/stats_export.hh), telemetry (sim/telemetry.hh) and
 * spans (sim/span.hh) documents are instantiations; each supplies a
 * RunFormat<Run> specialization with its schema name, the noun its
 * warnings use, and a writer for the fields after "label" that closes
 * the run object. The schemas are documented in docs/observability.md.
 *
 * Documents are thread-bound (sim/thread_bound.hh): a parallel sweep
 * (sim/sweep.hh) binds a private per-point document on each worker and
 * absorb()s the points back into the global one in sweep order, so the
 * emitted JSON is identical to a sequential run.
 */

#ifndef NETSPARSE_SIM_RUN_DOCUMENT_HH
#define NETSPARSE_SIM_RUN_DOCUMENT_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/thread_bound.hh"

namespace netsparse {

/** Escape a string for inclusion in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Print a double the way JSON wants (no inf/nan, full precision). */
inline void
writeJsonNumber(std::ostream &os, double v)
{
    if (v != v || v > 1e308 || v < -1e308) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

/**
 * How one document writes its runs. Specializations provide
 *   static constexpr const char *schema;  // "netsparse-stats-v1"
 *   static constexpr const char *noun;    // "stats" (for warnings)
 *   static void write(std::ostream &, const Run &);
 * where write() emits the fields after "label" and closes the run
 * object.
 */
template <typename Run>
struct RunFormat;

/** A per-run document collector (see the file comment). */
template <typename Run>
class RunDocument : public ThreadBound<RunDocument<Run>>
{
    using Bound = ThreadBound<RunDocument<Run>>;
    using Format = RunFormat<Run>;

  public:
    /** Per-point documents are plain objects; see Bind. */
    RunDocument() = default;
    RunDocument(const RunDocument &) = delete;
    RunDocument &operator=(const RunDocument &) = delete;

    /**
     * Enable collection; the document is written to @p path by
     * writeFile(), which is also registered atexit for global(). The
     * path is probe-opened immediately: returns false (and collection
     * stays off) when it cannot be created, e.g. its directory is
     * missing; the caller reports it.
     */
    bool
    setOutputPath(const std::string &path)
    {
        // Append mode creates the file and keeps any content, so a bad
        // path fails loudly up front instead of producing a silent
        // empty run when the atexit write finally discovers it.
        if (!path.empty() && !std::ofstream(path, std::ios::app))
            return false;
        path_ = path;
        written_ = false;
        // global() is constructed first, so its destructor runs after
        // the atexit write.
        static const int registered =
            (Bound::global(),
             std::atexit([] { Bound::global().writeFile(); }));
        (void)registered;
        return true;
    }

    /**
     * Enable (or disable) collection without an output path - used by
     * per-point sweep documents whose runs are absorb()ed elsewhere.
     */
    void setCollect(bool on) { collect_ = on; }

    /** True when the simulator should deposit runs here. */
    bool enabled() const { return collect_ || !path_.empty(); }

    /**
     * Open a new run section labelled @p label and return it to fill.
     * An empty label serializes as "gather<N>" by its final document
     * position, so runs absorbed from per-point sweep documents number
     * identically to sequential runs.
     */
    Run &
    beginRun(const std::string &label = {})
    {
        runs_.push_back(std::make_unique<Entry>());
        runs_.back()->label = label;
        written_ = false;
        return runs_.back()->run;
    }

    /**
     * Move every run of @p other to the end of this document (sweep
     * merge; @p other is left empty but still enabled).
     */
    void
    absorb(RunDocument &&other)
    {
        if (other.runs_.empty())
            return;
        for (auto &entry : other.runs_)
            runs_.push_back(std::move(entry));
        other.runs_.clear();
        written_ = false;
    }

    /** The whole document as a JSON string. */
    std::string
    toJson() const
    {
        std::ostringstream os;
        os << "{\n\"schema\": \"" << Format::schema << "\",\n\"runs\": [";
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const std::string &label = runs_[i]->label;
            os << (i ? "," : "") << "\n{\"run\":" << i << ",\"label\":\""
               << (label.empty() ? "gather" + std::to_string(i)
                                 : jsonEscape(label))
               << '"';
            Format::write(os, runs_[i]->run);
        }
        os << "\n]\n}\n";
        return os.str();
    }

    /** Write the document to the configured path (once per change). */
    void
    writeFile()
    {
        if (path_.empty() || written_)
            return;
        std::ofstream os(path_);
        if (!os) {
            ns_warn("cannot write ", Format::noun, " output ", path_);
            return;
        }
        os << toJson();
        written_ = true;
    }

    /** Drop collected runs and disable (tests / repeated tools). */
    void
    reset()
    {
        runs_.clear();
        path_.clear();
        collect_ = false;
        written_ = false;
    }

    std::size_t numRuns() const { return runs_.size(); }
    const Run &run(std::size_t i) const { return runs_[i]->run; }

  private:
    struct Entry
    {
        std::string label;
        Run run;
    };

    std::string path_;
    bool collect_ = false;
    bool written_ = false;
    /** Heap entries keep beginRun() references valid across appends. */
    std::vector<std::unique_ptr<Entry>> runs_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_RUN_DOCUMENT_HH
