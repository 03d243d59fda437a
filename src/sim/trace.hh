/**
 * @file
 * Event tracing in the Chrome trace_events ("Perfetto") JSON format.
 *
 * Components feed a TraceWriter with instant, duration ("complete") and
 * counter events keyed by a track (one per component name, rendered as
 * a thread row in Perfetto) and a tick-derived timestamp. Events are
 * buffered, sorted by timestamp and written as one JSON document on
 * close(), so the output always loads in ui.perfetto.dev or
 * chrome://tracing regardless of the order spans retire in.
 *
 * Components reach their run's writer through their event queue
 * (EventQueue::trace(), sim/event_queue.hh), the way they reach span
 * buffers and stamp boards. JobScheduler::run attaches the calling
 * thread's instance() (sim/thread_bound.hh) - the process-wide writer
 * behind --trace-out, or a parallel sweep's per-point writer
 * (sim/sweep.hh) - to a one-shard run, and to a sharded run one writer
 * per shard, capturing to derivedPath(path, "shard<s>").
 *
 * Overhead discipline: an instrumentation site costs one null test of
 * its queue's writer pointer while no capture is active. Hot per-idx
 * paths are never traced individually; they aggregate into chunk-level
 * events.
 *
 * See docs/observability.md for the event schema and a Perfetto
 * walkthrough.
 */

#ifndef NETSPARSE_SIM_TRACE_HH
#define NETSPARSE_SIM_TRACE_HH

#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/thread_bound.hh"
#include "sim/types.hh"

namespace netsparse {

/**
 * Render a trace-event argument dictionary body ("k1":v1,"k2":v2) from
 * numeric key/value pairs, every digit kept (writeJsonNumber, as in
 * the other documents). Only built when a trace is being captured,
 * so the std::string cost is off the simulation fast path.
 */
std::string
traceArgs(std::initializer_list<std::pair<const char *, double>> kvs);

/** An event-trace sink (see the thread-binding notes above). */
class TraceWriter : public ThreadBound<TraceWriter>
{
  public:
    /** Per-run writers are plain objects; see Bind. */
    TraceWriter() = default;
    ~TraceWriter() { close(); }
    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Start capturing and arrange for the trace to land at @p path
     * (written on close(), which the destructor also runs, so a run
     * that ends in an exception still leaves its trace).
     * @return false when the path is not writable; the caller reports it.
     */
    bool open(const std::string &path);

    /** Sort, write and clear the capture; disables further capture. */
    void close();

    /** True while a capture is active (the per-site fast-path test). */
    bool enabled() const { return enabled_; }

    /** The output path of the active capture (empty when disabled). */
    const std::string &path() const { return path_; }

    /**
     * The track (Perfetto thread row) for a component name. Tracks are
     * created on first use; the name is emitted as thread_name metadata.
     */
    std::uint32_t track(const std::string &name);

    /** A point event at @p ts on @p track. */
    void instant(std::uint32_t track, const char *name, Tick ts,
                 std::string args = {});

    /** A span [@p start, @p end] on @p track. */
    void complete(std::uint32_t track, const char *name, Tick start,
                  Tick end, std::string args = {});

    /** A sampled counter value at @p ts (rendered as a graph row). */
    void counter(std::uint32_t track, const char *name, Tick ts,
                 double value);

    /**
     * Open an async span (Perfetto 'b' event). Async events with the
     * same @p id nest into one stacked flow regardless of track order;
     * the span tracer (sim/span.hh) uses the 64-bit span id. Must be
     * paired with an asyncEnd of the same name and id.
     */
    void asyncBegin(std::uint32_t track, const char *name,
                    std::uint64_t id, Tick ts, std::string args = {});

    /** Close an async span (Perfetto 'e' event). */
    void asyncEnd(std::uint32_t track, const char *name,
                  std::uint64_t id, Tick ts);

    /** Events captured so far (for tests). */
    std::size_t eventCount() const { return events_.size(); }

    /**
     * Derive a sibling output path for a per-worker capture: inserts
     * ".<tag>" before the final extension so directory components are
     * honored and the file keeps a loadable suffix -
     * derivedPath("out/trace.json", "point3") == "out/trace.point3.json",
     * derivedPath("trace", "shard0") == "trace.shard0". Used for the
     * parallel sweep's per-point traces and the sharded engine's
     * per-shard traces (docs/observability.md).
     */
    static std::string derivedPath(const std::string &base,
                                   const std::string &tag);

  private:
    struct Event
    {
        Tick ts;
        Tick dur;       // complete events only
        char ph;        // 'i', 'X', 'C', 'b' or 'e'
        std::uint32_t tid;
        const char *name; // string literal owned by the caller
        std::string args;
        double value;     // counter events only
        std::uint64_t id; // async events only
    };

    void writeEvents(std::FILE *f);

    bool enabled_ = false;
    std::string path_;
    std::vector<Event> events_;
    std::unordered_map<std::string, std::uint32_t> tracks_;
    std::vector<std::string> trackNames_;
};

} // namespace netsparse

/**
 * NS_TRACE(eq, stmts...): run the instrumentation statements only while
 * EventQueue @p eq has a capturing writer attached; `tw` names the
 * writer inside the body.
 */
#define NS_TRACE(eq, ...)                                                   \
    do {                                                                    \
        if (::netsparse::TraceWriter *ns_tw = (eq).trace()) {               \
            ::netsparse::TraceWriter &tw = *ns_tw;                          \
            __VA_ARGS__;                                                    \
        }                                                                   \
    } while (0)

#endif // NETSPARSE_SIM_TRACE_HH
