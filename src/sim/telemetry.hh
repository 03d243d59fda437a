/**
 * @file
 * Interval telemetry: simulated-time sampling of component state.
 *
 * A TelemetryProbe rides inside one EventQueue's dispatch loop and
 * samples a set of registered entities (links, switches, RIG units -
 * the probe itself is component-agnostic; the cluster registers
 * sampler closures) at every multiple of a configured simulated-time
 * interval. Sampling is lazy: the queue consults the probe just
 * before executing the first event at or past the next boundary B, so
 * a sample at B observes the state produced by exactly the events
 * with tick < B - a definition that is independent of the shard
 * count, because every component is wholly owned by one shard and
 * per-shard execution is tick-ordered. The cost when no probe is
 * attached is a single always-false integer comparison per event.
 *
 * TelemetrySink is the collector behind --telemetry-out: after a run
 * the cluster merges every shard's probe into one document,
 *
 *   {"schema":"netsparse-telemetry-v1",
 *    "runs":[{"run":0,"label":"gather0","intervalTicks":T,
 *             "finalTick":F,"sampleTicks":[...],
 *             "entities":[{"id":"tor0","kind":"switch",
 *                          "series":{"outQueueBytes":[...], ...}},
 *                         ...]}]}
 *
 * with entities ordered by their cluster-wide registration index and
 * all series aligned to sampleTicks. Like the stats document it is
 * byte-identical at any shard count (per-shard event counts are the
 * one inherently shard-dependent quantity, so the document carries
 * their cluster-wide sum as the single "sim" entity). The schema is
 * documented in docs/observability.md; the collector itself is the
 * shared RunDocument (sim/run_document.hh).
 */

#ifndef NETSPARSE_SIM_TELEMETRY_HH
#define NETSPARSE_SIM_TELEMETRY_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/run_document.hh"
#include "sim/types.hh"

namespace netsparse {

class EventQueue;

/** One sampled entity: aligned value series under a stable identity. */
struct TelemetryEntity
{
    /** Cluster-wide registration index; the document sort key. */
    std::size_t order = 0;
    std::string id;
    std::string kind;
    std::vector<std::string> seriesNames;
    /** series[i][k]: seriesNames[i] at the k-th sample boundary. */
    std::vector<std::vector<double>> series;
};

/** Samples its entities at every interval boundary of one queue. */
class TelemetryProbe
{
  public:
    /**
     * A sampler appends one value per declared series name for the
     * boundary tick it is given. Stateful samplers (interval deltas)
     * keep their cursor in the closure.
     */
    using Sampler =
        std::function<void(Tick boundary, std::vector<double> &out)>;

    explicit TelemetryProbe(Tick interval);

    /** Register an entity; see TelemetryEntity for the fields. */
    void addEntity(std::size_t order, std::string id, std::string kind,
                   std::vector<std::string> seriesNames, Sampler sampler);

    /**
     * Hook this probe into @p eq's dispatch loop (at most one probe
     * per queue) and source the "events per interval" counter from it.
     */
    void attachTo(EventQueue &eq);

    /**
     * EventQueue calls this just before executing an event at
     * @p eventTick >= the next boundary: samples every boundary
     * <= @p eventTick and returns the new next boundary.
     */
    Tick onBoundary(Tick eventTick);

    /** Sample any remaining boundaries <= @p finalTick (end of run). */
    void flushUntil(Tick finalTick);

    Tick interval() const { return interval_; }
    std::size_t numSamples() const { return numSamples_; }

    /** Events executed on the attached queue, per interval. */
    const std::vector<double> &eventsPerInterval() const
    {
        return events_;
    }

    /** The sampled entities (series filled up to numSamples()). */
    std::vector<TelemetryEntity> takeEntities()
    {
        return std::move(entities_);
    }

  private:
    void sampleAt(Tick boundary);

    Tick interval_;
    Tick next_;
    EventQueue *eq_ = nullptr;
    std::uint64_t lastExecuted_ = 0;
    std::size_t numSamples_ = 0;
    std::vector<TelemetryEntity> entities_;
    std::vector<Sampler> samplers_;
    std::vector<double> events_;
    std::vector<double> scratch_;
};

/** One run's merged timeline (a netsparse-telemetry-v1 run section). */
struct TelemetryRun
{
    Tick intervalTicks = 0;
    Tick finalTick = 0;
    std::vector<Tick> sampleTicks;
    std::vector<TelemetryEntity> entities;
};

template <>
struct RunFormat<TelemetryRun>
{
    static constexpr const char *schema = "netsparse-telemetry-v1";
    static constexpr const char *noun = "telemetry";
    static void write(std::ostream &os, const TelemetryRun &run);
};

/** The collector behind --telemetry-out (see the file comment). */
using TelemetrySink = RunDocument<TelemetryRun>;

} // namespace netsparse

#endif // NETSPARSE_SIM_TELEMETRY_HH
