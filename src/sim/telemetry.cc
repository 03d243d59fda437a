#include "sim/telemetry.hh"

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace netsparse {

TelemetryProbe::TelemetryProbe(Tick interval)
    : interval_(interval), next_(interval)
{
    ns_assert(interval_ > 0, "telemetry interval must be positive");
}

void
TelemetryProbe::addEntity(std::size_t order, std::string id,
                          std::string kind,
                          std::vector<std::string> seriesNames,
                          Sampler sampler)
{
    TelemetryEntity e;
    e.order = order;
    e.id = std::move(id);
    e.kind = std::move(kind);
    e.series.resize(seriesNames.size());
    e.seriesNames = std::move(seriesNames);
    entities_.push_back(std::move(e));
    samplers_.push_back(std::move(sampler));
}

void
TelemetryProbe::attachTo(EventQueue &eq)
{
    eq_ = &eq;
    eq.attachProbe(this, next_);
}

void
TelemetryProbe::sampleAt(Tick boundary)
{
    for (std::size_t i = 0; i < entities_.size(); ++i) {
        scratch_.clear();
        samplers_[i](boundary, scratch_);
        TelemetryEntity &e = entities_[i];
        ns_assert(scratch_.size() == e.series.size(),
                  "sampler of ", e.id, " produced ", scratch_.size(),
                  " values for ", e.series.size(), " series");
        for (std::size_t s = 0; s < scratch_.size(); ++s)
            e.series[s].push_back(scratch_[s]);
    }
    std::uint64_t executed = eq_ ? eq_->executedEvents() : 0;
    events_.push_back(static_cast<double>(executed - lastExecuted_));
    lastExecuted_ = executed;
    ++numSamples_;
}

Tick
TelemetryProbe::onBoundary(Tick eventTick)
{
    // Every boundary <= eventTick separates "executed" from "pending":
    // all events with tick < boundary have run, none at or past it
    // have. Sample them all with the current state.
    while (next_ <= eventTick) {
        sampleAt(next_);
        next_ += interval_;
    }
    return next_;
}

void
TelemetryProbe::flushUntil(Tick finalTick)
{
    while (next_ <= finalTick) {
        sampleAt(next_);
        next_ += interval_;
    }
}

void
RunFormat<TelemetryRun>::write(std::ostream &os, const TelemetryRun &run)
{
    os << ",\"intervalTicks\":" << run.intervalTicks
       << ",\"finalTick\":" << run.finalTick << ",\n\"sampleTicks\":[";
    for (std::size_t k = 0; k < run.sampleTicks.size(); ++k) {
        if (k)
            os << ',';
        os << run.sampleTicks[k];
    }
    os << "],\n\"entities\":[";
    for (std::size_t e = 0; e < run.entities.size(); ++e) {
        const TelemetryEntity &ent = run.entities[e];
        if (e)
            os << ',';
        os << "\n{\"id\":\"" << jsonEscape(ent.id) << "\",\"kind\":\""
           << jsonEscape(ent.kind) << "\",\"series\":{";
        for (std::size_t s = 0; s < ent.seriesNames.size(); ++s) {
            if (s)
                os << ',';
            os << '"' << jsonEscape(ent.seriesNames[s]) << "\":[";
            const std::vector<double> &vals = ent.series[s];
            for (std::size_t k = 0; k < vals.size(); ++k) {
                if (k)
                    os << ',';
                writeJsonNumber(os, vals[k]);
            }
            os << ']';
        }
        os << "}}";
    }
    os << "\n]}";
}

} // namespace netsparse
