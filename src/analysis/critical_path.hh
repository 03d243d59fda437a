/**
 * @file
 * Critical-path attribution over recorded PR spans.
 *
 * A span (sim/span.hh, exported as netsparse-spans-v1) is a list of
 * causally ordered events - issue, NIC egress, per-hop wire occupancy,
 * switch pipes, cache outcome, remote fetch, retire - each with a
 * start tick and a duration. The analyzer walks that chain with a
 * cursor from the issue tick: any gap before an event is *wait* time
 * attributed to the component the PR was waiting on (the event's
 * component), and the part of the event's service interval past the
 * cursor is *service* time. The produced segments tile
 * [issueTick, retireTick] exactly, so the attribution always sums to
 * the span's measured total latency - the property the acceptance
 * gate checks. Events that lie entirely before the cursor (e.g. the
 * wire time of a dropped earlier attempt under retry, which precedes
 * the accepted attempt's issue tick) contribute zero-width segments
 * and are skipped.
 *
 * The document-level entry point analyzeSpans() parses a
 * netsparse-spans-v1 value and builds the critical path of the tail
 * exemplars and the per-tenant makespan finishers; the example CLI
 * examples/telemetry_report.cpp prints it via printSpanReport().
 */

#ifndef NETSPARSE_ANALYSIS_CRITICAL_PATH_HH
#define NETSPARSE_ANALYSIS_CRITICAL_PATH_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analysis/json_lite.hh"
#include "sim/types.hh"

namespace netsparse {

/** One span event as the analyzer sees it (schema-agnostic). */
struct CpEvent
{
    Tick tick = 0;
    Tick dur = 0;
    /** Component id (index into the run's name table). */
    std::uint32_t comp = 0;
    /** Stage name ("issue", "linkTx", ...). */
    std::string stage;
};

/** One attributed segment of the critical path. */
struct CpSegment
{
    Tick start = 0;
    Tick end = 0;
    std::uint32_t comp = 0;
    std::string stage;
    /** True: waiting for this component; false: being serviced by it. */
    bool wait = false;

    Tick ticks() const { return end - start; }
};

/** Aggregate of segments sharing (wait, stage, comp). */
struct CpContribution
{
    std::string stage;
    std::uint32_t comp = 0;
    bool wait = false;
    Tick ticks = 0;
};

/** The attributed critical path of one span. */
struct CriticalPath
{
    Tick issueTick = 0;
    Tick retireTick = 0;
    /** Segments in time order; they tile [issueTick, retireTick]. */
    std::vector<CpSegment> segments;

    Tick totalTicks() const { return retireTick - issueTick; }
    /** Sum over segments; equals totalTicks() by construction. */
    Tick attributedTicks() const;

    /** (wait, stage, comp) aggregates, largest first. */
    std::vector<CpContribution> contributions() const;
    /** Per-component totals (wait + service), largest first. */
    std::vector<std::pair<std::uint32_t, Tick>> byComp() const;
};

/**
 * Attribute @p events (already in the document's causal sort order)
 * against the [issue, retire] interval. See the file comment for the
 * cursor-walk semantics.
 */
CriticalPath computeCriticalPath(Tick issueTick, Tick retireTick,
                                 const std::vector<CpEvent> &events);

/** One analyzed exemplar span. */
struct SpanExemplar
{
    std::string spanId;
    std::uint32_t tenant = 0;
    NodeId src = 0;
    std::uint32_t reqId = 0;
    Tick totalTicks = 0;
    bool servedByCache = false;
    std::uint32_t retransmits = 0;
    /** Why the span was kept ("sampled", "tail", "finisher"). */
    std::string kept;
    /** True for the tenant's last-retiring (makespan) span. */
    bool finisher = false;
    CriticalPath path;
};

/** The condensed span report of one run. */
struct SpanReport
{
    std::string label;
    Tick finalTick = 0;
    std::uint64_t recordedSpans = 0;
    std::uint64_t keptSpans = 0;
    /** Component id -> name, from the document. */
    std::vector<std::string> components;
    /** Largest-latency spans first, then any finisher not in the top. */
    std::vector<SpanExemplar> exemplars;

    const std::string &componentName(std::uint32_t comp) const;
};

/**
 * Analyze run @p runIndex of a parsed netsparse-spans-v1 document:
 * build critical paths for the @p maxExemplars largest spans plus
 * every per-tenant finisher. Throws std::runtime_error on documents
 * that do not follow the schema.
 */
SpanReport analyzeSpans(const jsonlite::Value &spans,
                        std::size_t runIndex = 0,
                        std::size_t maxExemplars = 3);

/** Print the human-readable per-stage/per-component breakdown. */
void printSpanReport(const SpanReport &r, std::ostream &os);

} // namespace netsparse

#endif // NETSPARSE_ANALYSIS_CRITICAL_PATH_HH
