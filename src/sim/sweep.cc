#include "sim/sweep.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"
#include "sim/span.hh"
#include "sim/stats_export.hh"
#include "sim/telemetry.hh"
#include "sim/trace.hh"

namespace netsparse {

unsigned
SweepExecutor::jobsFromEnv()
{
    return envUint("NETSPARSE_BENCH_JOBS", 1, 1);
}

void
parallelFor(std::size_t n, unsigned workers,
            const std::function<void(std::size_t)> &task)
{
    if (workers > n)
        workers = static_cast<unsigned>(n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex errMutex;
    std::exception_ptr firstError;
    std::size_t firstErrorIndex = n;

    auto worker = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (i < firstErrorIndex) {
                    firstErrorIndex = i;
                    firstError = std::current_exception();
                }
            }
        }
    };

    {
        // jthreads join when the pool is destroyed, also when starting
        // a later worker throws.
        std::vector<std::jthread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(worker);
    }

    if (firstError)
        std::rethrow_exception(firstError);
}

void
SweepExecutor::run(std::size_t n,
                   const std::function<void(std::size_t)> &point)
{
    if (jobs_ <= 1 || n <= 1) {
        parallelFor(n, 1, point);
        return;
    }

    TraceWriter &ambientTrace = TraceWriter::instance();
    const bool captureTrace = ambientTrace.enabled();
    const std::string tracePath = ambientTrace.path();
    StatsExport &ambientStats = StatsExport::instance();
    TelemetrySink &ambientTelemetry = TelemetrySink::instance();
    SpanSink &ambientSpans = SpanSink::instance();

    // Per-point documents, absorbed in index order after the join so
    // the merged documents match a sequential sweep byte for byte.
    std::vector<StatsExport> pointStats(n);
    std::vector<TelemetrySink> pointTelemetry(n);
    std::vector<SpanSink> pointSpans(n);
    for (std::size_t i = 0; i < n; ++i) {
        pointStats[i].setCollect(ambientStats.enabled());
        pointTelemetry[i].setCollect(ambientTelemetry.enabled());
        pointSpans[i].setCollect(ambientSpans.enabled());
    }

    parallelFor(n, jobs_, [&](std::size_t i) {
        StatsExport::Bind statsBind(pointStats[i]);
        TelemetrySink::Bind telemetryBind(pointTelemetry[i]);
        SpanSink::Bind spanBind(pointSpans[i]);
        if (captureTrace) {
            // Event traces cannot be merged after the fact (track ids
            // collide), so each point writes its own file:
            // "dir/run.json" -> "dir/run.point3.json" rather than the
            // old "dir/run.json.point3", which broke tooling expecting
            // the extension last.
            TraceWriter pointTrace;
            TraceWriter::Bind traceBind(pointTrace);
            std::string path = TraceWriter::derivedPath(
                tracePath, "point" + std::to_string(i));
            if (!pointTrace.open(path))
                ns_warn("sweep: cannot open per-point trace ", path,
                        "; point ", i, " runs untraced");
            point(i);
        } else {
            point(i);
        }
    });

    for (std::size_t i = 0; i < n; ++i) {
        ambientStats.absorb(std::move(pointStats[i]));
        ambientTelemetry.absorb(std::move(pointTelemetry[i]));
        ambientSpans.absorb(std::move(pointSpans[i]));
    }
}

} // namespace netsparse
