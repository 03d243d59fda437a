/**
 * @file
 * Parallel execution of independent sweep points.
 *
 * The bench harness evaluates a grid of (matrix, parameter) points, each
 * an independent simulation. SweepExecutor runs those points across a
 * small thread pool while preserving the observable behavior of a
 * sequential sweep:
 *
 *  - each worker thread binds a private stats, telemetry and spans
 *    document and (when a trace capture is active) a private
 *    TraceWriter around every point, so concurrent simulations never
 *    share a sink;
 *  - per-point runs are absorb()ed into the ambient documents in
 *    point-index order, making the emitted JSON byte-identical to a
 *    sequential run;
 *  - per-point traces land next to the ambient trace path as
 *    "<path>.point<i>";
 *  - the first exception (by point index) is rethrown on the calling
 *    thread after all workers join.
 *
 * jobs <= 1 (the default; see jobsFromEnv / NETSPARSE_BENCH_JOBS) runs
 * points inline on the calling thread with the ambient sinks untouched.
 *
 * The worker loop itself is parallelFor(), which other independent
 * per-index work (the partitioned matrix build) runs on directly.
 */

#ifndef NETSPARSE_SIM_SWEEP_HH
#define NETSPARSE_SIM_SWEEP_HH

#include <cstddef>
#include <functional>

namespace netsparse {

/**
 * Run @p task(i) for every i in [0, n) on min(@p workers, n) threads
 * that claim indices from a shared counter; fewer than two workers run
 * the indices inline, in order. Blocks until every index ran. An
 * exception never escapes a worker thread: after the join, the one
 * thrown by the lowest index is rethrown on the calling thread.
 */
void parallelFor(std::size_t n, unsigned workers,
                 const std::function<void(std::size_t)> &task);

class SweepExecutor
{
  public:
    /** A pool of @p jobs workers (values < 1 behave like 1). */
    explicit SweepExecutor(unsigned jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

    /** Worker count from NETSPARSE_BENCH_JOBS (default 1: sequential). */
    static unsigned jobsFromEnv();

    unsigned jobs() const { return jobs_; }

    /**
     * Evaluate @p point for every index in [0, n). Points must be
     * independent: results should go into pre-sized per-index storage,
     * not shared accumulators. Blocks until all points finish.
     */
    void run(std::size_t n, const std::function<void(std::size_t)> &point);

  private:
    unsigned jobs_;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_SWEEP_HH
