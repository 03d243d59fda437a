/**
 * @file
 * The thread binding shared by every observability sink.
 *
 * TraceWriter and the three run documents (StatsExport, TelemetrySink,
 * SpanSink; sim/run_document.hh) each have one process-wide instance
 * behind their output flag, and a run reaches "the" sink through
 * instance() on the thread that starts it (components then reach the
 * run's trace writer through their event queue, sim/trace.hh). A
 * parallel sweep (sim/sweep.hh) binds private sinks on a worker thread
 * with an RAII Bind, so concurrent simulations never share one;
 * single-threaded tools never bind and keep the process-wide facade.
 */

#ifndef NETSPARSE_SIM_THREAD_BOUND_HH
#define NETSPARSE_SIM_THREAD_BOUND_HH

namespace netsparse {

/** CRTP base: `class Sink : public ThreadBound<Sink>`. */
template <typename T>
class ThreadBound
{
  public:
    /** The sink bound to the calling thread (default: global()). */
    static T &instance() { return bound_ ? *bound_ : global(); }

    /** The process-wide sink behind the output flags / atexit. */
    static T &
    global()
    {
        static T sink;
        return sink;
    }

    /**
     * RAII thread binding: while alive, instance() on this thread
     * resolves to the given sink (bindings nest).
     */
    class Bind
    {
      public:
        explicit Bind(T &sink) : prev_(bound_) { bound_ = &sink; }
        ~Bind() { bound_ = prev_; }
        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        T *prev_;
    };

  private:
    /** The calling thread's bound sink; null means "use the global". */
    static inline thread_local T *bound_ = nullptr;
};

} // namespace netsparse

#endif // NETSPARSE_SIM_THREAD_BOUND_HH
