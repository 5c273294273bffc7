/**
 * @file
 * In-memory span recording for the benchmark's traced runs.
 *
 * A span is one timed call into a layer: name, start, end, the span
 * that caused it and the query it belongs to. Spans are kept in memory
 * while the workload runs and written once, at the end, as a Chrome
 * trace-event file (loadable in chrome://tracing or Perfetto). The
 * per-layer metrics are computed from the same spans, so the trace file
 * explains every number the traced run prints.
 *
 * This file depends on the standard library only, so its helpers can
 * be unit-tested without the WANify library.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Wall seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** Span id 0 means "no span" (a root has parent 0). */
using SpanId = std::uint32_t;

/** Query id of spans that belong to no query. */
constexpr std::int64_t kNoQuery = -1;

struct Span
{
    SpanId id = 0;
    SpanId parent = 0;
    std::int64_t query = kNoQuery;

    /** Layer-qualified name, e.g. "sched.place"; a string literal. */
    const char *name = "";

    /** Microseconds since the recorder was created. */
    double startUs = 0.0;
    double endUs = 0.0;

    /** Dense index of the recording thread (0 = first seen). */
    std::uint32_t thread = 0;

    double durationUs() const { return endUs - startUs; }
};

/**
 * Thread-safe span store. The benchmark drives one query at a time
 * (closed loop), so the "current" parent span and query id are
 * process-wide: decorators deep inside a query attribute their spans to
 * whatever query the benchmark opened, whichever thread calls them.
 */
class SpanRecorder
{
  public:
    SpanRecorder();
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Open a span now; its end is set by close(). */
    SpanId open(const char *name, SpanId parent, std::int64_t query);

    /** Close a span opened by open(). */
    void close(SpanId id);

    /** Parent and query that decorators attach their spans to. */
    void setContext(SpanId parent, std::int64_t query);
    SpanId contextParent() const { return ctxParent_.load(); }
    std::int64_t contextQuery() const { return ctxQuery_.load(); }

    /** Copy of every span recorded so far, in open order. */
    std::vector<Span> spans() const;

  private:
    double nowUs() const;
    std::uint32_t threadIndex();

    const Clock::time_point epoch_;
    std::atomic<SpanId> ctxParent_{0};
    std::atomic<std::int64_t> ctxQuery_{kNoQuery};

    mutable std::mutex mu_; ///< guards spans_ and threads_
    std::vector<Span> spans_;
    std::vector<std::thread::id> threads_;
};

/** Span over a C++ scope; attaches to the recorder's context by
 *  default. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, const char *name);
    ScopedSpan(SpanRecorder &rec, const char *name, SpanId parent,
               std::int64_t query);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    SpanId id() const { return id_; }

  private:
    SpanRecorder &rec_;
    SpanId id_;
};

/**
 * Length of [lo, hi] covered by the union of @p intervals (each clipped
 * to [lo, hi]; overlapping intervals count once).
 */
double coveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi);

/**
 * Self time (microseconds) of every span named @p name: its duration
 * minus the part of it that its direct children cover. In open order.
 */
std::vector<double> selfTimesUs(const std::vector<Span> &spans,
                                const std::string &name);

/** Durations (microseconds) of every span named @p name. */
std::vector<double> durationsUs(const std::vector<Span> &spans,
                                const std::string &name);

/**
 * The @p q-quantile (0 <= q <= 1) of @p values by linear interpolation
 * between closest ranks: position q * (n - 1) of the sorted values.
 * 0 for an empty input.
 */
double percentile(std::vector<double> values, double q);

/** Sum of @p values. */
double sum(const std::vector<double> &values);

/**
 * Write @p spans as a Chrome trace-event JSON file: one complete ("X")
 * event per span with its id, parent and query in args. Returns false
 * when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<Span> &spans);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
