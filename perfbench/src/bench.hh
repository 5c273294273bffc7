/**
 * @file
 * Shared types of the end-to-end benchmark: the metric record, the
 * workload interface and the timed set-up.
 *
 * Every workload runs through the library's public entry points
 * (gda::Engine::run, serve::Service::drain). Its inputs are generated
 * from the workload seed during set-up; the library sees only those
 * inputs. An untraced run reports the end-to-end metrics; a traced run
 * reports the per-layer metrics, from spans the benchmark records
 * around calls into each layer (nothing inside src/ is instrumented).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/predictor.hh"
#include "trace.hh"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run of a workload reports. */
struct Outcome
{
    /** Queries submitted and queries that failed or timed out. */
    std::size_t attempted = 0;
    std::size_t failed = 0;

    std::vector<Metric> metrics;

    /** Free-form "# ..." lines printed before the result. */
    std::vector<std::string> notes;
};

/**
 * A broken correctness gate: the benchmark prints the message and exits
 * nonzero without a result.
 */
struct GateFailure : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Throw GateFailure(@p what) unless @p ok. */
void gate(bool ok, const std::string &what);

/** FNV-1a offset basis: the starting value of a digest. */
constexpr std::uint64_t kDigestSeed = 14695981039346656037ULL;

/**
 * Fold @p v into the FNV-1a digest @p h. Each run prints the digest of
 * its virtual outputs, so runs at different pool sizes or with and
 * without tracing can be compared for bit identity.
 */
std::uint64_t digest(std::uint64_t h, std::uint64_t v);
std::uint64_t digest(std::uint64_t h, double v);

/** "virtual_digest=<hex>" note line. */
std::string digestNote(std::uint64_t h);

/** Wall seconds of the shared predictor's two set-up steps. */
struct SetupTiming
{
    double collectS = 0.0;
    double fitS = 0.0;
};

/**
 * Build the shared WAN prediction model exactly as
 * experiments::sharedPredictor() does (same analyzer and forest
 * configuration, same seeds), through the public
 * core::BandwidthAnalyzer::collect and RuntimeBwPredictor::train, and
 * time both steps.
 */
std::shared_ptr<const wanify::core::RuntimeBwPredictor>
buildSharedPredictor(SetupTiming &timing);

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the testbed and the inputs for @p seed (part of set-up). */
    virtual void
    prepare(std::shared_ptr<const wanify::core::RuntimeBwPredictor> model,
            std::uint64_t seed) = 0;

    /**
     * Untraced run: one full pass over the inputs, then repeats of its
     * units until @p seconds of wall time have passed. Repeats must
     * reproduce the first pass bit for bit. End-to-end metrics only.
     */
    virtual Outcome measure(double seconds) = 0;

    /**
     * Traced run: one untraced and one traced pass over the same
     * inputs (their virtual outputs must be identical), then layer
     * timings on inputs of the workload's shape. Per-layer metrics
     * only; every span lands in @p rec.
     */
    virtual Outcome trace(SpanRecorder &rec) = 0;
};

std::unique_ptr<Workload> makeEngineAdaptive();
std::unique_ptr<Workload> makeServeMixed();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
