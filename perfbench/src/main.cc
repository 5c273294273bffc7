/**
 * @file
 * perfbench: the repository's end-to-end benchmark program.
 *
 *   perfbench --workload <engine-adaptive|serve-mixed> --seed <n>
 *             --seconds <s> --trace <0|1> [--trace-dir <dir>]
 *
 * Sets up (shared predictor + testbed + seeded inputs) several times
 * and reports the median as setup_s, then runs the workload. With
 * --trace 0 it prints the end-to-end metrics; with --trace 1 the
 * per-layer metrics, and writes the spans to a Chrome trace file in
 * --trace-dir. The last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Any broken correctness
 * gate prints to stderr and exits 1 without a result.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <set>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/thread_pool.hh"

using namespace perfbench;

namespace {

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupReps = 11;

const char *const kEndToEnd[] = {
    "setup_s",           "queries_per_s",     "query_wall_ms_p50",
    "query_wall_ms_p90", "latency_p50_s",     "latency_p90_s",
    "cost_usd_per_query", "min_bw_mbps",      "throughput_qph",
    "wan_gb_per_query",  "peak_rss_mb"};

const char *const kPerLayer[] = {
    "gda.run_self_ms",
    "gda.stages_per_query",
    "sched.place_ms_p50",
    "sched.place_calls_per_query",
    "sched.run_share",
    "sched.place_ms_32dc",
    "scenario.apply_us",
    "scenario.calls_per_query",
    "core.retrain_ms_p50",
    "core.retrains_per_query",
    "core.predict_matrix_us_8dc",
    "core.predict_matrix_us_32dc",
    "core.analyzer_collect_s",
    "ml.fit_s",
    "monitor.snapshot_ms",
    "net.us_per_completion",
    "net.flows_peak",
    "serve.allocate_us",
    "serve.capped_pair_rounds",
    "serve.redispatches",
    "serve.redispatches_per_query",
    "serve.queue_wait_p90_s",
    "serve.retrains_published",
    "fault.retries_per_query",
    "fault.retry_success_ratio",
    "fault.lost_gb_per_query",
    "fault.backoff_s_per_query",
    "bench.trace_overhead_frac",
};

/** Non-empty reason when this binary is not an optimized,
 *  uninstrumented build (timings would describe another program). */
std::string
buildProblem()
{
#ifndef NDEBUG
    return "assertions are enabled (NDEBUG undefined)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
    return "built with a sanitizer";
#endif
#endif
    if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0)
        return std::string("build type is '") + PERFBENCH_BUILD_TYPE +
               "', not Release";
    return "";
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
checkNames(const std::vector<Metric> &metrics, const char *const *names,
           std::size_t count)
{
    std::set<std::string> want(names, names + count);
    std::set<std::string> got;
    for (const Metric &m : metrics) {
        gate(std::isfinite(m.value), "metric " + m.name + " is not finite");
        got.insert(m.name);
    }
    gate(want == got && got.size() == metrics.size(),
         "internal: the workload reported a different metric set");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <engine-adaptive|serve-mixed> "
                 "--seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-dir <dir>]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloadName;
    std::string traceDir = ".";
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int traceFlag = -1;
    for (int a = 1; a + 1 < argc; a += 2) {
        const std::string key = argv[a];
        const char *value = argv[a + 1];
        if (key == "--workload")
            workloadName = value;
        else if (key == "--seed")
            seed = std::strtoull(value, nullptr, 10);
        else if (key == "--seconds")
            seconds = std::strtod(value, nullptr);
        else if (key == "--trace")
            traceFlag = std::atoi(value);
        else if (key == "--trace-dir")
            traceDir = value;
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || seconds < 0.0 || (traceFlag != 0 && traceFlag != 1))
        return usage(argv[0]);

    std::unique_ptr<Workload> workload;
    if (workloadName == "engine-adaptive")
        workload = makeEngineAdaptive();
    else if (workloadName == "serve-mixed")
        workload = makeServeMixed();
    else
        return usage(argv[0]);

    const std::string problem = buildProblem();
    if (!problem.empty()) {
        std::fprintf(stderr, "perfbench: refusing to report: %s\n",
                     problem.c_str());
        return 3;
    }

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                workloadName.c_str(), static_cast<unsigned long long>(seed),
                seconds, traceFlag);
    std::printf("# pool_threads=%zu nproc=%ld build_type=%s\n",
                wanify::ThreadPool::global().threadCount(),
                sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE);

    try {
        std::vector<double> setupS, collectS, fitS;
        for (std::size_t r = 0; r < kSetupReps; ++r) {
            const auto t0 = Clock::now();
            SetupTiming timing;
            auto model = buildSharedPredictor(timing);
            workload->prepare(model, seed);
            setupS.push_back(secondsSince(t0));
            collectS.push_back(timing.collectS);
            fitS.push_back(timing.fitS);
        }

        Outcome out;
        if (traceFlag == 0) {
            out = workload->measure(seconds);
            out.metrics.insert(out.metrics.begin(),
                               {"setup_s", percentile(setupS, 0.5), "s"});
            out.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
            checkNames(out.metrics, kEndToEnd,
                       sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
        } else {
            SpanRecorder rec;
            out = workload->trace(rec);
            out.metrics.push_back({"core.analyzer_collect_s",
                                   percentile(collectS, 0.5), "s"});
            out.metrics.push_back(
                {"ml.fit_s", percentile(fitS, 0.5), "s"});
            checkNames(out.metrics, kPerLayer,
                       sizeof(kPerLayer) / sizeof(kPerLayer[0]));
            const std::string path = traceDir + "/perfbench-" +
                                     workloadName + "-seed" +
                                     std::to_string(seed) + ".trace.json";
            gate(writeChromeTrace(path, rec.spans()),
                 "cannot write the trace file " + path);
            out.notes.push_back("trace: " + path);
        }

        for (const std::string &note : out.notes)
            std::printf("# %s\n", note.c_str());
        for (const Metric &m : out.metrics)
            std::printf("# %-30s %16.6f %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": "
                    "%zu, \"metrics\": {",
                    out.attempted, out.failed);
        for (std::size_t i = 0; i < out.metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", out.metrics[i].name.c_str(),
                        out.metrics[i].value, out.metrics[i].unit.c_str());
        std::printf("}}\n");
        return 0;
    } catch (const GateFailure &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: correctness gate failed: %s\n",
                     e.what());
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    }
    return 1;
}
