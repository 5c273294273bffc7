#include "bench.hh"

#include <cstdio>
#include <cstring>

#include "core/bandwidth_analyzer.hh"
#include "experiments/predictor_factory.hh"

namespace perfbench {

using namespace wanify;

void
gate(bool ok, const std::string &what)
{
    if (!ok)
        throw GateFailure(what);
}

std::uint64_t
digest(std::uint64_t h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xffULL;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t
digest(std::uint64_t h, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    return digest(h, bits);
}

std::string
digestNote(std::uint64_t h)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "virtual_digest=%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::shared_ptr<const core::RuntimeBwPredictor>
buildSharedPredictor(SetupTiming &timing)
{
    // The seeds experiments::sharedPredictor() trains with, so the
    // benchmark plans with the same model as the repository's benches.
    constexpr std::uint64_t kCollectSeed = 20250042;
    constexpr std::uint64_t kTrainSeed = 20250043;

    auto t0 = Clock::now();
    core::BandwidthAnalyzer analyzer(experiments::sharedAnalyzerConfig());
    const ml::Dataset data = analyzer.collect(kCollectSeed);
    timing.collectS = secondsSince(t0);

    t0 = Clock::now();
    auto model = std::make_shared<core::RuntimeBwPredictor>(
        experiments::sharedForestConfig());
    model->train(data, kTrainSeed);
    timing.fitS = secondsSince(t0);
    return model;
}

} // namespace perfbench
