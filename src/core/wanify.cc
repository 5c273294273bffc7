#include "core/wanify.hh"

#include "common/error.hh"

namespace wanify {
namespace core {

WanifyFeatures
WanifyFeatures::globalOnly()
{
    WanifyFeatures f;
    f.localOptimization = false;
    f.throttling = false;
    return f;
}

WanifyFeatures
WanifyFeatures::localOnly()
{
    WanifyFeatures f;
    f.globalOptimization = false;
    f.throttling = false;
    return f;
}

Wanify::Wanify(WanifyConfig config)
    : config_(std::move(config))
{}

void
Wanify::train(const AnalyzerConfig &analyzerCfg, std::uint64_t seed)
{
    BandwidthAnalyzer analyzer(analyzerCfg);
    const ml::Dataset data = analyzer.collect(seed);
    auto predictor =
        std::make_shared<RuntimeBwPredictor>(config_.forest);
    predictor->train(data, seed ^ 0x9e3779b9UL);
    std::lock_guard<std::mutex> lock(predictorMu_);
    predictor_ = std::move(predictor);
}

void
Wanify::setPredictor(std::shared_ptr<const RuntimeBwPredictor> p)
{
    fatalIf(!p || !p->trained(),
            "Wanify::setPredictor: predictor not trained");
    std::lock_guard<std::mutex> lock(predictorMu_);
    predictor_ = std::move(p);
}

std::shared_ptr<const RuntimeBwPredictor>
Wanify::predictorSnapshot() const
{
    std::lock_guard<std::mutex> lock(predictorMu_);
    return predictor_;
}

bool
Wanify::trained() const
{
    const auto p = predictorSnapshot();
    return p && p->trained();
}

const RuntimeBwPredictor &
Wanify::predictor() const
{
    fatalIf(!trained(), "Wanify: predictor not trained");
    std::lock_guard<std::mutex> lock(predictorMu_);
    return *predictor_;
}

std::shared_ptr<const RuntimeBwPredictor>
Wanify::retrain(const ml::Dataset &data, std::uint64_t seed,
                std::shared_ptr<const RuntimeBwPredictor> base,
                bool publish) const
{
    fatalIf(data.empty(), "Wanify::retrain: no gauged samples");
    if (base == nullptr)
        base = predictorSnapshot();
    // An untrained facade warm-starts from an empty forest: the extra
    // trees become the whole ensemble.
    auto next = base != nullptr
                    ? std::make_shared<RuntimeBwPredictor>(*base)
                    : std::make_shared<RuntimeBwPredictor>(
                          config_.forest);
    next->retrain(data, config_.retrainExtraTrees, seed);
    if (publish) {
        std::lock_guard<std::mutex> lock(predictorMu_);
        predictor_ = next;
    }
    return next;
}

BwMatrix
Wanify::predictRuntimeBw(net::NetworkSim &sim, Rng &rng) const
{
    const auto p = predictorSnapshot();
    fatalIf(!p || !p->trained(), "Wanify: predictor not trained");
    return predictRuntimeBw(sim, rng, *p);
}

BwMatrix
Wanify::predictRuntimeBw(net::NetworkSim &sim, Rng &rng,
                         const RuntimeBwPredictor &model) const
{
    monitor::MeshMeasurer measurer(sim);
    const BwMatrix snapshot =
        measurer.snapshot(config_.measurement, rng);
    return model.predictMatrix(sim.topology(), snapshot);
}

Wanify::RuntimeGauge
Wanify::gaugeRuntime(net::NetworkSim &sim, Rng &rng,
                     const RuntimeBwPredictor &model) const
{
    monitor::MeshMeasurer measurer(sim);
    RuntimeGauge gauge;
    gauge.snapshot = measurer.snapshot(config_.measurement, rng);
    // "Stable from the current epoch": the gauge observes one AIMD
    // epoch of simultaneous mesh traffic rather than the offline
    // campaign's 20 s — runtime collection must stay cheap.
    gauge.stable = measurer.measureSimultaneous(
        config_.aimd.epoch, config_.measurement.connections);
    gauge.predicted =
        model.predictMatrix(sim.topology(), gauge.snapshot);
    return gauge;
}

GlobalPlan
Wanify::plan(const BwMatrix &predictedBw,
             const std::vector<double> &skewWeights,
             const Matrix<double> &rvec) const
{
    const std::size_t n = predictedBw.rows();
    GlobalOptimizer optimizer(config_.global);
    const std::vector<double> &ws =
        config_.features.skewAware ? skewWeights
                                   : std::vector<double>{};

    if (config_.features.globalOptimization)
        return optimizer.optimize(predictedBw, ws, rvec);

    // Local-only ablation: a static [1, M] range for every pair with
    // achievable BWs scaled linearly, exactly the Fig. 8 baseline.
    GlobalPlan plan;
    plan.dcRel = Matrix<int>::square(n, 1);
    plan.minCons = ConnMatrix::square(n, 1);
    plan.maxCons = ConnMatrix::square(n, config_.global.maxConnections);
    for (std::size_t i = 0; i < n; ++i)
        plan.maxCons.at(i, i) = 1;
    plan.minBw = predictedBw;
    plan.maxBw = BwMatrix::square(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            plan.maxBw.at(i, j) =
                predictedBw.at(i, j) *
                static_cast<double>(plan.maxCons.at(i, j));
        }
    }
    return plan;
}

Wanify::Deployment
Wanify::deploy(net::NetworkSim &sim, const GlobalPlan &plan,
               const BwMatrix &predictedBw) const
{
    const std::size_t n = sim.topology().dcCount();
    fatalIf(plan.minCons.rows() != n,
            "deploy: plan/topology mismatch");

    Deployment deployment;
    if (!config_.features.localOptimization) {
        // Without agents, throttling can only be static: thresholds
        // from the predicted per-pair BWs (row means), applied once.
        if (config_.features.throttling)
            deployment.throttles.apply(sim, predictedBw);
        return deployment;
    }
    // With agents deployed, they own throttling end to end: thresholds
    // are re-derived every epoch from monitored rates (Section 3.2.2,
    // "Throttling BW") — dynamic throttling is what makes WANify-TC
    // the best variant in Fig. 5.

    deployment.agents.reserve(n);
    for (net::DcId dc = 0; dc < n; ++dc) {
        std::vector<Mbps> row(n, 0.0);
        for (net::DcId j = 0; j < n; ++j)
            row[j] = predictedBw.at(dc, j);
        deployment.agents.push_back(std::make_unique<LocalAgent>(
            sim, dc, plan, std::move(row), config_.aimd,
            config_.features.throttling));
    }
    return deployment;
}

} // namespace core
} // namespace wanify
