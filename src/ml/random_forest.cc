#include "ml/random_forest.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "common/error.hh"
#include "common/thread_pool.hh"
#include "ml/training_context.hh"

namespace wanify {
namespace ml {

RandomForestRegressor::RandomForestRegressor(ForestConfig config)
    : config_(config)
{
    fatalIf(config_.nEstimators == 0,
            "RandomForest: nEstimators must be > 0");
    // Written so that NaN fails it too.
    fatalIf(!(config_.bootstrapFraction > 0.0 &&
              config_.bootstrapFraction <= 1.0),
            "RandomForest: bootstrapFraction must be in (0, 1]");
}

RandomForestRegressor::RandomForestRegressor(
    const RandomForestRegressor &other)
    : config_(other.config_), trees_(other.trees_),
      featureCount_(other.featureCount_), oobR2_(other.oobR2_)
{
    std::lock_guard<std::mutex> lock(other.compiledMu_);
    compiled_ = other.compiled_;
}

RandomForestRegressor &
RandomForestRegressor::operator=(const RandomForestRegressor &other)
{
    if (this == &other)
        return *this;
    config_ = other.config_;
    trees_ = other.trees_;
    featureCount_ = other.featureCount_;
    oobR2_ = other.oobR2_;
    std::shared_ptr<const CompiledForest> snapshot;
    {
        std::lock_guard<std::mutex> lock(other.compiledMu_);
        snapshot = other.compiled_;
    }
    std::lock_guard<std::mutex> lock(compiledMu_);
    compiled_ = std::move(snapshot);
    return *this;
}

const CompiledForest &
RandomForestRegressor::compiled() const
{
    std::lock_guard<std::mutex> lock(compiledMu_);
    if (compiled_ == nullptr) {
        compiled_ = std::make_shared<const CompiledForest>(trees_);
    } else if (compiled_->treeCount() < trees_.size()) {
        // Warm-started since the snapshot: keep its chunks, compile
        // only the new trees.
        compiled_ =
            std::make_shared<const CompiledForest>(*compiled_, trees_);
    }
    return *compiled_;
}

void
RandomForestRegressor::fit(const Dataset &data, std::uint64_t seed)
{
    fatalIf(data.empty(), "RandomForest::fit: empty dataset");
    std::vector<std::vector<std::size_t>> bags;
    trees_ = growTrees(data, config_.nEstimators, seed, bags);
    {
        std::lock_guard<std::mutex> lock(compiledMu_);
        compiled_.reset();
    }
    featureCount_ = data.featureCount();
    computeOob(data, bags);
}

void
RandomForestRegressor::warmStart(const Dataset &data,
                                 std::size_t extraTrees,
                                 std::uint64_t seed)
{
    fatalIf(data.empty(), "RandomForest::warmStart: empty dataset");
    fatalIf(extraTrees == 0, "RandomForest::warmStart: extraTrees == 0");
    fatalIf(!trees_.empty() && data.featureCount() != featureCount_,
            "RandomForest::warmStart: feature count changed");
    std::vector<std::vector<std::size_t>> bags;
    const auto grown =
        growTrees(data, extraTrees, seed ^ 0xa5a5a5a5a5a5a5a5ULL, bags);
    // The compiled snapshot stays: it is a prefix of the grown
    // ensemble, and compiled() extends it by the new trees.
    trees_.insert(trees_.end(), grown.begin(), grown.end());
    featureCount_ = data.featureCount();
    computeOob(data, bags);
}

std::vector<SharedTree>
RandomForestRegressor::growTrees(
    const Dataset &data, std::size_t count, std::uint64_t seed,
    std::vector<std::vector<std::size_t>> &bags) const
{
    const std::size_t n = data.size();
    const auto bagSize = static_cast<std::size_t>(
        std::max(1.0, config_.bootstrapFraction *
                          static_cast<double>(n)));

    // Shared per-batch training state, built once and read-only
    // across the parallel tree tasks: the TrainingContext carrying
    // the columnized data and the per-feature presort.
    std::optional<TrainingContext> ctx;
    if (config_.tree.splitMode == SplitMode::exact)
        ctx.emplace(data);

    // Per-tree seeds are fixed before any tree grows, and each tree
    // lands in a pre-assigned slot: the trained forest is identical
    // whether the loop below runs sequentially or on the pool.
    const auto treeSeeds = deriveSeeds(seed, count);
    std::vector<SharedTree> grown(count);
    bags.assign(count, {});

    auto growOne = [&](std::size_t t) {
        Rng treeRng(treeSeeds[t]);
        std::vector<std::size_t> bag =
            treeRng.sampleWithReplacement(n, bagSize);
        DecisionTreeRegressor tree(config_.tree);
        if (ctx.has_value())
            tree.fit(*ctx, bag, treeRng);
        else
            tree.fit(data, bag, treeRng);
        grown[t] =
            std::make_shared<const DecisionTreeRegressor>(std::move(tree));
        bags[t] = std::move(bag);
    };

    forEachIndex(count, growOne);
    return grown;
}

void
RandomForestRegressor::forEachIndex(
    std::size_t count, const std::function<void(std::size_t)> &fn) const
{
    if (config_.nThreads == 0) {
        ThreadPool::global().parallelFor(count, fn);
    } else if (config_.nThreads == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
    } else {
        ThreadPool local(config_.nThreads);
        local.parallelFor(count, fn);
    }
}

void
RandomForestRegressor::computeOob(
    const Dataset &data,
    const std::vector<std::vector<std::size_t>> &bags)
{
    // OOB over the trees grown in this batch only; single-output path
    // is the production configuration, so OOB handles output 0.
    const std::size_t n = data.size();
    const std::size_t firstNew = trees_.size() - bags.size();

    // Out-of-bag votes, scored in fixed-size sample chunks across the
    // pool. Within a chunk the walk is tree-major, so one tree's nodes
    // stay cache-hot across its out-of-bag samples; every sample still
    // sums its votes in tree order and lives in one chunk, so the
    // estimate is the same at any pool size. A batch of at most one
    // chunk runs on the caller.
    constexpr std::size_t kChunk = 512;
    std::vector<bool> inBag(bags.size() * n, false);
    for (std::size_t t = 0; t < bags.size(); ++t)
        for (std::size_t i : bags[t])
            if (i < n)
                inBag[t * n + i] = true;
    std::vector<double> pred(n, 0.0);
    std::vector<std::size_t> votes(n, 0);
    forEachIndex((n + kChunk - 1) / kChunk, [&](std::size_t c) {
        const std::size_t begin = c * kChunk;
        const std::size_t end = std::min(n, begin + kChunk);
        for (std::size_t t = 0; t < bags.size(); ++t) {
            const DecisionTreeRegressor &tree = *trees_[firstNew + t];
            for (std::size_t i = begin; i < end; ++i) {
                if (inBag[t * n + i])
                    continue;
                // const-ref leaf access: no per-vote temporary.
                pred[i] += tree.predict(data.x(i)).front();
                ++votes[i];
            }
        }
    });

    double ssRes = 0.0, ssTot = 0.0, meanY = 0.0;
    std::size_t covered = 0;
    for (std::size_t i = 0; i < n; ++i)
        meanY += data.y(i)[0];
    meanY /= static_cast<double>(n);

    for (std::size_t i = 0; i < n; ++i) {
        if (votes[i] == 0)
            continue;
        const double p = pred[i] / static_cast<double>(votes[i]);
        const double yi = data.y(i)[0];
        ssRes += (yi - p) * (yi - p);
        ssTot += (yi - meanY) * (yi - meanY);
        ++covered;
    }
    if (covered < 2 || ssTot <= 0.0) {
        oobR2_ = std::numeric_limits<double>::quiet_NaN();
        return;
    }
    oobR2_ = 1.0 - ssRes / ssTot;
}

std::vector<double>
RandomForestRegressor::predict(const std::vector<double> &x) const
{
    panicIf(trees_.empty(), "RandomForest::predict before fit");
    std::vector<double> mean;
    for (const auto &tree : trees_) {
        const auto &y = tree->predict(x);
        if (mean.empty())
            mean.assign(y.size(), 0.0);
        for (std::size_t k = 0; k < y.size(); ++k)
            mean[k] += y[k];
    }
    for (auto &m : mean)
        m /= static_cast<double>(trees_.size());
    return mean;
}

double
RandomForestRegressor::predictScalar(const std::vector<double> &x) const
{
    const auto y = predict(x);
    panicIf(y.size() != 1, "predictScalar on multi-output forest");
    return y[0];
}

std::vector<double>
RandomForestRegressor::featureImportances() const
{
    std::vector<double> gains(featureCount_, 0.0);
    for (const auto &tree : trees_) {
        const auto &treeGains = tree->featureGains();
        for (std::size_t f = 0; f < featureCount_; ++f)
            gains[f] += treeGains[f];
    }
    double total = 0.0;
    for (double g : gains)
        total += g;
    if (total > 0.0) {
        for (auto &g : gains)
            g /= total;
    }
    return gains;
}

} // namespace ml
} // namespace wanify
