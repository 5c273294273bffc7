/**
 * @file
 * Bagged Random Forest regressor.
 *
 * The paper's WAN Prediction Model: an ensemble of CART trees trained on
 * bootstrap samples with optional feature subsampling; predictions are
 * ensemble means. The bias-variance trade-off of bagging is what lets
 * the model generalize across the WAN's dynamics (Section 5.8.2). The
 * forest supports warm start — retraining on additional data while
 * keeping already-grown trees — used when Nmax changes (Section 3.3.2)
 * or the drift detector flags the model as out of date (Section 3.3.4).
 */

#ifndef WANIFY_ML_RANDOM_FOREST_HH
#define WANIFY_ML_RANDOM_FOREST_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/compiled_forest.hh"
#include "ml/decision_tree.hh"

namespace wanify {
namespace ml {

/** Forest hyperparameters. */
struct ForestConfig
{
    /** Paper: 100 estimators yielded the best training accuracy. */
    std::size_t nEstimators = 100;

    TreeConfig tree;

    /**
     * Bootstrap sample size (drawn with replacement) as a fraction
     * of the training set; must be in (0, 1].
     */
    double bootstrapFraction = 1.0;

    /**
     * Training parallelism: 0 = grow trees on the process-wide
     * ThreadPool, 1 = grow sequentially on the calling thread, k > 1
     * = at most k threads (a private pool of k - 1 workers plus the
     * caller). Every mode produces bit-identical forests: per-tree
     * seeds are derived up front (splitmix64 from the caller's seed)
     * and each tree is written to its fixed slot.
     */
    std::size_t nThreads = 0;
};

class RandomForestRegressor
{
  public:
    explicit RandomForestRegressor(ForestConfig config = {});

    /**
     * Copies share storage: the trees are immutable and held by
     * shared pointer, so a copy copies pointers, and it shares the
     * source's compiled chunks too (read under the source's lock).
     * A warm start on the copy appends new trees and, on the next
     * compiled(), one new chunk; the source never changes. Needed
     * explicitly because the lazy-compile guard is not copyable.
     */
    RandomForestRegressor(const RandomForestRegressor &other);
    RandomForestRegressor &operator=(const RandomForestRegressor &other);

    /** Train from scratch, replacing any existing trees. */
    void fit(const Dataset &data, std::uint64_t seed);

    /**
     * Warm start: keep existing trees and grow @p extraTrees new ones
     * on @p data (typically the union of old and newly collected
     * samples, which the caller maintains). On an untrained forest
     * this is the initial fit: the extra trees become the whole
     * ensemble and @p data locks in the feature count. extraTrees
     * must be > 0 — a tree-less "retrain" would silently keep
     * reporting the stale model's accuracy. oobR2() afterwards
     * covers the newly grown batch only. If growing throws, the
     * forest is left unchanged, as it is by a throwing fit().
     */
    void warmStart(const Dataset &data, std::size_t extraTrees,
                   std::uint64_t seed);

    /**
     * Ensemble-mean prediction — the interpreted reference path. Hot
     * paths should go through compiled() instead; both produce
     * bit-identical results.
     */
    std::vector<double> predict(const std::vector<double> &x) const;

    /** Single-output shortcut. */
    double predictScalar(const std::vector<double> &x) const;

    /**
     * The compiled inference engine for the current ensemble, built
     * lazily on first use after fit()/warmStart(). After a warm start
     * only the trees not yet compiled are compiled, into one new
     * chunk appended after the snapshot's shared ones; fit() starts
     * over. Thread-safe against concurrent readers; the reference
     * stays valid until the next (non-const) fit()/warmStart().
     */
    const CompiledForest &compiled() const;

    bool trained() const { return !trees_.empty(); }
    std::size_t treeCount() const { return trees_.size(); }

    /** The fitted ensemble in tree order (reference path; benches
     *  emulate legacy per-call-allocating inference through this
     *  view). Copies of the forest hold the same tree objects. */
    const std::vector<SharedTree> &trees() const { return trees_; }

    /**
     * Out-of-bag R^2 estimate from the most recent fit()/warmStart()
     * call (samples never drawn by a tree's bootstrap vote on it).
     * Returns NaN when OOB coverage is insufficient.
     */
    double oobR2() const { return oobR2_; }

    /** Normalized impurity feature importances (sums to 1). */
    std::vector<double> featureImportances() const;

    const ForestConfig &config() const { return config_; }

  private:
    /**
     * Grow @p count trees on @p data into a new batch, writing each
     * tree's bootstrap sample to @p bags. The forest itself is not
     * touched, so a throw leaves it as it was.
     */
    std::vector<SharedTree>
    growTrees(const Dataset &data, std::size_t count,
              std::uint64_t seed,
              std::vector<std::vector<std::size_t>> &bags) const;
    void computeOob(const Dataset &data,
                    const std::vector<std::vector<std::size_t>> &bags);

    /** Run fn(i) for i in [0, count) at config_.nThreads. */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &fn) const;

    ForestConfig config_;
    std::vector<SharedTree> trees_;
    std::size_t featureCount_ = 0;
    double oobR2_ = 0.0;

    /**
     * Lazily built compiled snapshot, guarded by compiledMu_. Shared
     * (not deep-copied) across forest copies: a CompiledForest is
     * immutable once built, and extending it makes a new one that
     * shares its chunks. May lag trees_ by the last warm starts.
     */
    mutable std::shared_ptr<const CompiledForest> compiled_;
    mutable std::mutex compiledMu_;
};

} // namespace ml
} // namespace wanify

#endif // WANIFY_ML_RANDOM_FOREST_HH
