/**
 * @file
 * Tests for the TrainingContext split engines: the presorted exact
 * engine locked bit-identical against the nodeSort reference (random
 * datasets, heavy ties, multi-output targets, minSamples edges, warm
 * starts, parallel growth), the exact-mode guard on shared contexts,
 * and the retrain-latency aggregation plumbing.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hh"
#include "experiments/runner.hh"
#include "ml/random_forest.hh"
#include "ml/training_context.hh"

using namespace wanify;
using namespace wanify::ml;

namespace {

/** Continuous features, y = 3a + b - 2c + noise. */
Dataset
continuousData(std::size_t n, std::uint64_t seed,
               std::size_t outputs = 1)
{
    Rng rng(seed);
    Dataset data(3, outputs);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = rng.uniform(0.0, 10.0);
        const double b = rng.uniform(0.0, 10.0);
        const double c = rng.uniform(0.0, 1.0);
        std::vector<double> y;
        for (std::size_t k = 0; k < outputs; ++k)
            y.push_back(3.0 * a + b * static_cast<double>(k + 1) -
                        2.0 * c + rng.normal(0.0, 0.5));
        data.add({a, b, c}, y);
    }
    return data;
}

/** Heavy ties: discrete features (as the Table 3 cluster size) and
 *  duplicated rows, the regime where tie handling decides splits. */
Dataset
tiedData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data(3, 1);
    for (std::size_t i = 0; i < n; ++i) {
        const double a = static_cast<double>(rng.uniformInt(0, 5));
        const double b = static_cast<double>(rng.uniformInt(0, 2));
        const double c =
            rng.bernoulli(0.3) ? 7.0 : rng.uniform(0.0, 10.0);
        data.add({a, b, c},
                 4.0 * a - b + 0.5 * c + rng.normal(0.0, 0.3));
        if (rng.bernoulli(0.25)) // exact duplicate rows
            data.add({a, b, c}, 4.0 * a - b + 0.5 * c);
    }
    return data;
}

ForestConfig
configFor(SplitMode mode, std::size_t trees = 12,
          std::size_t maxFeatures = 2)
{
    ForestConfig cfg;
    cfg.nEstimators = trees;
    cfg.bootstrapFraction = 0.8;
    cfg.tree.maxFeatures = maxFeatures;
    cfg.tree.splitMode = mode;
    return cfg;
}

/** Node-by-node, bit-for-bit forest equality. */
void
expectForestsIdentical(const RandomForestRegressor &a,
                       const RandomForestRegressor &b)
{
    ASSERT_EQ(a.treeCount(), b.treeCount());
    for (std::size_t t = 0; t < a.treeCount(); ++t) {
        const auto &na = a.trees()[t]->nodes();
        const auto &nb = b.trees()[t]->nodes();
        ASSERT_EQ(na.size(), nb.size()) << "tree " << t;
        for (std::size_t i = 0; i < na.size(); ++i) {
            EXPECT_EQ(na[i].feature, nb[i].feature)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].threshold, nb[i].threshold)
                << "tree " << t << " node " << i;
            EXPECT_EQ(na[i].left, nb[i].left);
            EXPECT_EQ(na[i].right, nb[i].right);
            ASSERT_EQ(na[i].leafValue.size(), nb[i].leafValue.size());
            for (std::size_t k = 0; k < na[i].leafValue.size(); ++k)
                EXPECT_EQ(na[i].leafValue[k], nb[i].leafValue[k]);
        }
        const auto &ga = a.trees()[t]->featureGains();
        const auto &gb = b.trees()[t]->featureGains();
        ASSERT_EQ(ga.size(), gb.size());
        for (std::size_t f = 0; f < ga.size(); ++f)
            EXPECT_EQ(ga[f], gb[f]) << "tree " << t << " gain " << f;
    }
    // OOB is computed from identical trees and bags.
    if (std::isnan(a.oobR2())) {
        EXPECT_TRUE(std::isnan(b.oobR2()));
    } else {
        EXPECT_EQ(a.oobR2(), b.oobR2());
    }
}

} // namespace

// ---- exact vs nodeSort parity ----------------------------------------------

TEST(TrainingParity, ExactBitIdenticalOnRandomDatasets)
{
    for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
        const auto data = continuousData(300, seed);
        RandomForestRegressor exact(configFor(SplitMode::exact));
        RandomForestRegressor ref(configFor(SplitMode::nodeSort));
        exact.fit(data, seed);
        ref.fit(data, seed);
        expectForestsIdentical(exact, ref);
    }
}

TEST(TrainingParity, ExactBitIdenticalOnHeavyTies)
{
    for (std::uint64_t seed : {5ull, 6ull}) {
        const auto data = tiedData(250, seed);
        RandomForestRegressor exact(configFor(SplitMode::exact));
        RandomForestRegressor ref(configFor(SplitMode::nodeSort));
        exact.fit(data, seed);
        ref.fit(data, seed);
        expectForestsIdentical(exact, ref);
    }
}

TEST(TrainingParity, ExactBitIdenticalMultiOutput)
{
    const auto data = continuousData(250, 77, /*outputs=*/3);
    RandomForestRegressor exact(configFor(SplitMode::exact));
    RandomForestRegressor ref(configFor(SplitMode::nodeSort));
    exact.fit(data, 78);
    ref.fit(data, 78);
    expectForestsIdentical(exact, ref);
}

TEST(TrainingParity, ExactBitIdenticalAtMinSamplesEdges)
{
    // Tiny nodes and tight limits: the regime where a one-off in the
    // minSamplesSplit/minSamplesLeaf checks or the tie skipping
    // changes the tree shape.
    for (std::size_t minSplit : {2u, 4u, 7u}) {
        for (std::size_t minLeaf : {1u, 2u, 3u}) {
            for (std::size_t nSamples : {6u, 13u, 40u}) {
                auto ce = configFor(SplitMode::exact, 6, 0);
                auto cn = configFor(SplitMode::nodeSort, 6, 0);
                ce.tree.minSamplesSplit = cn.tree.minSamplesSplit =
                    minSplit;
                ce.tree.minSamplesLeaf = cn.tree.minSamplesLeaf =
                    minLeaf;
                ce.tree.maxDepth = cn.tree.maxDepth = 5;
                const auto data = tiedData(nSamples, 90 + nSamples);
                RandomForestRegressor exact(ce), ref(cn);
                exact.fit(data, 91);
                ref.fit(data, 91);
                expectForestsIdentical(exact, ref);
            }
        }
    }
}

TEST(TrainingParity, ExactWarmStartRegrowthBitIdentical)
{
    auto data = tiedData(200, 101);
    RandomForestRegressor exact(configFor(SplitMode::exact));
    RandomForestRegressor ref(configFor(SplitMode::nodeSort));
    exact.fit(data, 102);
    ref.fit(data, 102);

    data.append(continuousData(80, 103));
    exact.warmStart(data, 5, 104);
    ref.warmStart(data, 5, 104);
    expectForestsIdentical(exact, ref);
}

TEST(TrainingParity, ExactParallelAndSequentialGrowthBitIdentical)
{
    // The shared TrainingContext is read-only across tree tasks and
    // scratch is per-thread: pool growth must equal sequential.
    const auto data = tiedData(300, 111);
    auto seq = configFor(SplitMode::exact, 16);
    auto par = configFor(SplitMode::exact, 16);
    seq.nThreads = 1;
    par.nThreads = 4;
    RandomForestRegressor a(seq), b(par);
    a.fit(data, 112);
    b.fit(data, 112);
    expectForestsIdentical(a, b);
}

TEST(TrainingParity, TreeContextFitMatchesDatasetFit)
{
    const auto data = tiedData(150, 121);
    std::vector<std::size_t> indices;
    for (std::size_t i = 0; i < data.size(); i += 2)
        indices.push_back(i);

    TreeConfig cfg;
    cfg.maxFeatures = 2;
    DecisionTreeRegressor direct(cfg), viaContext(cfg);
    Rng rngA(122), rngB(122);
    direct.fit(data, indices, rngA);
    const TrainingContext ctx(data);
    viaContext.fit(ctx, indices, rngB);

    ASSERT_EQ(direct.nodeCount(), viaContext.nodeCount());
    for (std::size_t i = 0; i < direct.nodes().size(); ++i) {
        EXPECT_EQ(direct.nodes()[i].threshold,
                  viaContext.nodes()[i].threshold);
        EXPECT_EQ(direct.nodes()[i].feature,
                  viaContext.nodes()[i].feature);
    }
}

TEST(TrainingContextFit, NonExactTreeRejectsContext)
{
    // A TrainingContext is the exact engine's presort; a tree
    // configured for any other engine must refuse it by name.
    const auto data = tiedData(60, 131);
    const TrainingContext ctx(data);
    TreeConfig cfg;
    cfg.splitMode = SplitMode::nodeSort;
    DecisionTreeRegressor tree(cfg);
    Rng rng(132);
    EXPECT_THROW(tree.fit(ctx, {0, 1, 2, 3, 4, 5}, rng), FatalError);
    EXPECT_FALSE(tree.trained());
}

// ---- retrain latency aggregation -------------------------------------------

TEST(RetrainLatency, AggregateAveragesAcrossRetrains)
{
    gda::QueryResult a, b, c;
    a.retrainsApplied = 2;
    a.retrainLatencies = {0.10, 0.30};
    a.retrainCpuSeconds = 0.40;
    b.retrainsApplied = 1;
    b.retrainLatencies = {0.20};
    b.retrainCpuSeconds = 0.20;
    // c never retrained.

    const auto agg = experiments::aggregate({a, b, c});
    EXPECT_EQ(agg.totalRetrainsApplied, 3u);
    EXPECT_NEAR(agg.totalRetrainSeconds, 0.60, 1e-12);
    EXPECT_NEAR(agg.meanRetrainSeconds, 0.20, 1e-12);

    const auto none = experiments::aggregate({c});
    EXPECT_EQ(none.meanRetrainSeconds, 0.0);
    EXPECT_EQ(none.totalRetrainSeconds, 0.0);
}
