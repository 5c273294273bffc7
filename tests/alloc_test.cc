/**
 * @file
 * Allocation oracle for the hot-path invariant checks.
 *
 * This suite replaces the global operator new with a counting one, so
 * it is its own binary. It asserts that a passing fatalIf/panicIf
 * with a literal message, and the hot calls built on such checks
 * (Matrix::at, BwForecast::transferTime, gda::estimateStageTime, a
 * warm gda::StageTimeModel evaluation), perform no heap allocation at
 * all. It also counts the allocations of a warm-start retrain, which
 * must not grow with the base forest.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hh"
#include "common/matrix.hh"
#include "core/forecast.hh"
#include "core/wanify.hh"
#include "experiments/testbed.hh"
#include "gda/scheduler.hh"
#include "monitor/features.hh"

namespace {

std::atomic<std::size_t> allocations{0};

void *
countedAlloc(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace wanify;

namespace {

constexpr int kRepeats = 1000;

/** Published so the compiler cannot elide the guard's allocations. */
int *volatile escaped = nullptr;

/** Heap allocations made by @p kRepeats calls of @p f. */
template <typename F>
std::size_t
allocationsDuring(F f)
{
    const std::size_t before = allocations.load();
    for (int r = 0; r < kRepeats; ++r)
        f(r);
    return allocations.load() - before;
}

/**
 * Stage context over a 4-DC worker cluster believing 400 Mbps, plus a
 * forecast that drops to 40 Mbps after 1 s.
 */
struct StageFixture
{
    net::Topology topo = experiments::workerCluster(4, 2);
    Matrix<Mbps> bw = Matrix<Mbps>::square(4, 400.0);
    gda::StageSpec stage{"s", 1.0, 0.05, true};
    core::BwForecast forecast;
    gda::StageContext ctx;
    Matrix<Bytes> assignment = Matrix<Bytes>::square(4, 1.0e8);

    StageFixture()
    {
        ctx.topo = &topo;
        ctx.bw = &bw;
        ctx.stage = &stage;
        ctx.computeRate.assign(4, 10.0);
        forecast.addSegment(1.0, Matrix<Mbps>::square(4, 400.0));
        forecast.addSegment(1.0e6, Matrix<Mbps>::square(4, 40.0));
    }
};

/** Table 3-shaped rows: random features, a smooth target. */
ml::Dataset
table3Rows(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    ml::Dataset data(monitor::kFeatureCount, 1);
    for (std::size_t i = 0; i < n; ++i) {
        std::vector<double> x(monitor::kFeatureCount);
        for (auto &v : x)
            v = rng.uniform(0.0, 1.0);
        const double y = 400.0 * x[0] + 100.0 * x[1] * x[2];
        data.add(std::move(x), y + rng.normal(0.0, 5.0));
    }
    return data;
}

/**
 * Heap allocations of one Wanify::retrain of a compiled
 * @p baseTrees-tree predictor plus the retrained model's first
 * predictMatrix. The gauged rows and the seed are fixed, so the 25
 * grown trees are the same whatever the base size.
 */
std::size_t
retrainAllocations(std::size_t baseTrees)
{
    core::WanifyConfig cfg;
    cfg.forest.nEstimators = baseTrees;
    cfg.forest.tree.maxDepth = 8;
    // Grown on the calling thread: pool scheduling would move the
    // workers' first-use scratch allocations between runs.
    cfg.forest.nThreads = 1;
    const core::Wanify wanify(cfg);
    auto base = std::make_shared<core::RuntimeBwPredictor>(cfg.forest);
    base->train(table3Rows(300, 61), 62);
    const auto topo = experiments::workerCluster(4, 2);
    const core::BwMatrix snapshot = core::BwMatrix::square(4, 400.0);
    // A served base has been compiled by its own predictions.
    base->predictMatrix(topo, snapshot);
    const ml::Dataset gauged = table3Rows(120, 63);

    const std::size_t before = allocations.load();
    const auto next = wanify.retrain(gauged, 64, base, false);
    next->predictMatrix(topo, snapshot);
    return allocations.load() - before;
}

} // namespace

TEST(Alloc, CounterSeesHeapAllocations)
{
    // Guards the oracle itself: a replaced operator new that is never
    // called would make every zero below vacuous.
    const std::size_t n = allocationsDuring([](int r) {
        std::vector<int> v(16, r);
        escaped = v.data();
    });
    EXPECT_GE(n, static_cast<std::size_t>(kRepeats));
}

TEST(Alloc, PassingChecksAllocateNothing)
{
    volatile bool failing = false;
    EXPECT_EQ(allocationsDuring([&](int) {
                  fatalIf(failing,
                          "a literal message longer than the small "
                          "string buffer");
                  panicIf(failing,
                          "another literal message longer than the "
                          "small string buffer");
              }),
              0u);
}

TEST(Alloc, MatrixAtAllocatesNothing)
{
    Matrix<double> m = Matrix<double>::square(8, 1.0);
    const Matrix<double> &cm = m;
    double sum = 0.0;
    EXPECT_EQ(allocationsDuring([&](int r) {
                  m.at(r % 8, (r + 3) % 8) += 1.0;
                  sum += cm.at((r + 5) % 8, r % 8);
              }),
              0u);
    EXPECT_GT(sum, 0.0);
}

TEST(Alloc, ForecastTransferTimeAllocatesNothing)
{
    StageFixture f;
    Seconds total = 0.0;
    EXPECT_EQ(allocationsDuring([&](int r) {
                  total += f.forecast.transferTime(
                      r % 4, (r + 1) % 4, 1.0e9, 0.5, r * 0.01);
              }),
              0u);
    EXPECT_GT(total, 0.0);
}

TEST(Alloc, EstimateStageTimeAllocatesNothing)
{
    StageFixture f;
    Seconds snapshot = 0.0;
    EXPECT_EQ(allocationsDuring([&](int) {
                  snapshot += gda::estimateStageTime(f.ctx, f.assignment);
              }),
              0u);
    EXPECT_GT(snapshot, 0.0);

    f.ctx.forecast = &f.forecast;
    Seconds forecast = 0.0;
    EXPECT_EQ(allocationsDuring([&](int) {
                  forecast += gda::estimateStageTime(f.ctx, f.assignment);
              }),
              0u);
    EXPECT_GT(forecast, snapshot);
}

TEST(Alloc, WarmStageTimeModelEvaluationAllocatesNothing)
{
    StageFixture f;
    f.ctx.forecast = &f.forecast;
    f.ctx.inputByDc = {4.0e9, 1.0e9, 0.0, 2.0e9};
    gda::StageTimeModel model(f.ctx);
    // A search round's shape: the current best and two moves off it.
    const std::vector<std::vector<double>> moves = {
        {0.25, 0.25, 0.25, 0.25},
        {0.23, 0.27, 0.25, 0.25},
        {0.25, 0.25, 0.23, 0.27},
    };
    for (const auto &r : moves)
        model.evaluate(r);
    Seconds total = 0.0;
    EXPECT_EQ(allocationsDuring([&](int r) {
                  total += model.evaluate(moves[r % moves.size()]);
              }),
              0u);
    EXPECT_GT(total, 0.0);
}

TEST(Alloc, RetrainCostIndependentOfBaseForestSize)
{
    // Warm-up: first-use allocations of the calling thread's training
    // scratch and the process-wide pool land here, not below.
    retrainAllocations(100);
    const std::size_t small = retrainAllocations(100);
    const std::size_t large = retrainAllocations(300);
    // Growing and compiling the 25 new trees allocates; copying the
    // base must not, beyond the few pointer vectors it resizes.
    EXPECT_GT(small, 0u);
    const std::size_t diff = large > small ? large - small : small - large;
    EXPECT_LE(diff, 8u) << "100-tree base: " << small
                        << " allocations, 300-tree base: " << large;
}
