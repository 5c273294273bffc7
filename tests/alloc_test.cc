/**
 * @file
 * Allocation oracle for the hot-path invariant checks.
 *
 * This suite replaces the global operator new with a counting one, so
 * it is its own binary. It asserts that a passing fatalIf/panicIf
 * with a literal message, and the hot calls built on such checks
 * (Matrix::at, BwForecast::transferTime, gda::estimateStageTime),
 * perform no heap allocation at all.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/error.hh"
#include "common/matrix.hh"
#include "core/forecast.hh"
#include "experiments/testbed.hh"
#include "gda/scheduler.hh"

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
