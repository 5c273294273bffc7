#include "sched/fraction_search.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"

namespace wanify {
namespace sched {

FractionSearchResult
searchFractionsDetailed(const gda::StageContext &ctx,
                        const AssignmentObjective &objective,
                        std::vector<double> seedFractions,
                        const FractionSearchConfig &cfg)
{
    const std::size_t n = ctx.inputByDc.size();
    fatalIf(seedFractions.size() != n,
            "searchFractions: seed size mismatch");

    // Normalize the seed onto the simplex.
    double sum = 0.0;
    for (double f : seedFractions)
        sum += std::max(0.0, f);
    if (sum <= 0.0) {
        seedFractions.assign(n, 1.0 / static_cast<double>(n));
    } else {
        for (auto &f : seedFractions)
            f = std::max(0.0, f) / sum;
    }

    // One scratch assignment matrix reused across every objective
    // evaluation (up to maxIterations x n^2 candidate moves), and one
    // scratch candidate vector overwritten per move: the search's
    // inner loop allocates nothing after the first evaluation.
    Matrix<Bytes> scratch;
    auto evaluate = [&](const std::vector<double> &r) {
        gda::assignmentFromFractionsInto(ctx.inputByDc, r, scratch);
        return objective(scratch);
    };

    std::vector<double> best = seedFractions;
    double bestValue = evaluate(best);
    std::vector<double> candidate(n);
    std::size_t iterations = 0;

    for (std::size_t iter = 0; iter < cfg.maxIterations; ++iter) {
        // Try every (from, to) move of cfg.step and take the best.
        double roundBest = bestValue;
        std::size_t moveFrom = n, moveTo = n;
        for (std::size_t from = 0; from < n; ++from) {
            if (best[from] < cfg.step)
                continue;
            for (std::size_t to = 0; to < n; ++to) {
                if (to == from)
                    continue;
                candidate = best;
                candidate[from] -= cfg.step;
                candidate[to] += cfg.step;
                const double value = evaluate(candidate);
                if (value < roundBest - 1.0e-12) {
                    roundBest = value;
                    moveFrom = from;
                    moveTo = to;
                }
            }
        }
        if (moveFrom == n)
            break; // no improving move
        ++iterations;
        best[moveFrom] -= cfg.step;
        best[moveTo] += cfg.step;
        const double improvement = (bestValue - roundBest) /
                                   std::max(bestValue, 1.0e-12);
        bestValue = roundBest;
        if (improvement < cfg.tolerance)
            break;
    }
    return {std::move(best), iterations, bestValue};
}

bool
applyWarmStart(const gda::StageContext &ctx,
               std::vector<double> &seed)
{
    if (ctx.memory == nullptr)
        return false;
    const auto it = ctx.memory->fractionsByStage.find(ctx.stageIndex);
    if (it == ctx.memory->fractionsByStage.end() ||
        it->second.size() != seed.size())
        return false;
    seed = it->second;
    return true;
}

void
rememberResult(const gda::StageContext &ctx,
               const FractionSearchResult &result)
{
    if (ctx.memory == nullptr)
        return;
    ctx.memory->fractionsByStage[ctx.stageIndex] = result.fractions;
    ctx.memory->lastIterations = result.iterations;
}

} // namespace sched
} // namespace wanify
