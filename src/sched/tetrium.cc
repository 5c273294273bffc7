#include "sched/tetrium.hh"

namespace wanify {
namespace sched {

TetriumScheduler::TetriumScheduler(FractionSearchConfig search)
    : search_(search)
{}

Matrix<Bytes>
TetriumScheduler::placeStage(const gda::StageContext &ctx)
{
    const std::size_t n = ctx.inputByDc.size();

    // Objective: estimated stage completion time (network + compute),
    // memoized per destination across the search's candidate moves.
    gda::StageTimeModel model(ctx);
    const FractionObjective objective =
        [&model](const std::vector<double> &r) {
            return model.evaluate(r);
        };

    // Seed compute-proportionally (Spark's slot-driven default); the
    // search then pulls work away from DCs with weak inbound links.
    std::vector<double> seed(n, 0.0);
    double totalRate = 0.0;
    for (double r : ctx.computeRate)
        totalRate += r;
    for (std::size_t j = 0; j < n; ++j) {
        seed[j] = totalRate > 0.0
                      ? ctx.computeRate[j] / totalRate
                      : 1.0 / static_cast<double>(n);
    }

    // A remembered plan for this stage (re-plan on retrain, repeat
    // placement under drifted beliefs) beats the cold seed.
    applyWarmStart(ctx, seed);

    const auto result =
        searchFractionsDetailed(objective, seed, search_);
    rememberResult(ctx, result);
    return gda::assignmentFromFractions(ctx.inputByDc,
                                        result.fractions);
}

} // namespace sched
} // namespace wanify
