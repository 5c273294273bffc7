#include "sched/kimchi.hh"

#include "common/error.hh"

namespace wanify {
namespace sched {

KimchiScheduler::KimchiScheduler(double costWeight,
                                 FractionSearchConfig search)
    : costWeight_(costWeight), search_(search)
{
    fatalIf(costWeight < 0.0, "KimchiScheduler: negative costWeight");
}

Matrix<Bytes>
KimchiScheduler::placeStage(const gda::StageContext &ctx)
{
    const std::size_t n = ctx.inputByDc.size();

    // Memoized stage time plus the weighted egress cost, priced on
    // one scratch assignment reused across the candidate moves.
    gda::StageTimeModel model(ctx);
    Matrix<Bytes> scratch;
    const double weight = costWeight_;
    const FractionObjective objective =
        [&](const std::vector<double> &r) {
            gda::assignmentFromFractionsInto(ctx.inputByDc, r, scratch);
            return model.evaluate(r) +
                   weight * gda::estimateStageCost(ctx, scratch);
        };

    std::vector<double> seed(n, 0.0);
    Bytes total = 0.0;
    for (Bytes b : ctx.inputByDc)
        total += b;
    for (std::size_t j = 0; j < n; ++j) {
        seed[j] = total > 0.0
                      ? ctx.inputByDc[j] / total
                      : 1.0 / static_cast<double>(n);
    }

    applyWarmStart(ctx, seed);

    const auto result =
        searchFractionsDetailed(objective, seed, search_);
    rememberResult(ctx, result);
    return gda::assignmentFromFractions(ctx.inputByDc,
                                        result.fractions);
}

} // namespace sched
} // namespace wanify
