#include "gda/scheduler.hh"

#include <algorithm>

#include "common/error.hh"

namespace wanify {
namespace gda {

Seconds
estimateStageTime(const StageContext &ctx,
                  const Matrix<Bytes> &assignment)
{
    panicIf(ctx.topo == nullptr || ctx.bw == nullptr ||
                ctx.stage == nullptr,
            "estimateStageTime: incomplete context");
    const std::size_t n = ctx.topo->dcCount();
    fatalIf(assignment.rows() != n || assignment.cols() != n,
            "estimateStageTime: assignment shape mismatch");
    fatalIf(!(ctx.wanShare > 0.0) || ctx.wanShare > 1.0,
            "estimateStageTime: wanShare must be in (0, 1]");
    const core::BwForecast *fc =
        ctx.forecast != nullptr && !ctx.forecast->empty()
            ? ctx.forecast
            : nullptr;
    fatalIf(fc != nullptr && fc->dcCount() != n,
            "estimateStageTime: forecast size mismatch");

    // Per destination: slowest inbound link (transfers overlap),
    // floored by the aggregate ingress and egress times through the
    // DC's WAN capacity, plus local compute on everything assigned
    // there.
    Seconds worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        Seconds slowestIn = 0.0;
        Bytes atJ = 0.0;
        Bytes inbound = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const Bytes bytes = assignment.at(i, j);
            atJ += bytes;
            if (i == j || bytes <= 0.0)
                continue;
            inbound += bytes;
            // Plan with only the WAN share this query was granted:
            // concurrent queries consume the rest of the link, so
            // assuming the full believed BW would systematically
            // under-estimate transfer time under a resident service.
            // The rate floor is kMinFeasibleMbps, not 1 Mbps: a
            // zero/near-zero pair (outage) must look infeasible —
            // astronomically slow yet finite, so the fraction search
            // keeps a gradient away from it — rather than like a
            // slow-but-usable 1 Mbps link.
            const Seconds linkTime =
                fc != nullptr
                    ? fc->transferTime(i, j, bytes, ctx.wanShare,
                                       ctx.planTime)
                    : units::transferTime(
                          bytes,
                          std::max(core::BwForecast::kMinFeasibleMbps,
                                   ctx.bw->at(i, j) * ctx.wanShare));
            slowestIn = std::max(slowestIn, linkTime);
        }
        // Aggregate WAN capacity of DC j (first VM's throttle;
        // transfers into/out of a DC share its NIC no matter what the
        // per-pair BW says). The shuffle-endpoint NIC is shared across
        // concurrent queries exactly like the links are (every query
        // bills traffic to the same first VM), so the granted share
        // scales it too.
        Mbps wanCap = 1.0;
        const auto &vms = ctx.topo->dc(j).vms;
        if (!vms.empty())
            wanCap = std::max(
                1.0,
                ctx.topo->vm(vms.front()).type.wanCapMbps * ctx.wanShare);
        Bytes outbound = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            if (k != j)
                outbound += assignment.at(j, k);
        const Seconds aggregateIn = units::transferTime(inbound, wanCap);
        const Seconds aggregateOut = units::transferTime(outbound, wanCap);
        const Seconds network =
            std::max({slowestIn, aggregateIn, aggregateOut});
        const double rate = std::max(1.0e-9, ctx.computeRate[j]);
        const Seconds compute =
            units::toMegabytes(atJ) * ctx.stage->workPerMb / rate;
        worst = std::max(worst, network + compute);
    }
    return worst;
}

Dollars
estimateStageCost(const StageContext &ctx,
                  const Matrix<Bytes> &assignment)
{
    panicIf(ctx.topo == nullptr, "estimateStageCost: missing topology");
    const std::size_t n = ctx.topo->dcCount();
    Dollars total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            const double gb = assignment.at(i, j) / 1.0e9;
            total += gb * ctx.egressPrice[i];
        }
    }
    return total;
}

void
assignmentFromFractionsInto(const std::vector<Bytes> &inputByDc,
                            const std::vector<double> &fractions,
                            Matrix<Bytes> &out)
{
    const std::size_t n = inputByDc.size();
    fatalIf(fractions.size() != n,
            "assignmentFromFractions: size mismatch");
    if (out.rows() != n || out.cols() != n)
        out = Matrix<Bytes>::square(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            out.at(i, j) = inputByDc[i] * fractions[j];
}

Matrix<Bytes>
assignmentFromFractions(const std::vector<Bytes> &inputByDc,
                        const std::vector<double> &fractions)
{
    Matrix<Bytes> a;
    assignmentFromFractionsInto(inputByDc, fractions, a);
    return a;
}

} // namespace gda
} // namespace wanify
