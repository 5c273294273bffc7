#include "gda/scheduler.hh"

#include <algorithm>
#include <cstring>

#include "common/error.hh"

namespace wanify {
namespace gda {

namespace {

/**
 * Check @p ctx for a stage-time estimate and return the forecast to
 * integrate over (null: plan on the snapshot).
 */
const core::BwForecast *
checkedForecast(const StageContext &ctx)
{
    panicIf(ctx.topo == nullptr || ctx.bw == nullptr ||
                ctx.stage == nullptr,
            "estimateStageTime: incomplete context");
    fatalIf(!(ctx.wanShare > 0.0) || ctx.wanShare > 1.0,
            "estimateStageTime: wanShare must be in (0, 1]");
    const core::BwForecast *fc =
        ctx.forecast != nullptr && !ctx.forecast->empty()
            ? ctx.forecast
            : nullptr;
    fatalIf(fc != nullptr && fc->dcCount() != ctx.topo->dcCount(),
            "estimateStageTime: forecast size mismatch");
    return fc;
}

/**
 * Aggregate WAN capacity of DC j (first VM's throttle; transfers
 * into/out of a DC share its NIC no matter what the per-pair BW
 * says). The shuffle-endpoint NIC is shared across concurrent queries
 * exactly like the links are (every query bills traffic to the same
 * first VM), so the granted share scales it too.
 */
Mbps
destinationWanCap(const StageContext &ctx, std::size_t j)
{
    const auto &vms = ctx.topo->dc(j).vms;
    if (vms.empty())
        return 1.0;
    return std::max(1.0,
                    ctx.topo->vm(vms.front()).type.wanCapMbps *
                        ctx.wanShare);
}

/**
 * The column kernel: the terms of destination j's time that depend
 * only on column j, whose bytes from DC i are @p bytesFrom(i).
 */
template <typename BytesFrom>
StageTimeModel::Column
columnTerms(const StageContext &ctx, const core::BwForecast *fc,
            std::size_t j, Mbps wanCap, BytesFrom bytesFrom)
{
    const std::size_t n = ctx.topo->dcCount();
    Seconds slowestIn = 0.0;
    Bytes atJ = 0.0;
    Bytes inbound = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const Bytes bytes = bytesFrom(i);
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
    const double rate = std::max(1.0e-9, ctx.computeRate[j]);
    StageTimeModel::Column c;
    c.slowestIn = slowestIn;
    c.aggregateIn = units::transferTime(inbound, wanCap);
    c.compute = units::toMegabytes(atJ) * ctx.stage->workPerMb / rate;
    return c;
}

/**
 * Destination j's time: its slowest inbound link (transfers overlap),
 * floored by the aggregate ingress and egress times through the DC's
 * WAN capacity, plus local compute on everything assigned there.
 */
Seconds
destinationTime(const StageTimeModel::Column &c, Bytes outbound,
                Mbps wanCap)
{
    const Seconds aggregateOut = units::transferTime(outbound, wanCap);
    const Seconds network =
        std::max({c.slowestIn, c.aggregateIn, aggregateOut});
    return network + c.compute;
}

} // namespace

Seconds
estimateStageTime(const StageContext &ctx,
                  const Matrix<Bytes> &assignment)
{
    const core::BwForecast *fc = checkedForecast(ctx);
    const std::size_t n = ctx.topo->dcCount();
    fatalIf(assignment.rows() != n || assignment.cols() != n,
            "estimateStageTime: assignment shape mismatch");

    Seconds worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const Mbps wanCap = destinationWanCap(ctx, j);
        const StageTimeModel::Column c = columnTerms(
            ctx, fc, j, wanCap,
            [&](std::size_t i) { return assignment.at(i, j); });
        Bytes outbound = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            if (k != j)
                outbound += assignment.at(j, k);
        worst = std::max(worst, destinationTime(c, outbound, wanCap));
    }
    return worst;
}

StageTimeModel::StageTimeModel(const StageContext &ctx)
    : ctx_(ctx), forecast_(checkedForecast(ctx))
{
    const std::size_t n = ctx.topo->dcCount();
    fatalIf(ctx.inputByDc.size() != n,
            "StageTimeModel: input size mismatch");
    wanCap_.resize(n);
    for (std::size_t j = 0; j < n; ++j)
        wanCap_[j] = destinationWanCap(ctx, j);
    slots_.resize(n * kSlots);
}

const StageTimeModel::Column &
StageTimeModel::column(std::size_t j, double r)
{
    std::uint64_t key;
    std::memcpy(&key, &r, sizeof key);
    Slot *slots = &slots_[j * kSlots];
    Slot *victim = slots;
    for (std::size_t s = 0; s < kSlots; ++s) {
        if (slots[s].stamp != 0 && slots[s].key == key) {
            slots[s].stamp = ++clock_;
            return slots[s].terms;
        }
        if (slots[s].stamp < victim->stamp)
            victim = &slots[s];
    }
    const std::vector<Bytes> &in = ctx_.inputByDc;
    victim->terms =
        columnTerms(ctx_, forecast_, j, wanCap_[j],
                    [&](std::size_t i) { return in[i] * r; });
    victim->key = key;
    victim->stamp = ++clock_;
    return victim->terms;
}

Seconds
StageTimeModel::evaluate(const std::vector<double> &r)
{
    const std::size_t n = wanCap_.size();
    fatalIf(r.size() != n, "StageTimeModel: fractions size mismatch");
    const std::vector<Bytes> &in = ctx_.inputByDc;
    Seconds worst = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
        const Column &c = column(j, r[j]);
        // Only the row sum depends on other destinations' fractions.
        Bytes outbound = 0.0;
        for (std::size_t k = 0; k < n; ++k)
            if (k != j)
                outbound += in[j] * r[k];
        worst = std::max(worst, destinationTime(c, outbound, wanCap_[j]));
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
