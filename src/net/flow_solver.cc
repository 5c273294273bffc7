#include "net/flow_solver.hh"

#include <algorithm>
#include <limits>

#include "common/error.hh"

namespace wanify {
namespace net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Resource = SolverScratch::Resource;

/** Binary search the sorted sparse group-share caps for (group, pair);
 *  returns the entry index or -1. */
int
findGroupCap(const std::vector<SolverInputs::GroupShareCap> &caps,
             std::size_t group, std::size_t pair)
{
    auto it = std::lower_bound(
        caps.begin(), caps.end(),
        std::make_pair(group, pair),
        [](const SolverInputs::GroupShareCap &c,
           const std::pair<std::size_t, std::size_t> &key) {
            return c.group != key.first ? c.group < key.first
                                        : c.pair < key.second;
        });
    if (it == caps.end() || it->group != group || it->pair != pair)
        return -1;
    return static_cast<int>(it - caps.begin());
}

} // namespace

Mbps
bundleCap(int connections, Mbps capPerConn, const SolverConfig &cfg)
{
    fatalIf(connections < 1, "bundleCap: connections must be >= 1");
    const double excess =
        std::max(0, connections - cfg.connectionKnee);
    const double efficiency =
        1.0 / (1.0 + cfg.congestionAlpha * excess * excess);
    return static_cast<double>(connections) * capPerConn * efficiency;
}

std::vector<FlowRate>
solveRates(const std::vector<FlowSpec> &flows, const SolverInputs &inputs,
           const SolverConfig &cfg, SolverScratch *scratch)
{
    const std::size_t nf = flows.size();
    std::vector<FlowRate> result(nf);
    if (nf == 0)
        return result;

    panicIf(inputs.dcCount == 0, "solveRates: dcCount is zero");
    panicIf(inputs.pathCap.size() != inputs.dcCount * inputs.dcCount,
            "solveRates: pathCap size mismatch");

    SolverScratch local;
    SolverScratch &s = scratch != nullptr ? *scratch : local;

    // --- Hoisted group-share lookups --------------------------------------
    // Each grouped flow's (group, pair) cap entry is needed twice (the
    // desire pass and the resource build); resolve the binary search
    // once per flow up front.
    s.groupCapOfFlow.assign(nf, -1);
    for (std::size_t f = 0; f < nf; ++f) {
        if (flows[f].group == kNoFlowGroup)
            continue;
        const std::size_t pair =
            flows[f].srcDc * inputs.dcCount + flows[f].dstDc;
        s.groupCapOfFlow[f] =
            findGroupCap(inputs.groupShareCap, flows[f].group, pair);
    }

    // --- Per-VM connection overhead --------------------------------------
    // Total connections terminating at each VM shrink its effective
    // capacities (memory buffers per connection; see SolverConfig).
    s.connsAtVm.assign(inputs.vmEgressCap.size(), 0);
    // Aggregate desire (bundle capability clipped by tc limits)
    // crossing each VM, for the oversubscription-waste term.
    s.desireAtVm.assign(inputs.vmEgressCap.size(), 0.0);
    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        const int c = std::max(1, spec.connections);
        Mbps desire = bundleCap(c, spec.capPerConn, cfg);
        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        if (pair < inputs.tcLimit.size() &&
            inputs.tcLimit[pair] > 0.0)
            desire = std::min(desire, inputs.tcLimit[pair]);
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0 &&
            inputs.groupShareCap[static_cast<std::size_t>(gc)].cap >
                0.0)
            desire = std::min(
                desire,
                inputs.groupShareCap[static_cast<std::size_t>(gc)]
                    .cap);
        if (spec.srcVm < s.connsAtVm.size()) {
            s.connsAtVm[spec.srcVm] += c;
            s.desireAtVm[spec.srcVm] += desire;
        }
        if (spec.dstVm < s.connsAtVm.size()) {
            s.connsAtVm[spec.dstVm] += c;
            s.desireAtVm[spec.dstVm] += desire;
        }
    }
    auto vmPenalty = [&](std::size_t vm) {
        const int excess =
            std::max(0, s.connsAtVm[vm] - cfg.vmConnKnee);
        double penalty = 1.0 + cfg.vmConnAlpha *
                                   static_cast<double>(excess);
        // Oversubscription waste against the VM's NIC capacity.
        const Mbps nic = vm < inputs.vmNicCap.size()
                             ? inputs.vmNicCap[vm]
                             : 0.0;
        if (nic > 0.0 && s.desireAtVm[vm] > nic) {
            penalty *= 1.0 + cfg.oversubAlpha *
                                 (s.desireAtVm[vm] / nic - 1.0);
        }
        return 1.0 / penalty;
    };

    // --- Build resources ------------------------------------------------
    // Resource records are pooled: entries up to resourceCount are
    // live this call, later entries are capacity kept from prior
    // calls (their flows vectors keep their heap buffers).
    std::vector<Resource> &resources = s.resources;
    std::size_t resourceCount = 0;
    // Dense maps from (vm or pair) to resource index; -1 = not created.
    s.egressIdx.assign(inputs.vmEgressCap.size(), -1);
    s.ingressIdx.assign(inputs.vmIngressCap.size(), -1);
    s.nicIdx.assign(inputs.vmNicCap.size(), -1);
    s.pathIdx.assign(inputs.pathCap.size(), -1);
    s.tcIdx.assign(inputs.tcLimit.size(), -1);
    s.groupCapIdx.assign(inputs.groupShareCap.size(), -1);

    auto getResource = [&](std::vector<int> &map, std::size_t key,
                           Mbps cap, Bottleneck kind) -> int {
        panicIf(key >= map.size(), "solveRates: resource key out of range");
        if (map[key] < 0) {
            map[key] = static_cast<int>(resourceCount);
            if (resourceCount == resources.size())
                resources.emplace_back();
            Resource &res = resources[resourceCount];
            res.cap = cap;
            res.used = 0.0;
            res.kind = kind;
            res.flows.clear();
            ++resourceCount;
        }
        return map[key];
    };

    // Per-flow bookkeeping.
    s.weight.assign(nf, 0.0);
    s.selfCap.assign(nf, 0.0);
    if (s.flowResources.size() < nf)
        s.flowResources.resize(nf);
    for (std::size_t f = 0; f < nf; ++f)
        s.flowResources[f].clear();
    s.active.assign(nf, 0);

    for (std::size_t f = 0; f < nf; ++f) {
        const FlowSpec &spec = flows[f];
        panicIf(spec.srcVm >= inputs.vmEgressCap.size() ||
                    spec.dstVm >= inputs.vmIngressCap.size(),
                "solveRates: VM id out of range");
        s.weight[f] = spec.weightPerConn *
                      static_cast<double>(std::max(1, spec.connections));
        s.selfCap[f] = bundleCap(std::max(1, spec.connections),
                                 spec.capPerConn, cfg);
        if (s.weight[f] <= 0.0 || s.selfCap[f] <= cfg.epsilon) {
            result[f] = {0.0, Bottleneck::SelfCap};
            continue;
        }
        s.active[f] = 1;

        auto &fr = s.flowResources[f];
        fr.push_back(getResource(
            s.egressIdx, spec.srcVm,
            inputs.vmEgressCap[spec.srcVm] * vmPenalty(spec.srcVm),
            Bottleneck::SrcVm));
        fr.push_back(getResource(
            s.ingressIdx, spec.dstVm,
            inputs.vmIngressCap[spec.dstVm] * vmPenalty(spec.dstVm),
            Bottleneck::DstVm));
        if (spec.srcVm < inputs.vmNicCap.size()) {
            fr.push_back(getResource(
                s.nicIdx, spec.srcVm,
                inputs.vmNicCap[spec.srcVm] * vmPenalty(spec.srcVm),
                Bottleneck::NicTotal));
        }
        if (spec.dstVm < inputs.vmNicCap.size()) {
            fr.push_back(getResource(
                s.nicIdx, spec.dstVm,
                inputs.vmNicCap[spec.dstVm] * vmPenalty(spec.dstVm),
                Bottleneck::NicTotal));
        }

        const std::size_t pair =
            spec.srcDc * inputs.dcCount + spec.dstDc;
        panicIf(pair >= inputs.pathCap.size(),
                "solveRates: pair index out of range");
        fr.push_back(getResource(s.pathIdx, pair, inputs.pathCap[pair],
                                 Bottleneck::Path));
        if (pair < inputs.tcLimit.size() && inputs.tcLimit[pair] > 0.0) {
            fr.push_back(getResource(s.tcIdx, pair,
                                     inputs.tcLimit[pair],
                                     Bottleneck::TcLimit));
        }
        const int gc = s.groupCapOfFlow[f];
        if (gc >= 0) {
            const auto &entry =
                inputs.groupShareCap[static_cast<std::size_t>(gc)];
            if (entry.cap > 0.0) {
                fr.push_back(getResource(
                    s.groupCapIdx, static_cast<std::size_t>(gc),
                    entry.cap, Bottleneck::GroupShare));
            }
        }
        for (int r : fr)
            resources[static_cast<std::size_t>(r)].flows.push_back(f);
    }

    // --- Weighted progressive filling ------------------------------------
    // All active flows grow their rate proportionally to their weight
    // until either their own capability or a shared resource saturates;
    // saturated flows freeze and the rest continue.
    //
    // The fill is event-driven. With every active flow growing as
    // rate_f = weight_f * theta for a single global fill level theta,
    // each flow's self-cap event sits at the constant key
    // selfCap_f / weight_f, and each resource's saturation key
    // (cap_r - frozenUsed_r) / wsum_r only moves when one of its
    // flows freezes. A min-heap over those keys replaces the naive
    // per-step rescan of every resource and flow — O((flows +
    // resources) log) total instead of O(flows * (memberships +
    // resources)) — which is most of bench_perf_mesh_scale's
    // resolveRates win at 128-256 DCs. Events pop in the total order
    // (key, kind, id): ties pop flows before resources, then
    // ascending id, so same-key freezes keep the naive loop's
    // deterministic order.
    //
    // Each resource keeps one queued entry, at queuedKey_r <= satKey_r.
    // A freeze at theta <= K = satKey_r can only raise the key:
    // (C - U - w theta) / (W - w) >= K. So a freeze re-keys without
    // pushing, unless rounding moved the key below queuedKey_r. When
    // the queued entry pops below the current key it is re-pushed at
    // that key; when it pops at the key, the resource saturates. Every
    // live resource's (satKey_r, 1, r) has a heap entry at or below
    // it, so the first effective event is always the least of them
    // and the flow events: the same freezes, in the same order, as
    // queuing every re-key.
    std::size_t remaining = 0;
    for (std::size_t f = 0; f < nf; ++f)
        remaining += s.active[f] != 0 ? 1 : 0;

    s.frozenUsed.assign(resourceCount, 0.0);
    s.wsum.assign(resourceCount, 0.0);
    s.activeAtResource.assign(resourceCount, 0);
    s.satKey.assign(resourceCount, kInf);
    // Nothing is queued until the heap is seeded below; -inf keeps
    // the pre-freeze pass from pushing.
    s.queuedKey.assign(resourceCount, -kInf);
    for (std::size_t f = 0; f < nf; ++f) {
        if (s.active[f] == 0)
            continue;
        for (int r : s.flowResources[f]) {
            s.wsum[static_cast<std::size_t>(r)] += s.weight[f];
            ++s.activeAtResource[static_cast<std::size_t>(r)];
        }
    }

    auto &heap = s.heap;
    heap.clear();
    auto heapLater = [](const SolverScratch::FillEvent &a,
                        const SolverScratch::FillEvent &b) {
        if (a.key != b.key)
            return a.key > b.key;
        if (a.kind != b.kind)
            return a.kind > b.kind;
        return a.id > b.id;
    };
    auto queueResource = [&](std::size_t r) {
        s.queuedKey[r] = s.satKey[r];
        heap.push_back({s.satKey[r], 1, r});
        std::push_heap(heap.begin(), heap.end(), heapLater);
    };
    auto slackKey = [&](std::size_t r) {
        return std::max(resources[r].cap - s.frozenUsed[r], 0.0) /
               s.wsum[r];
    };

    auto freezeFlow = [&](std::size_t f, Mbps rate, Bottleneck why) {
        if (s.active[f] == 0)
            return;
        s.active[f] = 0;
        result[f].rate = rate;
        result[f].bottleneck = why;
        --remaining;
        for (int ri : s.flowResources[f]) {
            const std::size_t r = static_cast<std::size_t>(ri);
            s.frozenUsed[r] += rate;
            s.wsum[r] -= s.weight[f];
            if (--s.activeAtResource[r] == 0) {
                // Dead for good: a frozen flow never reactivates.
                s.satKey[r] = kInf;
                continue;
            }
            s.satKey[r] = slackKey(r);
            if (s.satKey[r] < s.queuedKey[r])
                queueResource(r);
        }
    };

    // Pre-freeze flows crossing a zero-capacity resource.
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (resources[r].cap <= cfg.epsilon) {
            for (std::size_t f : resources[r].flows)
                freezeFlow(f, 0.0, resources[r].kind);
        }
    }

    // Initial events, heapified at once: one per still-active flow
    // (self capability) and one per resource that still carries
    // active flows.
    for (std::size_t f = 0; f < nf; ++f)
        if (s.active[f] != 0)
            heap.push_back({s.selfCap[f] / s.weight[f], 0, f});
    for (std::size_t r = 0; r < resourceCount; ++r) {
        if (s.activeAtResource[r] == 0)
            continue;
        s.satKey[r] = slackKey(r);
        s.queuedKey[r] = s.satKey[r];
        heap.push_back({s.satKey[r], 1, r});
    }
    std::make_heap(heap.begin(), heap.end(), heapLater);

    std::size_t guard = 0;
    const std::size_t maxEvents = 8 * (nf + resourceCount) + 64;
    while (remaining > 0 && !heap.empty()) {
        panicIf(++guard > maxEvents,
                "solveRates: progressive filling did not converge");
        std::pop_heap(heap.begin(), heap.end(), heapLater);
        const SolverScratch::FillEvent ev = heap.back();
        heap.pop_back();
        if (ev.kind == 0) {
            if (s.active[ev.id] != 0)
                freezeFlow(ev.id, s.selfCap[ev.id],
                           Bottleneck::SelfCap);
            continue;
        }
        // Resource entry: skip dead resources and entries a lower
        // push superseded; re-queue one that freezes have raised.
        const std::size_t r = ev.id;
        if (s.activeAtResource[r] == 0 || ev.key != s.queuedKey[r])
            continue;
        if (ev.key != s.satKey[r]) {
            queueResource(r);
            continue;
        }
        const double theta = ev.key;
        for (std::size_t f : resources[r].flows)
            if (s.active[f] != 0)
                freezeFlow(f, s.weight[f] * theta,
                           resources[r].kind);
    }

    return result;
}

} // namespace net
} // namespace wanify
