/**
 * @file
 * Layer timings for the traced run: calls into each layer's public
 * functions on inputs of the workload's shape (its cluster, its peak
 * WAN flows, its allocator demands), one span per call.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <memory>
#include <vector>

#include "bench.hh"
#include "common/matrix.hh"
#include "core/predictor.hh"
#include "net/network_sim.hh"
#include "net/topology.hh"
#include "serve/allocator.hh"

namespace perfbench {

/** One WAN transfer of the workload's peak flow set. */
struct PeakFlow
{
    wanify::net::DcId src = 0;
    wanify::net::DcId dst = 0;
    wanify::Bytes bytes = 0.0;
    wanify::net::FlowGroupId group = 0;
};

/** The workload shape the layer timings reproduce. */
struct LayerShape
{
    const wanify::net::Topology *topo = nullptr;
    wanify::net::NetworkSimConfig simCfg;
    std::shared_ptr<const wanify::core::RuntimeBwPredictor> model;

    /** The transfers in flight at the workload's peak. */
    std::vector<PeakFlow> flows;

    /** Allocator policy and demand sets of the peak cohort. */
    wanify::serve::AllocPolicy policy =
        wanify::serve::AllocPolicy::MaxMinFair;
    std::vector<wanify::serve::QueryDemand> demands;

    /** Simulated seconds per network step (the workload's epoch). */
    wanify::Seconds step = 1.0;

    std::uint64_t seed = 1;
};

/** Off-diagonal cells of @p assignment that move at least 1 MB. */
std::vector<PeakFlow> flowsOf(const wanify::Matrix<wanify::Bytes> &assignment,
                              wanify::net::FlowGroupId group);

/** The allocator demand set of @p flows, grouped by flow group. */
std::vector<wanify::serve::QueryDemand>
demandsOf(const wanify::net::Topology &topo,
          const std::vector<PeakFlow> &flows);

/**
 * Time monitor snapshots, whole-mesh prediction at 8 and 32 DCs,
 * 32-DC placement, warm-start retrain, network stepping and allocation
 * on @p shape; each call is one span under @p parent. Appends the
 * per-layer metrics these spans give to @p out.
 */
void timeLayers(SpanRecorder &rec, SpanId parent,
                const LayerShape &shape, std::vector<Metric> &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
