#include "layers.hh"

#include <algorithm>
#include <cmath>

#include "common/rng.hh"
#include "core/bandwidth_analyzer.hh"
#include "core/wanify.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "monitor/features.hh"
#include "monitor/measurement.hh"
#include "sched/tetrium.hh"
#include "workloads/tpcds.hh"

namespace perfbench {

using namespace wanify;

namespace {

/** Repetitions per timed call: enough for a stable median, cheap
 *  enough that layer timing stays a small part of a traced run. */
constexpr std::size_t kSnapshotReps = 5;
constexpr std::size_t kPredictReps = 20;
constexpr std::size_t kPlaceReps = 3;
constexpr std::size_t kRetrainReps = 3;
constexpr std::size_t kAllocateReps = 50;

/** Largest mesh the wide-mesh timings use (992 ordered pairs). */
constexpr std::size_t kWideDcs = 32;

/** Cap on one flow's bytes in the network timing, so the stepped
 *  drain ends within a bounded number of steps. */
constexpr Bytes kMaxFlowBytes = 2.0e9;
constexpr std::size_t kMaxNetSteps = 4000;

Matrix<Mbps>
liveSnapshot(net::NetworkSim &sim, Rng &rng)
{
    monitor::MeshMeasurer measurer(sim);
    return measurer.snapshot(monitor::MeasurementConfig{}, rng);
}

double
medianMs(const std::vector<Span> &spans, const char *name)
{
    return percentile(durationsUs(spans, name), 0.5) / 1000.0;
}

} // namespace

std::vector<PeakFlow>
flowsOf(const Matrix<Bytes> &assignment, net::FlowGroupId group)
{
    std::vector<PeakFlow> out;
    for (std::size_t i = 0; i < assignment.rows(); ++i)
        for (std::size_t j = 0; j < assignment.cols(); ++j)
            if (i != j && assignment.at(i, j) >= 1.0e6)
                out.push_back({static_cast<net::DcId>(i),
                               static_cast<net::DcId>(j),
                               assignment.at(i, j), group});
    return out;
}

std::vector<serve::QueryDemand>
demandsOf(const net::Topology &topo, const std::vector<PeakFlow> &flows)
{
    std::vector<serve::QueryDemand> out;
    for (const PeakFlow &f : flows) {
        if (out.empty() || out.back().group != f.group)
            out.push_back({f.group, 1.0, {}});
        // Elastic demand: the query takes whatever share it is granted.
        out.back().pairs.push_back({topo.pairIndex(f.src, f.dst), 0.0});
    }
    for (auto &d : out)
        std::sort(d.pairs.begin(), d.pairs.end(),
                  [](const serve::PairDemand &a,
                     const serve::PairDemand &b) {
                      return a.pair < b.pair;
                  });
    std::sort(out.begin(), out.end(),
              [](const serve::QueryDemand &a,
                 const serve::QueryDemand &b) { return a.group < b.group; });
    return out;
}

void
timeLayers(SpanRecorder &rec, SpanId parent, const LayerShape &shape,
           std::vector<Metric> &out)
{
    const net::Topology &topo = *shape.topo;
    const core::RuntimeBwPredictor &model = *shape.model;
    Rng rng(shape.seed ^ 0x1a7e5ULL);

    // --- monitor + core at the workload's cluster ----------------------
    net::NetworkSim sim(topo, shape.simCfg, shape.seed);
    sim.advanceBy(10.0);
    Matrix<Mbps> snapshot;
    for (std::size_t r = 0; r < kSnapshotReps; ++r) {
        ScopedSpan s(rec, "monitor.snapshot", parent, kNoQuery);
        snapshot = liveSnapshot(sim, rng);
    }
    core::PredictScratch scratch;
    (void)model.predictMatrix(topo, snapshot, scratch); // grow buffers
    for (std::size_t r = 0; r < kPredictReps; ++r) {
        ScopedSpan s(rec, "core.predict_matrix_8dc", parent, kNoQuery);
        (void)model.predictMatrix(topo, snapshot, scratch);
    }

    // Warm-start retrain on one runtime gauge's rows: the unit of work
    // a drift-triggered retrain (engine) or a periodic publish (serve)
    // adds per gauge.
    core::Wanify wanify;
    wanify.setPredictor(shape.model);
    const auto gauge = wanify.gaugeRuntime(sim, rng, model);
    ml::Dataset rows(monitor::kFeatureCount, 1);
    core::BandwidthAnalyzer::appendRows(
        rows, topo, {topo.dcCount(), gauge.snapshot, gauge.stable}, rng);
    for (std::size_t r = 0; r < kRetrainReps; ++r) {
        ScopedSpan s(rec, "core.retrain", parent, kNoQuery);
        (void)wanify.retrain(rows, shape.seed + r, shape.model, false);
    }

    // --- wide mesh: prediction and placement at 32 DCs -----------------
    {
        const net::Topology wide = experiments::workerCluster(kWideDcs);
        net::NetworkSim wideSim(wide, shape.simCfg, shape.seed);
        wideSim.advanceBy(10.0);
        const Matrix<Mbps> wideSnap = liveSnapshot(wideSim, rng);
        core::PredictScratch wideScratch;
        const Matrix<Mbps> wideBw =
            model.predictMatrix(wide, wideSnap, wideScratch);
        for (std::size_t r = 0; r < kPredictReps / 2; ++r) {
            ScopedSpan s(rec, "core.predict_matrix_32dc", parent,
                         kNoQuery);
            (void)model.predictMatrix(wide, wideSnap, wideScratch);
        }

        // A heavy TPC-DS proxy over input skewed toward the first DCs,
        // the shape of the service's heavy queries.
        const gda::JobSpec job =
            workloads::tpcDsQuery(workloads::TpcDsQuery::Q95, 20.0);
        std::vector<Bytes> input(kWideDcs, 0.0);
        double weightSum = 0.0;
        for (std::size_t d = 0; d < kWideDcs; ++d)
            weightSum += std::pow(0.6, static_cast<double>(d));
        for (std::size_t d = 0; d < kWideDcs; ++d)
            input[d] = job.inputBytes *
                       std::pow(0.6, static_cast<double>(d)) / weightSum;
        const gda::StageContext ctx =
            gda::makeStageContext(wide, job, 0, input, wideBw);
        sched::TetriumScheduler tetrium;
        for (std::size_t r = 0; r < kPlaceReps; ++r) {
            ScopedSpan s(rec, "sched.place_32dc", parent, kNoQuery);
            (void)tetrium.placeStage(ctx);
        }
    }

    // --- net: the peak flow set, stepped at the workload's epoch -------
    auto loadedSim = [&] {
        net::NetworkSim loaded(topo, shape.simCfg, shape.seed);
        for (const PeakFlow &f : shape.flows)
            loaded.startTransfer(gda::shuffleEndpointVm(topo, f.src),
                                 gda::shuffleEndpointVm(topo, f.dst),
                                 std::min(f.bytes, kMaxFlowBytes), 1,
                                 f.group);
        return loaded;
    };
    std::size_t completions = 0;
    {
        net::NetworkSim loaded = loadedSim();
        for (std::size_t step = 0;
             step < kMaxNetSteps && !loaded.allTransfersDone(); ++step) {
            ScopedSpan s(rec, "net.advance", parent, kNoQuery);
            loaded.advanceBy(shape.step);
            completions += loaded.drainCompletions().size();
        }
    }

    // --- serve: one allocation round over the peak cohort --------------
    {
        net::NetworkSim loaded = loadedSim();
        serve::BandwidthAllocator allocator(shape.policy);
        for (std::size_t r = 0; r < kAllocateReps; ++r) {
            ScopedSpan s(rec, "serve.allocate", parent, kNoQuery);
            (void)allocator.allocate(loaded, shape.demands);
        }
    }

    const auto spans = rec.spans();
    const double netUs = sum(durationsUs(spans, "net.advance"));
    out.push_back({"monitor.snapshot_ms", medianMs(spans, "monitor.snapshot"),
                   "ms"});
    out.push_back({"core.predict_matrix_us_8dc",
                   1000.0 * medianMs(spans, "core.predict_matrix_8dc"),
                   "us"});
    out.push_back({"core.predict_matrix_us_32dc",
                   1000.0 * medianMs(spans, "core.predict_matrix_32dc"),
                   "us"});
    out.push_back({"core.retrain_ms_p50", medianMs(spans, "core.retrain"),
                   "ms"});
    out.push_back({"sched.place_ms_32dc",
                   medianMs(spans, "sched.place_32dc"), "ms"});
    out.push_back({"net.us_per_completion",
                   completions == 0
                       ? 0.0
                       : netUs / static_cast<double>(completions),
                   "us"});
    out.push_back({"net.flows_peak",
                   static_cast<double>(shape.flows.size()), "count"});
    out.push_back({"serve.allocate_us",
                   1000.0 * medianMs(spans, "serve.allocate"), "us"});
}

} // namespace perfbench
