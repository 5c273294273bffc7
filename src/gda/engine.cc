#include "gda/engine.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gda/event_clock.hh"
#include "monitor/features.hh"
#include "scenario/forecast.hh"
#include "scenario/scenario.hh"

namespace wanify {
namespace gda {

using net::DcId;
using net::NetworkSim;
using net::TransferId;
using net::VmId;

namespace {

constexpr Bytes kMinAccountedBytes = 1024.0 * 1024.0; // 1 MB

/** Mean absolute gap between two BW matrices over off-diagonal
 *  pairs — the pre/post-retrain prediction-error metric. */
double
meanAbsOffDiag(const Matrix<Mbps> &a, const Matrix<Mbps> &b)
{
    const std::size_t n = a.rows();
    double sum = 0.0;
    std::size_t pairs = 0;
    for (DcId i = 0; i < n; ++i) {
        for (DcId j = 0; j < n; ++j) {
            if (i == j)
                continue;
            sum += std::abs(a.at(i, j) - b.at(i, j));
            ++pairs;
        }
    }
    return pairs == 0 ? 0.0 : sum / static_cast<double>(pairs);
}

/** One in-flight shuffle transfer of the current stage. */
struct PendingTransfer
{
    DcId src, dst;
    Bytes bytes;
    Seconds done = 0.0;

    /** 0-based send attempt this flight is (retries increment). */
    std::size_t attempt = 0;
};

/** An aborted (or blackout-deferred) transfer waiting out backoff.
 *  Its bytes live here, not in the stage assignment, until it flies:
 *  a retry the stage guard drops never reaches the compute phase. */
struct RetryItem
{
    DcId src, dst;
    Bytes bytes;
    std::size_t attempt = 0;
    Seconds due = 0.0;
};

} // namespace

VmId
shuffleEndpointVm(const net::Topology &topo, DcId dc)
{
    panicIf(topo.dc(dc).vms.empty(), "engine: DC without VMs");
    return topo.dc(dc).vms.front();
}

StageContext
makeStageContext(const net::Topology &topo, const JobSpec &job,
                 std::size_t stageIdx,
                 const std::vector<Bytes> &inputByDc,
                 const Matrix<Mbps> &bw)
{
    StageContext ctx;
    ctx.topo = &topo;
    ctx.bw = &bw;
    ctx.inputByDc = inputByDc;
    ctx.stage = &job.stages[stageIdx];
    ctx.stageIndex = stageIdx;

    const std::size_t n = topo.dcCount();
    ctx.computeRate.assign(n, 0.0);
    ctx.egressPrice.assign(n, 0.0);
    for (DcId dc = 0; dc < n; ++dc) {
        for (VmId v : topo.dc(dc).vms)
            ctx.computeRate[dc] += topo.vm(v).type.computeRate;
        ctx.egressPrice[dc] = topo.dc(dc).region.egressPerGb;
    }
    return ctx;
}

ComputePhase
computePhase(const StageSpec &spec, const Matrix<Bytes> &assignment,
             const std::vector<double> &computeRate,
             const std::vector<Seconds> &transferDone, Seconds now)
{
    const std::size_t n = assignment.rows();
    ComputePhase phase;
    phase.end = now;
    phase.nextInput.assign(n, 0.0);
    for (DcId j = 0; j < n; ++j) {
        Bytes atJ = 0.0;
        for (DcId i = 0; i < n; ++i)
            atJ += assignment.at(i, j);
        const double rate = std::max(1.0e-9, computeRate[j]);
        const Seconds compute =
            units::toMegabytes(atJ) * spec.workPerMb / rate;
        phase.end = std::max(phase.end, transferDone[j] + compute);
        phase.nextInput[j] = atJ * spec.selectivity;
    }
    return phase;
}

Engine::Engine(net::Topology topo, net::NetworkSimConfig simCfg,
               std::uint64_t seed)
    : topo_(std::move(topo)), simCfg_(simCfg), seed_(seed)
{}

QueryResult
Engine::run(const JobSpec &job, const std::vector<Bytes> &inputByDc,
            Scheduler &scheduler, const RunOptions &opts)
{
    const std::size_t n = topo_.dcCount();
    fatalIf(job.stages.empty(), "Engine::run: job has no stages");
    fatalIf(inputByDc.size() != n,
            "Engine::run: input distribution size mismatch");
    fatalIf(opts.schedulerBw.rows() != n ||
                opts.schedulerBw.cols() != n,
            "Engine::run: scheduler BW matrix shape mismatch");

    std::uint64_t runSeed = seed_ + 0x9e37 * (++runCounter_);
    NetworkSim sim(topo_, simCfg_, runSeed);
    Rng rng(runSeed ^ 0xc0ffee);

    // Scenario time zero is job start: install initial conditions
    // before WANify snapshots the network, so prediction and planning
    // see the scenario's opening state.
    scenario::DynamicsCursor dynamics(opts.dynamics, n);
    dynamics.advanceTo(sim, sim.now());

    // --- WANify deployment (Section 4.1) ---------------------------------
    core::GlobalPlan plan;
    core::Wanify::Deployment deployment;
    auto &agents = deployment.agents;
    Matrix<Mbps> predicted;
    Seconds epoch = 1.0;
    // The run pins one predictor snapshot up front: retrains by
    // concurrent trials may swap the facade's published model at any
    // time, but this run's predictions (and its own warm starts)
    // evolve only from the pinned lineage, keeping every trial
    // deterministic in its seed alone.
    std::shared_ptr<const core::RuntimeBwPredictor> model;
    if (opts.wanify != nullptr) {
        model = opts.wanify->predictorSnapshot();
        if (opts.predictedBwOverride.has_value()) {
            predicted = *opts.predictedBwOverride;
        } else {
            fatalIf(model == nullptr || !model->trained(),
                    "Engine::run: WANify predictor not trained");
            predicted = opts.wanify->predictRuntimeBw(sim, rng,
                                                      *model);
        }
        plan = opts.wanify->plan(predicted, opts.skewWeights,
                                 opts.rvec);
        deployment = opts.wanify->deploy(sim, plan, predicted);
        epoch = opts.wanify->config().aimd.epoch;
    }

    // Out-of-date model detection (Section 3.3.4): the paper
    // intermittently compares predicted BWs against observed runtime
    // values on the monitoring plane. The simulator's stand-in for
    // that re-measurement is the shared capacity-factor gauge
    // (core/drift.hh): quiet under stationary noise and WANify's own
    // throttling, firing when the scenario moves real capacity away
    // from what the model was calibrated on.
    core::CapacityDriftGauge drift(
        opts.wanify != nullptr ? opts.wanify->config().drift
                               : core::DriftConfig{},
        n);
    drift.rebase(sim);

    auto connectionsFor = [&](DcId i, DcId j) -> int {
        if (!agents.empty())
            return 1; // agents overwrite via applyTargets()
        if (opts.wanify != nullptr &&
            opts.wanify->config().features.globalOptimization) {
            // Global-only ablation: fixed at the plan's maximum.
            return plan.maxCons.at(i, j);
        }
        if (!opts.staticConnections.empty())
            return std::max(1, opts.staticConnections.at(i, j));
        return 1;
    };

    // The query's bill is a ledger of its own shuffle transfers: each
    // adds the bytes it moved when it leaves the simulator (completed
    // or stopped). WANify's probes and flash-crowd bursts are other
    // transfers, so they never enter it.
    QueryResult result;
    result.wanBytesByPair = Matrix<Bytes>::square(n, 0.0);
    auto bill = [&](DcId src, DcId dst, Bytes moved) {
        result.wanBytesByPair.at(src, dst) += moved;
    };

    // Training rows gauged at runtime accumulate across this run's
    // retrains (Section 3.3.4: "the additionally collected samples");
    // each warm start trains its extra trees on the union so far.
    ml::Dataset gaugedRows(monitor::kFeatureCount, 1);
    double preErrSum = 0.0, postErrSum = 0.0;

    const Seconds jobStart = sim.now();
    std::vector<Bytes> stageInput = inputByDc;
    bool sawWanTraffic = false;

    // --- fault injection & recovery state ----------------------------
    // Null `faults` keeps every code path below structurally identical
    // to a fault-free build: the lambdas exist but are never invoked
    // with work to do, and the stage loop schedules no extra events.
    const fault::FaultPlan *faults = opts.faults;
    if (faults == nullptr && opts.dynamics != nullptr)
        faults = opts.dynamics->faultPlan();
    if (faults != nullptr && faults->empty())
        faults = nullptr;
    fatalIf(faults != nullptr && faults->dcCount() != n,
            "Engine::run: fault plan compiled for a different cluster "
            "size");
    fault::PredictorHealth health(opts.predictorHealth);
    std::vector<char> agentCrashed(n, 0);
    Seconds faultCursor = -1.0;
    std::uint64_t retryRngState = runSeed ^ 0xfa177e7ULL;
    auto notePredictorMode = [&]() {
        ++result.predictorModeSwitches;
        result.worstPredictorMode =
            std::max(result.worstPredictorMode,
                     static_cast<int>(health.mode()));
    };

    // Per-stage execution state, hoisted to run scope so the recovery
    // lambdas and the retrain path share one view of the in-flight
    // stage; reset at the top of each stage. The EventClock's seq
    // counter keeps running across clear(), so hoisting it preserves
    // the pre-fault pop order bit for bit.
    std::map<TransferId, PendingTransfer> pending;
    std::vector<PendingTransfer> retired;
    Matrix<Bytes> assignment;
    EventClock clock;
    std::vector<RetryItem> retries;
    std::size_t stageIdx = 0;

    // Forecast-aware planning state: warm-start memory for the
    // fraction-search schedulers (per run, because scheduler
    // instances are shared across parallel trials and must stay
    // stateless) and the gauge trend that backs deployed-mode
    // forecasts when no dynamics timetable exists.
    PlanMemory planMemory;
    core::GaugeTrend trend;
    if (opts.wanify != nullptr && !predicted.empty())
        trend.record(sim.now(), predicted);
    auto buildForecast = [&]() -> core::BwForecast {
        if (!opts.forecast.enabled)
            return {};
        if (opts.dynamics != nullptr)
            return scenario::forecastFromDynamics(
                *opts.dynamics, opts.schedulerBw, sim.now(),
                opts.forecast);
        if (trend.ready())
            return trend.forecast(sim.now(), opts.forecast.horizon,
                                  opts.forecast.step);
        return {};
    };

    // --- fault recovery machinery ------------------------------------
    // Start (or blackout-defer) one shuffle transfer whose bytes are
    // already counted in `assignment`. A pair that is dark right now
    // holds its bytes back in the retry queue (and out of the
    // assignment) until the blackout clears.
    auto startShuffleTransfer = [&](DcId i, DcId j, Bytes bytes,
                                    std::size_t attempt) -> bool {
        if (faults != nullptr &&
            faults->pairBlackedOutAt(i, j, sim.now())) {
            assignment.at(i, j) -= bytes;
            const Seconds due =
                faults->blackoutClearTime(i, j, sim.now());
            result.backoffSeconds += due - sim.now();
            retries.push_back({i, j, bytes, attempt, due});
            clock.push(due, ClockEventKind::RetryDue);
            return false;
        }
        const TransferId id = sim.startTransfer(
            shuffleEndpointVm(topo_, i), shuffleEndpointVm(topo_, j),
            bytes, connectionsFor(i, j));
        pending[id] = {i, j, bytes, 0.0, attempt};
        return true;
    };

    // Place part of the current stage's input mid-flight (forecast-
    // aware when enabled): add the placement to the assignment and
    // start its off-diagonal transfers.
    auto placeResidual = [&](const std::vector<Bytes> &residual,
                             const Matrix<Mbps> &belief,
                             PlanMemory *memory) {
        StageContext rctx =
            makeStageContext(topo_, job, stageIdx, residual, belief);
        rctx.memory = memory;
        const core::BwForecast fc = buildForecast();
        if (!fc.empty()) {
            rctx.forecast = &fc;
            rctx.planTime = sim.now();
        }
        const Matrix<Bytes> placed = scheduler.placeStage(rctx);
        for (DcId i = 0; i < n; ++i) {
            for (DcId j = 0; j < n; ++j) {
                const Bytes b = placed.at(i, j);
                if (b < 1.0)
                    continue;
                assignment.at(i, j) += b;
                if (i == j)
                    continue;
                startShuffleTransfer(i, j, b, 0);
            }
        }
    };

    // A transfer that exhausted its retry budget re-places its
    // undelivered bytes as a fresh residual placement with the dead
    // pair's believed bandwidth floored, so the fraction search routes
    // around it (the replan-of-undelivered-bytes path, alternate-path
    // flavor). No warm-start memory: the penalized belief has a
    // different shape than the stage's original plan.
    auto replanResidual = [&](DcId src, DcId dst, Bytes bytes) {
        ++result.faultReplans;
        std::vector<Bytes> residual(n, 0.0);
        residual[src] = bytes;
        Matrix<Mbps> penalized = opts.schedulerBw;
        penalized.at(src, dst) = core::BwForecast::kMinFeasibleMbps;
        placeResidual(residual, penalized, nullptr);
    };

    // Kill one in-flight transfer: retire its delivered part, drop the
    // remainder from the assignment, and either queue a backed-off
    // retry or fall through to the residual replan.
    auto abortTransfer = [&](TransferId id) {
        auto it = pending.find(id);
        if (it == pending.end())
            return;
        const auto live = sim.status(id);
        if (!live.exists || live.bytesRemaining < 1.0)
            return; // effectively delivered; completion handling owns it
        const PendingTransfer t = it->second;
        const auto status = sim.stopTransfer(id);
        bill(t.src, t.dst, status.bytesMoved);
        assignment.at(t.src, t.dst) -= status.bytesRemaining;
        if (status.bytesMoved >= 1.0) {
            PendingTransfer part = t;
            part.bytes = status.bytesMoved;
            part.done = sim.now();
            retired.push_back(part);
        }
        pending.erase(it);
        ++result.transferAborts;
        result.lostBytes += status.bytesRemaining;
        if (t.attempt + 1 < opts.retry.maxAttempts) {
            Seconds due = sim.now() +
                          opts.retry.backoff(t.attempt,
                                             splitmix64(retryRngState));
            if (faults != nullptr)
                due = std::max(due, faults->blackoutClearTime(
                                        t.src, t.dst, due));
            result.backoffSeconds += due - sim.now();
            retries.push_back({t.src, t.dst, status.bytesRemaining,
                               t.attempt + 1, due});
            clock.push(due, ClockEventKind::RetryDue);
        } else {
            replanResidual(t.src, t.dst, status.bytesRemaining);
        }
    };

    // Launch every queued retry whose backoff has expired. A retry
    // that finds its pair dark again nets back out of the assignment
    // and re-queues with a later due time, so the index scan below
    // never revisits it this pass.
    auto startDueRetries = [&]() {
        for (std::size_t k = 0; k < retries.size();) {
            if (retries[k].due > sim.now() + 1.0e-9) {
                ++k;
                continue;
            }
            const RetryItem item = retries[k];
            retries.erase(retries.begin() +
                          static_cast<std::ptrdiff_t>(k));
            assignment.at(item.src, item.dst) += item.bytes;
            if (startShuffleTransfer(item.src, item.dst, item.bytes,
                                     item.attempt) &&
                item.attempt > 0)
                ++result.transferRetries;
        }
    };

    // Install each agent's plan targets and restart its AIMD window,
    // skipping the agents of DCs flagged in @p skip.
    auto rearmAgents = [&](const std::vector<char> &skip) {
        for (auto &agent : agents) {
            if (skip[agent->sourceDc()])
                continue;
            agent->applyTargets();
            agent->resetWindow();
        }
    };
    auto crashAgentAt = [&](int dc) {
        ++result.agentCrashes;
        if (agentCrashed[static_cast<std::size_t>(dc)])
            return;
        agentCrashed[static_cast<std::size_t>(dc)] = 1;
        // The dead agent's throttles dissolve: its outgoing pairs fall
        // back to unthrottled contention until it restarts.
        for (DcId j = 0; j < n; ++j)
            if (static_cast<DcId>(dc) != j)
                sim.setTcLimit(static_cast<DcId>(dc), j, 0.0);
    };
    auto restartCrashedAgents = [&](Seconds t) {
        std::vector<char> stillDown(n, 1);
        for (DcId dc = 0; dc < n; ++dc) {
            if (!agentCrashed[dc] || faults->agentCrashedAt(
                                         static_cast<int>(dc), t))
                continue;
            agentCrashed[dc] = 0;
            stillDown[dc] = 0;
        }
        rearmAgents(stillDown);
    };
    // Crashed agents must not re-throttle, so a redeploy (which
    // installs fresh static throttles for every DC) re-clears theirs.
    auto clearCrashedThrottles = [&]() {
        for (DcId dc = 0; dc < n; ++dc)
            if (agentCrashed[dc])
                for (DcId j = 0; j < n; ++j)
                    if (dc != j)
                        sim.setTcLimit(dc, j, 0.0);
    };

    // Fire every fault whose start lies in (faultCursor, t], then
    // restart agents whose crash windows have closed. ProbeLoss /
    // GaugeTimeout have no edge action — the retrain path queries
    // their windows at gauge time.
    auto applyFaultsUpTo = [&](Seconds t) {
        if (faults == nullptr)
            return;
        std::vector<std::size_t> started;
        faults->startsIn(faultCursor, t, started);
        for (std::size_t fi : started) {
            const fault::CompiledFault &cf = faults->events()[fi];
            ++result.faultsInjected;
            switch (cf.ev.kind) {
            case fault::FaultKind::DcBlackout:
                ++result.blackouts;
                [[fallthrough]];
            case fault::FaultKind::TransferAbort: {
                std::vector<TransferId> hit;
                for (const auto &[id, tr] : pending)
                    if (cf.ev.killsTransfer(tr.src, tr.dst))
                        hit.push_back(id);
                for (const TransferId id : hit)
                    abortTransfer(id);
                break;
            }
            case fault::FaultKind::AgentCrash:
                crashAgentAt(cf.ev.dc);
                break;
            case fault::FaultKind::ProbeLoss:
            case fault::FaultKind::GaugeTimeout:
                break;
            }
        }
        faultCursor = std::max(faultCursor, t);
        restartCrashedAgents(t);
    };

    // Re-plan and redeploy WANify from @p belief; crashed agents stay
    // down.
    auto redeploy = [&](const Matrix<Mbps> &belief) {
        plan = opts.wanify->plan(belief, opts.skewWeights, opts.rvec);
        deployment = opts.wanify->deploy(sim, plan, belief);
        rearmAgents(agentCrashed);
        clearCrashedThrottles();
    };

    // The online learning loop (Section 3.3.4), invoked when the
    // drift gauge fires under adaptOnDrift: clear the stale
    // throttles, gauge the live network (snapshot + one epoch of
    // stable mesh BW — this costs measurement time, as in the
    // paper), convert the gauge into training rows, warm-start
    // retrain the pinned model, then re-predict from a second
    // out-of-sample gauge, re-plan, and redeploy fresh agents. The
    // gauges' probes are measurement flows, so the query's ledger
    // never sees them.
    auto retrainAndRedeploy =
        [&](Seconds &nextEpoch) {
            fault::FaultKind gaugeKind = fault::FaultKind::ProbeLoss;
            if (faults != nullptr &&
                faults->gaugeFaultAt(sim.now(), &gaugeKind)) {
                // The gauge never lands: no training rows, no fresh
                // prediction. A hung probe (GaugeTimeout) still costs
                // the measurement epoch; a fast error (ProbeLoss)
                // does not. Step the health ladder down and re-plan
                // from the best belief the ladder still allows —
                // trend extrapolation, then the static a-priori
                // matrix.
                ++result.gaugeFaults;
                if (gaugeKind == fault::FaultKind::GaugeTimeout)
                    sim.runUntilAllComplete(sim.now() + epoch);
                if (health.recordFailure())
                    notePredictorMode();
                Matrix<Mbps> belief;
                if (health.mode() == fault::PredictorMode::Trend &&
                    trend.size() > 0) {
                    belief = trend.extrapolateAt(sim.now());
                    ++result.trendPlans;
                } else {
                    belief = opts.schedulerBw;
                    ++result.staticPlans;
                }
                // Sanitize: the ladder exists precisely because bad
                // data shows up on this path.
                for (DcId i = 0; i < n; ++i)
                    for (DcId j = 0; j < n; ++j)
                        if (!std::isfinite(belief.at(i, j)) ||
                            belief.at(i, j) < 0.0)
                            belief.at(i, j) =
                                opts.schedulerBw.at(i, j);
                deployment.clear(sim);
                redeploy(belief);
                predicted = belief;
                // Do not trend.record(): feeding extrapolations back
                // into the trend would let the ladder hallucinate.
                nextEpoch = sim.now();
                return;
            }
            deployment.clear(sim);

            // Gauge A: the stale model's error under current
            // conditions, and the training rows.
            const auto gaugeA =
                opts.wanify->gaugeRuntime(sim, rng, *model);
            preErrSum +=
                meanAbsOffDiag(gaugeA.predicted, gaugeA.stable);
            core::CollectedMesh mesh;
            mesh.clusterSize = n;
            mesh.snapshotBw = gaugeA.snapshot;
            mesh.stableBw = gaugeA.stable;
            std::uint64_t retrainState =
                runSeed ^ (0x9e3779b97f4a7c15ULL *
                           (result.retrainsApplied + 1));
            const std::uint64_t retrainSeed =
                splitmix64(retrainState);
            const ml::Dataset *trainingRows;
            if (opts.campaign != nullptr) {
                // Cross-run campaign: the gauge joins the shared
                // incremental dataset and the warm start learns from
                // every run's gauges.
                opts.campaign->absorb(topo_, {mesh}, retrainSeed);
                trainingRows = &opts.campaign->incremental();
            } else {
                core::BandwidthAnalyzer::appendRows(gaugedRows,
                                                    topo_, mesh,
                                                    rng);
                trainingRows = &gaugedRows;
            }

            // Warm-start retrain the pinned lineage; publishing
            // (opt-in) atomically swaps the facade's model for
            // future runs. The wall time is real control-plane
            // stall (the query waits to re-plan), reported per
            // retrain so benches can show what adapting costs.
            const auto retrainT0 =
                std::chrono::steady_clock::now();
            model = opts.wanify->retrain(
                *trainingRows, retrainSeed, model,
                opts.publishRetrainedModel);
            const double retrainSecs =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - retrainT0)
                    .count();
            result.retrainLatencies.push_back(retrainSecs);
            result.retrainCpuSeconds += retrainSecs;

            // Gauge B: fresh snapshot + stable mesh, out-of-sample
            // for the new trees — the post-retrain error, and the
            // matrix the redeployment plans from.
            const auto gaugeB =
                opts.wanify->gaugeRuntime(sim, rng, *model);
            postErrSum +=
                meanAbsOffDiag(gaugeB.predicted, gaugeB.stable);
            ++result.retrainsApplied;
            predicted = gaugeB.predicted;
            redeploy(predicted);
            trend.record(sim.now(), predicted);
            // A gauge landed: the predictor proved itself, so the
            // degradation ladder steps one rung back up.
            if (faults != nullptr && health.recordSuccess())
                notePredictorMode();

            // Incremental re-plan: stop what is still in flight,
            // re-place only the undelivered bytes under the
            // retrained belief (warm-started from this stage's
            // previous plan), and restart. Delivered bytes stay
            // where they landed; the effective assignment matrix is
            // updated so the compute phase and the next stage's
            // input see the true landing spots.
            if (opts.forecast.enabled) {
                std::vector<Bytes> residual(n, 0.0);
                std::vector<TransferId> liveIds;
                for (const auto &[id, t] : pending) {
                    const auto st = sim.status(id);
                    if (!st.exists || st.bytesRemaining < 1.0)
                        continue;
                    residual[t.src] += st.bytesRemaining;
                    liveIds.push_back(id);
                }
                if (!liveIds.empty()) {
                    for (const TransferId id : liveIds) {
                        const auto st = sim.stopTransfer(id);
                        PendingTransfer part = pending.at(id);
                        bill(part.src, part.dst, st.bytesMoved);
                        assignment.at(part.src, part.dst) -=
                            st.bytesRemaining;
                        part.bytes = st.bytesMoved;
                        part.done = sim.now();
                        retired.push_back(part);
                        pending.erase(id);
                    }
                    placeResidual(residual, opts.schedulerBw,
                                  &planMemory);
                }
            }
            nextEpoch = sim.now();
        };

    for (std::size_t s = 0; s < job.stages.size(); ++s) {
        const StageSpec &spec = job.stages[s];
        StageResult stageResult;
        stageResult.name = spec.name;
        stageResult.start = sim.now();

        stageIdx = s;
        pending.clear();
        retired.clear();
        retries.clear();
        clock.clear();
        // Faults due before the shuffle opens (e.g. a crash during the
        // previous compute phase's tail) take effect now, so placement
        // and the blackout check below see the true fault state.
        applyFaultsUpTo(sim.now());

        StageContext ctx =
            makeStageContext(topo_, job, s, stageInput, opts.schedulerBw);
        ctx.memory = &planMemory;
        const core::BwForecast stageForecast = buildForecast();
        if (!stageForecast.empty()) {
            ctx.forecast = &stageForecast;
            ctx.planTime = sim.now();
        }
        assignment = scheduler.placeStage(ctx);
        fatalIf(assignment.rows() != n || assignment.cols() != n,
                "Engine::run: scheduler assignment shape mismatch");

        // --- shuffle phase ------------------------------------------------
        for (DcId i = 0; i < n; ++i) {
            for (DcId j = 0; j < n; ++j) {
                const Bytes bytes = assignment.at(i, j);
                if (i == j || bytes < 1.0)
                    continue;
                startShuffleTransfer(i, j, bytes, 0);
            }
        }
        rearmAgents(agentCrashed);

        const Seconds shuffleStart = sim.now();
        const Seconds guardEnd = shuffleStart + opts.maxStageSeconds;

        // The shuffle runs on one EventClock: the stage guard, AIMD
        // epoch ticks (each pushed at the popped tick's time + epoch),
        // the dynamics' change points, fault edges, and retry due
        // times, each handled at its true instant.
        clock.push(guardEnd, ClockEventKind::StageGuard);
        clock.push(shuffleStart + epoch, ClockEventKind::EpochTick);
        if (opts.dynamics != nullptr) {
            std::vector<scenario::ChangePoint> edges;
            opts.dynamics->changePointsIn(shuffleStart, guardEnd,
                                          edges);
            for (const scenario::ChangePoint &cp : edges)
                clock.push(cp.time,
                           cp.kind == scenario::ChangeKind::Factor
                               ? ClockEventKind::DynamicsChange
                               : ClockEventKind::BurstEdge);
        }
        if (faults != nullptr) {
            std::vector<Seconds> faultEdges;
            faults->edgesIn(shuffleStart, guardEnd, faultEdges);
            for (const Seconds t : faultEdges)
                clock.push(t, ClockEventKind::FaultEdge);
        }

        while (!sim.allTransfersDone() || !retries.empty()) {
            panicIf(clock.empty(),
                    "engine: event clock ran dry before the guard");
            const ClockEvent ev = clock.pop();
            // Stale events (a retrain consumed simulated time past
            // them) make this a no-op; the handler below then applies
            // dynamics at now() rather than rewinding to ev.time.
            sim.runUntilAllComplete(ev.time);
            if (sim.allTransfersDone() && retries.empty())
                break;
            if (faults != nullptr && sim.allTransfersDone() &&
                ev.time > sim.now()) {
                // Nothing in flight but retries are waiting out their
                // backoff: runUntilAllComplete returns without moving
                // an idle sim, so idle-wait explicitly.
                sim.advanceBy(ev.time - sim.now());
            }
            if (ev.kind == ClockEventKind::StageGuard) {
                logging::warn("stage '" + spec.name +
                              "' hit the per-stage guard");
                // Abort stragglers so they cannot leak into later
                // stages; they are billed as if finishing now.
                // Queued retries die with the stage — their bytes
                // already left the assignment.
                for (const auto &[id, t] : pending)
                    bill(t.src, t.dst, sim.stopTransfer(id).bytesMoved);
                retries.clear();
                break;
            }
            if (ev.kind == ClockEventKind::FaultEdge) {
                dynamics.advanceTo(sim, sim.now());
                applyFaultsUpTo(sim.now());
                startDueRetries();
                continue;
            }
            if (ev.kind == ClockEventKind::RetryDue) {
                dynamics.advanceTo(sim, sim.now());
                startDueRetries();
                continue;
            }
            if (ev.kind != ClockEventKind::EpochTick) {
                // A dynamics edge at its true instant: install the
                // new conditions (and open/close bursts) mid-epoch.
                // When the edge coincides with a tick, the tick pops
                // first (kind order) and this is an idempotent no-op.
                dynamics.advanceTo(sim, sim.now());
                continue;
            }
            Seconds tickBase = ev.time;
            applyFaultsUpTo(sim.now());
            for (auto &agent : agents) {
                if (agentCrashed[agent->sourceDc()])
                    continue;
                agent->onEpoch();
            }
            dynamics.advanceTo(sim, sim.now());

            if (opts.wanify != nullptr) {
                drift.observe(sim);
                result.driftObservations += drift.meshSize();
                result.driftErrorFraction =
                    std::max(result.driftErrorFraction,
                             drift.errorFraction());
                if (drift.needsRetraining()) {
                    ++result.retrainTriggers;
                    if (opts.adaptOnDrift &&
                        !opts.predictedBwOverride.has_value() &&
                        model != nullptr && model->trained()) {
                        retrainAndRedeploy(tickBase);
                    }
                    // With or without the adaptive path, the model
                    // is considered recalibrated on current
                    // conditions from here.
                    drift.rebase(sim);
                }
            }
            if (faults != nullptr) {
                // A retrain may have consumed time past queued retry
                // deadlines; launch the stale ones now.
                startDueRetries();
            }
            clock.push(tickBase + epoch, ClockEventKind::EpochTick);
        }

        // Collect completion times per transfer and bill what each
        // moved.
        for (const auto &rec : sim.drainCompletions()) {
            auto it = pending.find(rec.id);
            if (it == pending.end())
                continue;
            it->second.done = rec.time;
            bill(it->second.src, it->second.dst, rec.bytesMoved);
        }

        // Min pair BW: the paper's "minimum BW of the cluster" — the
        // slowest pair's average achieved rate over its active period.
        std::vector<Seconds> transferDone(n, shuffleStart);
        Mbps minPairBw = 0.0;
        auto accountTransfer = [&](const PendingTransfer &t) {
            const Seconds done = t.done > 0.0 ? t.done : sim.now();
            transferDone[t.dst] = std::max(transferDone[t.dst], done);
            stageResult.wanBytes += t.bytes;
            if (t.bytes >= kMinAccountedBytes) {
                const Seconds duration =
                    std::max(1.0e-6, done - shuffleStart);
                const Mbps avg = units::rateFor(t.bytes, duration);
                minPairBw = minPairBw == 0.0
                                ? avg
                                : std::min(minPairBw, avg);
            }
        };
        for (const auto &[id, t] : pending)
            accountTransfer(t);
        // Transfers retired mid-stage by an incremental re-plan:
        // their delivered portion is real WAN traffic of this stage.
        for (const PendingTransfer &t : retired)
            accountTransfer(t);
        stageResult.minPairBw = minPairBw;
        stageResult.transferEnd = sim.now();
        if (minPairBw > 0.0) {
            sawWanTraffic = true;
            result.minObservedBw =
                result.minObservedBw == 0.0
                    ? minPairBw
                    : std::min(result.minObservedBw, minPairBw);
        }

        // --- compute phase ------------------------------------------------
        ComputePhase compute = computePhase(
            spec, assignment, ctx.computeRate, transferDone, sim.now());
        const Seconds stageEnd = compute.end;
        if (opts.dynamics != nullptr) {
            // Step through the window's burst edges so flash crowds
            // open and close at their true instants even though the
            // job itself moves no bytes here. Factor edges only
            // matter mid-compute while burst flows are live; with an
            // idle mesh they are batched to the phase end (no extra
            // advanceBy splits).
            std::vector<scenario::ChangePoint> edges;
            opts.dynamics->changePointsIn(sim.now(), stageEnd, edges);
            std::stable_sort(
                edges.begin(), edges.end(),
                [](const scenario::ChangePoint &a,
                   const scenario::ChangePoint &b) {
                    return a.time != b.time ? a.time < b.time
                                            : a.kind < b.kind;
                });
            for (const scenario::ChangePoint &cp : edges) {
                if (cp.kind == scenario::ChangeKind::Factor &&
                    sim.activeTransferCount() == 0)
                    continue;
                if (cp.time > sim.now())
                    sim.advanceBy(cp.time - sim.now());
                dynamics.advanceTo(sim, sim.now());
            }
        }
        if (stageEnd > sim.now())
            sim.advanceBy(stageEnd - sim.now());
        // Keep the scenario clock current through the compute phase
        // so the next stage's shuffle starts under the right
        // conditions.
        dynamics.advanceTo(sim, sim.now());
        // Crashes and recoveries during the compute phase land here;
        // transfer-killing faults are no-ops (everything delivered).
        applyFaultsUpTo(sim.now());
        stageResult.end = sim.now();

        result.stages.push_back(stageResult);
        stageInput = std::move(compute.nextInput);
    }

    if (opts.wanify != nullptr)
        deployment.clear(sim);
    dynamics.finish(sim);

    result.latency = sim.now() - jobStart;

    const cost::CostModel costModel(topo_);
    result.cost = costModel.queryCost(
        result.latency, result.wanBytesByPair,
        units::toGigabytes(job.inputBytes));

    if (result.retrainsApplied > 0) {
        result.preRetrainError =
            preErrSum / static_cast<double>(result.retrainsApplied);
        result.postRetrainError =
            postErrSum / static_cast<double>(result.retrainsApplied);
    }

    if (!sawWanTraffic)
        result.minObservedBw = 0.0;
    return result;
}

} // namespace gda
} // namespace wanify
