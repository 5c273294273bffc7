/**
 * @file
 * Workload serve-mixed: an open loop in virtual time through the
 * resident multi-query service (serve::Service::drain).
 *
 * One pass drains kDrainsPerPass independent bursts. Each burst is 128
 * queries from serve::mixedWorkload at the 8-DC worker cluster, all due
 * at t = 0, into a 96-slot MaxMinFair service planning with Tetrium: a
 * quarter of the burst, the 8 heavy TPC-DS proxies among it, waits in
 * the admission queue, and latency runs from the due time, so queue
 * wait counts. mixedWorkload draws the heavy share per query; fixing
 * the count and the order keeps the work per seed comparable. Why this
 * workload: the shared network solver and the cross-query allocator do
 * most of its work across every admitted query, while placement is a
 * small share and it never retrains or injects faults.
 */

#include <algorithm>
#include <string>
#include <vector>

#include "bench.hh"
#include "common/rng.hh"
#include "core/wanify.hh"
#include "cost/cost_model.hh"
#include "experiments/testbed.hh"
#include "gda/engine.hh"
#include "layers.hh"
#include "monitor/measurement.hh"
#include "sched/tetrium.hh"
#include "serve/service.hh"
#include "serve/workload.hh"

namespace perfbench {

using namespace wanify;

namespace {

constexpr std::size_t kDcs = 8;
constexpr std::size_t kDrainsPerPass = 12;

/** Drains the traced run replays untraced and traced (a prefix of the
 *  pass keeps the traced run near the untraced run's length). */
constexpr std::size_t kTracedDrains = 4;
constexpr std::size_t kQueries = 128;
constexpr std::size_t kHeavy = 8;
constexpr std::size_t kSlots = 96;

struct Drain
{
    serve::ServiceReport report;
    double wallMs = 0.0;
};

/** Bitwise equality of two drains' per-query virtual outputs. */
bool
sameOutputs(const serve::ServiceReport &a, const serve::ServiceReport &b)
{
    if (a.resultHash != b.resultHash || a.queries.size() != b.queries.size())
        return false;
    for (std::size_t i = 0; i < a.queries.size(); ++i)
        if (a.queries[i].finished != b.queries[i].finished ||
            a.queries[i].admitted != b.queries[i].admitted ||
            a.queries[i].wanBytes != b.queries[i].wanBytes)
            return false;
    return true;
}

class ServeMixed : public Workload
{
  public:
    void
    prepare(std::shared_ptr<const core::RuntimeBwPredictor> model,
            std::uint64_t seed) override
    {
        model_ = model;
        seed_ = seed;
        topo_ = experiments::workerCluster(kDcs);
        simCfg_ = experiments::defaultSimConfig();
        cfg_ = serve::ServiceConfig{};
        cfg_.policy = serve::AllocPolicy::MaxMinFair;
        cfg_.scheduler = serve::SchedulerKind::Tetrium;
        cfg_.maxConcurrent = kSlots;

        drainSeeds_ = deriveSeeds(seed, kDrainsPerPass);
        bursts_.clear();
        for (std::uint64_t s : drainSeeds_)
            bursts_.push_back(burst(s));
    }

    Outcome
    measure(double seconds) override
    {
        std::vector<Drain> first;
        std::vector<double> msPerQuery;
        std::size_t queries = 0, failed = 0;
        double wallMs = 0.0;
        const auto t0 = Clock::now();
        for (std::size_t i = 0;; ++i) {
            const std::size_t d = i % kDrainsPerPass;
            Drain drain = drainOnce(d);
            queries += drain.report.queries.size();
            failed += drain.report.timedOut + drain.report.failedQueries;
            wallMs += drain.wallMs;
            msPerQuery.push_back(drain.wallMs /
                                 static_cast<double>(kQueries));
            if (i < kDrainsPerPass)
                first.push_back(std::move(drain));
            else
                gate(sameOutputs(drain.report, first[d].report),
                     "serve-mixed: a repeated drain diverged from its "
                     "first pass (drain " +
                         std::to_string(d) + ")");
            if (i + 1 >= kDrainsPerPass && secondsSince(t0) >= seconds)
                break;
        }

        // Each burst is an independent experiment, and a burst now and
        // then settles into a different contention regime, so every
        // virtual metric is a per-drain figure and the run reports its
        // median over the pass's drains.
        std::vector<double> p50, p90, cost, minBw, qph, wanGb;
        const cost::CostModel costModel(topo_);
        Outcome out;
        std::uint64_t hash = kDigestSeed;
        for (const Drain &drain : first) {
            const auto &rep = drain.report;
            hash = digest(hash, rep.resultHash);
            std::vector<double> latency, attainedMbps;
            double wan = 0.0;
            for (const auto &q : rep.queries) {
                latency.push_back(q.finished - q.arrival);
                wan += q.wanBytes;
                if (!q.timedOut && !q.killedByFault && q.wanBytes > 0.0 &&
                    q.latency > 0.0)
                    attainedMbps.push_back(q.wanBytes * 8.0 / 1.0e6 /
                                           q.latency);
            }
            const double completed = static_cast<double>(rep.completed);
            p50.push_back(percentile(latency, 0.5));
            p90.push_back(percentile(latency, 0.9));
            // The service reports no per-pair bytes, so its cost is the
            // resident cluster's compute bill over the makespan, shared
            // by the queries completed in it.
            cost.push_back(costModel.clusterComputeCost(rep.makespan) /
                           completed);
            minBw.push_back(percentile(attainedMbps, 0.1));
            qph.push_back(rep.throughputPerHour);
            wanGb.push_back(wan / static_cast<double>(latency.size()) /
                            1.0e9);
        }
        out.attempted = queries;
        out.failed = failed;
        out.metrics = {
            {"queries_per_s",
             static_cast<double>(queries) * 1000.0 / wallMs, "1/s"},
            {"query_wall_ms_p50", percentile(msPerQuery, 0.5), "ms"},
            {"query_wall_ms_p90", percentile(msPerQuery, 0.9), "ms"},
            {"latency_p50_s", percentile(p50, 0.5), "s"},
            {"latency_p90_s", percentile(p90, 0.5), "s"},
            {"cost_usd_per_query", percentile(cost, 0.5), "USD"},
            {"min_bw_mbps", percentile(minBw, 0.5), "Mbps"},
            {"throughput_qph", percentile(qph, 0.5), "q/h"},
            {"wan_gb_per_query", percentile(wanGb, 0.5), "GB"},
        };
        out.notes.push_back(
            "samples: " + std::to_string(msPerQuery.size()) +
            " timed drains of " + std::to_string(kQueries) +
            " queries (wall); virtual metrics are medians over " +
            std::to_string(kDrainsPerPass) +
            " distinct drains, repeats checked bit-identical");
        out.notes.push_back(digestNote(hash));
        return out;
    }

    Outcome
    trace(SpanRecorder &rec) override
    {
        // Each burst drains untraced and traced back to back, in
        // alternating order (see the engine workload).
        std::vector<Drain> traced;
        double plainMs = 0.0, tracedMs = 0.0;
        for (std::size_t d = 0; d < kTracedDrains; ++d) {
            Drain plain;
            if (d % 2 == 1)
                plain = drainOnce(d);
            {
                ScopedSpan span(rec, "serve.drain", 0,
                                static_cast<std::int64_t>(d));
                traced.push_back(drainOnce(d));
            }
            if (d % 2 == 0)
                plain = drainOnce(d);
            plainMs += plain.wallMs;
            tracedMs += traced.back().wallMs;
            gate(sameOutputs(traced.back().report, plain.report),
                 "serve-mixed: the traced drain diverged from the "
                 "untraced one (drain " +
                     std::to_string(d) + ")");
        }

        Outcome out;
        out.attempted = 2 * kTracedDrains * kQueries;
        for (const Drain &drain : traced)
            out.failed +=
                2 * (drain.report.timedOut + drain.report.failedQueries);
        {
            ScopedSpan layers(rec, "bench.layers", 0, kNoQuery);
            LayerShape shape;
            shape.topo = &topo_;
            shape.simCfg = simCfg_;
            shape.model = model_;
            shape.flows = cohortFlows(rec, layers.id());
            shape.policy = cfg_.policy;
            shape.demands = demandsOf(topo_, shape.flows);
            shape.step = cfg_.epoch;
            shape.seed = seed_;
            timeLayers(rec, layers.id(), shape, out.metrics);
        }

        const auto spans = rec.spans();
        const double drains = static_cast<double>(kTracedDrains);
        double queries = 0.0, stages = 0.0, redispatches = 0.0,
               capped = 0.0, retrains = 0.0;
        std::vector<double> queueWait;
        for (const Drain &drain : traced) {
            const auto &rep = drain.report;
            queries += static_cast<double>(rep.queries.size());
            redispatches += static_cast<double>(rep.redispatches);
            capped += static_cast<double>(rep.cappedPairRounds);
            retrains += static_cast<double>(rep.retrainsPublished);
            for (const auto &q : rep.queries) {
                stages += static_cast<double>(q.stages);
                queueWait.push_back(q.queueWait);
            }
        }
        // The service builds its scheduler internally and runs without
        // dynamics or faults, so per-run engine, scenario and fault
        // spans do not exist on this workload: they read 0.
        const std::vector<Metric> serve = {
            {"gda.run_self_ms", 0.0, "ms"},
            {"gda.stages_per_query", stages / queries, "count"},
            {"sched.place_ms_p50",
             percentile(durationsUs(spans, "sched.place"), 0.5) / 1000.0,
             "ms"},
            {"sched.place_calls_per_query", 0.0, "count"},
            {"sched.run_share", 0.0, "ratio"},
            {"scenario.apply_us", 0.0, "us"},
            {"scenario.calls_per_query", 0.0, "count"},
            {"core.retrains_per_query", retrains / queries, "count"},
            {"serve.capped_pair_rounds", capped / drains, "count"},
            {"serve.redispatches", redispatches / drains, "count"},
            {"serve.redispatches_per_query", redispatches / queries,
             "count"},
            {"serve.queue_wait_p90_s", percentile(queueWait, 0.9), "s"},
            {"serve.retrains_published", retrains / drains, "count"},
            {"fault.retries_per_query", 0.0, "count"},
            {"fault.retry_success_ratio", 0.0, "ratio"},
            {"fault.lost_gb_per_query", 0.0, "GB"},
            {"fault.backoff_s_per_query", 0.0, "s"},
            {"bench.trace_overhead_frac", (tracedMs - plainMs) / plainMs,
             "ratio"},
        };
        out.metrics.insert(out.metrics.end(), serve.begin(), serve.end());
        out.notes.push_back(
            "traced " + std::to_string(kTracedDrains) +
            " drains: per-query outputs and result hashes identical to "
            "the untraced pass");
        return out;
    }

  private:
    /**
     * One burst: 120 small then 8 heavy mixedWorkload queries, all due
     * at t = 0. Submission order decides admission among equal
     * arrivals, so the heavy analytics jobs are the ones that wait for
     * a slot.
     */
    std::vector<serve::QuerySpec>
    burst(std::uint64_t seed) const
    {
        serve::WorkloadConfig small;
        small.queries = kQueries - kHeavy;
        small.heavyFraction = 0.0;
        small.arrivalWindow = 0.0;
        serve::WorkloadConfig heavy = small;
        heavy.queries = kHeavy;
        heavy.heavyFraction = 1.0;

        auto specs = serve::mixedWorkload(small, kDcs, seed);
        // mixedWorkload homes each small query's input at a random DC;
        // spreading them round-robin puts the same load on every DC in
        // every burst, so bursts differ in detail but not in demand.
        for (std::size_t i = 0; i < specs.size(); ++i) {
            auto &input = specs[i].inputByDc;
            std::fill(input.begin(), input.end(), 0.0);
            input[i % kDcs] = specs[i].job.inputBytes;
        }
        for (auto &q : serve::mixedWorkload(heavy, kDcs, ~seed))
            specs.push_back(std::move(q));
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].name = "q" + std::to_string(i) + "-" + specs[i].name;
        return specs;
    }

    Drain
    drainOnce(std::size_t d) const
    {
        core::Wanify wanify;
        wanify.setPredictor(model_);
        serve::Service service(topo_, cfg_, simCfg_, &wanify,
                               drainSeeds_[d]);
        for (const auto &q : bursts_[d])
            service.submit(q);
        const auto t0 = Clock::now();
        Drain out;
        out.report = service.drain();
        out.wallMs = 1000.0 * secondsSince(t0);

        const auto &rep = out.report;
        gate(rep.queries.size() == bursts_[d].size() &&
                 rep.completed + rep.timedOut + rep.failedQueries ==
                     bursts_[d].size(),
             "serve-mixed: drain " + std::to_string(d) +
                 " left submitted queries unaccounted for (" +
                 std::to_string(rep.completed) + " completed + " +
                 std::to_string(rep.timedOut) + " timed out + " +
                 std::to_string(rep.failedQueries) + " failed != " +
                 std::to_string(bursts_[d].size()) + " submitted)");
        return out;
    }

    /**
     * The peak flow set: the first-stage plans of the cohort the first
     * burst admits at t = 0, each at a 1/kSlots WAN share, against the
     * model's prediction of a live snapshot. One sched.place span per
     * plan.
     */
    std::vector<PeakFlow>
    cohortFlows(SpanRecorder &rec, SpanId parent) const
    {
        net::NetworkSim sim(topo_, simCfg_, seed_);
        sim.advanceBy(10.0);
        monitor::MeshMeasurer measurer(sim);
        Rng rng(seed_);
        const Matrix<Mbps> bw = model_->predictMatrix(
            topo_, measurer.snapshot(monitor::MeasurementConfig{}, rng));
        sched::TetriumScheduler tetrium;
        std::vector<PeakFlow> flows;
        const auto &specs = bursts_.front();
        for (std::size_t q = 0; q < kSlots && q < specs.size(); ++q) {
            gda::StageContext ctx = gda::makeStageContext(
                topo_, specs[q].job, 0, specs[q].inputByDc, bw);
            ctx.wanShare = 1.0 / static_cast<double>(kSlots);
            Matrix<Bytes> plan;
            {
                ScopedSpan s(rec, "sched.place", parent,
                             static_cast<std::int64_t>(q));
                plan = tetrium.placeStage(ctx);
            }
            for (const PeakFlow &f :
                 flowsOf(plan, static_cast<net::FlowGroupId>(q + 1)))
                flows.push_back(f);
        }
        return flows;
    }

    std::shared_ptr<const core::RuntimeBwPredictor> model_;
    std::uint64_t seed_ = 0;
    net::Topology topo_;
    net::NetworkSimConfig simCfg_;
    serve::ServiceConfig cfg_;
    std::vector<std::uint64_t> drainSeeds_;
    std::vector<std::vector<serve::QuerySpec>> bursts_;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed()
{
    return std::make_unique<ServeMixed>();
}

} // namespace perfbench
