/**
 * @file
 * Unit and property tests for the WAN substrate: regions, RTT model,
 * fluctuation, topology, flow solver, and the network simulator.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <string>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "net/flow_solver.hh"
#include "net/fluctuation.hh"
#include "net/network_sim.hh"
#include "net/region.hh"
#include "net/rtt_model.hh"
#include "net/topology.hh"
#include "net/vm.hh"

using namespace wanify;
using namespace wanify::net;

namespace {

Topology
paperTopo(std::size_t n = 8)
{
    return TopologyBuilder::paperTestbed(n, VmTypeCatalog::t3nano());
}

NetworkSimConfig
quiet()
{
    NetworkSimConfig cfg;
    cfg.fluctuation.enabled = false;
    return cfg;
}

} // namespace

// ---- regions ---------------------------------------------------------------

TEST(Region, CatalogHasEightPaperRegions)
{
    const auto regions = RegionCatalog::paperRegions();
    ASSERT_EQ(regions.size(), 8u);
    EXPECT_EQ(regions[RegionCatalog::UsEast].id, "us-east-1");
    EXPECT_EQ(regions[RegionCatalog::SaEast].id, "sa-east-1");
}

TEST(Region, SubsetBoundsChecked)
{
    EXPECT_THROW(RegionCatalog::paperSubset(1), FatalError);
    EXPECT_THROW(RegionCatalog::paperSubset(9), FatalError);
    EXPECT_EQ(RegionCatalog::paperSubset(4).size(), 4u);
}

TEST(Region, ByIdFindsAndFails)
{
    EXPECT_EQ(RegionCatalog::byId("eu-west-1").displayName,
              "EU West (Ireland)");
    EXPECT_THROW(RegionCatalog::byId("mars-north-1"), FatalError);
}

TEST(Region, DistancesMatchGeography)
{
    const auto &east = RegionCatalog::byId("us-east-1");
    const auto &west = RegionCatalog::byId("us-west-1");
    const auto &sing = RegionCatalog::byId("ap-southeast-1");
    EXPECT_NEAR(distanceKm(east, west), 3860.0, 120.0);
    EXPECT_NEAR(distanceKm(east, sing), 15540.0, 300.0);
}

// ---- RTT model -------------------------------------------------------------

TEST(RttModel, CalibratedToPaperAnchors)
{
    // Single-connection US East <-> US West ~1700 Mbps and US East <->
    // AP SE ~121 Mbps (Fig. 1).
    const RttModel model;
    const auto &east = RegionCatalog::byId("us-east-1");
    const auto &west = RegionCatalog::byId("us-west-1");
    const auto &sing = RegionCatalog::byId("ap-southeast-1");
    EXPECT_NEAR(model.connCapForDistance(distanceKm(east, west)),
                1700.0, 100.0);
    EXPECT_NEAR(model.connCapForDistance(distanceKm(east, sing)),
                121.0, 15.0);
}

TEST(RttModel, RttMonotoneInDistance)
{
    const RttModel model;
    Seconds prev = 0.0;
    for (double km : {100.0, 1000.0, 5000.0, 15000.0}) {
        const Seconds rtt = model.rtt(km);
        EXPECT_GT(rtt, prev);
        prev = rtt;
    }
}

TEST(RttModel, ConnCapClamped)
{
    RttModelParams params;
    const RttModel model(params);
    EXPECT_LE(model.connCap(0.001), params.maxConnCap);
    EXPECT_GE(model.connCap(10.0), params.minConnCap);
}

// ---- fluctuation -----------------------------------------------------------

TEST(Fluctuation, DisabledIsIdentity)
{
    FluctuationParams params;
    params.enabled = false;
    OuProcess p(params, Rng(1));
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(p.step(1.0), 1.0);
}

TEST(Fluctuation, StationaryMeanNearOne)
{
    FluctuationParams params;
    OuProcess p(params, Rng(42));
    stats::RunningStats acc;
    for (int i = 0; i < 20000; ++i)
        acc.push(p.step(1.0));
    EXPECT_NEAR(acc.mean(), 1.0, 0.05);
    EXPECT_GT(acc.stddev(), 0.05);
}

TEST(Fluctuation, BankProcessesAreIndependent)
{
    FluctuationBank bank(4, FluctuationParams{}, 7);
    bank.step(1.0);
    // At least two processes should differ after one step.
    bool anyDifferent = false;
    for (std::size_t i = 1; i < bank.size(); ++i)
        anyDifferent |= bank.multiplier(i) != bank.multiplier(0);
    EXPECT_TRUE(anyDifferent);
}

TEST(Fluctuation, ZeroStepDoesNotPerturbTheStream)
{
    // step(0) (and negative / NaN dt) must not consume RNG state:
    // interleaving zero-length steps must leave the stream exactly
    // where back-to-back real steps would.
    FluctuationParams params;
    OuProcess a(params, Rng(99));
    OuProcess b(params, Rng(99));
    a.step(1.0);
    b.step(1.0);
    const double before = a.multiplier();
    EXPECT_DOUBLE_EQ(a.step(0.0), before);
    EXPECT_DOUBLE_EQ(a.step(-1.0), before);
    EXPECT_DOUBLE_EQ(a.step(std::nan("")), before);
    EXPECT_DOUBLE_EQ(a.step(1.0), b.step(1.0));
}

TEST(Fluctuation, DisabledConsistentInInitAndStep)
{
    FluctuationParams params;
    params.enabled = false;
    OuProcess p(params, Rng(1));
    // Stationary init honors the flag: multiplier is exactly 1
    // before any step, after zero steps, and after real steps.
    EXPECT_DOUBLE_EQ(p.multiplier(), 1.0);
    EXPECT_DOUBLE_EQ(p.step(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.step(5.0), 1.0);
    p.reseedStationary();
    EXPECT_DOUBLE_EQ(p.multiplier(), 1.0);
    EXPECT_FALSE(p.active());

    // Zero sigma behaves identically to disabled.
    FluctuationParams zero;
    zero.logSigma = 0.0;
    OuProcess q(zero, Rng(1));
    EXPECT_FALSE(q.active());
    EXPECT_DOUBLE_EQ(q.step(5.0), 1.0);
}

TEST(Fluctuation, RejectsNonFiniteParams)
{
    FluctuationParams params;
    params.theta = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(OuProcess(params, Rng(1)), FatalError);
    params.theta = 0.08;
    params.logSigma = std::numeric_limits<double>::infinity();
    EXPECT_THROW(OuProcess(params, Rng(1)), FatalError);
}

// ---- topology --------------------------------------------------------------

TEST(Topology, BuilderWiresDcsAndVms)
{
    const auto topo = paperTopo(4);
    EXPECT_EQ(topo.dcCount(), 4u);
    EXPECT_EQ(topo.vmCount(), 4u);
    for (DcId d = 0; d < 4; ++d) {
        ASSERT_EQ(topo.dc(d).vms.size(), 1u);
        EXPECT_EQ(topo.vm(topo.dc(d).vms[0]).dc, d);
    }
}

TEST(Topology, HeterogeneousVmCounts)
{
    TopologyBuilder builder;
    builder.addDc(RegionCatalog::byId("us-east-1"),
                  VmTypeCatalog::t2medium(), 2);
    builder.addDc(RegionCatalog::byId("eu-west-1"),
                  VmTypeCatalog::t2medium(), 1);
    builder.addVm(1, VmTypeCatalog::t2large());
    const auto topo = builder.build();
    EXPECT_EQ(topo.vmCount(), 4u);
    EXPECT_EQ(topo.dc(1).vms.size(), 2u);
    EXPECT_EQ(topo.vm(topo.dc(1).vms[1]).type.name, "t2.large");
}

TEST(Topology, PairIndexIsDense)
{
    const auto topo = paperTopo(4);
    std::set<std::size_t> seen;
    for (DcId i = 0; i < 4; ++i)
        for (DcId j = 0; j < 4; ++j)
            seen.insert(topo.pairIndex(i, j));
    EXPECT_EQ(seen.size(), 16u);
    EXPECT_EQ(*seen.rbegin(), 15u);
}

TEST(Topology, RouteQualityDeterministicAndBounded)
{
    const auto a = paperTopo(8);
    const auto b = paperTopo(8);
    for (DcId i = 0; i < 8; ++i) {
        for (DcId j = 0; j < 8; ++j) {
            EXPECT_DOUBLE_EQ(a.routeQuality(i, j),
                             b.routeQuality(i, j));
            if (i != j) {
                EXPECT_GE(a.routeQuality(i, j), 0.55);
                EXPECT_LE(a.routeQuality(i, j), 1.0);
            }
        }
    }
}

TEST(Topology, RouteQualityStableAcrossClusterSizes)
{
    // The same region pair must keep its quality in any subset, or
    // the predictor's training would not transfer across sizes.
    const auto small = paperTopo(4);
    const auto big = paperTopo(8);
    for (DcId i = 0; i < 4; ++i)
        for (DcId j = 0; j < 4; ++j)
            EXPECT_DOUBLE_EQ(small.routeQuality(i, j),
                             big.routeQuality(i, j));
}

// ---- flow solver: unit cases -------------------------------------------------

namespace {

SolverInputs
simpleInputs(std::size_t vms, std::size_t dcs, Mbps vmCap = 1000.0,
             Mbps pathCap = 1.0e6)
{
    SolverInputs in;
    in.dcCount = dcs;
    in.vmEgressCap.assign(vms, vmCap);
    in.vmIngressCap.assign(vms, vmCap);
    in.vmNicCap.assign(vms, 2.0 * vmCap);
    in.pathCap.assign(dcs * dcs, pathCap);
    return in;
}

/** Solver config with the congestion/oversubscription penalties off,
 *  for tests that check the pure weighted-sharing arithmetic. */
SolverConfig
pureSharing()
{
    SolverConfig cfg;
    cfg.vmConnAlpha = 0.0;
    cfg.oversubAlpha = 0.0;
    return cfg;
}

FlowSpec
flow(std::size_t srcVm, std::size_t dstVm, std::size_t srcDc,
     std::size_t dstDc, int conns, double weight, Mbps cap)
{
    FlowSpec f;
    f.srcVm = srcVm;
    f.dstVm = dstVm;
    f.srcDc = srcDc;
    f.dstDc = dstDc;
    f.connections = conns;
    f.weightPerConn = weight;
    f.capPerConn = cap;
    return f;
}

/** A random solver problem: flows plus the inputs they run against. */
struct Mesh
{
    std::vector<FlowSpec> flows;
    SolverInputs inputs;
};

/**
 * Random serve-shaped mesh: @p vmsPerDc VMs per DC, flows between VMs
 * of distinct DCs drawn over @p groups flow groups (a few ungrouped),
 * sparse (group, pair) share caps, tc limits on some pairs, and one
 * zero-capacity path so the solver's pre-freeze runs.
 */
Mesh
randomMesh(Rng &rng, std::size_t dcs, std::size_t vmsPerDc,
           std::size_t flowCount, std::size_t groups)
{
    const std::size_t vms = dcs * vmsPerDc;
    Mesh m;
    SolverInputs &in = m.inputs;
    in.dcCount = dcs;
    for (std::size_t v = 0; v < vms; ++v) {
        in.vmEgressCap.push_back(rng.uniform(1000.0, 10000.0));
        in.vmIngressCap.push_back(rng.uniform(1000.0, 10000.0));
        in.vmNicCap.push_back(rng.uniform(2000.0, 16000.0));
    }
    in.pathCap.assign(dcs * dcs, 0.0);
    in.tcLimit.assign(dcs * dcs, 0.0);
    for (std::size_t p = 0; p < dcs * dcs; ++p) {
        in.pathCap[p] = rng.uniform(100.0, 3000.0);
        if (rng.bernoulli(0.25))
            in.tcLimit[p] = rng.uniform(20.0, 800.0);
    }
    auto pickDc = [&] {
        return static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(dcs) - 1));
    };
    auto vmOf = [&](std::size_t dc) {
        return dc * vmsPerDc +
               static_cast<std::size_t>(rng.uniformInt(
                   0, static_cast<std::int64_t>(vmsPerDc) - 1));
    };
    const std::size_t deadSrc = pickDc();
    in.pathCap[deadSrc * dcs + (deadSrc + 1) % dcs] = 0.0;

    std::vector<std::pair<std::size_t, std::size_t>> groupPairs;
    for (std::size_t k = 0; k < flowCount; ++k) {
        const std::size_t src = pickDc();
        const std::size_t dst =
            (src + 1 +
             static_cast<std::size_t>(rng.uniformInt(
                 0, static_cast<std::int64_t>(dcs) - 2))) %
            dcs;
        // One draw per statement: argument evaluation order is
        // unspecified, and the goldens depend on the draw order.
        const std::size_t srcVm = vmOf(src);
        const std::size_t dstVm = vmOf(dst);
        const int conns = static_cast<int>(rng.uniformInt(1, 12));
        const double weight = rng.uniform(0.1, 10.0);
        FlowSpec f = flow(srcVm, dstVm, src, dst, conns, weight,
                          rng.uniform(20.0, 400.0));
        if (!rng.bernoulli(0.1)) {
            f.group = static_cast<std::size_t>(rng.uniformInt(
                0, static_cast<std::int64_t>(groups) - 1));
            groupPairs.emplace_back(f.group, src * dcs + dst);
        }
        m.flows.push_back(f);
    }
    std::sort(groupPairs.begin(), groupPairs.end());
    groupPairs.erase(std::unique(groupPairs.begin(), groupPairs.end()),
                     groupPairs.end());
    for (const auto &[group, pair] : groupPairs)
        if (rng.bernoulli(0.4))
            in.groupShareCap.push_back(
                {group, pair, rng.uniform(5.0, 300.0)});
    return m;
}

} // namespace

TEST(FlowSolver, SingleFlowSelfCapBound)
{
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 1.0, 300.0)}, simpleInputs(2, 2));
    ASSERT_EQ(rates.size(), 1u);
    EXPECT_NEAR(rates[0].rate, 300.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::SelfCap);
}

TEST(FlowSolver, SingleFlowEgressBound)
{
    const auto rates =
        solveRates({flow(0, 1, 0, 1, 1, 1.0, 5000.0)},
                   simpleInputs(2, 2), pureSharing());
    EXPECT_NEAR(rates[0].rate, 1000.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::SrcVm);
}

TEST(FlowSolver, WeightedSharingSplitsProportionally)
{
    // Two flows from the same VM, weights 3:1, both unbounded by
    // their own caps -> 750 / 250 of the 1000 egress.
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 3.0, 5000.0),
         flow(0, 2, 0, 2, 1, 1.0, 5000.0)},
        simpleInputs(3, 3), pureSharing());
    EXPECT_NEAR(rates[0].rate, 750.0, 1e-6);
    EXPECT_NEAR(rates[1].rate, 250.0, 1e-6);
}

TEST(FlowSolver, CappedFlowReleasesShareToOthers)
{
    // The heavy-weight flow is self-capped at 100; the other takes
    // the rest of the egress.
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 10.0, 100.0),
         flow(0, 2, 0, 2, 1, 1.0, 5000.0)},
        simpleInputs(3, 3), pureSharing());
    EXPECT_NEAR(rates[0].rate, 100.0, 1e-6);
    EXPECT_NEAR(rates[1].rate, 900.0, 1e-6);
}

TEST(FlowSolver, TcLimitCapsPairAggregate)
{
    auto inputs = simpleInputs(2, 2);
    inputs.tcLimit.assign(4, 0.0);
    inputs.tcLimit[0 * 2 + 1] = 150.0;
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 4, 1.0, 500.0)}, inputs);
    EXPECT_NEAR(rates[0].rate, 150.0, 1e-6);
    EXPECT_EQ(rates[0].bottleneck, Bottleneck::TcLimit);
}

TEST(FlowSolver, NicTotalSharedAcrossDirections)
{
    // VM 0's NIC (2000) is shared by its outbound and inbound flows;
    // equal weights -> 1000 each even though each direction's WAN cap
    // alone would allow more.
    auto inputs = simpleInputs(3, 3, 1800.0, 1.0e6);
    inputs.vmNicCap.assign(3, 2000.0);
    const auto rates = solveRates(
        {flow(0, 1, 0, 1, 1, 1.0, 5000.0),
         flow(2, 0, 2, 0, 1, 1.0, 5000.0)},
        inputs, pureSharing());
    EXPECT_NEAR(rates[0].rate + rates[1].rate, 2000.0, 1e-6);
}

TEST(FlowSolver, BundleCapEfficiencyDecaysPastKnee)
{
    SolverConfig cfg;
    const Mbps at8 = bundleCap(8, 100.0, cfg);
    const Mbps at12 = bundleCap(12, 100.0, cfg);
    EXPECT_NEAR(at8, 800.0, 1e-9);
    EXPECT_LT(at12, 1200.0);
    // Degradation grows quadratically: eff(12) = 1/(1+0.05*16).
    EXPECT_NEAR(at12, 1200.0 / 1.8, 1e-6);
}

TEST(FlowSolver, EmptyProblemIsEmpty)
{
    EXPECT_TRUE(solveRates({}, simpleInputs(1, 1)).empty());
}

TEST(FlowSolver, ServeShapedSolvesMatchFrozenGoldens)
{
    // Frozen outputs of three serve-sized problems (8 DCs x 2 VMs, 600
    // grouped flows, share caps, tc limits, a dead path), each solved
    // with and without the VM penalties and hashed bit for bit. Any
    // change in freeze order or fill arithmetic moves the hash; a
    // run-vs-run comparison would not notice.
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a offset basis
    auto mix = [&hash](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            hash ^= (v >> (8 * b)) & 0xffU;
            hash *= 1099511628211ULL;
        }
    };
    SolverScratch scratch;
    for (std::uint64_t seed : {31u, 32u, 33u}) {
        Rng rng(seed);
        const Mesh m = randomMesh(rng, 8, 2, 600, 48);
        for (const SolverConfig &cfg : {SolverConfig{}, pureSharing()}) {
            const auto rates =
                solveRates(m.flows, m.inputs, cfg, &scratch);
            ASSERT_EQ(rates.size(), m.flows.size());
            for (const FlowRate &r : rates) {
                std::uint64_t bits = 0;
                std::memcpy(&bits, &r.rate, sizeof(bits));
                mix(bits);
                mix(static_cast<std::uint64_t>(r.bottleneck));
            }
        }
    }
    EXPECT_EQ(hash, 0xe57cd838412330eULL);
}

// ---- flow solver: properties over random meshes ------------------------------

class FlowSolverProperty : public ::testing::TestWithParam<int>
{};

namespace {

/** Self capability recomputed here, independent of bundleCap. */
Mbps
oracleSelfCap(const FlowSpec &f, const SolverConfig &cfg)
{
    const double excess = std::max(0, f.connections - cfg.connectionKnee);
    return f.connections * f.capPerConn /
           (1.0 + cfg.congestionAlpha * excess * excess);
}

/** Every capacity a flow crosses, as (resource key, nominal cap). */
struct OracleResources
{
    std::map<std::string, Mbps> cap;
    std::vector<std::vector<std::string>> ofFlow;
};

OracleResources
oracleResources(const Mesh &m)
{
    OracleResources out;
    const SolverInputs &in = m.inputs;
    for (const FlowSpec &f : m.flows) {
        const std::size_t pair = f.srcDc * in.dcCount + f.dstDc;
        std::vector<std::string> keys;
        auto add = [&](std::string key, Mbps cap) {
            out.cap[key] = cap;
            keys.push_back(std::move(key));
        };
        add("egress" + std::to_string(f.srcVm), in.vmEgressCap[f.srcVm]);
        add("ingress" + std::to_string(f.dstVm),
            in.vmIngressCap[f.dstVm]);
        add("nic" + std::to_string(f.srcVm), in.vmNicCap[f.srcVm]);
        add("nic" + std::to_string(f.dstVm), in.vmNicCap[f.dstVm]);
        add("path" + std::to_string(pair), in.pathCap[pair]);
        if (in.tcLimit[pair] > 0.0)
            add("tc" + std::to_string(pair), in.tcLimit[pair]);
        for (const auto &c : in.groupShareCap)
            if (c.group == f.group && c.pair == pair && c.cap > 0.0)
                add("group" + std::to_string(c.group) + "/" +
                        std::to_string(pair),
                    c.cap);
        out.ofFlow.push_back(std::move(keys));
    }
    return out;
}

Mesh
propertyMesh(int param)
{
    Rng rng(1000 + param);
    const std::size_t dcs = 2 + rng.uniformInt(0, 4);
    const std::size_t vmsPerDc = 1 + rng.uniformInt(0, 2);
    const std::size_t flows = 5 + rng.uniformInt(0, 55);
    const std::size_t groups = 1 + rng.uniformInt(0, 5);
    return randomMesh(rng, dcs, vmsPerDc, flows, groups);
}

} // namespace

TEST_P(FlowSolverProperty, ConservationAndFeasibility)
{
    // Feasibility on every resource kind, with and without the
    // connection/oversubscription penalties (they only shrink
    // capacities, so the nominal caps bound from above).
    const Mesh m = propertyMesh(GetParam());
    const OracleResources res = oracleResources(m);
    for (const SolverConfig &cfg : {SolverConfig{}, pureSharing()}) {
        const auto rates = solveRates(m.flows, m.inputs, cfg);
        ASSERT_EQ(rates.size(), m.flows.size());
        std::map<std::string, Mbps> load;
        for (std::size_t f = 0; f < m.flows.size(); ++f) {
            EXPECT_GE(rates[f].rate, 0.0);
            EXPECT_LE(rates[f].rate,
                      oracleSelfCap(m.flows[f], cfg) + 1e-6);
            for (const std::string &key : res.ofFlow[f])
                load[key] += rates[f].rate;
        }
        for (const auto &[key, sum] : load)
            EXPECT_LE(sum, res.cap.at(key) * (1.0 + 1e-12) + 1e-6)
                << key;
    }
}

TEST_P(FlowSolverProperty, MaxMinOptimalUnderPureSharing)
{
    // Weighted max-min: a flow below its own capability must cross a
    // saturated resource on which its rate / weight is the largest.
    const Mesh m = propertyMesh(GetParam());
    const OracleResources res = oracleResources(m);
    const SolverConfig cfg = pureSharing();
    const auto rates = solveRates(m.flows, m.inputs, cfg);
    ASSERT_EQ(rates.size(), m.flows.size());

    std::map<std::string, Mbps> load;
    std::map<std::string, double> maxLevel;
    std::vector<double> level(m.flows.size());
    for (std::size_t f = 0; f < m.flows.size(); ++f) {
        level[f] = rates[f].rate / (m.flows[f].weightPerConn *
                                    m.flows[f].connections);
        for (const std::string &key : res.ofFlow[f]) {
            load[key] += rates[f].rate;
            maxLevel[key] = std::max(maxLevel[key], level[f]);
        }
    }
    for (std::size_t f = 0; f < m.flows.size(); ++f) {
        if (rates[f].rate >= oracleSelfCap(m.flows[f], cfg) - 1e-6)
            continue;
        bool bottlenecked = false;
        for (const std::string &key : res.ofFlow[f]) {
            const Mbps cap = res.cap.at(key);
            const bool saturated =
                load[key] >= cap * (1.0 - 1e-12) - 1e-6;
            if (saturated &&
                level[f] >= maxLevel[key] * (1.0 - 1e-12) - 1e-9)
                bottlenecked = true;
        }
        EXPECT_TRUE(bottlenecked)
            << "flow " << f << " rate " << rates[f].rate
            << " has no saturated resource where it is maximal";
    }
}

TEST_P(FlowSolverProperty, AddingConnectionsNeverHurtsOwnPair)
{
    // Growing a bundle's connection count (within the knee) must not
    // reduce that bundle's allocated rate, all else equal.
    Rng rng(5000 + GetParam());
    auto inputs = simpleInputs(3, 3, 2000.0, 3000.0);
    std::vector<FlowSpec> flows = {
        flow(0, 1, 0, 1, 1, rng.uniform(0.5, 3.0), 400.0),
        flow(0, 2, 0, 2, 1, rng.uniform(0.5, 3.0), 400.0),
    };
    const auto before = solveRates(flows, inputs);
    for (int c = 2; c <= 8; ++c) {
        flows[0].connections = c;
        const auto after = solveRates(flows, inputs);
        EXPECT_GE(after[0].rate, before[0].rate - 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(RandomMeshes, FlowSolverProperty,
                         ::testing::Range(0, 12));

// ---- network sim -------------------------------------------------------------

TEST(NetworkSim, FiniteTransferCompletesOnSchedule)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    // East -> West single connection: ~1718 Mbps; 1 decimal GB.
    const auto id = sim.startTransfer(0, 1, 1.0e9, 1);
    const Seconds t = sim.runUntilAllComplete();
    EXPECT_NEAR(t, 8000.0 / 1718.8, 0.05);
    const auto recs = sim.drainCompletions();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].id, id);
    EXPECT_NEAR(recs[0].bytesMoved, 1.0e9, 10.0);
    EXPECT_FALSE(sim.status(id).exists);
}

TEST(NetworkSim, CompletionsAreReported)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startTransfer(0, 1, 1.0e8, 2);
    sim.runUntilAllComplete();
    const auto recs = sim.drainCompletions();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].id, id);
    EXPECT_TRUE(sim.drainCompletions().empty());
}

TEST(NetworkSim, MeasurementFlowsNeverComplete)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    sim.startMeasurement(0, 1, 1);
    sim.advanceBy(30.0);
    EXPECT_TRUE(sim.allTransfersDone()); // no *finite* transfers
    EXPECT_EQ(sim.activeTransferCount(), 1u);
    EXPECT_TRUE(sim.drainCompletions().empty());
}

TEST(NetworkSim, PairBytesAccumulate)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    sim.startMeasurement(0, 1, 1);
    sim.advanceBy(10.0);
    const Bytes moved = sim.pairBytes(0, 1);
    // ~1718.8 Mbps for 10 s ~= 2.15 decimal GB.
    EXPECT_NEAR(moved, 1718.8e6 / 8.0 * 10.0, 2.0e7);
    EXPECT_DOUBLE_EQ(sim.pairBytes(1, 0), 0.0);
}

TEST(NetworkSim, SetConnectionsChangesRate)
{
    NetworkSim sim(paperTopo(8), quiet(), 1);
    // Weak pair: East -> AP SE.
    const auto id = sim.startMeasurement(0, 3, 1);
    sim.advanceBy(1.0);
    const Mbps single = sim.transferRate(id);
    sim.setConnections(id, 8);
    sim.advanceBy(1.0);
    const Mbps eight = sim.transferRate(id);
    EXPECT_GT(eight, 5.0 * single);
}

TEST(NetworkSim, TcLimitIsAppliedAndCleared)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startMeasurement(0, 1, 4);
    sim.setTcLimit(0, 1, 200.0);
    sim.advanceBy(1.0);
    EXPECT_NEAR(sim.transferRate(id), 200.0, 1.0);
    sim.setTcLimit(0, 1, 0.0);
    sim.advanceBy(1.0);
    EXPECT_GT(sim.transferRate(id), 1000.0);
}

TEST(NetworkSim, StopTransferRemovesIt)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startTransfer(0, 1, 1.0e12, 1);
    sim.advanceBy(1.0);
    const auto last = sim.stopTransfer(id);
    EXPECT_TRUE(last.exists);
    EXPECT_NEAR(last.bytesMoved, sim.pairBytes(0, 1), 1.0e-6);
    EXPECT_NEAR(last.bytesMoved + last.bytesRemaining, 1.0e12, 1.0);
    EXPECT_TRUE(sim.allTransfersDone());
    EXPECT_FALSE(sim.status(id).exists);
    EXPECT_FALSE(sim.stopTransfer(id).exists);
}

TEST(NetworkSim, InvalidArgumentsFail)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    EXPECT_THROW(sim.startTransfer(0, 0, 100.0, 1), FatalError);
    EXPECT_THROW(sim.startTransfer(0, 1, 0.0, 1), FatalError);
    EXPECT_THROW(sim.startTransfer(0, 1, 100.0, 0), FatalError);
    EXPECT_THROW(sim.startMeasurement(0, 99, 1), FatalError);
    EXPECT_THROW(sim.advanceBy(-1.0), FatalError);
}

TEST(NetworkSim, DeterministicAcrossRuns)
{
    auto run = [] {
        NetworkSim sim(paperTopo(4), NetworkSimConfig{}, 77);
        sim.startTransfer(0, 3, 5.0e8, 3);
        sim.startTransfer(1, 2, 5.0e8, 2);
        return sim.runUntilAllComplete();
    };
    EXPECT_DOUBLE_EQ(run(), run());
}

TEST(NetworkSim, ScenarioCapFactorScalesEffectiveCapacity)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const Mbps nominal = sim.effectivePathCap(0, 1);
    sim.setScenarioCapFactor(0, 1, 0.25);
    EXPECT_NEAR(sim.effectivePathCap(0, 1), 0.25 * nominal, 1e-9);
    // The reverse direction is untouched.
    EXPECT_NEAR(sim.effectivePathCap(1, 0), nominal, 1e-9);
    sim.clearScenarioFactors();
    EXPECT_NEAR(sim.effectivePathCap(0, 1), nominal, 1e-9);
}

TEST(NetworkSim, ScenarioOutageStallsAndRecoveryReleases)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    const auto id = sim.startMeasurement(0, 1, 8);
    sim.advanceBy(1.0);
    const Mbps before = sim.transferRate(id);
    EXPECT_GT(before, 500.0);
    sim.setScenarioCapFactor(0, 1, 0.01);
    sim.advanceBy(1.0);
    EXPECT_LT(sim.transferRate(id), 0.05 * before);
    sim.setScenarioCapFactor(0, 1, 1.0);
    sim.advanceBy(1.0);
    EXPECT_NEAR(sim.transferRate(id), before, 1e-6);
}

TEST(NetworkSim, ScenarioFactorsValidated)
{
    NetworkSim sim(paperTopo(2), quiet(), 1);
    EXPECT_THROW(sim.setScenarioCapFactor(0, 1, -0.5), FatalError);
    EXPECT_THROW(
        sim.setScenarioCapFactor(0, 1,
                                 std::numeric_limits<double>::
                                     quiet_NaN()),
        FatalError);
    EXPECT_THROW(sim.setScenarioRttFactor(0, 1, 0.0), FatalError);
    EXPECT_DOUBLE_EQ(sim.scenarioCapFactor(0, 1), 1.0);
}

TEST(NetworkSim, RetransScoreRisesUnderContention)
{
    NetworkSim sim(paperTopo(8), quiet(), 1);
    // Load every pair; the weak pairs' demand goes unserved.
    const auto &topo = sim.topology();
    for (DcId i = 0; i < 8; ++i)
        for (DcId j = 0; j < 8; ++j)
            if (i != j)
                sim.startMeasurement(topo.dc(i).vms.front(),
                                     topo.dc(j).vms.front(), 4);
    sim.advanceBy(1.0);
    EXPECT_GT(sim.pairRetransScore(7, 3), 0.05);
}

TEST(NetworkSim, FlatSolverInputsMatchReferenceBitExact)
{
    // The flat per-pair composition path (persistent PairIndex-keyed
    // arrays) must produce bit-identical rates, progress, and
    // completion times to the legacy map-keyed input build — the
    // golden 8-DC mesh drives both through every feature that feeds
    // the solver: groups, share caps, scenario factors, tc limits,
    // connection changes, and OU fluctuation.
    const auto topo = paperTopo(8);
    NetworkSimConfig flatCfg; // fluctuation ON: wobbled caps too
    NetworkSimConfig refCfg;
    refCfg.referenceSolverInputs = true;

    NetworkSim flat(topo, flatCfg, 99);
    NetworkSim ref(topo, refCfg, 99);

    std::vector<TransferId> flatIds, refIds;
    auto driveBoth = [&](auto &&fn) {
        fn(flat, flatIds);
        fn(ref, refIds);
    };

    driveBoth([&](NetworkSim &sim, std::vector<TransferId> &ids) {
        const auto &t = sim.topology();
        for (DcId i = 0; i < 8; ++i)
            for (DcId j = 0; j < 8; ++j)
                if (i != j)
                    ids.push_back(sim.startTransfer(
                        t.dc(i).vms.front(), t.dc(j).vms.front(),
                        units::megabytes(40.0 + 3.0 * i + j),
                        1 + static_cast<int>((i + j) % 4),
                        (i + j) % 3));
        ids.push_back(sim.startMeasurement(t.dc(0).vms.front(),
                                           t.dc(7).vms.front(), 2));
        sim.setGroupWeight(1, 2.5);
        sim.setGroupPairCap(1, 0, 1, 300.0);
        sim.setGroupPairCap(2, 3, 4, 150.0);
        sim.setScenarioCapFactor(2, 3, 0.4);
        sim.setScenarioRttFactor(1, 2, 1.5);
        sim.setTcLimit(0, 2, 500.0);
        sim.advanceBy(0.7);
        sim.advanceBy(1.3);
    });

    ASSERT_EQ(flatIds.size(), refIds.size());
    // Finished transfers leave the simulator; their completion
    // records (id order, time, bytes moved) must match too.
    auto expectIdenticalCompletions = [&]() {
        const auto a = flat.drainCompletions();
        const auto b = ref.drainCompletions();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t k = 0; k < a.size(); ++k) {
            EXPECT_EQ(a[k].id, b[k].id) << "completion " << k;
            EXPECT_EQ(a[k].time, b[k].time) << "completion " << k;
            EXPECT_EQ(a[k].bytesMoved, b[k].bytesMoved)
                << "completion " << k;
        }
    };
    auto expectIdenticalState = [&]() {
        expectIdenticalCompletions();
        for (std::size_t k = 0; k < flatIds.size(); ++k) {
            const auto a = flat.status(flatIds[k]);
            const auto b = ref.status(refIds[k]);
            EXPECT_EQ(a.exists, b.exists) << "flow " << k;
            EXPECT_EQ(a.currentRate, b.currentRate) << "flow " << k;
            EXPECT_EQ(a.bytesMoved, b.bytesMoved) << "flow " << k;
            EXPECT_EQ(a.bottleneck, b.bottleneck) << "flow " << k;
        }
        for (DcId i = 0; i < 8; ++i)
            for (DcId j = 0; j < 8; ++j)
                EXPECT_EQ(flat.pairRate(i, j), ref.pairRate(i, j))
                    << "pair " << i << "->" << j;
    };
    expectIdenticalState();

    // Mutate every dirty-tracking path mid-flight and recheck.
    std::vector<TransferStatus> stopped;
    driveBoth([&](NetworkSim &sim, std::vector<TransferId> &ids) {
        sim.setConnections(ids[3], 6);
        stopped.push_back(sim.stopTransfer(ids[10]));
        sim.setGroupPairCap(1, 0, 1, 0.0); // clear a cap
        sim.setGroupWeight(2, 0.5);
        sim.setScenarioCapFactor(2, 3, 1.0);
        sim.setTcLimit(0, 2, 0.0);
        sim.clearGroupAllocations(2);
        sim.advanceBy(2.0);
    });
    ASSERT_EQ(stopped.size(), 2u);
    EXPECT_EQ(stopped[0].exists, stopped[1].exists);
    EXPECT_EQ(stopped[0].bytesMoved, stopped[1].bytesMoved);
    EXPECT_EQ(stopped[0].bytesRemaining, stopped[1].bytesRemaining);
    expectIdenticalState();

    const Seconds doneFlat = flat.runUntilAllComplete(600.0);
    const Seconds doneRef = ref.runUntilAllComplete(600.0);
    EXPECT_EQ(doneFlat, doneRef);
    EXPECT_TRUE(flat.allTransfersDone());
    expectIdenticalCompletions();
}
