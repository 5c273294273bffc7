/**
 * @file
 * Event-driven flow-level WAN simulator.
 *
 * NetworkSim owns the dynamic network state: the set of active transfers
 * (finite shuffles or infinite iPerf-style measurement flows), per-pair
 * capacity fluctuation, and WANify tc throttles. Rates are re-solved
 * whenever the flow set changes and at every fluctuation tick; between
 * rate changes, transfers progress linearly and completions are located
 * exactly.
 *
 * The simulator is the common substrate for the measurement plane
 * (monitor/), for WANify's local agents, and for the GDA engine's shuffle
 * stages.
 */

#ifndef WANIFY_NET_NETWORK_SIM_HH
#define WANIFY_NET_NETWORK_SIM_HH

#include <cstdint>
#include <map>
#include <vector>

#include "common/matrix.hh"
#include "common/units.hh"
#include "net/flow_solver.hh"
#include "net/fluctuation.hh"
#include "net/pair_index.hh"
#include "net/topology.hh"

namespace wanify {
namespace net {

using TransferId = std::uint64_t;

/**
 * A flow group ties the transfers of one logical tenant (one query of
 * the serve layer) together for cross-query bandwidth allocation:
 * per-group fair-share weights, per-(group, pair) share caps, and
 * per-group telemetry. Group 0 is "ungrouped" — the default for all
 * legacy callers, measurement flows, and scenario bursts.
 */
using FlowGroupId = std::uint64_t;

/**
 * A finite transfer's completion event: the last thing the simulator
 * reports about it. The transfer leaves the active set when it
 * completes, so callers that bill moved bytes read them here.
 */
struct CompletionRecord
{
    TransferId id = 0;
    Seconds time = 0.0;

    /** Bytes the transfer moved over its lifetime. */
    Bytes bytesMoved = 0.0;
};

/** Snapshot of one active transfer's progress. */
struct TransferStatus
{
    bool exists = false;
    Bytes bytesMoved = 0.0;
    Bytes bytesRemaining = 0.0;
    Mbps currentRate = 0.0;
    Bottleneck bottleneck = Bottleneck::None;
    int connections = 0;
};

/** Simulator tunables. */
struct NetworkSimConfig
{
    /** Interval between fluctuation updates / rate re-solves. */
    Seconds tickInterval = 1.0;

    FluctuationParams fluctuation;
    SolverConfig solver;

    /**
     * Build solver inputs the pre-flat way (fresh map-keyed
     * structures every resolve) instead of composing the persistent
     * flat per-pair arrays. Bit-identical results either way — kept
     * as the parity reference and the honest "before" arm of
     * bench_perf_mesh_scale's resolveRates speedup.
     */
    bool referenceSolverInputs = false;
};

class NetworkSim
{
  public:
    NetworkSim(Topology topology, NetworkSimConfig config = {},
               std::uint64_t seed = 1);

    /** Current simulated time. */
    Seconds now() const { return now_; }

    const Topology &topology() const { return topology_; }
    const NetworkSimConfig &config() const { return config_; }

    // --- transfer management ---------------------------------------------

    /** Start a finite transfer of @p bytes; returns its id. */
    TransferId startTransfer(VmId src, VmId dst, Bytes bytes,
                             int connections = 1,
                             FlowGroupId group = 0);

    /** Start an infinite (iPerf-style) measurement flow. */
    TransferId startMeasurement(VmId src, VmId dst, int connections = 1);

    /**
     * Remove a transfer (finite or measurement) before completion and
     * return its final status: bytes moved so far and, for a finite
     * transfer, the undelivered remainder. An id that is not active
     * (unknown, completed or already stopped) returns a status with
     * exists == false and zero bytes.
     */
    TransferStatus stopTransfer(TransferId id);

    /** Change the parallel connection count of an active transfer. */
    void setConnections(TransferId id, int connections);

    /** Set (or with limit <= 0, clear) a tc throttle on a DC pair. */
    void setTcLimit(DcId src, DcId dst, Mbps limit);

    // --- scenario overrides ------------------------------------------------
    //
    // The scenario engine (src/scenario/) drives non-stationary WAN
    // dynamics — diurnal cycles, degradation, outages, trace replay —
    // through these per-pair factors. They multiply into the
    // OU-fluctuated path capacity (and the pair RTT used for TCP
    // share weighting), so scripted dynamics and stationary noise
    // compose.

    /**
     * Scenario capacity factor for an ordered DC pair (1 = nominal,
     * 0 = hard outage). Must be finite and >= 0.
     */
    void setScenarioCapFactor(DcId src, DcId dst, double factor);

    /** Scenario RTT inflation factor for a pair. Must be finite, > 0. */
    void setScenarioRttFactor(DcId src, DcId dst, double factor);

    /** Reset every scenario factor to 1. */
    void clearScenarioFactors();

    double scenarioCapFactor(DcId src, DcId dst) const;
    double scenarioRttFactor(DcId src, DcId dst) const;

    // --- flow registry (cross-query WAN sharing) ---------------------------
    //
    // The serve layer's BandwidthAllocator divides each contended
    // pair's capacity among active queries by installing per-(group,
    // pair) share caps — enforced inside the flow solver as first-
    // class resources (Bottleneck::GroupShare) — and may bias the
    // weighted max-min filling itself through per-group weights.

    /**
     * Fair-share weight multiplier for every flow of @p group (> 0,
     * finite; default 1). Composes with the per-flow RTT-bias weight,
     * so a weight of 2 gives the group's flows twice the share they
     * would organically win at every shared resource.
     */
    void setGroupWeight(FlowGroupId group, double weight);

    /**
     * Cap the aggregate rate of @p group across ordered pair
     * (src, dst) at @p cap Mbps; cap <= 0 removes the cap. The cap
     * becomes a dedicated solver resource, so the group's flows
     * share *their* allocation max-min among themselves while other
     * groups compete only for the remainder.
     */
    void setGroupPairCap(FlowGroupId group, DcId src, DcId dst,
                         Mbps cap);

    /** Drop every weight and share cap registered for @p group. */
    void clearGroupAllocations(FlowGroupId group);

    /** Instantaneous aggregate rate of a group's transfers. */
    Mbps groupRate(FlowGroupId group) const;

    /** Remaining bytes of a group's active finite transfers. */
    Bytes groupPendingBytes(FlowGroupId group) const;

    /** Active transfers (finite + measurement) tagged with @p group. */
    std::size_t groupTransferCount(FlowGroupId group) const;

    /** Groups with registered weights or share caps. */
    std::size_t registeredGroupCount() const { return groups_.size(); }

    // --- time -------------------------------------------------------------

    /** Advance simulated time by exactly @p dt. */
    void advanceBy(Seconds dt);

    /**
     * Run until every finite transfer completes or @p maxTime elapses.
     * @return The time at which the last finite transfer completed (or
     *         now() if it hit maxTime first).
     */
    Seconds runUntilAllComplete(Seconds maxTime = 1.0e7);

    /** True when no finite transfer remains active. */
    bool allTransfersDone() const;

    /** Retrieve and clear accumulated completion events. */
    std::vector<CompletionRecord> drainCompletions();

    // --- telemetry ---------------------------------------------------------

    /**
     * Progress of an active transfer. The simulator keeps nothing
     * about a transfer once it completes or is stopped: an inactive
     * id returns exists == false. Its final bytes come from its
     * CompletionRecord or from stopTransfer's return value.
     */
    TransferStatus status(TransferId id) const;

    /** Instantaneous rate of one transfer. */
    Mbps transferRate(TransferId id) const;

    /** Instantaneous aggregate rate between two DCs. */
    Mbps pairRate(DcId src, DcId dst) const;

    /** Cumulative bytes moved between two DCs since construction. */
    Bytes pairBytes(DcId src, DcId dst) const;

    /** Instantaneous DC-pair rate matrix. */
    Matrix<Mbps> pairRateMatrix() const;

    /**
     * Congestion proxy for a DC pair: the fraction of aggregate
     * connection capability left unserved, in [0, 1]. Feeds the Nr
     * (retransmissions) feature of Table 3.
     */
    double pairRetransScore(DcId src, DcId dst) const;

    /** Effective (fluctuated) path capacity right now. */
    Mbps effectivePathCap(DcId src, DcId dst) const;

    /** Ids of active transfers (incl. measurements) between two DCs. */
    std::vector<TransferId> transfersBetween(DcId src, DcId dst) const;

    /** Remaining bytes of active finite transfers between two DCs. */
    Bytes pendingBytesBetween(DcId src, DcId dst) const;

    /** Number of active transfers (finite + measurement). */
    std::size_t activeTransferCount() const { return transfers_.size(); }

  private:
    struct Transfer
    {
        TransferId id = 0;
        VmId srcVm = 0;
        VmId dstVm = 0;
        DcId srcDc = 0;
        DcId dstDc = 0;
        int connections = 1;
        bool measurement = false;
        FlowGroupId group = 0;
        Bytes remaining = 0.0;
        Bytes moved = 0.0;
        Mbps rate = 0.0;
        Bottleneck bottleneck = Bottleneck::None;
    };

    /** Allocator state for one flow group (see setGroupWeight). */
    struct GroupState
    {
        double weight = 1.0;

        /** Share caps as (pair index, cap), sorted by pair. */
        std::vector<std::pair<std::size_t, Mbps>> pairCap;
    };

    /** Recompute rates for the current flow set. */
    void resolveRates();

    /** Legacy map-keyed input build (parity reference + bench arm). */
    void resolveRatesReference();

    /** Refresh pairWeight_ from the scenario RTT factors. */
    void rebuildPairWeights();

    /** Refresh denseGroup_ + the solver's sparse group share caps. */
    void rebuildGroupInputs();

    /** Earliest finite-transfer completion horizon at current rates. */
    Seconds nextCompletionIn() const;

    /** Progress all transfers by dt at current rates; handle finishes. */
    void progress(Seconds dt);

    TransferId makeTransfer(VmId src, VmId dst, Bytes bytes,
                            int connections, bool measurement,
                            FlowGroupId group);

    Topology topology_;
    NetworkSimConfig config_;
    PairIndex pairs_;
    FluctuationBank fluctuation_;

    /** Per-VM capacity fluctuation (burst arbitration, noisy
     *  neighbours) — gentler than the per-path process. */
    FluctuationBank vmFluctuation_;

    Seconds now_ = 0.0;
    Seconds nextTick_ = 0.0;
    TransferId nextId_ = 1;
    bool ratesDirty_ = true;

    std::map<TransferId, Transfer> transfers_;
    std::map<FlowGroupId, GroupState> groups_;
    std::vector<CompletionRecord> completions_;
    std::vector<Mbps> tcLimits_;      ///< per ordered pair; <=0 = none
    std::vector<double> scenarioCap_; ///< per ordered pair; default 1
    std::vector<double> scenarioRtt_; ///< per ordered pair; default 1
    Matrix<Bytes> pairBytes_;

    // --- flat per-pair hot-path state (see resolveRates) -------------------
    // Immutable topology quantities unpacked once into PairIndex
    // layout, plus the persistent solver inputs/scratch so a resolve
    // in steady state is one branch-free composition pass over
    // contiguous arrays with no allocation.
    std::vector<Mbps> basePathCap_;    ///< topology pathCap, flat
    std::vector<Mbps> connCapFlat_;    ///< topology connCap, flat
    std::vector<Seconds> baseRtt_;     ///< topology rttSeconds, flat
    std::vector<double> routeQualityFlat_;
    std::vector<double> pairWeight_;   ///< routeQuality / rtt², flat
    std::vector<Mbps> vmWanCap_;       ///< per-VM WAN cap, unwobbled
    std::vector<Mbps> vmNicCap_;       ///< per-VM NIC cap, unwobbled
    bool weightsDirty_ = true;         ///< pairWeight_ needs rebuild
    bool groupsDirty_ = true;          ///< group share caps changed
    std::map<FlowGroupId, std::size_t> denseGroup_;
    SolverInputs inputs_;
    SolverScratch solverScratch_;
    std::vector<FlowSpec> specs_;
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_NETWORK_SIM_HH
