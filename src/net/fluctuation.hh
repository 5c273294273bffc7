/**
 * @file
 * WAN bandwidth fluctuation process.
 *
 * Inter-DC capacity varies on the scale of seconds to minutes [Wang'21,
 * ref 38 in the paper]. We model each DC-pair's capacity multiplier as the
 * exponential of an Ornstein-Uhlenbeck process: mean-reverting, stationary
 * and seedable, so 1-second snapshots differ from 20-second stable
 * averages exactly the way the paper's motivation experiments describe.
 */

#ifndef WANIFY_NET_FLUCTUATION_HH
#define WANIFY_NET_FLUCTUATION_HH

#include <vector>

#include "common/rng.hh"
#include "common/units.hh"

namespace wanify {
namespace net {

/** Parameters of the OU fluctuation process. */
struct FluctuationParams
{
    /** Mean-reversion rate (1/s). 0.08 -> ~12 s correlation time. */
    double theta = 0.08;

    /** Stationary standard deviation of log-capacity. */
    double logSigma = 0.16;

    /** Disable fluctuation entirely (deterministic capacity). */
    bool enabled = true;
};

/**
 * Constants of one exact OU update of length dt, shared by every
 * process of one parameter set: a catch-up over k pending ticks
 * computes them once instead of once per process per tick.
 */
struct OuStepConstants
{
    double decay = 1.0;   ///< e^{-theta dt}
    double noiseSd = 0.0; ///< sigma sqrt(1 - e^{-2 theta dt})
};

/**
 * One OU process: X mean-reverts to 0; multiplier() = exp(X).
 *
 * Uses the exact discretization so step size does not bias the
 * stationary distribution.
 */
class OuProcess
{
  public:
    OuProcess(FluctuationParams params, Rng rng);

    /** Update constants for a step of @p dt (> 0) under @p params. */
    static OuStepConstants stepConstants(const FluctuationParams &params,
                                         Seconds dt);

    /**
     * Advance the process by @p dt and return the new multiplier.
     *
     * @p dt <= 0 (or NaN) is a no-op returning the current
     * multiplier: no time has passed, and drawing noise for it would
     * perturb the RNG stream of every later step.
     */
    double step(Seconds dt);

    /**
     * Apply @p ticks OU updates with precomputed constants: the one
     * update rule, behind both step() and FluctuationBank's catch-up.
     * An inactive process stays at X = 0 and draws nothing.
     */
    void advance(const OuStepConstants &c, std::size_t ticks);

    /** Current multiplier exp(X). */
    double multiplier() const;

    /** Draw the state from the stationary distribution. */
    void reseedStationary();

    /** True when the process actually fluctuates (enabled, sigma > 0). */
    bool active() const;

  private:
    FluctuationParams params_;
    Rng rng_;
    double x_ = 0.0;
};

/**
 * A bank of independent OU processes, one per DC pair, indexed by a
 * caller-chosen dense pair index.
 *
 * Ticks are lazy. step() only counts pending ticks; the first read of
 * a multiplier catches every process up with exactly the draws that
 * eager stepping would have made, in the same per-process order, so
 * results are bit-identical to stepping on every tick. A tick nobody
 * reads (an idle network, the compute phases after a run's last
 * transfer) costs a counter increment instead of one normal draw and
 * one exp() per process.
 *
 * The readers are const but advance cached state (the processes, the
 * multiplier cache, the pending count): a bank, and the NetworkSim
 * that owns it, must not be read from two threads at once. The
 * simulator is single-writer already, so no caller shares one.
 */
class FluctuationBank
{
  public:
    FluctuationBank(std::size_t pairs, FluctuationParams params,
                    std::uint64_t seed);

    /**
     * Advance all processes by dt (recorded, applied on the next
     * read). A dt that differs from the pending ticks' first catches
     * those up; dt <= 0 (or NaN) and an inactive bank record nothing.
     */
    void step(Seconds dt);

    /** Capacity multiplier of pair @p index. */
    double multiplier(std::size_t index) const;

    /** All multipliers, indexed by pair — valid until the next step. */
    const std::vector<double> &multipliers() const;

    std::size_t size() const { return processes_.size(); }

    /** Ticks recorded since the last catch-up. */
    std::size_t pendingTicks() const { return pending_; }

  private:
    /** Apply the pending ticks to every process and the cache. */
    void catchUp() const;

    FluctuationParams params_;
    bool active_ = false;
    mutable std::vector<OuProcess> processes_;
    mutable std::vector<double> multipliers_;
    mutable std::size_t pending_ = 0;
    Seconds pendingDt_ = 0.0;
};

} // namespace net
} // namespace wanify

#endif // WANIFY_NET_FLUCTUATION_HH
