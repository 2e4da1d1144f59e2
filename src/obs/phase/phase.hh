/**
 * @file
 * Online phase telemetry — the sixth pillar of the observability
 * subsystem.
 *
 * The profilers report end-of-run totals; this layer reports *when*
 * behaviour shifts within a run. A `WindowedMetrics` aggregator folds
 * the counters the simulator already maintains (instructions, issue and
 * stall cycles, cache accesses, DRAM row outcomes, and — when a
 * MemProfiler is attached — the inter-CTA interference counters) into
 * fixed-width windows by snapshotting cumulative values at window
 * boundaries, so the per-cycle cost is a single due() comparison and
 * the per-window cost is one counter sweep. On top, `PhaseDetector`
 * instances (whole machine, per core, per kernel) segment the window
 * stream into phases: a window whose channels deviate from the current
 * phase's running reference starts a pending change, and `hysteresis`
 * consecutive deviating windows commit it, backdated to the first.
 *
 * Determinism contract: windows close on the same cycles whether or not
 * idle fast-forward elides quiet spans — the Gpu includes nextDue() in
 * its fast-forward fence, exactly like the IntervalSampler — and every
 * input is a cumulative counter that span replay already reconstructs.
 * The `bsched-phase-v1` artifact is therefore byte-identical across
 * --jobs counts, fast-forward on/off, and repeated runs (CI-enforced).
 *
 * The machine/core detectors deliberately use only always-available
 * counters (IPC, stall shares, L1 miss rate), so detected boundaries
 * are independent of whether a MemProfiler is attached; the row-hit
 * rate and the interference channels (cross-CTA eviction rates,
 * DRAM-queue occupancy, L2 MSHR occupancy) are carried in the artifact
 * for correlation, not detection. E20 (`bench/fig_phase`) exploits
 * that: boundaries found without the interference counters line up
 * with the counters' own inflection — independent cross-validation.
 */

#ifndef BSCHED_OBS_PHASE_PHASE_HH
#define BSCHED_OBS_PHASE_PHASE_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bsched {

class Tracer;

/** Detector and window knobs (defaults documented in OBSERVABILITY.md). */
struct PhaseConfig
{
    /** Window width in cycles; every window closes on a multiple. */
    Cycle windowCycles = 2048;

    /** Out-of-band threshold for rate-like channels (IPC): relative
     *  deviation from the phase reference mean. */
    double relThreshold = 0.25;

    /** Out-of-band threshold for share-like channels in [0, 1] (stall
     *  share, miss rate): absolute deviation. */
    double absThreshold = 0.08;

    /** Consecutive out-of-band windows required to commit a phase
     *  change (the change is backdated to the first of them). */
    std::uint32_t hysteresis = 2;
};

/**
 * Counter values read at one fenced cycle. The Gpu fills this once per
 * fenced cycle and hands the same snapshot to the phase window and the
 * interval sampler; WindowedMetrics differences consecutive snapshots
 * into window deltas.
 */
struct CounterSnapshot
{
    std::uint64_t instrs = 0;
    std::uint64_t issueCycles = 0;
    std::uint64_t stallMem = 0;
    std::uint64_t stallIdle = 0;
    std::uint64_t l1Access = 0;
    std::uint64_t l1Miss = 0;
    std::uint64_t l2Access = 0;
    std::uint64_t l2Miss = 0;
    std::uint64_t rowHit = 0;
    std::uint64_t rowMiss = 0;
    std::uint64_t rowConflict = 0;

    /** Instantaneous gauges (read by the sampler only). */
    std::uint64_t activeCtas = 0;
    std::uint64_t l1MshrInUse = 0;
    std::uint64_t l2MshrInUse = 0;

    /** Per-core cumulative counters (index = core id). */
    std::vector<std::uint64_t> coreInstrs;
    std::vector<std::uint64_t> coreIssue;
    std::vector<std::uint64_t> coreStallMem;
    std::vector<std::uint64_t> coreStallIdle;

    /** Per-kernel cumulative issued instructions (index = kernel id). */
    std::vector<std::uint64_t> kernelInstrs;

    /** Interference counters, filled only when a MemProfiler rides
     *  along; hasInterference gates the artifact section. */
    bool hasInterference = false;
    std::uint64_t l1CrossCta = 0;
    std::uint64_t l2CrossCta = 0;
    std::uint64_t dramQueueCycles = 0; ///< DramQueue stage cycle sum
    std::uint64_t l2MshrOccCycles = 0; ///< time-weighted occupancy sum
};

/** Channel values derived from the window just closed. */
struct WindowDeltas
{
    double ipc = 0.0;
    double stallMemShare = 0.0;
    double l1MissRate = 0.0;
    double rowHitRate = 0.0;
    std::vector<double> coreIpc;
    std::vector<double> coreStallShare;
    /** Per-kernel window IPC; active marks kernels that issued. */
    std::vector<double> kernelIpc;
    std::vector<std::uint8_t> kernelActive;
    bool hasInterference = false;
    double l1CrossRate = 0.0;   ///< cross-CTA L1 evictions / kilocycle
    double l2CrossRate = 0.0;   ///< cross-CTA L2 evictions / kilocycle
    double dramQOccupancy = 0.0; ///< mean requests waiting at DRAM
    double l2MshrOccupancy = 0.0; ///< mean L2 MSHR entries in use
};

/**
 * Fixed-width window aggregator: snapshots in, aligned per-window
 * series out. Raw machine-level deltas are retained so tests can pin
 * the conservation property (summed deltas == final totals).
 */
class WindowedMetrics
{
  public:
    /** Close the window ending at @p end with cumulative @p snap;
     *  returns the derived channel values of that window. */
    const WindowDeltas& close(Cycle end, const CounterSnapshot& snap);

    std::size_t windows() const { return endCycles_.size(); }
    const std::vector<Cycle>& endCycles() const { return endCycles_; }

    // Derived machine series, one value per window.
    const std::vector<double>& ipc() const { return ipc_; }
    const std::vector<double>& stallMemShare() const
    {
        return stallMemShare_;
    }
    const std::vector<double>& l1MissRate() const { return l1MissRate_; }
    const std::vector<double>& rowHitRate() const { return rowHitRate_; }

    bool hasInterference() const { return hasInterference_; }
    const std::vector<double>& l1CrossRate() const { return l1CrossRate_; }
    const std::vector<double>& l2CrossRate() const { return l2CrossRate_; }
    const std::vector<double>& dramQOccupancy() const
    {
        return dramQOccupancy_;
    }
    const std::vector<double>& l2MshrOccupancy() const
    {
        return l2MshrOccupancy_;
    }

    // Raw machine-level window deltas (conservation property).
    const std::vector<std::uint64_t>& instrDeltas() const
    {
        return instrDeltas_;
    }
    const std::vector<std::uint64_t>& l1AccessDeltas() const
    {
        return l1AccessDeltas_;
    }
    const std::vector<std::uint64_t>& rowHitDeltas() const
    {
        return rowHitDeltas_;
    }

  private:
    CounterSnapshot prev_;
    Cycle prevCycle_ = 0;
    WindowDeltas last_;
    bool hasInterference_ = false;

    std::vector<Cycle> endCycles_;
    std::vector<double> ipc_;
    std::vector<double> stallMemShare_;
    std::vector<double> l1MissRate_;
    std::vector<double> rowHitRate_;
    std::vector<double> l1CrossRate_;
    std::vector<double> l2CrossRate_;
    std::vector<double> dramQOccupancy_;
    std::vector<double> l2MshrOccupancy_;
    std::vector<std::uint64_t> instrDeltas_;
    std::vector<std::uint64_t> l1AccessDeltas_;
    std::vector<std::uint64_t> rowHitDeltas_;
};

/**
 * Segments a stream of per-window channel vectors into phases. Channels
 * flagged `relative` compare deviations against the reference mean
 * scaled by relThreshold; the rest use absThreshold absolutely (they
 * are shares in [0, 1]). In-band windows fold into the current phase's
 * running reference mean; a run of `hysteresis` consecutive out-of-band
 * windows commits a new phase backdated to the first of the run, with
 * the pending windows' mean as its initial reference. Pure, ordered
 * double arithmetic — deterministic across platforms and job counts.
 */
class PhaseDetector
{
  public:
    /** One detected phase: a contiguous window range and its
     *  per-channel reference mean. */
    struct Phase
    {
        std::size_t startWindow = 0;
        std::size_t windows = 0;
        std::vector<double> mean;
    };

    PhaseDetector(const PhaseConfig& config,
                  std::vector<std::uint8_t> relative);

    /** Feed the channels of window @p window (indices must be
     *  monotone; gaps are fine — kernel detectors skip windows where
     *  the kernel was idle). Returns true when a change committed. */
    bool observe(std::size_t window, const std::vector<double>& values);

    const std::vector<Phase>& phases() const { return phases_; }

    /** Index of the current phase (0 before any window). */
    std::size_t currentPhase() const
    {
        return phases_.empty() ? 0 : phases_.size() - 1;
    }

  private:
    bool outOfBand(const std::vector<double>& values) const;

    PhaseConfig config_;
    std::vector<std::uint8_t> relative_;
    std::vector<Phase> phases_;
    std::uint64_t inBandWindows_ = 0; ///< reference-mean sample count
    std::vector<std::vector<double>> pending_;
    std::size_t pendingStart_ = 0;
};

/**
 * The attachable telemetry unit: owns the window clock, the aggregator
 * and the detector set. Attached through Observer::phase; the Gpu calls
 * due()/closeWindow() on window boundaries (fenced against idle
 * fast-forward via nextDue()), records the `phase.current`/`phase.count`
 * gauges on its IntervalSampler, and ties off the final partial window
 * from finalizeSample().
 */
class PhaseTelemetry
{
  public:
    explicit PhaseTelemetry(PhaseConfig config = {});

    /**
     * Called by the Gpu on attach: fixes the core-detector geometry and
     * (when @p tracer is non-null) appends the "phase" timeline track
     * that phase.change instants land on. Reattaching is fatal.
     */
    void onAttach(std::uint32_t num_cores, Tracer* tracer);

    const PhaseConfig& config() const { return config_; }

    /** True when the window ending at @p now is owed. */
    bool due(Cycle now) const
    {
        const auto& ends = metrics_.endCycles();
        return ends.empty() ? now >= config_.windowCycles
                            : now >= ends.back() + config_.windowCycles;
    }

    /** Earliest cycle at which due() becomes true — the idle
     *  fast-forward fence, exactly like IntervalSampler::nextDue(). */
    Cycle nextDue() const
    {
        const auto& ends = metrics_.endCycles();
        return ends.empty() ? config_.windowCycles
                            : ends.back() + config_.windowCycles;
    }

    /** True when a partial final window remains to tie off at @p now. */
    bool finalPending(Cycle now) const
    {
        const auto& ends = metrics_.endCycles();
        return now > 0 && (ends.empty() || ends.back() != now);
    }

    /** Close the window ending at @p now: difference the snapshot, feed
     *  every detector, emit phase.change instants for commits. */
    void closeWindow(Cycle now, const CounterSnapshot& snap);

    // --- sampler gauges -------------------------------------------------

    /** Machine-level current phase index (phase.current). */
    double currentPhaseGauge() const
    {
        return static_cast<double>(machine_.currentPhase());
    }

    /** Machine-level phases detected so far (phase.count). */
    double phaseCountGauge() const
    {
        return static_cast<double>(machine_.phases().size());
    }

    // --- queries --------------------------------------------------------

    const WindowedMetrics& metrics() const { return metrics_; }
    const PhaseDetector& machine() const { return machine_; }
    const std::vector<PhaseDetector>& coreDetectors() const
    {
        return cores_;
    }
    /** Per-kernel detectors, keyed by kernel id (created on the first
     *  window in which the kernel issued instructions). */
    const std::map<int, PhaseDetector>& kernelDetectors() const
    {
        return kernels_;
    }

  private:
    /** Record a phase.change instant on the phase track (no-op without
     *  a tracer). @p scope is -1 for machine/kernel scope, the core id
     *  for per-core changes; @p kernel_id tags kernel-scope changes. */
    void emitChange(Cycle now, int kernel_id, std::int64_t scope,
                    std::size_t phase);

    PhaseConfig config_;
    WindowedMetrics metrics_;
    PhaseDetector machine_;
    std::vector<PhaseDetector> cores_;
    std::map<int, PhaseDetector> kernels_;
    Tracer* tracer_ = nullptr;
    std::uint32_t track_ = 0;
    bool attached_ = false;
};

/**
 * Write @p telemetry as a `bsched-phase-v1` JSON artifact: config,
 * window series (interference series only when they were collected),
 * and the machine/core/kernel phase segmentations. Deterministic
 * byte-for-byte; the committed bench/BENCH_phase.json baseline is
 * produced this way and byte-gated in CI.
 */
void writePhaseJson(std::ostream& os, const PhaseTelemetry& telemetry,
                    const std::string& label);

} // namespace bsched

#endif // BSCHED_OBS_PHASE_PHASE_HH
