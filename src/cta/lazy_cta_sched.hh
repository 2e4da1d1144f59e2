/**
 * @file
 * LCS — Lazy CTA Scheduling (the paper's first mechanism).
 *
 * Phase 1: fill each core to the maximum CTA count, exactly like the
 * baseline. The GTO warp scheduler concentrates issue on the oldest
 * ("greedy") CTA, so during this monitoring window the per-CTA issued-
 * instruction counters measure how much issue one CTA can sustain.
 *
 * Phase 2: when the window closes (first CTA completion on the core, or
 * a fixed cycle count), estimate the optimal CTA count as
 *     N_opt = clamp(ceil(I_total / I_greedy) + slack, 1, N_max)
 * where I_total is all instructions the kernel issued on that core and
 * I_greedy is the largest per-CTA count.
 *
 * Phase 3: lazily decline new CTAs until the resident count drops below
 * N_opt; resident CTAs above the target simply drain (no preemption).
 *
 * The monitor is per (core, kernel), which is also what lets mixed
 * concurrent kernel execution (MCK) fill the freed resources with a
 * second kernel: dispatch is offered to kernels in priority order, and
 * each kernel obeys its own per-core N_opt.
 */

#ifndef BSCHED_CTA_LAZY_CTA_SCHED_HH
#define BSCHED_CTA_LAZY_CTA_SCHED_HH

#include <cstdint>
#include <vector>

#include "cta/cta_sched.hh"

namespace bsched {

/** Lazy CTA scheduling. */
class LazyCtaScheduler : public CtaScheduler
{
  public:
    explicit LazyCtaScheduler(const GpuConfig& config)
        : CtaScheduler(config), monitors_(config.numCores)
    {}

    void tick(Cycle now, std::vector<KernelInstance>& kernels,
              CoreList& cores) override;

    void notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                       CoreList& cores) override;

    /**
     * FixedCycles mode: the earliest still-open monitoring-window
     * deadline — the window must close (and its trace event fire) at
     * exactly start + fixedWindowCycles, so quiet spans may not skip
     * past it. FirstCtaDone windows close on CTA completions, which are
     * observable events; they impose no deadline.
     */
    Cycle nextEventCycle(Cycle now,
                         const std::vector<KernelInstance>& kernels,
                         const CoreList& cores) const override;

    const char* name() const override { return "lcs"; }

    void addStats(StatSet& stats) const override;

    /** Decided N_opt for (core, kernel); 0 if still monitoring. */
    std::uint32_t decidedLimit(std::uint32_t core, int kernel_id) const;

    /**
     * In FixedCycles mode, close any monitoring windows whose deadline
     * passed. Shared with the LCS+BCS combination.
     */
    void closeExpiredWindows(Cycle now,
                             const std::vector<KernelInstance>& kernels,
                             const CoreList& cores);

    /** Effective per-core dispatch cap for @p kernel right now. */
    std::uint32_t capFor(std::uint32_t core_id,
                         const KernelInstance& kernel) const;

  private:
    struct Monitor
    {
        bool decided = false;
        std::uint32_t nOpt = 0;
    };

    /** Close the window and compute N_opt from the core's counters. */
    void decide(Cycle now, std::uint32_t core_id, int kernel_id,
                std::uint32_t n_max, const SimtCore& core);

    /** The (core, kernel) monitor, or null if it never opened. */
    const Monitor* monitor(std::uint32_t core_id, int kernel_id) const;

    /** Per core, the monitors indexed by the dense kernel id. */
    std::vector<std::vector<Monitor>> monitors_;
};

} // namespace bsched

#endif // BSCHED_CTA_LAZY_CTA_SCHED_HH
