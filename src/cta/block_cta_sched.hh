/**
 * @file
 * BCS — Block CTA Scheduling (the paper's second mechanism), plus the
 * LCS+BCS combination.
 *
 * The baseline round-robin scheduler sprays consecutive CTAs across
 * different cores, destroying the inter-CTA data locality of stencil and
 * tiled kernels. BCS dispatches CTAs in *blocks* of B consecutive ids to
 * one core: a core only receives CTAs when B of them fit, and then
 * receives B sequential ids sharing one blockSeq, which the BAWS warp
 * scheduler uses to keep the pair at even progress.
 *
 * LazyBlockCtaScheduler layers the LCS per-core CTA limit on top: blocks
 * are only dispatched while the resident count is below the decided
 * N_opt (the final block may overshoot by at most B-1).
 */

#ifndef BSCHED_CTA_BLOCK_CTA_SCHED_HH
#define BSCHED_CTA_BLOCK_CTA_SCHED_HH

#include "cta/lazy_cta_sched.hh"

namespace bsched {

/** Paired dispatch of consecutive CTAs. */
class BlockCtaScheduler : public CtaScheduler
{
  public:
    explicit BlockCtaScheduler(const GpuConfig& config)
        : CtaScheduler(config)
    {}

    void tick(Cycle now, std::vector<KernelInstance>& kernels,
              CoreList& cores) override;

    /**
     * Purely event-driven: a block becomes dispatchable only when B
     * slots fit on a core, i.e. after CTA completions — which force a
     * dispatch pass anyway. No time-driven deadlines of its own
     * (the LCS overlay adds those in LazyBlockCtaScheduler).
     */
    Cycle
    nextEventCycle(Cycle now, const std::vector<KernelInstance>& kernels,
                   const CoreList& cores) const override
    {
        (void)now;
        (void)kernels;
        (void)cores;
        return kCycleNever;
    }

    const char* name() const override { return "bcs"; }

  protected:
    /**
     * Per-core resident cap for @p kernel (hook for the LCS overlay);
     * the base policy only applies the static/occupancy cap.
     */
    virtual std::uint32_t residencyCap(std::uint32_t core_id,
                                       const KernelInstance& kernel) const;
};

/** LCS + BCS: paired dispatch limited by the monitored N_opt. */
class LazyBlockCtaScheduler : public BlockCtaScheduler
{
  public:
    explicit LazyBlockCtaScheduler(const GpuConfig& config)
        : BlockCtaScheduler(config), lazy_(config)
    {}

    void tick(Cycle now, std::vector<KernelInstance>& kernels,
              CoreList& cores) override;

    void notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                       CoreList& cores) override;

    Cycle nextEventCycle(Cycle now,
                         const std::vector<KernelInstance>& kernels,
                         const CoreList& cores) const override
    {
        // The embedded LCS carries the only time-driven deadlines
        // (fixed monitoring windows); block dispatch itself is
        // event-driven.
        return lazy_.nextEventCycle(now, kernels, cores);
    }

    const char* name() const override { return "lcs+bcs"; }

    /** The embedded LCS monitor (headroom queries by the serving
     *  engine's admission signal). */
    const LazyCtaScheduler& lazy() const { return lazy_; }

    void addStats(StatSet& stats) const override;

    void setTracer(Tracer* tracer) override
    {
        CtaScheduler::setTracer(tracer);
        lazy_.setTracer(tracer);
    }

  protected:
    std::uint32_t residencyCap(std::uint32_t core_id,
                               const KernelInstance& kernel) const override;

  private:
    /** Monitoring/limit logic is delegated to an embedded LCS. */
    LazyCtaScheduler lazy_;
};

} // namespace bsched

#endif // BSCHED_CTA_BLOCK_CTA_SCHED_HH
