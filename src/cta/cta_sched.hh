/**
 * @file
 * CTA (thread block) scheduler interface and the baseline GigaThread-like
 * round-robin policy: greedily fill every core to its occupancy limit,
 * assigning CTAs to cores in round-robin order.
 */

#ifndef BSCHED_CTA_CTA_SCHED_HH
#define BSCHED_CTA_CTA_SCHED_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/simt_core.hh"
#include "kernel/kernel_info.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace bsched {

class Tracer;

/** A kernel in flight on the GPU. */
struct KernelInstance
{
    const KernelInfo* info = nullptr;
    int id = kInvalidId;
    std::uint32_t nextCta = 0;  ///< next CTA id to dispatch
    std::uint32_t ctasDone = 0;
    Cycle launchCycle = 0;
    Cycle doneCycle = kCycleNever;
    /** Cycle the first CTA was dispatched to a core (kCycleNever until
     *  then) — the admitted→dispatching boundary in serving spans. */
    Cycle firstDispatchCycle = kCycleNever;
    /** Core range this kernel may use (spatial partitioning); end
     *  exclusive, -1 = all cores. */
    int coreBegin = 0;
    int coreEnd = -1;
    /** Dispatch priority: lower values are offered CTAs first. */
    int priority = 0;

    bool dispatchDone() const { return nextCta >= info->gridCtas(); }
    bool finished() const { return ctasDone >= info->gridCtas(); }
};

using CoreList = std::vector<std::unique_ptr<SimtCore>>;

/** Policy deciding which CTA goes to which core, and when. */
class CtaScheduler
{
  public:
    explicit CtaScheduler(const GpuConfig& config);
    virtual ~CtaScheduler() = default;

    /**
     * One dispatch pass at @p now. The GPU runs a pass only after an
     * event that can change its outcome — a dispatch in the previous
     * pass, a CTA completion, a kernel launch or drain request — or at
     * nextEventCycle(); a pass it skips would have dispatched nothing.
     */
    virtual void tick(Cycle now, std::vector<KernelInstance>& kernels,
                      CoreList& cores) = 0;

    /**
     * Earliest cycle >= @p now at which this policy must run again even
     * if nothing else happens — its internal time-driven deadlines (LCS
     * fixed monitoring windows, DYNCTA sampling periods). Purely
     * event-driven policies return kCycleNever: their dispatch
     * eligibility only changes on the events that force a pass anyway.
     * It may change only in a pass or in notifyCtaDone(); the GPU reads
     * it after each pass, both to schedule the next pass and to bound
     * fast-forward.
     */
    virtual Cycle nextEventCycle(Cycle now,
                                 const std::vector<KernelInstance>& kernels,
                                 const CoreList& cores) const;

    /** Total CTAs dispatched; the GPU reads the per-pass delta. */
    std::uint64_t dispatches() const { return dispatches_; }

    /**
     * CTA-drain preemption: while @p kernel_id is draining, every policy
     * stops offering it new CTAs (dispatchOrder() filters it out), so
     * its in-flight CTAs run to completion and the resources they free
     * go to the remaining kernels. Dispatch resumes from the frozen
     * nextCta cursor when the drain is lifted — no CTA is ever killed
     * or re-executed, which is what keeps the mechanism exact on a
     * simulator with no context-save hardware (Pai et al.'s SM-draining
     * preemption). Idempotent; applies to all policies via the shared
     * dispatch-order filter.
     */
    void setDraining(int kernel_id, bool draining);

    /** True while @p kernel_id is being drained. */
    bool isDraining(int kernel_id) const;

    /** Total drain requests accepted (observability). */
    std::uint64_t drainRequests() const { return drainRequests_; }

    /** A CTA finished on a core (book-keeping hook for LCS). */
    virtual void notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                               CoreList& cores);

    /** Human-readable policy name. */
    virtual const char* name() const = 0;

    /** Export policy-internal stats (e.g. LCS decisions). */
    virtual void addStats(StatSet& stats) const;

    /**
     * Attach the event tracer (observability): policy decisions — LCS
     * window closes, BCS pair dispatches, DYNCTA target moves — are
     * emitted on the affected core's track. Null detaches. Overriders
     * must forward to embedded scheduler components.
     */
    virtual void setTracer(Tracer* tracer) { tracer_ = tracer; }

    /** Factory from configuration. */
    static std::unique_ptr<CtaScheduler> create(const GpuConfig& config);

  protected:
    /** True if @p core is within the kernel's core range. */
    bool coreAllowed(const KernelInstance& kernel,
                     std::uint32_t core) const;

    /** True if @p n more CTAs of @p kernel fit on @p core right now. */
    bool coreFitsN(const SimtCore& core, const KernelInfo& kernel,
                   std::uint32_t n) const;

    /**
     * Per-core CTA cap for @p kernel from the static limit sweep knob
     * (oracle experiments): min(occupancy max, staticCtaLimit if set).
     */
    std::uint32_t staticCap(const KernelInfo& kernel) const;

    /** Dispatch one CTA of @p kernel to @p core. */
    void dispatch(Cycle now, KernelInstance& kernel, SimtCore& core,
                  std::uint64_t block_seq);

    /**
     * Rebuild the priority-sorted list of kernels with pending CTAs and
     * reset the per-core used flags, in reused scratch buffers; an empty
     * result lets tick() return before touching any core.
     */
    std::vector<KernelInstance*>&
    dispatchOrder(std::vector<KernelInstance>& kernels,
                  std::size_t num_cores);

    GpuConfig config_;
    std::uint64_t blockSeqCounter_ = 0;
    std::uint64_t dispatches_ = 0;
    std::uint64_t drainRequests_ = 0;
    Tracer* tracer_ = nullptr; ///< observability hook (null = disabled)
    std::vector<KernelInstance*> orderScratch_;
    std::vector<char> usedScratch_; ///< per-core dispatched-this-cycle
    std::vector<char> draining_;    ///< per-kernel drain flag (by id)
};

/** Baseline: greedy round-robin to maximum occupancy. */
class RoundRobinCtaScheduler : public CtaScheduler
{
  public:
    explicit RoundRobinCtaScheduler(const GpuConfig& config)
        : CtaScheduler(config)
    {}

    void tick(Cycle now, std::vector<KernelInstance>& kernels,
              CoreList& cores) override;

    /**
     * Purely event-driven: greedy round-robin has no monitoring windows
     * or sampling periods, so dispatch eligibility only changes on CTA
     * completions, launches and drain requests.
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

    const char* name() const override { return "rr"; }
};

} // namespace bsched

#endif // BSCHED_CTA_CTA_SCHED_HH
