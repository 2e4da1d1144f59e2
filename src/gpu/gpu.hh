/**
 * @file
 * The whole-GPU model: SIMT cores, interconnect, memory partitions and
 * the CTA scheduler, advanced in lock-step one core clock at a time.
 */

#ifndef BSCHED_GPU_GPU_HH
#define BSCHED_GPU_GPU_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "cta/cta_sched.hh"
#include "mem/interconnect.hh"
#include "mem/mem_partition.hh"
#include "obs/observer.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace bsched {

struct CounterSnapshot;

/** Top-level simulator. */
class Gpu
{
  public:
    /**
     * @param obs optional observability hooks (non-owning; must outlive
     *        the Gpu). The default — no tracer, no sampler — is the
     *        zero-cost path: nothing is allocated or recorded.
     */
    explicit Gpu(const GpuConfig& config, Observer obs = {});

    /**
     * Register a kernel for execution. The KernelInfo must outlive the
     * Gpu. @p core_begin / @p core_end (exclusive, -1 = all) restrict the
     * kernel to a core range (spatial partitioning); @p priority orders
     * dispatch when kernels compete (lower first).
     * @return the kernel id.
     */
    int launchKernel(const KernelInfo& kernel, int core_begin = 0,
                     int core_end = -1, int priority = 0);

    /**
     * Advance one cycle; returns true while work remains. When the
     * cycle turns out to be quiet (no issue, no traffic, no dispatch)
     * and config().fastForward is set, the clock then jumps over the
     * provably-quiet span to the earliest next event — counters are
     * replayed so results are byte-identical to plain stepping.
     */
    bool stepCycle();

    /** Run to completion of all launched kernels. */
    void run();

    /**
     * Take the closing sample if the attached sampler has not already
     * sampled the current cycle: ties every series off at the final
     * cycle so cumulative counters end exactly at the StatSet totals.
     * run() calls this itself; external drivers (the serving engine)
     * call it once after their own event loop ends. No-op without a
     * sampler.
     */
    void finalizeSample();

    Cycle cycle() const { return cycle_; }

    /** True once every launched kernel has finished. */
    bool finished() const { return unfinished_ == 0; }

    /**
     * CTA-drain preemption (serving layer): while draining, kernel
     * @p kernel_id receives no new CTA dispatches — its in-flight CTAs
     * run to completion and the freed resources go to co-resident
     * kernels. Lifting the drain resumes dispatch from the frozen
     * cursor. Forwards to the CTA scheduler; valid for any policy.
     */
    void requestDrain(int kernel_id, bool draining);

    /** True while @p kernel_id is being drained. */
    bool kernelDraining(int kernel_id) const;

    /** CTAs of @p kernel_id currently resident, summed over cores. */
    std::uint32_t kernelResidentCtas(int kernel_id) const;

    /** Drains that reached zero residency (drain-preemption cost). */
    std::uint64_t drainsCompleted() const { return drainsCompleted_; }

    /** Drains lifted while the victim still had CTAs resident — the
     *  preemptor finished first, so the drain never reached zero. */
    std::uint64_t drainCancels() const { return drainCancels_; }

    /**
     * Total cycles from each requestDrain(true) to the retirement of
     * the victim's last in-flight CTA, summed over completed drains —
     * the latency bound on how fast CTA-drain preemption frees space.
     */
    std::uint64_t drainLatencyCycles() const { return drainLatencyCycles_; }

    /**
     * Bound for idle fast-forward jumps: an external agent (the serving
     * engine) promises to act at @p cycle, so quiet spans must not be
     * elided past it even when no internal component has an earlier
     * event. kCycleNever (the default) removes the bound. Purely a
     * fast-forward fence — with fast-forward off the caller simply
     * observes the cycle counter, so behaviour is byte-identical either
     * way.
     */
    void setExternalEventCycle(Cycle cycle) { externalEvent_ = cycle; }

    /** True when no memory traffic is in flight anywhere. */
    bool drained() const;

    const KernelInstance& kernel(int id) const;
    std::size_t kernelCount() const { return kernels_.size(); }

    /** Cycles from a kernel's launch to its last CTA completion. */
    Cycle kernelCycles(int id) const;

    /** Whole-GPU instructions per cycle over the simulated interval. */
    double ipc() const;

    /** IPC attributed to one kernel (its instructions / its runtime). */
    double kernelIpc(int id) const;

    std::uint64_t totalInstrsIssued() const;

    /** Instructions issued so far for one kernel, summed over cores
     *  (the serving predictor's monitoring-phase signal; valid while
     *  the kernel is still running). */
    std::uint64_t kernelInstrsIssued(int id) const;

    /** Collect statistics from every component. */
    StatSet stats() const;

    const GpuConfig& config() const { return config_; }
    const CoreList& cores() const { return cores_; }
    const CtaScheduler& ctaScheduler() const { return *ctaSched_; }

    const Observer& observer() const { return obs_; }

    /**
     * Cycles elided by idle fast-forward so far. Diagnostic only —
     * deliberately not a StatSet entry, so run artifacts stay
     * byte-identical with fast-forward on and off.
     */
    std::uint64_t elidedCycles() const { return elided_; }

  private:
    /** Shuffle traffic between cores, interconnect and partitions;
     *  true if anything moved. */
    bool moveMemoryTraffic();

    /**
     * Idle fast-forward: called right after a quiet cycle with cycle_
     * already advanced. Computes the earliest cycle any component can
     * act (cores, interconnect, partitions, CTA-scheduler deadlines,
     * sampler), replays the per-cycle counter effects of the elided
     * span, and jumps the clock. Skipping is sound because every
     * component's estimate is a lower bound on its next observable
     * event given that nothing external reaches it first.
     */
    void fastForward();

    /** Read every counter the phase window and the sampler consume. */
    CounterSnapshot snapshotCounters() const;

    /** Take one snapshot at @p now and feed it to whichever of the
     *  phase window (closed first) and the sampler is due. */
    void observeFence(Cycle now, bool phase_due, bool sample_due);

    /** Record the sampled series from @p snap into the sampler. */
    void collectSample(Cycle now, const CounterSnapshot& snap);

    /** Account a drain that reached zero residency at @p now. */
    void noteDrainComplete(int kernel_id, Cycle now, Cycle latency);

    Observer obs_;
    GpuConfig config_;
    CoreList cores_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    Interconnect icnt_;
    std::unique_ptr<CtaScheduler> ctaSched_;
    std::vector<KernelInstance> kernels_;
    std::size_t unfinished_ = 0; ///< launched kernels not yet finished
    /** The next stepCycle must run the CTA dispatch pass. */
    bool ctaPassDue_ = true;
    /** The CTA policy's next time-driven deadline, as of the last pass. */
    Cycle ctaDeadline_ = kCycleNever;
    Cycle cycle_ = 0;
    std::uint64_t elided_ = 0; ///< cycles skipped by fastForward()
    Cycle externalEvent_ = kCycleNever; ///< fast-forward fence

    // Drain-latency accounting (CTA-drain preemption cost).
    std::map<int, Cycle> drainStart_; ///< in-flight drains, by kernel id
    std::uint64_t drainsCompleted_ = 0;
    std::uint64_t drainCancels_ = 0;
    std::uint64_t drainLatencyCycles_ = 0;

    // Interval-IPC bookkeeping for the sampler.
    Cycle lastSampleCycle_ = 0;
    std::uint64_t lastSampleInstrs_ = 0;
};

} // namespace bsched

#endif // BSCHED_GPU_GPU_HH
