/**
 * @file
 * One SIMT core (SM): warp contexts, per-slot warp schedulers, register
 * scoreboards, barrier handling, shared-memory timing and the LD/ST unit
 * with its L1D. CTAs are placed here by the CTA scheduler; the core
 * reports CTA completions and exposes the per-CTA issue counters the LCS
 * monitor reads.
 */

#ifndef BSCHED_CORE_SIMT_CORE_HH
#define BSCHED_CORE_SIMT_CORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/ldst_unit.hh"
#include "core/warp.hh"
#include "core/warp_sched.hh"
#include "kernel/occupancy.hh"
#include "obs/profile.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace bsched {

class Tracer;
class MemProfiler;

/** A CTA completion event reported to the CTA scheduler. */
struct CtaDoneEvent
{
    std::uint32_t coreId = 0;
    int kernelId = kInvalidId;
    std::uint32_t ctaId = 0;
    std::uint64_t issuedInstrs = 0; ///< instructions this CTA issued
    Cycle doneCycle = 0;
    /** The completed CTA's kernel; LCS needs its occupancy cap. */
    const KernelInfo* info = nullptr;
};

/** A streaming multiprocessor. */
class SimtCore
{
  public:
    SimtCore(const GpuConfig& config, std::uint32_t id);

    // --- CTA lifecycle --------------------------------------------------

    /** True if one CTA of @p kernel fits right now (resources + warps). */
    bool canAccept(const KernelInfo& kernel) const;

    /**
     * Place a CTA. @p block_seq groups CTAs dispatched together (BCS);
     * under non-block scheduling every CTA gets a unique block.
     * Returns the hardware CTA slot index.
     */
    int launchCta(Cycle now, const KernelInfo& kernel, int kernel_id,
                  std::uint32_t cta_id, std::uint64_t block_seq);

    /** CTA completions since the last drain. */
    std::vector<CtaDoneEvent> drainCompletedCtas();

    // --- simulation -----------------------------------------------------

    /**
     * Advance one cycle. Returns true when anything observable happened
     * on this core — an instruction issued, a load completion applied,
     * or LD/ST-unit activity. A false return marks a quiet cycle whose
     * repetitions may be elided by idle fast-forward (their counter
     * effects are replayed by accountQuietSpan()).
     */
    bool tick(Cycle now);

    /**
     * Earliest cycle >= @p now at which this core can do observable
     * work on its own, valid only right after a quiet tick: the LD/ST
     * unit's next event, or the first wake time of a live non-barrier
     * warp: its scoreboard wake, or, once that has passed, the
     * shared-memory port's free cycle for a shared op (so a quiet span
     * never runs past a change of any warp's stall category). Warps
     * waiting on an outstanding load (or an MSHR-full refusal) wake via
     * memory-system events, which the GPU bounds separately.
     * kCycleNever if only external events can wake the core.
     */
    Cycle nextWorkCycle(Cycle now) const;

    /**
     * Replay the per-cycle counter effects of @p n elided quiet cycles
     * (classified as of @p now, the first skipped cycle): active/stall
     * cycle counters, per-slot profiler categories — constant across
     * the span because it ends at every wake time — and the L1 MSHR
     * occupancy samples on @p memprof.
     */
    void accountQuietSpan(Cycle now, std::uint64_t n, MemProfiler* memprof);

    // --- memory-side interface (driven by the GPU top level) ------------

    bool hasOutgoing() const { return ldst_.hasOutgoing(); }
    const MemRequest& peekOutgoing() const { return ldst_.peekOutgoing(); }
    MemRequest popOutgoing() { return ldst_.popOutgoing(); }
    void deliverResponse(Cycle now, const MemResponse& response);

    // --- status & monitoring ---------------------------------------------

    /** No resident CTAs and no memory traffic in flight. */
    bool idle() const;

    std::uint32_t residentCtas() const { return resources_.residentCtas(); }
    std::uint32_t residentCtas(int kernel_id) const;
    const CoreResources& resources() const { return resources_; }

    std::uint64_t instrsIssued() const { return issuedTotal_; }
    std::uint64_t instrsIssued(int kernel_id) const;

    /** Cycles in which at least one instruction issued. */
    std::uint64_t issueCycles() const { return issueCycles_; }

    /**
     * Stall accounting for dynamic CTA controllers (DYNCTA-style):
     * cycles with resident CTAs but zero issue, split into
     * memory-bound (outstanding loads in the LD/ST unit) and
     * starved (no memory outstanding — too little work/TLP).
     */
    std::uint64_t memStallCycles() const { return stallMemCycles_; }
    std::uint64_t idleStallCycles() const { return stallIdleCycles_; }

    /** Cycle the first CTA of @p kernel_id arrived; kCycleNever if none. */
    Cycle kernelFirstLaunch(int kernel_id) const;

    /**
     * Per-CTA issued-instruction counts for @p kernel_id on this core:
     * completed CTAs first, then resident ones. This is the signal the
     * LCS monitor turns into N_opt = ceil(total / max).
     */
    std::vector<std::uint64_t> ctaIssueCounts(int kernel_id) const;

    std::uint32_t id() const { return id_; }
    const std::vector<Warp>& warps() const { return warps_; }
    const LdstUnit& ldst() const { return ldst_; }

    /** The per-slot warp schedulers (tests, introspection). */
    const std::vector<std::unique_ptr<WarpScheduler>>& schedulers() const
    {
        return schedulers_;
    }

    void addStats(StatSet& stats) const;

    /**
     * Attach the event tracer (observability): CTA dispatch/complete
     * events land on this core's track, and the L1D reports miss
     * bursts. Null detaches; the disabled cost is an untaken branch.
     */
    void setTracer(Tracer* tracer);

    /**
     * Attach the cycle-accounting profiler (observability): every
     * scheduler-slot cycle while the core is active is classified into
     * an exclusive stall category. Null detaches; the disabled cost is
     * an untaken null-pointer branch per slot.
     */
    void setProfiler(CycleProfiler* profiler) { profiler_ = profiler; }

    /**
     * Attach the memory profiler (observability): forwarded to the
     * LD/ST unit, which opens a request record per L1 read miss.
     */
    void setMemProfiler(MemProfiler* prof) { ldst_.setMemProfiler(prof); }

  private:
    struct HwCta
    {
        bool valid = false;
        int kernelId = kInvalidId;
        std::uint32_t ctaId = 0;
        std::uint64_t ctaSeq = 0;
        std::uint64_t blockSeq = 0;
        std::uint32_t warpsTotal = 0;
        std::uint32_t warpsDone = 0;
        /** Not-done warps waiting at the barrier; it releases when
         *  every not-done warp has arrived. */
        std::uint32_t warpsArrived = 0;
        CtaFootprint footprint{};
        const KernelInfo* kernel = nullptr;
        Cycle launchCycle = 0;
    };

    struct KernelTrack
    {
        Cycle firstLaunch = kCycleNever;
        std::uint64_t issued = 0;
        std::vector<std::uint64_t> completedCtaIssued;
    };

    /** The track of @p kernel_id; null if it never ran here. */
    const KernelTrack* track(int kernel_id) const;

    /**
     * What one slot's fruitless walk found: the lowest warp id refused
     * in each stall category, and the earliest cycle at which a refusal
     * lifts on its own. The issue test visits every live warp of a slot
     * that issues nothing, so each witness is the first-seen warp of its
     * category in warp-id order, whatever order the policy walks. The
     * profiler reads the witnesses; `wake` bounds the slot's sleep
     * (slotStalls_).
     */
    struct SlotStalls
    {
        static constexpr std::size_t kNone = SIZE_MAX;
        std::size_t mem = kNone;
        std::size_t sb = kNone;
        std::size_t pipe = kNone;
        std::size_t barrier = kNone;
        /** A finite cached warpWake_, smemBusyUntil_ for a busy
         *  shared-memory port, or now + 1 for a spent port budget;
         *  kCycleNever if only events can lift every refusal. */
        Cycle wake = kCycleNever;
    };

    /** Structural half of the issue check (ports, LD/ST admission,
     *  smem); the scoreboard is the other half. */
    bool structuralReady(const Instr& instr, Cycle now) const;
    /**
     * The issue test: can warp @p w issue at @p now? Caches a
     * scoreboard-blocked warp's wake time in warpWake_. A refused warp
     * is noted under its stall category in @p stalls, and the time its
     * refusal lifts folds into stalls.wake. The issue walk and
     * quiet-span accounting share it, so plain stepping and
     * fast-forward classify stalls with the same code.
     */
    bool warpIssuable(std::size_t w, Cycle now, SlotStalls& stalls);
    /**
     * Record @p n cycles of a slot that issued nothing on @p profiler:
     * one exclusive category, mem_structural > scoreboard > pipeline >
     * barrier, attributed to the lowest refused warp's kernel; a slot
     * with no live warp at all is `empty`.
     */
    void recordStalledSlot(CycleProfiler& profiler, const SlotStalls& stalls,
                           std::uint64_t n) const;
    /** One cycle's issue walk over every awake slot with @p Policy's
     *  walk inlined; true if any slot issued. */
    template <class Policy>
    bool issueSlots(Cycle now);
    /** Wake every slot: its warps or their barriers changed. */
    void wakeSlots();
    /** Regroup every slot's age order by CTA (after launch/retire). */
    void regroupSlots();
    void issueFrom(int warp_id, Cycle now);
    void finishWarp(int warp_id, Cycle now);
    void completeCta(int hw_cta, Cycle now);
    /** Release the CTA's barrier once every live warp arrived. */
    void checkBarrier(int hw_cta);
    /** Release completed loads; true if any release was applied. */
    bool applyCompletions(Cycle now);

    GpuConfig config_;
    std::uint32_t id_;
    std::string name_;
    std::vector<Warp> warps_;
    std::vector<HwCta> ctas_;
    CoreResources resources_;
    LdstUnit ldst_;
    std::vector<std::unique_ptr<WarpScheduler>> schedulers_;
    /** Per-kernel tracks, indexed by the GPU's dense kernel id. */
    std::vector<KernelTrack> kernels_;
    std::vector<CtaDoneEvent> completed_;

    /** Per issue slot: the slot's warp ids, ascending (fixed). */
    std::vector<std::vector<int>> slotIds_;
    /**
     * Per issue slot: its valid warps oldest first. A launch appends
     * the new CTA's warps (the youngest, in warpInCta order) and a
     * retirement removes them, so the order needs no sorting.
     */
    std::vector<std::vector<int>> ageOrder_;
    /** Per issue slot: ageOrder_ cut into its CTAs (BAWS). */
    std::vector<std::vector<IssueCta>> slotCtas_;
    /** Instructions issued per hardware CTA slot (BAWS progress). */
    std::vector<std::uint64_t> ctaIssued_;
    /**
     * Per issue slot: the stalls of its last fruitless walk. The slot
     * sleeps, skipping its walk and replaying these stalls, while
     * wake > now. Events wake it early by zeroing wake: a load
     * completion for one of its warps, a CTA launch or retirement or a
     * barrier release (every slot), and LD/ST admission opening since
     * the last issue stage (every slot). A slot that issues walks again
     * next cycle. Until the first launch every slot sleeps.
     */
    std::vector<SlotStalls> slotStalls_;
    /** ldst_.canAdmit(false) / canAdmit(true) after the last issue
     *  stage: a refusal a sleeping slot saw lifts when one turns true. */
    bool admitLoad_ = true;
    bool admitStore_ = true;

    /**
     * SoA-packed hot state for the issue loop: a per-warp-slot cycle
     * before which the occupying warp's scoreboard cannot clear.
     * Strictly a lower bound — set when the issue walk finds a warp's
     * operands pending, reset to 0 on launch, issue and load release —
     * so skipping a slot with warpWake_ > now never changes behaviour;
     * it only avoids touching the cold Warp record and its scoreboard.
     */
    std::vector<Cycle> warpWake_;
    /** SoA mirror of Warp::kernelId (set at warp launch): a stalled
     *  slot is attributed to its witness warp's kernel without touching
     *  that warp's cold record, which a wake-cached warp skipped. */
    std::vector<int> warpKernel_;
    /** Free warp contexts (kept in sync with Warp::valid): canAccept
     *  in O(1) instead of scanning 48 slots per scheduler tick. */
    std::uint32_t freeWarpSlots_ = 0;

    std::uint64_t ctaSeqCounter_ = 0;
    Cycle smemBusyUntil_ = 0;

    // Observability (null = disabled).
    Tracer* tracer_ = nullptr;
    std::uint32_t track_ = 0;
    CycleProfiler* profiler_ = nullptr;

    // Per-cycle structural issue budgets.
    std::uint32_t memIssuedThisCycle_ = 0;
    std::uint32_t sfuIssuedThisCycle_ = 0;

    // Statistics.
    std::uint64_t issuedTotal_ = 0;
    std::uint64_t issuedAlu_ = 0;
    std::uint64_t issuedSfu_ = 0;
    std::uint64_t issuedMem_ = 0;
    std::uint64_t issuedBar_ = 0;
    std::uint64_t activeCycles_ = 0;
    std::uint64_t issueCycles_ = 0; ///< cycles with >=1 instruction issued
    std::uint64_t stallMemCycles_ = 0;
    std::uint64_t stallIdleCycles_ = 0;
    std::uint64_t ctasLaunched_ = 0;
    std::uint64_t ctasCompleted_ = 0;
};

} // namespace bsched

#endif // BSCHED_CORE_SIMT_CORE_HH
