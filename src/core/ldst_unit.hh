/**
 * @file
 * The core's load/store unit: accepts coalesced access batches from
 * issued memory instructions, walks each batch's lines through the L1D
 * (hit queue / MSHR merge / request to the memory partition), and reports
 * completed loads so the core can release the destination register.
 *
 * The L1D is write-through, no-write-allocate (the GPGPU-Sim default for
 * global data): stores update an existing line but never allocate, and
 * every store is forwarded to L2.
 */

#ifndef BSCHED_CORE_LDST_UNIT_HH
#define BSCHED_CORE_LDST_UNIT_HH

#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "isa/instr.hh"
#include "mem/cache.hh"
#include "mem/mem_common.hh"
#include "mem/mshr.hh"
#include "sim/config.hh"
#include "sim/queues.hh"
#include "sim/stats.hh"

namespace bsched {

class MemProfiler;

/** A finished load batch: release @p reg of @p warpId. */
struct LoadCompletion
{
    int warpId = kInvalidId;
    std::int8_t reg = kNoReg;
};

/** Per-core LD/ST pipeline with L1 data cache. */
class LdstUnit
{
  public:
    LdstUnit(const GpuConfig& config, std::uint32_t core_id);

    /** True if a new memory instruction can enter the batch queue. */
    bool
    canAcceptBatch() const
    {
        return batchQ_.size() < config_.ldstQueueDepth;
    }

    /**
     * True if a newly issued memory instruction could make progress this
     * cycle: queue space, plus (conservatively) a free MSHR entry and
     * outgoing-request space. Gating issue on this is what turns an
     * MSHR-full condition into a *reservation failure at issue time*, so
     * the warp scheduler re-arbitrates the freed MSHR slots each cycle —
     * under GTO, older CTAs get the memory bandwidth first. Without this
     * gate a young CTA's access can camp at the queue head and invert
     * the priority.
     */
    bool
    canAdmit(bool write) const
    {
        return canAcceptBatch() && outgoing_.size() < config_.coreMemQueue &&
            (write || !mshr_.full());
    }

    /**
     * Enqueue the line set of one issued memory instruction.
     * @param reg destination register (kNoReg for stores).
     * @param kernel_id issuing warp's kernel (profiler attribution).
     * @param cta_key issuing CTA's global key (makeCtaKey; -1 unknown).
     */
    void pushBatch(Cycle now, int warp_id, std::int8_t reg, bool write,
                   const std::vector<Addr>& lines,
                   int kernel_id = kInvalidId, std::int64_t cta_key = -1);

    /**
     * Advance one cycle: service the head batch and the L1 hit queue.
     * Returns true when anything happened — a hit return, a processed
     * line, or a blocked-head retry (which mutates stall and tag-access
     * counters, so such a cycle is observable and must not be elided).
     */
    bool tick(Cycle now);

    /**
     * Sample the L1 MSHR occupancy on the attached memory profiler:
     * the one effect of a tick before nextTickCycle(), which the core
     * replays instead of ticking while it sleeps.
     */
    void recordOccupancy();

    /**
     * Earliest cycle >= @p now at which this unit can do observable
     * work on its own: pending completions or outgoing requests (now),
     * a queued batch (now — head retries are observable every cycle),
     * or the L1 hit queue head's ready cycle. kCycleNever when only
     * external fills can wake it (all lines out at the memory system).
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * nextEventCycle() minus the outgoing requests, which leave through
     * popOutgoing() rather than tick(): the earliest cycle >= @p now at
     * which tick() or the core's completion step has work. Until then
     * a tick only records the occupancy sample (recordOccupancy).
     */
    Cycle nextTickCycle(Cycle now) const;

    /**
     * Deliver an L2 fill response (from the interconnect). @p req_id is
     * the profiler record the fill completes (0 untracked).
     */
    void onFill(Cycle now, Addr line_addr, std::uint32_t req_id = 0);

    /** Completed loads since the last clearCompletions(), in
     *  completion order. */
    std::span<const LoadCompletion> completions() const
    {
        return completions_;
    }

    /** Forget the completions the core has applied. */
    void clearCompletions() { completions_.clear(); }

    /** Queued batches not yet walked through the L1 (tests/diagnostics). */
    std::size_t batchQueueLength() const { return batchQ_.size(); }

    /** Requests waiting to be injected into the network. */
    std::size_t outgoingCount() const { return outgoing_.size(); }

    /** True if a request is waiting to be injected into the network. */
    bool hasOutgoing() const { return !outgoing_.empty(); }
    const MemRequest& peekOutgoing() const;
    MemRequest popOutgoing();

    /** True if nothing is in flight anywhere in the unit. */
    bool drained() const;

    const TagArray& l1() const { return tags_; }
    const MshrFile& mshr() const { return mshr_; }
    std::uint64_t stallCycles() const { return stallCycles_; }

    /** Attach the event tracer to the L1D (observability). */
    void setTracer(Tracer* tracer, std::uint32_t track)
    {
        tags_.setTracer(tracer, track);
    }

    /**
     * Attach the memory profiler (observability): L1 read misses open
     * request records, fills close them, L1 evictions are attributed to
     * CTAs and the L1 MSHR occupancy is sampled every cycle. Null
     * detaches; the disabled cost is an untaken branch per event.
     */
    void setMemProfiler(MemProfiler* prof) { memProfiler_ = prof; }

    void addStats(StatSet& stats) const;

  private:
    /** One access batch. A slot is reused for every batch it holds:
     *  pushBatch() overwrites each field, and `lines` keeps its
     *  capacity. */
    struct Batch
    {
        bool inUse = false;
        int warpId = kInvalidId;
        std::int8_t reg = kNoReg;
        bool write = false;
        /** The batch's lines; lines[head, end) are not yet walked. */
        std::vector<Addr> lines;
        std::uint32_t head = 0;
        std::uint32_t outstanding = 0;
        int kernelId = kInvalidId;   ///< profiler attribution
        std::int64_t ctaKey = -1;    ///< profiler attribution

        bool linesLeft() const { return head < lines.size(); }
    };

    std::uint32_t allocBatch();
    void maybeComplete(std::uint32_t batch_id, Cycle now);
    /** Try to process one line of the head batch; false on stall. */
    bool processLine(Cycle now);

    std::string name_;
    std::uint16_t coreId_;
    GpuConfig config_;
    TagArray tags_;
    MshrFile mshr_;
    std::vector<Batch> batches_;
    std::vector<std::uint32_t> freeBatches_;
    std::deque<std::uint32_t> batchQ_;
    TimedQueue<std::uint32_t> hitQ_; ///< batch ids completing an L1 hit
    std::deque<MemRequest> outgoing_;
    std::vector<LoadCompletion> completions_;

    std::uint64_t stallCycles_ = 0;
    std::uint64_t linesProcessed_ = 0;
    // Per-path line counts backing the access = hit + miss + bypass
    // conservation contract (writes bypass allocation: write-through).
    std::uint64_t hitLines_ = 0;
    std::uint64_t missLines_ = 0;
    std::uint64_t writeLines_ = 0;
    /**
     * Tag lookups that missed but could not allocate/merge this cycle
     * (MSHR or outgoing queue full). The head line retries and probes
     * the tags again next cycle, so each retry adds one tag access with
     * no processed line: accesses = processed + retries.
     */
    std::uint64_t retryTagLookups_ = 0;

    // Observability (null = disabled).
    MemProfiler* memProfiler_ = nullptr;
};

} // namespace bsched

#endif // BSCHED_CORE_LDST_UNIT_HH
