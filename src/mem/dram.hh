/**
 * @file
 * A GDDR-like DRAM channel with per-bank row buffers and an FR-FCFS-lite
 * scheduler: among requests whose bank is free, row-buffer hits are
 * served before older row misses (within a bounded scan window, to bound
 * starvation). The shared data bus serializes bursts.
 */

#ifndef BSCHED_MEM_DRAM_HH
#define BSCHED_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace bsched {

class MemProfiler;
class Tracer;

/** One DRAM channel (paired 1:1 with a memory partition). */
class DramChannel
{
  public:
    /**
     * @param partition_stride number of partitions interleaved at line
     *        granularity; used to compact this channel's sparse global
     *        line addresses into a dense local space before bank/row
     *        decomposition.
     */
    DramChannel(const DramConfig& config, std::uint32_t line_bytes,
                std::uint32_t partition_stride, std::string name);

    /** True if the request queue has room. */
    bool canAccept() const { return queue_.size() < config_.queueCapacity; }

    /**
     * Enqueue a line read/write. @p req_id is the memory profiler's
     * record id for the primary fetch this access serves (0 untracked).
     */
    void push(Cycle now, Addr line_addr, bool write,
              std::uint32_t req_id = 0);

    /**
     * Advance one cycle: possibly start servicing one request. Returns
     * true when a request was serviced (the cycle was not quiet).
     */
    bool tick(Cycle now);

    /** True if a completed read response is available at @p now. */
    bool responseReady(Cycle now) const;

    /** Pop the line address of the oldest completed read. */
    Addr popResponse(Cycle now);

    /** True when no request is queued or in flight. */
    bool idle() const { return queue_.empty() && completions_.empty(); }

    /**
     * Earliest cycle >= @p now at which this channel can do observable
     * work: the oldest completion's done cycle, or the first cycle a
     * bank in the scheduler's scan window frees up. kCycleNever when
     * idle. The FR-FCFS starvation flag may flip inside a skipped span,
     * but that is unobservable — no request can be *served* while every
     * window bank is busy.
     */
    Cycle nextEventCycle(Cycle now) const;

    /** Bank index a line maps to (exposed for tests). */
    std::uint32_t bankOf(Addr line_addr) const;

    /** Row index a line maps to within its bank (exposed for tests). */
    std::uint64_t rowOf(Addr line_addr) const;

    std::uint64_t reads() const { return reads_; }
    std::uint64_t writes() const { return writes_; }
    std::uint64_t rowHits() const { return rowHits_; }
    std::uint64_t rowMisses() const { return rowMisses_; }
    std::uint64_t rowConflicts() const { return rowConflicts_; }

    /** Per-bank row-buffer outcome counters (index = bank). */
    struct BankStats
    {
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        /** Row misses that closed an open row (not first touch). */
        std::uint64_t conflicts = 0;
    };

    std::uint32_t numBanks() const
    {
        return static_cast<std::uint32_t>(banks_.size());
    }

    const BankStats& bankStats(std::uint32_t bank) const
    {
        return banks_.at(bank).stats;
    }

    void addStats(StatSet& stats, const std::string& prefix) const;

    /**
     * Attach the event tracer (observability): row-buffer conflicts —
     * a serviced request closing a different open row — emit
     * DramRowConflict events on @p track. Null detaches.
     */
    void setTracer(Tracer* tracer, std::uint32_t track);

    /** Attach the memory profiler: serviced requests report their
     *  DramQueue -> DramService transition. Null detaches. */
    void setMemProfiler(MemProfiler* prof) { memProfiler_ = prof; }

  private:
    struct Request
    {
        Addr lineAddr = 0;
        bool write = false;
        Cycle arrive = 0;
        std::uint32_t bank = 0;   ///< precomputed at push
        std::int64_t row = 0;     ///< precomputed at push
        std::uint32_t reqId = 0;  ///< profiler record id (0 untracked)
    };

    struct Bank
    {
        std::int64_t openRow = -1;
        Cycle busyUntil = 0;
        BankStats stats;
    };

    /** How many queue entries the scheduler scans for a row hit. */
    static constexpr std::size_t kScanWindow = 16;

    void service(Cycle now, std::size_t queue_index);

    DramConfig config_;
    std::uint32_t lineBytes_;
    std::uint32_t partitionStride_;
    std::string name_;
    std::vector<Bank> banks_;
    std::deque<Request> queue_;
    /** (doneCycle, lineAddr) for reads, in completion order. */
    std::deque<std::pair<Cycle, Addr>> completions_;
    Cycle busFreeAt_ = 0;
    /** After a scan that found every window bank busy: the first cycle
     *  one of them frees. tick() serves nothing before it; push()
     *  resets it. */
    Cycle banksBusyUntil_ = 0;

    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t rowHits_ = 0;
    std::uint64_t rowMisses_ = 0;
    std::uint64_t rowConflicts_ = 0;

    Tracer* tracer_ = nullptr;
    std::uint32_t track_ = 0;
    MemProfiler* memProfiler_ = nullptr;
};

} // namespace bsched

#endif // BSCHED_MEM_DRAM_HH
