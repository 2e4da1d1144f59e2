/**
 * @file
 * Miss Status Holding Registers. An MSHR file tracks outstanding miss
 * lines and merges secondary misses onto the primary. Waiters are opaque
 * 64-bit tokens owned by the client (the core's LD/ST unit uses access-
 * batch indices; the L2 packs a profiler request id and a core id).
 */

#ifndef BSCHED_MEM_MSHR_HH
#define BSCHED_MEM_MSHR_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace bsched {

/** Outcome of attempting to register a miss. */
enum class MshrOutcome
{
    NewEntry,  ///< primary miss: entry allocated, fetch must be sent
    Merged,    ///< secondary miss merged; no new fetch
    FullEntry, ///< entry exists but merge capacity exhausted -> retry
    FullFile,  ///< no free entries -> retry
};

/** Opaque waiter token stored per merged miss (client-defined). */
using MshrWaiter = std::uint64_t;

/**
 * MSHR file with per-line merge capacity, stored flat: at most `entries`
 * lines with at most `maxMerged` waiters each, allocated once. The
 * entries in use form a dense prefix (a completed entry is replaced by
 * the last one), so a lookup scans only the outstanding lines. Nothing
 * observable depends on where an entry sits: lookups are by line, and
 * a line's waiters keep their merge order.
 */
class MshrFile
{
  public:
    /**
     * @param entries distinct outstanding lines.
     * @param max_merged waiters per line (including the primary).
     */
    MshrFile(std::uint32_t entries, std::uint32_t max_merged,
             std::string name);

    /** Try to record a miss for @p line_addr with @p waiter. */
    MshrOutcome allocate(Addr line_addr, MshrWaiter waiter);

    /** True if a fetch for @p line_addr is already outstanding. */
    bool has(Addr line_addr) const { return find(line_addr) < used_; }

    /**
     * Complete the fetch of @p line_addr: removes the entry and returns
     * its waiters in merge order (panic() if absent). The span views a
     * buffer of this file, valid until the next complete().
     */
    std::span<const MshrWaiter> complete(Addr line_addr);

    std::uint32_t entriesInUse() const { return used_; }
    bool full() const { return used_ >= entries_; }
    bool empty() const { return used_ == 0; }

    void addStats(StatSet& stats, const std::string& prefix) const;

  private:
    /** Index of @p line_addr's entry; used_ if none. */
    std::uint32_t
    find(Addr line_addr) const
    {
        std::uint32_t i = 0;
        while (i < used_ && lines_[i] != line_addr)
            ++i;
        return i;
    }

    /** Entry @p i's waiter list. */
    MshrWaiter* waitersOf(std::uint32_t i)
    {
        return &waiters_[static_cast<std::size_t>(i) * maxMerged_];
    }

    std::uint32_t entries_;
    std::uint32_t maxMerged_;
    std::string name_;
    std::uint32_t used_ = 0;             ///< entries [0, used_) are live
    std::vector<Addr> lines_;            ///< per entry: its line
    std::vector<std::uint32_t> merged_;  ///< per entry: waiter count
    std::vector<MshrWaiter> waiters_;    ///< per entry: maxMerged_ slots
    std::vector<MshrWaiter> completed_;  ///< complete()'s result
    std::uint64_t allocs_ = 0;
    std::uint64_t merges_ = 0;
    std::uint64_t completes_ = 0;
    std::uint64_t fullEntryStalls_ = 0;
    std::uint64_t fullFileStalls_ = 0;
};

} // namespace bsched

#endif // BSCHED_MEM_MSHR_HH
