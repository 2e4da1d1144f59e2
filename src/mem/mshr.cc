#include "mem/mshr.hh"

#include <algorithm>

#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

MshrFile::MshrFile(std::uint32_t entries, std::uint32_t max_merged,
                   std::string name)
    : entries_(entries), maxMerged_(max_merged), name_(std::move(name))
{
    if (entries_ == 0 || maxMerged_ == 0)
        fatal("mshr ", name_, ": zero capacity");
    lines_.resize(entries_);
    merged_.resize(entries_);
    waiters_.resize(static_cast<std::size_t>(entries_) * maxMerged_);
    completed_.resize(maxMerged_);
}

MshrOutcome
MshrFile::allocate(Addr line_addr, MshrWaiter waiter)
{
    const std::uint32_t i = find(line_addr);
    if (i < used_) {
        if (merged_[i] >= maxMerged_) {
            ++fullEntryStalls_;
            return MshrOutcome::FullEntry;
        }
        waitersOf(i)[merged_[i]++] = waiter;
        ++merges_;
        BSCHED_INVARIANT(merged_[i] <= maxMerged_, "mshr ", name_,
                         ": merge list exceeds capacity");
        return MshrOutcome::Merged;
    }
    if (full()) {
        ++fullFileStalls_;
        return MshrOutcome::FullFile;
    }
    lines_[used_] = line_addr;
    merged_[used_] = 1;
    waitersOf(used_)[0] = waiter;
    ++used_;
    ++allocs_;
    // Conservation: every allocated entry is either still outstanding or
    // has been completed exactly once.
    BSCHED_INVARIANT(entriesInUse() <= entries_, "mshr ", name_,
                     ": entry count exceeds file capacity");
    BSCHED_INVARIANT(allocs_ == completes_ + entriesInUse(), "mshr ", name_,
                     ": alloc/complete balance broken");
    return MshrOutcome::NewEntry;
}

std::span<const MshrWaiter>
MshrFile::complete(Addr line_addr)
{
    // A fill for a line nobody asked for — or a second fill after the
    // entry already retired (double fill) — means merge/fill pairing
    // broke upstream. The contract fires first in validating builds
    // (throwable for injection tests); the panic is the Release backstop.
    const std::uint32_t i = find(line_addr);
    BSCHED_CHECK(i < used_, "mshr ", name_,
                 ": double fill or fill of unknown line");
    if (i == used_)
        panic("mshr ", name_, ": complete of unknown line");
    const std::uint32_t n = merged_[i];
    BSCHED_INVARIANT(n > 0, "mshr ", name_,
                     ": completing entry with no waiters");
    std::copy_n(waitersOf(i), n, completed_.begin());
    // Keep the prefix dense: the last entry moves into the freed one.
    const std::uint32_t last = --used_;
    if (i != last) {
        lines_[i] = lines_[last];
        merged_[i] = merged_[last];
        std::copy_n(waitersOf(last), merged_[last], waitersOf(i));
    }
    ++completes_;
    BSCHED_INVARIANT(allocs_ == completes_ + entriesInUse(), "mshr ", name_,
                     ": alloc/complete balance broken");
    return {completed_.data(), n};
}

void
MshrFile::addStats(StatSet& stats, const std::string& prefix) const
{
    stats.add(prefix + ".alloc", static_cast<double>(allocs_));
    stats.add(prefix + ".merge", static_cast<double>(merges_));
    stats.add(prefix + ".complete", static_cast<double>(completes_));
    stats.add(prefix + ".stall_entry", static_cast<double>(fullEntryStalls_));
    stats.add(prefix + ".stall_file", static_cast<double>(fullFileStalls_));
}

} // namespace bsched
