#include "core/ldst_unit.hh"

#include <algorithm>

#include "obs/mem_profile.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

LdstUnit::LdstUnit(const GpuConfig& config, std::uint32_t core_id)
    : name_("core" + std::to_string(core_id) + ".ldst"),
      coreId_(static_cast<std::uint16_t>(core_id)),
      config_(config),
      tags_(config.l1d, name_ + ".l1d"),
      mshr_(config.l1d.mshrEntries, config.l1d.mshrMaxMerged,
            name_ + ".l1mshr"),
      hitQ_(config.l1d.hitLatency, 0)
{
    // Enough batch slots for the queue plus batches whose lines are all
    // dispatched but still outstanding in the memory system.
    const std::size_t slots = config.ldstQueueDepth +
        static_cast<std::size_t>(config.l1d.mshrEntries) *
        config.l1d.mshrMaxMerged;
    batches_.resize(slots);
    for (std::size_t i = 0; i < slots; ++i)
        freeBatches_.push_back(static_cast<std::uint32_t>(slots - 1 - i));
}

std::uint32_t
LdstUnit::allocBatch()
{
    if (freeBatches_.empty())
        panic(name_, ": out of batch slots");
    std::uint32_t id = freeBatches_.back();
    freeBatches_.pop_back();
    return id;
}

void
LdstUnit::pushBatch(Cycle now, int warp_id, std::int8_t reg, bool write,
                    const std::vector<Addr>& lines, int kernel_id,
                    std::int64_t cta_key)
{
    (void)now;
    // Callers gate on canAcceptBatch(); batches are never empty (the
    // coalescer always produces >= 1 line). Panics are the always-on
    // backup.
    BSCHED_CHECK(canAcceptBatch(), name_, ": batch queue overflow");
    BSCHED_CHECK(!lines.empty(), name_, ": empty access batch");
    if (!canAcceptBatch())
        panic(name_, ": batch queue overflow");
    if (lines.empty())
        panic(name_, ": empty access batch");
    const std::uint32_t id = allocBatch();
    Batch& batch = batches_[id];
    batch.inUse = true;
    batch.warpId = warp_id;
    batch.reg = reg;
    batch.write = write;
    batch.lines.assign(lines.begin(), lines.end());
    batch.head = 0;
    batch.outstanding = 0;
    batch.kernelId = kernel_id;
    batch.ctaKey = cta_key;
    batchQ_.push_back(id);
}

void
LdstUnit::maybeComplete(std::uint32_t batch_id, Cycle now)
{
    (void)now;
    Batch& batch = batches_[batch_id];
    if (!batch.inUse || batch.linesLeft() || batch.outstanding > 0)
        return;
    if (!batch.write)
        completions_.push_back({batch.warpId, batch.reg});
    batch.inUse = false;
    freeBatches_.push_back(batch_id);
}

bool
LdstUnit::processLine(Cycle now)
{
    const std::uint32_t batch_id = batchQ_.front();
    Batch& batch = batches_[batch_id];
    const Addr line = batch.lines[batch.head];

    if (batch.write) {
        // Write-through, no-allocate: forward to L2; refresh L1 recency
        // if present (data is clean either way).
        if (outgoing_.size() >= config_.coreMemQueue)
            return false;
        tags_.access(line, now); // counts store hit/miss statistics
        outgoing_.push_back({line, true, coreId_});
        ++batch.head;
        ++linesProcessed_;
        ++writeLines_;
        return true;
    }

    // Load path.
    if (tags_.access(line, now)) {
        hitQ_.push(now, batch_id);
        ++batch.outstanding;
        ++batch.head;
        ++linesProcessed_;
        ++hitLines_;
        return true;
    }
    // Miss: primary needs an MSHR entry + outgoing space; secondary merges.
    if (!mshr_.has(line)) {
        if (mshr_.full() || outgoing_.size() >= config_.coreMemQueue) {
            ++retryTagLookups_;
            return false;
        }
        if (mshr_.allocate(line, batch_id) != MshrOutcome::NewEntry)
            panic(name_, ": expected new L1 MSHR entry");
        // A primary L1 read miss is the profiled unit: the record is
        // born here and dies when the fill returns in onFill().
        std::uint32_t req_id = 0;
        if (memProfiler_ != nullptr) {
            req_id = memProfiler_->beginRequest(now, coreId_,
                                                batch.kernelId,
                                                batch.ctaKey);
        }
        outgoing_.push_back({line, false, coreId_, req_id});
    } else {
        if (mshr_.allocate(line, batch_id) != MshrOutcome::Merged) {
            ++retryTagLookups_; // merge list full; retry next cycle
            return false;
        }
    }
    ++batch.outstanding;
    ++batch.head;
    ++linesProcessed_;
    ++missLines_;
    // Access conservation: every processed line took exactly one of the
    // three paths — L1 hit, miss (MSHR alloc/merge) or write-through
    // bypass — each with one tag access, plus one extra tag access per
    // miss that had to retry on a full MSHR / merge list / mem queue.
    BSCHED_INVARIANT(linesProcessed_ ==
                         hitLines_ + missLines_ + writeLines_,
                     name_, ": line path accounting broken");
    BSCHED_INVARIANT(linesProcessed_ + retryTagLookups_ == tags_.accesses(),
                     name_,
                     ": processed lines diverge from L1 tag accesses");
    return true;
}

void
LdstUnit::recordOccupancy()
{
    if (memProfiler_ != nullptr) {
        memProfiler_->recordMshrOccupancy(MemLevel::L1,
                                          mshr_.entriesInUse());
    }
}

bool
LdstUnit::tick(Cycle now)
{
    recordOccupancy();
    bool did_work = false;

    // Return L1 hits whose latency elapsed.
    while (hitQ_.ready(now)) {
        const std::uint32_t batch_id = hitQ_.pop(now);
        Batch& batch = batches_[batch_id];
        if (batch.outstanding == 0)
            panic(name_, ": hit return for idle batch");
        --batch.outstanding;
        maybeComplete(batch_id, now);
        did_work = true;
    }

    // One cache-port access per cycle from the head batch.
    if (!batchQ_.empty()) {
        // Whether the head line processes or retries, counters move.
        did_work = true;
        if (processLine(now)) {
            const std::uint32_t head = batchQ_.front();
            if (!batches_[head].linesLeft()) {
                batchQ_.pop_front();
                maybeComplete(head, now);
            }
        } else {
            ++stallCycles_;
        }
    }
    return did_work;
}

Cycle
LdstUnit::nextEventCycle(Cycle now) const
{
    // Outgoing requests must reach the network on the very next cycle.
    return outgoing_.empty() ? nextTickCycle(now) : now;
}

Cycle
LdstUnit::nextTickCycle(Cycle now) const
{
    // Pending completions must reach the core on the very next cycle.
    // A queued batch is also "now": even a blocked head mutates
    // retry/stall counters each cycle, so those cycles are observable
    // and cannot be skipped.
    if (!completions_.empty() || !batchQ_.empty())
        return now;
    if (!hitQ_.empty())
        return std::max(hitQ_.nextReady(), now);
    return kCycleNever;
}

void
LdstUnit::onFill(Cycle now, Addr line_addr, std::uint32_t req_id)
{
    // The requester's CTA owns the filled line (interference tracking).
    const std::int64_t owner = memProfiler_ != nullptr
        ? memProfiler_->ctaKeyOf(req_id)
        : -1;
    // Fill the line unless a racing fill already inserted it.
    if (!tags_.probe(line_addr)) {
        const Eviction ev = tags_.fill(line_addr, now, false, owner);
        // Write-through L1: victims are always clean.
        if (ev.valid && ev.dirty)
            panic(name_, ": dirty eviction from write-through L1");
        if (memProfiler_ != nullptr && ev.valid) {
            memProfiler_->onEviction(MemLevel::L1, owner, ev.owner,
                                     ev.distinctOwners);
        }
    }
    for (MshrWaiter waiter : mshr_.complete(line_addr)) {
        const std::uint32_t batch_id = static_cast<std::uint32_t>(waiter);
        Batch& batch = batches_[batch_id];
        if (batch.outstanding == 0)
            panic(name_, ": fill for idle batch");
        --batch.outstanding;
        maybeComplete(batch_id, now);
    }
    // The fill's delivery at the core ends the profiled request.
    if (memProfiler_ != nullptr)
        memProfiler_->endRequest(req_id, now);
}

const MemRequest&
LdstUnit::peekOutgoing() const
{
    if (outgoing_.empty())
        panic(name_, ": peekOutgoing on empty queue");
    return outgoing_.front();
}

MemRequest
LdstUnit::popOutgoing()
{
    if (outgoing_.empty())
        panic(name_, ": popOutgoing on empty queue");
    MemRequest req = outgoing_.front();
    outgoing_.pop_front();
    return req;
}

bool
LdstUnit::drained() const
{
    return batchQ_.empty() && mshr_.empty() && outgoing_.empty() &&
        hitQ_.empty() && completions_.empty();
}

void
LdstUnit::addStats(StatSet& stats) const
{
    tags_.addStats(stats, name_ + ".l1d");
    mshr_.addStats(stats, name_ + ".l1mshr");
    stats.add(name_ + ".stall", static_cast<double>(stallCycles_));
    stats.add(name_ + ".lines", static_cast<double>(linesProcessed_));
    stats.add(name_ + ".retry", static_cast<double>(retryTagLookups_));
}

} // namespace bsched
