#include "mem/mem_partition.hh"

#include <algorithm>

#include "obs/mem_profile.hh"
#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

MemPartition::MemPartition(const GpuConfig& config, std::uint32_t id)
    : id_(id),
      name_("part" + std::to_string(id)),
      config_(config),
      input_(config.l2.hitLatency, kInputCapacity),
      tags_(config.l2, name_ + ".l2"),
      mshr_(config.l2.mshrEntries, config.l2.mshrMaxMerged, name_ + ".l2mshr"),
      dram_(config.dram, config.l2.lineBytes, config.numMemPartitions,
            name_ + ".dram")
{}

void
MemPartition::setTracer(Tracer* tracer)
{
    const std::uint32_t track =
        tracer != nullptr ? tracer->partitionTrack(id_) : 0;
    tags_.setTracer(tracer, track);
    dram_.setTracer(tracer, track);
}

void
MemPartition::setMemProfiler(MemProfiler* prof)
{
    memProfiler_ = prof;
    dram_.setMemProfiler(prof);
}

void
MemPartition::pushRequest(Cycle now, const MemRequest& request)
{
    // The documented protocol: the interconnect gates on
    // canAcceptRequest() before delivering.
    BSCHED_CHECK(canAcceptRequest(),
                 "partition ", name_, ": pushRequest past capacity");
    input_.push(now, request);
    if (request.write)
        ++writeRequests_;
    else
        ++readRequests_;
    if (memProfiler_ != nullptr)
        memProfiler_->enterStage(request.reqId, MemStage::L2Queue, now);
}

void
MemPartition::evictIfDirty(const Eviction& eviction)
{
    if (eviction.valid && eviction.dirty)
        writebacks_.push_back(eviction.lineAddr);
}

bool
MemPartition::handleDramResponses(Cycle now)
{
    bool any = false;
    while (dram_.responseReady(now)) {
        any = true;
        const Addr line = dram_.popResponse(now);
        // Waiters first: the fill's CTA owner (for interference
        // attribution) is the primary requester's, and the primary is
        // the oldest waiter with a tracked request id.
        const std::span<const MshrWaiter> waiters = mshr_.complete(line);
        std::int64_t owner = -1;
        if (memProfiler_ != nullptr) {
            for (MshrWaiter waiter : waiters) {
                if (waiter == kWriteWaiter || waiterReqId(waiter) == 0)
                    continue;
                owner = memProfiler_->ctaKeyOf(waiterReqId(waiter));
                break;
            }
        }
        const Eviction ev = tags_.fill(line, now, false, owner);
        evictIfDirty(ev);
        if (memProfiler_ != nullptr && ev.valid) {
            memProfiler_->onEviction(MemLevel::L2, owner, ev.owner,
                                     ev.distinctOwners);
        }
        for (MshrWaiter waiter : waiters) {
            if (waiter == kWriteWaiter) {
                tags_.markDirty(line);
                continue;
            }
            // The fill closes the primary's dram_svc stage and every
            // merged secondary's l2_mshr stage.
            if (memProfiler_ != nullptr) {
                memProfiler_->enterStage(waiterReqId(waiter),
                                         MemStage::L2Return, now);
            }
            replies_.push_back({line, waiterCore(waiter),
                                waiterReqId(waiter)});
        }
    }
    return any;
}

bool
MemPartition::handleRequest(Cycle now, const MemRequest& req)
{
    const bool hit = tags_.access(req.lineAddr, now);
    if (hit) {
        if (req.write) {
            tags_.markDirty(req.lineAddr);
        } else {
            if (memProfiler_ != nullptr) {
                memProfiler_->enterStage(req.reqId, MemStage::L2Return,
                                         now);
            }
            replies_.push_back({req.lineAddr, req.coreId, req.reqId});
        }
        return true;
    }

    // Miss: reads wait on the fill; writes allocate via fetch-on-write.
    const MshrWaiter waiter =
        req.write ? kWriteWaiter : packWaiter(req.reqId, req.coreId);
    if (!mshr_.has(req.lineAddr)) {
        // Primary miss needs both an MSHR entry and DRAM queue space.
        if (mshr_.full() || !dram_.canAccept()) {
            ++stallCycles_;
            return false;
        }
        if (mshr_.allocate(req.lineAddr, waiter) != MshrOutcome::NewEntry)
            panic("l2 ", name_, ": expected new MSHR entry");
        dram_.push(now, req.lineAddr, false, req.write ? 0 : req.reqId);
        if (memProfiler_ != nullptr && !req.write) {
            memProfiler_->enterStage(req.reqId, MemStage::DramQueue,
                                     now);
        }
        return true;
    }
    switch (mshr_.allocate(req.lineAddr, waiter)) {
      case MshrOutcome::Merged:
        // Secondary miss rides the in-flight fetch.
        if (memProfiler_ != nullptr && !req.write) {
            memProfiler_->enterStage(req.reqId, MemStage::L2Mshr, now);
        }
        return true;
      case MshrOutcome::FullEntry:
        ++stallCycles_;
        return false;
      default:
        panic("l2 ", name_, ": unexpected MSHR outcome");
    }
}

bool
MemPartition::tick(Cycle now)
{
    if (memProfiler_ != nullptr) {
        memProfiler_->recordMshrOccupancy(MemLevel::L2,
                                          mshr_.entriesInUse());
    }
    bool did_work = dram_.tick(now);
    did_work |= handleDramResponses(now);

    for (unsigned port = 0; port < kL2PortsPerCycle; ++port) {
        if (!input_.ready(now))
            break;
        // A head-of-line stall still counts as work: the retry mutates
        // the stall counters, so the cycle is observable.
        did_work = true;
        if (!handleRequest(now, input_.front()))
            break; // head-of-line stall; retry next cycle
        input_.pop(now);
    }

    // Drain buffered dirty victims when DRAM has room.
    while (!writebacks_.empty() && dram_.canAccept()) {
        dram_.push(now, writebacks_.front(), true);
        writebacks_.pop_front();
        did_work = true;
    }
    return did_work;
}

Cycle
MemPartition::nextEventCycle(Cycle now) const
{
    // Buffered replies wait only on the interconnect, which is polled
    // by the GPU's traffic mover — never skip past them.
    if (!replies_.empty())
        return now;
    Cycle next = dram_.nextEventCycle(now);
    if (!input_.empty())
        next = std::min(next, std::max(input_.nextReady(), now));
    // Pending writebacks wake on DRAM queue space, i.e. on a DRAM
    // service, which dram_.nextEventCycle already bounds.
    return next;
}

const MemResponse&
MemPartition::peekResponse() const
{
    if (replies_.empty())
        panic("partition ", name_, ": peekResponse on empty queue");
    return replies_.front();
}

MemResponse
MemPartition::popResponse()
{
    BSCHED_CHECK(responseReady(),
                 "partition ", name_, ": popResponse on empty queue");
    if (replies_.empty())
        panic("partition ", name_, ": popResponse on empty queue");
    MemResponse resp = replies_.front();
    replies_.pop_front();
    return resp;
}

bool
MemPartition::drained() const
{
    return input_.empty() && mshr_.empty() && dram_.idle() &&
        replies_.empty() && writebacks_.empty();
}

void
MemPartition::flush()
{
    if (!drained())
        panic("partition ", name_, ": flush while not drained");
    tags_.flushAll();
}

void
MemPartition::addStats(StatSet& stats) const
{
    tags_.addStats(stats, name_ + ".l2");
    mshr_.addStats(stats, name_ + ".l2mshr");
    dram_.addStats(stats, name_ + ".dram");
    stats.add(name_ + ".req_read", static_cast<double>(readRequests_));
    stats.add(name_ + ".req_write", static_cast<double>(writeRequests_));
    stats.add(name_ + ".l2.stall", static_cast<double>(stallCycles_));
}

} // namespace bsched
