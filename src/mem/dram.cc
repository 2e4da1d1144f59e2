#include "mem/dram.hh"

#include <algorithm>

#include "obs/mem_profile.hh"
#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

DramChannel::DramChannel(const DramConfig& config, std::uint32_t line_bytes,
                         std::uint32_t partition_stride, std::string name)
    : config_(config), lineBytes_(line_bytes),
      partitionStride_(partition_stride), name_(std::move(name)),
      banks_(config.banksPerChannel)
{
    if (partitionStride_ == 0)
        fatal("dram ", name_, ": partition stride must be > 0");
}

std::uint32_t
DramChannel::bankOf(Addr line_addr) const
{
    const std::uint64_t local_line =
        (line_addr / lineBytes_) / partitionStride_;
    const std::uint64_t lines_per_row = config_.rowBytes / lineBytes_;
    return static_cast<std::uint32_t>((local_line / lines_per_row) %
                                      config_.banksPerChannel);
}

std::uint64_t
DramChannel::rowOf(Addr line_addr) const
{
    const std::uint64_t local_line =
        (line_addr / lineBytes_) / partitionStride_;
    const std::uint64_t lines_per_row = config_.rowBytes / lineBytes_;
    return local_line / (lines_per_row * config_.banksPerChannel);
}

void
DramChannel::push(Cycle now, Addr line_addr, bool write,
                  std::uint32_t req_id)
{
    // Callers gate on canAccept(); a push past it would silently grow
    // the queue beyond the configured capacity (panic is the always-on
    // backup).
    BSCHED_CHECK(canAccept(), "dram ", name_, ": push into full queue");
    if (!canAccept())
        panic("dram ", name_, ": push into full queue");
    queue_.push_back({line_addr, write, now, bankOf(line_addr),
                      static_cast<std::int64_t>(rowOf(line_addr)),
                      req_id});
    banksBusyUntil_ = 0; // the request may enter the scan window
}

void
DramChannel::service(Cycle now, std::size_t queue_index)
{
    const Request req = queue_[queue_index];
    queue_.erase(queue_.begin() +
                 static_cast<std::ptrdiff_t>(queue_index));

    Bank& bank = banks_[req.bank];
    const std::int64_t row = req.row;
    const bool row_hit = bank.openRow == row;
    const Cycle latency =
        row_hit ? config_.rowHitLatency : config_.rowMissLatency;
    if (row_hit) {
        ++rowHits_;
        ++bank.stats.rowHits;
    } else {
        ++rowMisses_;
        ++bank.stats.rowMisses;
        if (bank.openRow >= 0) {
            // A conflict proper: an open row had to be closed for this
            // request (first-touch row misses are not conflicts).
            ++rowConflicts_;
            ++bank.stats.conflicts;
            if (tracer_ != nullptr) {
                TraceEvent event;
                event.cycle = now;
                event.kind = TraceEventKind::DramRowConflict;
                event.arg0 = static_cast<std::int64_t>(req.bank);
                event.arg1 = row;
                tracer_->record(track_, event);
            }
        }
    }
    bank.openRow = row;
    if (memProfiler_ != nullptr)
        memProfiler_->enterStage(req.reqId, MemStage::DramService, now);

    // Array access completes after the bank latency; the burst then
    // occupies the shared data bus.
    const Cycle array_done = now + latency;
    busFreeAt_ = std::max(busFreeAt_, array_done) + config_.dataBusCycles;
    bank.busyUntil = busFreeAt_;

    if (req.write) {
        ++writes_;
    } else {
        ++reads_;
        completions_.emplace_back(busFreeAt_, req.lineAddr);
    }
}

bool
DramChannel::tick(Cycle now)
{
    if (queue_.empty())
        return false;
    // Every bank in the window was busy at the last scan, and only a
    // service (here) or a push changes the window or a bank: nothing
    // can be served before the first of them frees. Validate builds
    // scan anyway and check that.
    const bool asleep = now < banksBusyUntil_;
    if (asleep && !kChecksEnabled)
        return false;
    const std::size_t window = std::min(queue_.size(), kScanWindow);

    // Starvation guard: when the oldest request has waited too long,
    // stop preferring row hits so its bank eventually frees for it.
    const bool starving =
        queue_.front().arrive + config_.maxStarveCycles <= now;

    // First choice: oldest row-buffer hit on a free bank.
    std::size_t pick = window;
    if (!starving) {
        for (std::size_t i = 0; i < window; ++i) {
            const Request& req = queue_[i];
            const Bank& bank = banks_[req.bank];
            if (bank.busyUntil <= now && bank.openRow == req.row) {
                pick = i;
                break;
            }
        }
    }
    // Fallback: oldest request on a free bank.
    Cycle first_free = kCycleNever;
    for (std::size_t i = 0; pick == window && i < window; ++i) {
        const Cycle busy = banks_[queue_[i].bank].busyUntil;
        if (busy <= now)
            pick = i;
        first_free = std::min(first_free, busy);
    }
    if (pick == window) {
        banksBusyUntil_ = first_free;
        return false;
    }
    BSCHED_CHECK(!asleep, "dram ", name_, ": bank free at cycle ", now,
                 " while every window bank is busy until ",
                 banksBusyUntil_);
    service(now, pick);
    return true;
}

Cycle
DramChannel::nextEventCycle(Cycle now) const
{
    // Completion times are monotone (shared data bus), so the front is
    // the earliest deliverable response.
    Cycle next =
        completions_.empty() ? kCycleNever : completions_.front().first;
    if (!queue_.empty()) {
        const std::size_t window = std::min(queue_.size(), kScanWindow);
        for (std::size_t i = 0; i < window; ++i) {
            const Bank& bank = banks_[queue_[i].bank];
            next = std::min(next, std::max(bank.busyUntil, now));
        }
    }
    return next;
}

bool
DramChannel::responseReady(Cycle now) const
{
    return !completions_.empty() && completions_.front().first <= now;
}

Addr
DramChannel::popResponse(Cycle now)
{
    BSCHED_CHECK(responseReady(now),
                 "dram ", name_, ": popResponse before ready");
    if (!responseReady(now))
        panic("dram ", name_, ": popResponse before ready");
    Addr line = completions_.front().second;
    completions_.pop_front();
    return line;
}

void
DramChannel::setTracer(Tracer* tracer, std::uint32_t track)
{
    tracer_ = tracer;
    track_ = track;
}

void
DramChannel::addStats(StatSet& stats, const std::string& prefix) const
{
    stats.add(prefix + ".read", static_cast<double>(reads_));
    stats.add(prefix + ".write", static_cast<double>(writes_));
    stats.add(prefix + ".row_hit", static_cast<double>(rowHits_));
    stats.add(prefix + ".row_miss", static_cast<double>(rowMisses_));
    stats.add(prefix + ".row_conflict", static_cast<double>(rowConflicts_));
    for (std::size_t b = 0; b < banks_.size(); ++b) {
        const std::string bank = prefix + ".bank" + std::to_string(b);
        stats.add(bank + ".row_hit",
                  static_cast<double>(banks_[b].stats.rowHits));
        stats.add(bank + ".row_miss",
                  static_cast<double>(banks_[b].stats.rowMisses));
        stats.add(bank + ".row_conflict",
                  static_cast<double>(banks_[b].stats.conflicts));
    }
}

} // namespace bsched
