#include "cta/lazy_cta_sched.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

void
LazyCtaScheduler::decide(Cycle now, std::uint32_t core_id, int kernel_id,
                         std::uint32_t n_max, const SimtCore& core)
{
    BSCHED_CHECK(kernel_id >= 0, "lcs: monitor for invalid kernel id ",
                 kernel_id);
    std::vector<Monitor>& per_kernel = monitors_.at(core_id);
    const auto kernel_idx = static_cast<std::size_t>(kernel_id);
    if (kernel_idx >= per_kernel.size())
        per_kernel.resize(kernel_idx + 1);
    Monitor& mon = per_kernel[kernel_idx];
    if (mon.decided)
        return;
    const std::vector<std::uint64_t> counts =
        core.ctaIssueCounts(kernel_id);
    std::uint64_t total = 0;
    std::uint64_t greedy = 0;
    for (std::uint64_t c : counts) {
        total += c;
        greedy = std::max(greedy, c);
    }
    std::uint32_t n_opt = n_max;
    if (greedy > 0) {
        switch (config_.lcs.estimator) {
          case LcsEstimator::IssueRatio:
            // The paper's formula.
            n_opt = static_cast<std::uint32_t>(
                (total + greedy - 1) / greedy);
            break;
          case LcsEstimator::Threshold: {
            // Count CTAs contributing at least thresholdPct% of the
            // greedy CTA's issue.
            const std::uint64_t cut =
                greedy * config_.lcs.thresholdPct / 100;
            n_opt = 0;
            for (std::uint64_t c : counts) {
                if (c >= cut)
                    ++n_opt;
            }
            break;
          }
        }
        n_opt += config_.lcs.slackCtas;
    }
    BSCHED_CHECK(n_max >= 1, "lcs: monitoring window closed with a zero "
                             "occupancy cap on core ", core_id);
    mon.nOpt = std::clamp<std::uint32_t>(n_opt, 1, n_max);
    mon.decided = true;
    // The decided limit must stay inside [1, occupancy cap]: below 1 the
    // core would starve, above n_max the lazy decline could never bind.
    BSCHED_INVARIANT(mon.nOpt >= 1 && mon.nOpt <= n_max,
                     "lcs: N_opt ", mon.nOpt, " outside [1, ", n_max,
                     "] on core ", core_id);

    if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = now;
        event.kind = TraceEventKind::LcsWindowClose;
        event.kernelId = kernel_id;
        event.arg0 = mon.nOpt;
        event.arg1 = n_max;
        tracer_->record(tracer_->coreTrack(core_id), event);
    }
}

const LazyCtaScheduler::Monitor*
LazyCtaScheduler::monitor(std::uint32_t core_id, int kernel_id) const
{
    if (core_id >= monitors_.size() || kernel_id < 0)
        return nullptr;
    const std::vector<Monitor>& per_kernel = monitors_[core_id];
    const auto kernel_idx = static_cast<std::size_t>(kernel_id);
    return kernel_idx < per_kernel.size() ? &per_kernel[kernel_idx]
                                          : nullptr;
}

std::uint32_t
LazyCtaScheduler::decidedLimit(std::uint32_t core, int kernel_id) const
{
    const Monitor* mon = monitor(core, kernel_id);
    return mon != nullptr && mon->decided ? mon->nOpt : 0;
}

std::uint32_t
LazyCtaScheduler::capFor(std::uint32_t core_id,
                         const KernelInstance& kernel) const
{
    const std::uint32_t limit = decidedLimit(core_id, kernel.id);
    const std::uint32_t occ = staticCap(*kernel.info);
    return limit == 0 ? occ : std::min(limit, occ);
}

void
LazyCtaScheduler::notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                                CoreList& cores)
{
    if (config_.lcs.windowMode != LcsWindowMode::FirstCtaDone)
        return;
    BSCHED_CHECK(event.info != nullptr,
                 "lcs: CtaDoneEvent carries no kernel info");
    if (event.info == nullptr)
        panic("lcs: CtaDoneEvent carries no kernel info");
    // The first completed CTA of a kernel on a core closes that core's
    // monitoring window; decide() is idempotent per (core, kernel).
    // n_max must be the kernel's occupancy cap, not the raw hardware CTA
    // slot count: a register/smem-limited kernel can never reach
    // config_.maxCtasPerCore, and clamping against the larger bound would
    // let estimate+slack settle above what the core can actually hold
    // (matching closeExpiredWindows in FixedCycles mode).
    decide(now, event.coreId, event.kernelId, staticCap(*event.info),
           *cores.at(event.coreId));
}

void
LazyCtaScheduler::closeExpiredWindows(
    Cycle now, const std::vector<KernelInstance>& kernels,
    const CoreList& cores)
{
    if (config_.lcs.windowMode != LcsWindowMode::FixedCycles)
        return;
    for (const KernelInstance& kernel : kernels) {
        for (std::uint32_t c = 0; c < cores.size(); ++c) {
            const Cycle start = cores[c]->kernelFirstLaunch(kernel.id);
            if (start == kCycleNever)
                continue;
            if (now >= start + config_.lcs.fixedWindowCycles)
                decide(now, c, kernel.id, staticCap(*kernel.info),
                       *cores[c]);
        }
    }
}

Cycle
LazyCtaScheduler::nextEventCycle(Cycle now,
                                 const std::vector<KernelInstance>& kernels,
                                 const CoreList& cores) const
{
    if (config_.lcs.windowMode != LcsWindowMode::FixedCycles)
        return kCycleNever;
    Cycle next = kCycleNever;
    for (const KernelInstance& kernel : kernels) {
        for (std::uint32_t c = 0; c < cores.size(); ++c) {
            const Cycle start = cores[c]->kernelFirstLaunch(kernel.id);
            if (start == kCycleNever)
                continue;
            const Monitor* mon = monitor(c, kernel.id);
            if (mon != nullptr && mon->decided)
                continue;
            next = std::min(
                next,
                std::max(start + config_.lcs.fixedWindowCycles, now));
        }
    }
    return next;
}

void
LazyCtaScheduler::tick(Cycle now, std::vector<KernelInstance>& kernels,
                       CoreList& cores)
{
    closeExpiredWindows(now, kernels, cores);

    std::vector<KernelInstance*>& order = dispatchOrder(kernels,
                                                        cores.size());
    if (order.empty())
        return;

    for (KernelInstance* kernel : order) {
        for (std::uint32_t c = 0;
             c < cores.size() && !kernel->dispatchDone(); ++c) {
            SimtCore& core = *cores[c];
            if (usedScratch_[c] != 0 || !coreAllowed(*kernel, c))
                continue;
            if (core.residentCtas(kernel->id) >= capFor(c, *kernel))
                continue;
            if (!core.canAccept(*kernel->info))
                continue;
            dispatch(now, *kernel, core, blockSeqCounter_++);
            usedScratch_[c] = 1;
        }
    }
}

void
LazyCtaScheduler::addStats(StatSet& stats) const
{
    CtaScheduler::addStats(stats);
    for (std::size_t c = 0; c < monitors_.size(); ++c) {
        for (std::size_t k = 0; k < monitors_[c].size(); ++k) {
            if (monitors_[c][k].decided) {
                stats.set("lcs.core" + std::to_string(c) + ".k" +
                              std::to_string(k) + ".n_opt",
                          static_cast<double>(monitors_[c][k].nOpt));
            }
        }
    }
}

} // namespace bsched
