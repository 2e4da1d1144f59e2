#include "cta/block_cta_sched.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

std::uint32_t
BlockCtaScheduler::residencyCap(std::uint32_t core_id,
                                const KernelInstance& kernel) const
{
    (void)core_id;
    return staticCap(*kernel.info);
}

void
BlockCtaScheduler::tick(Cycle now, std::vector<KernelInstance>& kernels,
                        CoreList& cores)
{
    const std::uint32_t block = config_.bcs.blockSize;
    // Cycle-derived rotation, like the round-robin baseline: it
    // survives skipped passes and elided quiet spans unchanged.
    std::vector<KernelInstance*>& order = dispatchOrder(kernels,
                                                        cores.size());
    if (order.empty())
        return;
    const std::uint32_t n = static_cast<std::uint32_t>(cores.size());
    const std::uint32_t start = static_cast<std::uint32_t>(now % n);

    for (KernelInstance* kernel : order) {
        for (std::uint32_t i = 0; i < n && !kernel->dispatchDone(); ++i) {
            const std::uint32_t c = (start + i) % n;
            SimtCore& core = *cores[c];
            if (usedScratch_[c] != 0 || !coreAllowed(*kernel, c))
                continue;
            // The tail of the grid may be smaller than a full block.
            const std::uint32_t remaining =
                kernel->info->gridCtas() - kernel->nextCta;
            const std::uint32_t want = std::min(block, remaining);
            const std::uint32_t cap = residencyCap(c, *kernel);
            if (core.residentCtas(kernel->id) >= cap)
                continue;
            // All-or-nothing: wait until the whole block fits, so the
            // consecutive CTAs land together.
            if (!coreFitsN(core, *kernel->info, want))
                continue;
            if (core.residentCtas(kernel->id) + want >
                std::max(cap, want)) {
                continue;
            }
            const std::uint64_t seq = blockSeqCounter_++;
            for (std::uint32_t b = 0; b < want; ++b)
                dispatch(now, *kernel, core, seq);
            // Block dispatch may overshoot the residency cap by at most
            // B-1 CTAs (the final partial block), never by a full block.
            BSCHED_INVARIANT(core.residentCtas(kernel->id) <=
                                 std::max(cap, want),
                             "bcs: block dispatch overshot the residency "
                             "cap on core ", c);
            if (tracer_ != nullptr && want >= 2) {
                TraceEvent event;
                event.cycle = now;
                event.kind = TraceEventKind::BcsPairForm;
                event.kernelId = kernel->id;
                event.arg0 = static_cast<std::int64_t>(seq);
                event.arg1 = want;
                tracer_->record(tracer_->coreTrack(c), event);
            }
            usedScratch_[c] = 1;
        }
    }
}

void
LazyBlockCtaScheduler::tick(Cycle now, std::vector<KernelInstance>& kernels,
                            CoreList& cores)
{
    lazy_.closeExpiredWindows(now, kernels, cores);
    BlockCtaScheduler::tick(now, kernels, cores);
}

void
LazyBlockCtaScheduler::notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                                     CoreList& cores)
{
    lazy_.notifyCtaDone(now, event, cores);
}

std::uint32_t
LazyBlockCtaScheduler::residencyCap(std::uint32_t core_id,
                                    const KernelInstance& kernel) const
{
    return lazy_.capFor(core_id, kernel);
}

void
LazyBlockCtaScheduler::addStats(StatSet& stats) const
{
    CtaScheduler::addStats(stats);
    lazy_.addStats(stats);
}

} // namespace bsched
