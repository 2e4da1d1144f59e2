#include "cta/cta_sched.hh"

#include <algorithm>

#include "cta/block_cta_sched.hh"
#include "cta/dyncta_sched.hh"
#include "cta/lazy_cta_sched.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

CtaScheduler::CtaScheduler(const GpuConfig& config)
    : config_(config)
{}

void
CtaScheduler::notifyCtaDone(Cycle now, const CtaDoneEvent& event,
                            CoreList& cores)
{
    (void)now;
    (void)event;
    (void)cores;
}

void
CtaScheduler::addStats(StatSet& stats) const
{
    stats.add("ctasched.dispatches", static_cast<double>(dispatches_));
    stats.add("ctasched.drain_requests",
              static_cast<double>(drainRequests_));
}

void
CtaScheduler::setDraining(int kernel_id, bool draining)
{
    BSCHED_CHECK(kernel_id >= 0, "cta scheduler: drain request for "
                                 "invalid kernel id ", kernel_id);
    if (kernel_id < 0)
        panic("cta scheduler: drain request for invalid kernel id");
    const auto idx = static_cast<std::size_t>(kernel_id);
    if (idx >= draining_.size())
        draining_.resize(idx + 1, 0);
    if (draining)
        ++drainRequests_;
    draining_[idx] = draining ? 1 : 0;
}

bool
CtaScheduler::isDraining(int kernel_id) const
{
    if (kernel_id < 0)
        return false;
    const auto idx = static_cast<std::size_t>(kernel_id);
    return idx < draining_.size() && draining_[idx] != 0;
}

Cycle
CtaScheduler::nextEventCycle(Cycle now,
                             const std::vector<KernelInstance>& kernels,
                             const CoreList& cores) const
{
    (void)now;
    (void)kernels;
    (void)cores;
    return kCycleNever;
}

std::vector<KernelInstance*>&
CtaScheduler::dispatchOrder(std::vector<KernelInstance>& kernels,
                            std::size_t num_cores)
{
    orderScratch_.clear();
    for (KernelInstance& kernel : kernels) {
        // Draining kernels are invisible to every policy's dispatch
        // loop: their cursor freezes while in-flight CTAs retire.
        if (!kernel.dispatchDone() && !isDraining(kernel.id))
            orderScratch_.push_back(&kernel);
    }
    if (!orderScratch_.empty()) {
        std::stable_sort(orderScratch_.begin(), orderScratch_.end(),
                         [](const KernelInstance* a,
                            const KernelInstance* b) {
                             return a->priority < b->priority;
                         });
        usedScratch_.assign(num_cores, 0);
    }
    return orderScratch_;
}

std::unique_ptr<CtaScheduler>
CtaScheduler::create(const GpuConfig& config)
{
    switch (config.ctaSched) {
      case CtaSchedKind::RoundRobin:
        return std::make_unique<RoundRobinCtaScheduler>(config);
      case CtaSchedKind::Lazy:
        return std::make_unique<LazyCtaScheduler>(config);
      case CtaSchedKind::Block:
        return std::make_unique<BlockCtaScheduler>(config);
      case CtaSchedKind::LazyBlock:
        return std::make_unique<LazyBlockCtaScheduler>(config);
      case CtaSchedKind::Dynamic:
        return std::make_unique<DynctaScheduler>(config);
    }
    panic("unknown CTA scheduler kind");
}

bool
CtaScheduler::coreAllowed(const KernelInstance& kernel,
                          std::uint32_t core) const
{
    const int begin = kernel.coreBegin;
    const int end =
        kernel.coreEnd < 0 ? static_cast<int>(config_.numCores)
                           : kernel.coreEnd;
    return static_cast<int>(core) >= begin && static_cast<int>(core) < end;
}

bool
CtaScheduler::coreFitsN(const SimtCore& core, const KernelInfo& kernel,
                        std::uint32_t n) const
{
    const CtaFootprint fp = ctaFootprint(kernel);
    const CoreResources& res = core.resources();
    return res.freeCtaSlots() >= n &&
        res.freeThreads() >= n * fp.threads &&
        res.freeRegs() >= n * fp.regs &&
        res.freeSmem() >= n * fp.smemBytes;
}

std::uint32_t
CtaScheduler::staticCap(const KernelInfo& kernel) const
{
    const std::uint32_t occ = maxCtasPerCore(config_, kernel);
    if (config_.staticCtaLimit == 0)
        return occ;
    return std::min(occ, config_.staticCtaLimit);
}

void
CtaScheduler::dispatch(Cycle now, KernelInstance& kernel, SimtCore& core,
                       std::uint64_t block_seq)
{
    // Grid accounting: a policy must stop offering a kernel once every
    // CTA id has been dispatched (contract is the testable layer, panic
    // the Release backstop against corrupting nextCta).
    BSCHED_CHECK(!kernel.dispatchDone(),
                 "cta scheduler: dispatch past end of grid (kernel ",
                 kernel.id, ", nextCta ", kernel.nextCta, ")");
    if (kernel.dispatchDone())
        panic("cta scheduler: dispatch past end of grid");
    // Drain contract: a draining kernel must never receive new CTAs —
    // dispatchOrder() filters it from every policy's candidate list, so
    // reaching here with the flag set means a policy bypassed the
    // shared ordering helper.
    BSCHED_CHECK(!isDraining(kernel.id),
                 "cta scheduler: dispatched a CTA of draining kernel ",
                 kernel.id);
    core.launchCta(now, *kernel.info, kernel.id, kernel.nextCta, block_seq);
    if (kernel.firstDispatchCycle == kCycleNever)
        kernel.firstDispatchCycle = now;
    ++kernel.nextCta;
    ++dispatches_;
    // Dispatch conservation for this kernel: retired + in-flight (over
    // the whole GPU, so >= this core's share) can never exceed what was
    // dispatched, and dispatch never overruns the grid.
    BSCHED_INVARIANT(kernel.ctasDone < kernel.nextCta &&
                         kernel.nextCta <= kernel.info->gridCtas(),
                     "cta scheduler: kernel ", kernel.id,
                     " dispatched/done counters out of range");
}

void
RoundRobinCtaScheduler::tick(Cycle now,
                             std::vector<KernelInstance>& kernels,
                             CoreList& cores)
{
    // At most one CTA dispatched per core per pass, kernels offered in
    // priority order, cores visited round-robin. The rotation index is
    // derived from the cycle, so passes the GPU skips and elided quiet
    // spans cannot desynchronise the visiting order.
    std::vector<KernelInstance*>& order = dispatchOrder(kernels,
                                                        cores.size());
    if (order.empty())
        return;
    const std::uint32_t n = static_cast<std::uint32_t>(cores.size());
    const std::uint32_t start = static_cast<std::uint32_t>(now % n);

    for (KernelInstance* kernel : order) {
        const std::uint32_t cap = staticCap(*kernel->info);
        for (std::uint32_t i = 0; i < n && !kernel->dispatchDone(); ++i) {
            const std::uint32_t c = (start + i) % n;
            SimtCore& core = *cores[c];
            if (usedScratch_[c] != 0 || !coreAllowed(*kernel, c))
                continue;
            if (core.residentCtas(kernel->id) >= cap)
                continue;
            if (!core.canAccept(*kernel->info))
                continue;
            dispatch(now, *kernel, core, blockSeqCounter_++);
            usedScratch_[c] = 1;
        }
    }
}

} // namespace bsched
