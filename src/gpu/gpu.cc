#include "gpu/gpu.hh"

#include <algorithm>

#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

Gpu::Gpu(const GpuConfig& config, Observer obs)
    : obs_(obs), config_(config), icnt_(config)
{
    config_.validate();
    for (std::uint32_t c = 0; c < config_.numCores; ++c)
        cores_.push_back(std::make_unique<SimtCore>(config_, c));
    for (std::uint32_t p = 0; p < config_.numMemPartitions; ++p)
        partitions_.push_back(std::make_unique<MemPartition>(config_, p));
    ctaSched_ = CtaScheduler::create(config_);

    if (obs_.tracer != nullptr) {
        for (auto& core : cores_)
            core->setTracer(obs_.tracer);
        for (auto& part : partitions_)
            part->setTracer(obs_.tracer);
        ctaSched_->setTracer(obs_.tracer);
    }
    if (obs_.profiler != nullptr) {
        obs_.profiler->onAttach(config_.numCores,
                                config_.numSchedulersPerCore,
                                toString(config_.warpSched));
        for (auto& core : cores_)
            core->setProfiler(obs_.profiler);
    }
    if (obs_.memProfiler != nullptr) {
        obs_.memProfiler->onAttach(config_.numCores);
        for (auto& core : cores_)
            core->setMemProfiler(obs_.memProfiler);
        for (auto& part : partitions_)
            part->setMemProfiler(obs_.memProfiler);
        icnt_.setMemProfiler(obs_.memProfiler);
    }
    if (obs_.phase != nullptr)
        obs_.phase->onAttach(config_.numCores, obs_.tracer);
}

int
Gpu::launchKernel(const KernelInfo& kernel, int core_begin, int core_end,
                  int priority)
{
    kernel.validate();
    if (core_begin < 0 || core_begin >= static_cast<int>(config_.numCores))
        fatal("launchKernel: bad core_begin ", core_begin);
    if (core_end > static_cast<int>(config_.numCores))
        fatal("launchKernel: bad core_end ", core_end);
    // An explicit end at or before the begin leaves no core the kernel
    // may run on: its CTAs could never dispatch and run() would burn
    // maxCycles before dying. Reject the launch instead.
    if (core_end >= 0 && core_end <= core_begin)
        fatal("launchKernel: empty core range [", core_begin, ", ",
              core_end, ")");
    // Ensure at least one CTA can ever be placed.
    maxCtasPerCore(config_, kernel);

    KernelInstance inst;
    inst.info = &kernel;
    inst.id = static_cast<int>(kernels_.size());
    inst.launchCycle = cycle_;
    inst.coreBegin = core_begin;
    inst.coreEnd = core_end;
    inst.priority = priority;
    kernels_.push_back(inst);
    ++unfinished_;
    ctaPassDue_ = true;

    if (obs_.tracer != nullptr) {
        TraceEvent event;
        event.cycle = cycle_;
        event.kind = TraceEventKind::KernelLaunch;
        event.kernelId = inst.id;
        event.arg0 = kernel.gridCtas();
        obs_.tracer->record(obs_.tracer->gpuTrack(), event);
    }
    return inst.id;
}

void
Gpu::requestDrain(int kernel_id, bool draining)
{
    // Serving-layer entry point: the id must name a launched kernel
    // (fatal is the always-on backup).
    BSCHED_CHECK(kernel_id >= 0 &&
                     kernel_id < static_cast<int>(kernels_.size()),
                 "requestDrain: bad kernel id ", kernel_id);
    if (kernel_id < 0 || kernel_id >= static_cast<int>(kernels_.size()))
        fatal("requestDrain: bad kernel id ", kernel_id);
    const bool was_draining = ctaSched_->isDraining(kernel_id);
    ctaSched_->setDraining(kernel_id, draining);
    ctaPassDue_ = true;
    if (draining && !was_draining) {
        if (kernelResidentCtas(kernel_id) == 0) {
            // Nothing in flight: the drain completes the moment it is
            // requested.
            noteDrainComplete(kernel_id, cycle_, 0);
        } else {
            drainStart_.emplace(kernel_id, cycle_);
        }
    } else if (!draining) {
        // Only an *in-progress* drain counts as cancelled: if residency
        // already hit zero the drain completed and this merely clears
        // the flag.
        if (drainStart_.erase(kernel_id) != 0)
            ++drainCancels_;
    }
    if (obs_.tracer != nullptr) {
        TraceEvent event;
        event.cycle = cycle_;
        event.kind = TraceEventKind::DrainRequest;
        event.kernelId = kernel_id;
        event.arg0 = draining ? 1 : 0;
        event.arg1 = kernels_[static_cast<std::size_t>(kernel_id)].nextCta;
        obs_.tracer->record(obs_.tracer->gpuTrack(), event);
    }
}

bool
Gpu::kernelDraining(int kernel_id) const
{
    return ctaSched_->isDraining(kernel_id);
}

std::uint32_t
Gpu::kernelResidentCtas(int kernel_id) const
{
    std::uint32_t resident = 0;
    for (const auto& core : cores_)
        resident += core->residentCtas(kernel_id);
    return resident;
}

void
Gpu::noteDrainComplete(int kernel_id, Cycle now, Cycle latency)
{
    ++drainsCompleted_;
    drainLatencyCycles_ += latency;
    if (obs_.tracer != nullptr) {
        const KernelInstance& kernel =
            kernels_.at(static_cast<std::size_t>(kernel_id));
        TraceEvent event;
        event.cycle = now;
        event.duration = latency;
        event.kind = TraceEventKind::DrainComplete;
        event.kernelId = kernel_id;
        event.arg0 = static_cast<std::int64_t>(kernel.info->gridCtas() -
                                               kernel.nextCta);
        obs_.tracer->record(obs_.tracer->gpuTrack(), event);
    }
}

bool
Gpu::moveMemoryTraffic()
{
    const Cycle now = cycle_;
    bool moved = false;

    // Partition replies -> interconnect (bounded injection per cycle).
    // The visiting order rotates with the cycle: a core whose response
    // queue fills every cycle would otherwise let partition 0 inject
    // forever while higher-numbered partitions sit head-of-line blocked
    // behind it. Cycle-derived rotation keeps the order identical
    // whether or not quiet spans were elided.
    const std::uint32_t np = static_cast<std::uint32_t>(partitions_.size());
    const std::uint32_t first = static_cast<std::uint32_t>(now % np);
    for (std::uint32_t i = 0; i < np; ++i) {
        MemPartition& part = *partitions_[(first + i) % np];
        for (std::uint32_t k = 0; k < config_.icntFlitsPerCycle; ++k) {
            if (!part.responseReady())
                break;
            const MemResponse& resp = part.peekResponse();
            if (!icnt_.canSendResponse(resp.coreId))
                break; // head-of-line blocked; retry next cycle
            icnt_.sendResponse(now, resp.coreId, resp);
            part.popResponse();
            moved = true;
        }
    }

    // Interconnect -> partitions (ejection bandwidth + input capacity).
    for (std::uint32_t p = 0; p < partitions_.size(); ++p) {
        while (icnt_.requestReady(p, now) &&
               partitions_[p]->canAcceptRequest() &&
               icnt_.ejectBudget(p, now)) {
            partitions_[p]->pushRequest(now, icnt_.popRequest(p, now));
            moved = true;
        }
    }

    // Interconnect -> cores (fill responses).
    for (std::uint32_t c = 0; c < cores_.size(); ++c) {
        while (icnt_.responseReady(c, now) &&
               icnt_.responseEjectBudget(c, now)) {
            cores_[c]->deliverResponse(now, icnt_.popResponse(c, now));
            moved = true;
        }
    }

    // Cores -> interconnect (requests).
    for (auto& core : cores_) {
        for (std::uint32_t k = 0; k < config_.icntFlitsPerCycle; ++k) {
            if (!core->hasOutgoing())
                break;
            const std::uint32_t p =
                icnt_.partitionFor(core->peekOutgoing().lineAddr);
            if (!icnt_.canSendRequest(p))
                break; // head-of-line blocked
            icnt_.sendRequest(now, core->popOutgoing());
            moved = true;
        }
    }
    return moved;
}

bool
Gpu::stepCycle()
{
    const Cycle now = cycle_;
    bool did_work = false;

    for (auto& part : partitions_)
        did_work |= part->tick(now);

    did_work |= moveMemoryTraffic();

    for (auto& core : cores_)
        did_work |= core->tick(now);

    // Collect CTA completions and update kernel instances.
    for (auto& core : cores_) {
        if (!core->hasCompletedCtas())
            continue;
        for (const CtaDoneEvent& event : core->drainCompletedCtas()) {
            did_work = true;
            ctaPassDue_ = true;
            KernelInstance& kernel =
                kernels_.at(static_cast<std::size_t>(event.kernelId));
            ++kernel.ctasDone;
            // Kernel-level conservation: completions are dispatched CTAs
            // coming back, so done can never outrun dispatched, and
            // neither can overrun the grid.
            BSCHED_INVARIANT(kernel.ctasDone <= kernel.nextCta &&
                                 kernel.nextCta <= kernel.info->gridCtas(),
                             "gpu: kernel ", kernel.id,
                             " completed more CTAs than were dispatched");
            if (kernel.finished() && kernel.doneCycle == kCycleNever) {
                kernel.doneCycle = now;
                --unfinished_;
                if (obs_.tracer != nullptr) {
                    TraceEvent trace;
                    trace.cycle = now;
                    trace.duration = now - kernel.launchCycle;
                    trace.kind = TraceEventKind::KernelRetire;
                    trace.kernelId = kernel.id;
                    trace.arg0 = kernel.ctasDone;
                    obs_.tracer->record(obs_.tracer->gpuTrack(), trace);
                }
            }
            ctaSched_->notifyCtaDone(now, event, cores_);
            // Drain-latency endpoint: the victim's last in-flight CTA
            // just retired.
            if (!drainStart_.empty()) {
                const auto ds = drainStart_.find(event.kernelId);
                if (ds != drainStart_.end() &&
                    kernelResidentCtas(event.kernelId) == 0) {
                    noteDrainComplete(event.kernelId, now,
                                      now - ds->second);
                    drainStart_.erase(ds);
                }
            }
        }
    }

    // The dispatch pass runs only when its outcome can differ from the
    // last pass, which dispatched nothing: after a dispatch, a CTA
    // completion, a launch or drain request, or a policy deadline (LCS
    // fixed window, DYNCTA sample). Nothing else frees capacity or
    // moves a cap, so a skipped pass would have dispatched nothing.
    if (ctaPassDue_ || now >= ctaDeadline_) {
        const std::uint64_t dispatches_before = ctaSched_->dispatches();
        ctaSched_->tick(now, kernels_, cores_);
        ctaPassDue_ = ctaSched_->dispatches() != dispatches_before;
        did_work |= ctaPassDue_;
        ctaDeadline_ = ctaSched_->nextEventCycle(now + 1, kernels_, cores_);
    }

    observeFence(now, obs_.phase != nullptr && obs_.phase->due(now),
                 obs_.sampler != nullptr && obs_.sampler->due(now));

    ++cycle_;
    if (cycle_ >= config_.maxCycles)
        fatal("gpu: exceeded maxCycles (", config_.maxCycles,
              ") — likely deadlock or undersized budget");

    // A quiet cycle proves every component is waiting on a future
    // event; jump straight to the earliest one instead of re-proving it
    // one cycle at a time.
    if (!did_work && config_.fastForward)
        fastForward();

    return !finished();
}

void
Gpu::fastForward()
{
    const Cycle now = cycle_; // first candidate cycle to elide

    // The deadline computed after the last dispatch pass still holds:
    // only a pass, or an event that forces one, moves it.
    Cycle next = ctaDeadline_;
    for (const auto& core : cores_)
        next = std::min(next, core->nextWorkCycle(now));
    next = std::min(next, icnt_.nextEventCycle(now));
    for (const auto& part : partitions_)
        next = std::min(next, part->nextEventCycle(now));
    if (obs_.sampler != nullptr)
        next = std::min(next, obs_.sampler->nextDue());
    // Phase-window boundaries are fenced exactly like sampler cycles:
    // windows close on the same cycles whether or not spans are elided.
    if (obs_.phase != nullptr)
        next = std::min(next, obs_.phase->nextDue());
    // External fence (serving engine): an outside agent acts at this
    // cycle, so the quiet span may not be elided past it.
    next = std::min(next, externalEvent_);
    if (next == kCycleNever)
        return; // no future event at all: finished, draining or stuck
    // Never jump past the cycle-budget backstop: the last budgeted
    // cycle must still tick so the overrun fatal() fires on schedule.
    next = std::min(next, config_.maxCycles - 1);
    if (next <= now)
        return;

    // The component estimates promised a quiet span: nothing can be
    // waiting on the traffic mover, or cycle `now` would not have been
    // quiet and the estimates would have pinned `next` at `now`.
    for (const auto& core : cores_) {
        BSCHED_CHECK(!core->hasOutgoing(),
                     "gpu: fast-forward across a pending core request "
                     "on core ", core->id());
    }
    for (const auto& part : partitions_) {
        BSCHED_CHECK(!part->responseReady(),
                     "gpu: fast-forward across a pending partition "
                     "response");
    }

    // Replay the per-cycle counter effects of the elided cycles
    // [now, next): per-core activity/stall classification and the
    // per-cycle MSHR occupancy samples. Both are constant across the
    // span — it ends at or before every wake estimate.
    const std::uint64_t n = next - now;
    for (auto& core : cores_)
        core->accountQuietSpan(now, n, obs_.memProfiler);
    if (obs_.memProfiler != nullptr) {
        for (const auto& part : partitions_) {
            obs_.memProfiler->recordMshrOccupancySpan(
                MemLevel::L2, part->l2Mshr().entriesInUse(), n);
        }
    }
    elided_ += n;
    cycle_ = next;
}

bool
Gpu::drained() const
{
    for (const auto& core : cores_) {
        if (!core->idle())
            return false;
    }
    if (!icnt_.drained())
        return false;
    for (const auto& part : partitions_) {
        if (!part->drained())
            return false;
    }
    return true;
}

void
Gpu::run()
{
    if (kernels_.empty())
        fatal("gpu: run() without any launched kernel");
    while (stepCycle()) {
    }
    // Kernel-boundary fence: drain in-flight stores and write-backs so
    // statistics are conserved and a subsequent launch starts clean.
    while (!drained())
        stepCycle();
    // A closing sample ties off every series at the final cycle so that
    // cumulative counters end exactly at the StatSet totals.
    finalizeSample();
}

void
Gpu::finalizeSample()
{
    // Tie off the partial final phase window too, so the closing
    // sample's phase gauges include it.
    observeFence(cycle_,
                 obs_.phase != nullptr && obs_.phase->finalPending(cycle_),
                 obs_.sampler != nullptr &&
                     (obs_.sampler->cycles().empty() ||
                      obs_.sampler->cycles().back() != cycle_));
}

CounterSnapshot
Gpu::snapshotCounters() const
{
    CounterSnapshot snap;
    snap.coreInstrs.reserve(cores_.size());
    snap.coreIssue.reserve(cores_.size());
    snap.coreStallMem.reserve(cores_.size());
    snap.coreStallIdle.reserve(cores_.size());
    for (const auto& core : cores_) {
        const std::uint64_t instrs = core->instrsIssued();
        const std::uint64_t issue = core->issueCycles();
        const std::uint64_t stall_mem = core->memStallCycles();
        const std::uint64_t stall_idle = core->idleStallCycles();
        snap.instrs += instrs;
        snap.issueCycles += issue;
        snap.stallMem += stall_mem;
        snap.stallIdle += stall_idle;
        snap.l1Access += core->ldst().l1().accesses();
        snap.l1Miss += core->ldst().l1().misses();
        snap.activeCtas += core->residentCtas();
        snap.l1MshrInUse += core->ldst().mshr().entriesInUse();
        snap.coreInstrs.push_back(instrs);
        snap.coreIssue.push_back(issue);
        snap.coreStallMem.push_back(stall_mem);
        snap.coreStallIdle.push_back(stall_idle);
    }
    for (const auto& part : partitions_) {
        snap.l2Access += part->l2().accesses();
        snap.l2Miss += part->l2().misses();
        snap.l2MshrInUse += part->l2Mshr().entriesInUse();
        snap.rowHit += part->dram().rowHits();
        snap.rowMiss += part->dram().rowMisses();
        snap.rowConflict += part->dram().rowConflicts();
    }
    snap.kernelInstrs.reserve(kernels_.size());
    for (const KernelInstance& kernel : kernels_)
        snap.kernelInstrs.push_back(kernelInstrsIssued(kernel.id));
    // Interference channels ride along only when the memory profiler is
    // also attached; the detectors never read them, so detected phase
    // boundaries are identical with or without this section.
    if (obs_.memProfiler != nullptr) {
        snap.hasInterference = true;
        snap.l1CrossCta =
            obs_.memProfiler->interference(MemLevel::L1).crossCtaEvictions;
        snap.l2CrossCta =
            obs_.memProfiler->interference(MemLevel::L2).crossCtaEvictions;
        snap.dramQueueCycles = obs_.memProfiler->total()
            .stages[static_cast<std::size_t>(MemStage::DramQueue)].sum();
        snap.l2MshrOccCycles = obs_.memProfiler->interference(MemLevel::L2)
            .mshrOccupancy.sum();
    }
    return snap;
}

void
Gpu::observeFence(Cycle now, bool phase_due, bool sample_due)
{
    if (!phase_due && !sample_due)
        return;
    const CounterSnapshot snap = snapshotCounters();
    // The phase window closes before the sample is taken, so the
    // sampled phase gauges always reflect every window up to `now`.
    if (phase_due)
        obs_.phase->closeWindow(now, snap);
    if (sample_due)
        collectSample(now, snap);
}

void
Gpu::collectSample(Cycle now, const CounterSnapshot& snap)
{
    IntervalSampler& s = *obs_.sampler;
    s.begin(now);

    s.record("gpu.instrs", static_cast<double>(snap.instrs),
             SeriesKind::Counter);
    const Cycle span = now - lastSampleCycle_;
    const double interval_ipc = span == 0
        ? 0.0
        : static_cast<double>(snap.instrs - lastSampleInstrs_) /
            static_cast<double>(span);
    s.record("gpu.interval_ipc", interval_ipc, SeriesKind::Gauge);
    lastSampleCycle_ = now;
    lastSampleInstrs_ = snap.instrs;

    s.record("gpu.active_ctas", static_cast<double>(snap.activeCtas),
             SeriesKind::Gauge);
    s.record("core.issue_cycles", static_cast<double>(snap.issueCycles),
             SeriesKind::Counter);
    s.record("core.stall_mem", static_cast<double>(snap.stallMem),
             SeriesKind::Counter);
    s.record("core.stall_idle", static_cast<double>(snap.stallIdle),
             SeriesKind::Counter);
    s.record("l1d.access", static_cast<double>(snap.l1Access),
             SeriesKind::Counter);
    s.record("l1d.miss", static_cast<double>(snap.l1Miss),
             SeriesKind::Counter);
    s.record("l1d.mshr_in_use", static_cast<double>(snap.l1MshrInUse),
             SeriesKind::Gauge);
    s.record("l2.access", static_cast<double>(snap.l2Access),
             SeriesKind::Counter);
    s.record("l2.miss", static_cast<double>(snap.l2Miss),
             SeriesKind::Counter);
    s.record("l2.mshr_in_use", static_cast<double>(snap.l2MshrInUse),
             SeriesKind::Gauge);
    s.record("dram.row_hit", static_cast<double>(snap.rowHit),
             SeriesKind::Counter);
    s.record("dram.row_miss", static_cast<double>(snap.rowMiss),
             SeriesKind::Counter);
    s.record("dram.row_conflict", static_cast<double>(snap.rowConflict),
             SeriesKind::Counter);

    // Phase-telemetry gauges ride the same fenced sample cycles; the
    // series set is fixed per run because attachment never changes
    // mid-run.
    if (obs_.phase != nullptr) {
        s.record("phase.current", obs_.phase->currentPhaseGauge(),
                 SeriesKind::Gauge);
        s.record("phase.count", obs_.phase->phaseCountGauge(),
                 SeriesKind::Gauge);
    }

    // External series (e.g. serving-engine gauges) land on the same
    // fenced sample cycle as the built-in ones.
    if (obs_.sampleSource != nullptr)
        obs_.sampleSource->recordSample(s, now);
}

const KernelInstance&
Gpu::kernel(int id) const
{
    return kernels_.at(static_cast<std::size_t>(id));
}

Cycle
Gpu::kernelCycles(int id) const
{
    const KernelInstance& inst = kernel(id);
    if (inst.doneCycle == kCycleNever)
        fatal("gpu: kernel ", id, " has not finished");
    return inst.doneCycle - inst.launchCycle + 1;
}

std::uint64_t
Gpu::totalInstrsIssued() const
{
    std::uint64_t total = 0;
    for (const auto& core : cores_)
        total += core->instrsIssued();
    return total;
}

double
Gpu::ipc() const
{
    if (cycle_ == 0)
        return 0.0;
    return static_cast<double>(totalInstrsIssued()) /
        static_cast<double>(cycle_);
}

std::uint64_t
Gpu::kernelInstrsIssued(int id) const
{
    std::uint64_t issued = 0;
    for (const auto& core : cores_)
        issued += core->instrsIssued(id);
    return issued;
}

double
Gpu::kernelIpc(int id) const
{
    return static_cast<double>(kernelInstrsIssued(id)) /
        static_cast<double>(kernelCycles(id));
}

StatSet
Gpu::stats() const
{
    StatSet stats;
    stats.set("gpu.cycles", static_cast<double>(cycle_));
    stats.set("gpu.ipc", ipc());
    stats.set("gpu.instrs", static_cast<double>(totalInstrsIssued()));
    for (const auto& core : cores_)
        core->addStats(stats);
    for (const auto& part : partitions_)
        part->addStats(stats);
    icnt_.addStats(stats);
    ctaSched_->addStats(stats);
    for (const KernelInstance& kernel : kernels_) {
        const std::string prefix = "kernel" + std::to_string(kernel.id);
        stats.set(prefix + ".ctas", kernel.info->gridCtas());
        if (kernel.doneCycle != kCycleNever) {
            stats.set(prefix + ".cycles",
                      static_cast<double>(kernelCycles(kernel.id)));
            stats.set(prefix + ".ipc", kernelIpc(kernel.id));
        }
    }
    return stats;
}

} // namespace bsched
