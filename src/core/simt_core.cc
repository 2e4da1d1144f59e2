#include "core/simt_core.hh"

#include <algorithm>

#include "kernel/mem_pattern.hh"
#include "obs/mem_profile.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "sim/check.hh"
#include "sim/log.hh"

namespace bsched {

SimtCore::SimtCore(const GpuConfig& config, std::uint32_t id)
    : config_(config),
      id_(id),
      name_("core" + std::to_string(id)),
      warps_(config.maxWarpsPerCore()),
      ctas_(config.maxCtasPerCore),
      resources_(config),
      ldst_(config, id),
      slotIds_(config.numSchedulersPerCore),
      ageOrder_(config.numSchedulersPerCore),
      slotCtas_(config.numSchedulersPerCore),
      ctaIssued_(config.maxCtasPerCore, 0),
      slotStalls_(config.numSchedulersPerCore),
      issue_(config.maxWarpsPerCore()),
      freeWarpSlots_(config.maxWarpsPerCore())
{
    for (std::uint32_t s = 0; s < config.numSchedulersPerCore; ++s) {
        schedulers_.push_back(WarpScheduler::create(
            config.warpSched, config.twoLevelActiveSize));
    }
    for (std::size_t w = 0; w < warps_.size(); ++w)
        slotIds_[w % slotIds_.size()].push_back(static_cast<int>(w));
}

bool
SimtCore::canAccept(const KernelInfo& kernel) const
{
    const CtaFootprint fp = ctaFootprint(kernel);
    if (!resources_.fits(fp))
        return false;
    // Need free warp *slots* too (one per warp).
    return freeWarpSlots_ >= fp.warps;
}

int
SimtCore::launchCta(Cycle now, const KernelInfo& kernel, int kernel_id,
                    std::uint32_t cta_id, std::uint64_t block_seq)
{
    // CTA slot accounting: the scheduler may only place a CTA when the
    // core has capacity (slots, threads, registers, shared memory and
    // free warp contexts) — a launch past capacity is a slot leak in the
    // dispatch policy. Contract first (throwable for injection tests),
    // panic as the Release backstop.
    BSCHED_CHECK(canAccept(kernel), name_,
                 ": CTA slot leak — launch without capacity (resident ",
                 residentCtas(), ")");
    if (!canAccept(kernel))
        panic(name_, ": launchCta without capacity");
    const CtaFootprint fp = ctaFootprint(kernel);
    int slot = kInvalidId;
    for (std::size_t i = 0; i < ctas_.size(); ++i) {
        if (!ctas_[i].valid) {
            slot = static_cast<int>(i);
            break;
        }
    }
    if (slot == kInvalidId)
        panic(name_, ": no free HW CTA slot");

    HwCta& cta = ctas_[static_cast<std::size_t>(slot)];
    cta = HwCta{};
    cta.valid = true;
    cta.kernelId = kernel_id;
    cta.ctaId = cta_id;
    cta.ctaSeq = ctaSeqCounter_++;
    cta.blockSeq = block_seq;
    cta.warpsTotal = fp.warps;
    cta.footprint = fp;
    cta.kernel = &kernel;
    cta.launchCycle = now;
    ctaIssued_[static_cast<std::size_t>(slot)] = 0;
    resources_.allocate(fp);

    std::uint32_t placed = 0;
    for (std::size_t w = 0; w < warps_.size() && placed < fp.warps; ++w) {
        Warp& warp = warps_[w];
        if (warp.valid)
            continue;
        warp.clear();
        warp.valid = true;
        warp.hwCta = slot;
        warp.kernelId = kernel_id;
        warp.ctaId = cta_id;
        warp.warpInCta = placed;
        warp.ctaSeq = cta.ctaSeq;
        warp.blockSeq = block_seq;
        warp.kernel = &kernel;
        warp.cursor.init(kernel.program, cta_id);
        warp.sb.reset();
        cta.warpIds.push_back(static_cast<int>(w));
        // The youngest CTA: its warps go last in their slot's age order.
        ageOrder_[w % ageOrder_.size()].push_back(static_cast<int>(w));
        --freeWarpSlots_;
        if (warp.cursor.done(kernel.program)) {
            // Degenerate empty program: warp is born finished.
            warp.done = true;
            ++cta.warpsDone;
        }
        refreshIssueState(w);
        ++placed;
    }
    if (placed != fp.warps)
        panic(name_, ": warp slot accounting mismatch");
    regroupSlots();
    wakeSlots();

    BSCHED_CHECK(kernel_id >= 0, name_, ": launch of invalid kernel id ",
                 kernel_id);
    const auto kernel_idx = static_cast<std::size_t>(kernel_id);
    if (kernel_idx >= kernels_.size())
        kernels_.resize(kernel_idx + 1);
    KernelTrack& track = kernels_[kernel_idx];
    if (track.firstLaunch == kCycleNever)
        track.firstLaunch = now;
    ++ctasLaunched_;
    // CTA conservation on this core: every launched CTA is either
    // resident or has completed, and residency never exceeds the
    // hardware slot count.
    BSCHED_INVARIANT(ctasLaunched_ == ctasCompleted_ + residentCtas(),
                     name_, ": CTA launch/retire balance broken");
    BSCHED_INVARIANT(residentCtas() <= config_.maxCtasPerCore, name_,
                     ": resident CTAs exceed hardware slots");

    if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = now;
        event.kind = TraceEventKind::CtaDispatch;
        event.kernelId = kernel_id;
        event.arg0 = cta_id;
        tracer_->record(track_, event);
    }

    if (cta.warpsDone == cta.warpsTotal)
        completeCta(slot, now);
    return slot;
}

std::vector<CtaDoneEvent>
SimtCore::drainCompletedCtas()
{
    std::vector<CtaDoneEvent> out;
    out.swap(completed_);
    return out;
}

void
SimtCore::deliverResponse(Cycle now, const MemResponse& response)
{
    quietUntil_ = 0;
    ldst_.onFill(now, response.lineAddr, response.reqId);
}

bool
SimtCore::idle() const
{
    return residentCtas() == 0 && ldst_.drained();
}

std::uint32_t
SimtCore::residentCtas(int kernel_id) const
{
    std::uint32_t count = 0;
    for (const HwCta& cta : ctas_) {
        if (cta.valid && cta.kernelId == kernel_id)
            ++count;
    }
    return count;
}

const SimtCore::KernelTrack*
SimtCore::track(int kernel_id) const
{
    if (kernel_id < 0 ||
        static_cast<std::size_t>(kernel_id) >= kernels_.size())
        return nullptr;
    return &kernels_[static_cast<std::size_t>(kernel_id)];
}

std::uint64_t
SimtCore::instrsIssued(int kernel_id) const
{
    const KernelTrack* t = track(kernel_id);
    return t == nullptr ? 0 : t->issued;
}

Cycle
SimtCore::kernelFirstLaunch(int kernel_id) const
{
    const KernelTrack* t = track(kernel_id);
    return t == nullptr ? kCycleNever : t->firstLaunch;
}

std::vector<std::uint64_t>
SimtCore::ctaIssueCounts(int kernel_id) const
{
    std::vector<std::uint64_t> counts;
    if (const KernelTrack* t = track(kernel_id))
        counts = t->completedCtaIssued;
    for (std::size_t i = 0; i < ctas_.size(); ++i) {
        if (ctas_[i].valid && ctas_[i].kernelId == kernel_id)
            counts.push_back(ctaIssued_[i]);
    }
    return counts;
}

SimtCore::IssueState
SimtCore::issueStateOf(const Warp& warp)
{
    IssueState state;
    if (!warp.live())
        return state;
    const Instr& instr = warp.cursor.instr(warp.kernel->program);
    state.wake = warp.sb.nextReadyCycle(instr);
    state.kernelId = warp.kernelId;
    state.op = instr.op;
    state.gate = warp.atBarrier ? IssueState::Gate::Barrier
                                : IssueState::Gate::Live;
    return state;
}

bool
SimtCore::structuralReady(Opcode op, Cycle now) const
{
    switch (op) {
      case Opcode::LdGlobal:
      case Opcode::StGlobal:
        return memIssuedThisCycle_ < config_.ldstUnits &&
            ldst_.canAdmit(op == Opcode::StGlobal);
      case Opcode::LdShared:
      case Opcode::StShared:
        return memIssuedThisCycle_ < config_.ldstUnits &&
            smemBusyUntil_ <= now;
      case Opcode::Sfu:
        return sfuIssuedThisCycle_ < config_.sfuUnits;
      case Opcode::Alu:
      case Opcode::Bar:
      case Opcode::Exit:
        return true;
    }
    return false;
}

void
SimtCore::issueFrom(int warp_id, Cycle now)
{
    Warp& warp = warps_[static_cast<std::size_t>(warp_id)];
    const WarpProgram& prog = warp.kernel->program;
    const Instr& instr = warp.cursor.instr(prog);

    switch (instr.op) {
      case Opcode::Alu:
        warp.sb.setPending(instr.dst, now + config_.aluLatency);
        ++issuedAlu_;
        break;
      case Opcode::Sfu:
        warp.sb.setPending(instr.dst, now + config_.sfuLatency);
        ++sfuIssuedThisCycle_;
        ++issuedSfu_;
        break;
      case Opcode::LdGlobal:
      case Opcode::StGlobal: {
        const bool write = instr.op == Opcode::StGlobal;
        coalesce(prog.pattern(instr.patternId), warp.kernel->geom(),
                 warp.ctaId, warp.warpInCta, warp.cursor.iterKey(),
                 instr.activeLanes, config_.l1d.lineBytes, coalesced_);
        if (!write)
            warp.sb.setPendingUntilRelease(instr.dst);
        ldst_.pushBatch(now, warp_id, write ? kNoReg : instr.dst, write,
                        coalesced_, warp.kernelId,
                        makeCtaKey(warp.kernelId, warp.ctaId));
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::LdShared: {
        const std::uint32_t factor = sharedConflictFactor(
            prog.pattern(instr.patternId), instr.activeLanes);
        warp.sb.setPending(instr.dst,
                           now + config_.smemLatency + factor - 1);
        smemBusyUntil_ = now + factor;
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::StShared: {
        const std::uint32_t factor = sharedConflictFactor(
            prog.pattern(instr.patternId), instr.activeLanes);
        smemBusyUntil_ = now + factor;
        ++memIssuedThisCycle_;
        ++issuedMem_;
        break;
      }
      case Opcode::Bar:
        warp.atBarrier = true;
        ++ctas_[static_cast<std::size_t>(warp.hwCta)].warpsArrived;
        ++issuedBar_;
        break;
      case Opcode::Exit:
        break;
    }

    ++warp.instrsIssued;
    ++issuedTotal_;
    ++ctaIssued_[static_cast<std::size_t>(warp.hwCta)];
    ++kernels_[static_cast<std::size_t>(warp.kernelId)].issued;

    const bool was_barrier = instr.op == Opcode::Bar;
    warp.cursor.advance(prog, warp.ctaId);
    if (warp.cursor.done(prog)) {
        finishWarp(warp_id, now);
        return;
    }
    refreshIssueState(static_cast<std::size_t>(warp_id));
    if (was_barrier)
        checkBarrier(warp.hwCta);
}

void
SimtCore::finishWarp(int warp_id, Cycle now)
{
    Warp& warp = warps_[static_cast<std::size_t>(warp_id)];
    warp.done = true;
    refreshIssueState(static_cast<std::size_t>(warp_id));
    HwCta& cta = ctas_[static_cast<std::size_t>(warp.hwCta)];
    ++cta.warpsDone;
    if (warp.atBarrier)
        --cta.warpsArrived; // a done warp no longer counts as arrived
    if (cta.warpsDone == cta.warpsTotal)
        completeCta(warp.hwCta, now);
    else
        checkBarrier(warp.hwCta); // a finished warp may unblock a barrier
}

void
SimtCore::completeCta(int hw_cta, Cycle now)
{
    HwCta& cta = ctas_[static_cast<std::size_t>(hw_cta)];
    if (!cta.valid)
        panic(name_, ": completing invalid CTA slot");

    for (std::vector<int>& order : ageOrder_) {
        std::erase_if(order, [&](int id) {
            return warps_[static_cast<std::size_t>(id)].hwCta == hw_cta;
        });
    }
    regroupSlots();
    wakeSlots();
    // Every warp of the CTA finished, so its issue state is Dead already.
    for (const int w : cta.warpIds) {
        warps_[static_cast<std::size_t>(w)].clear();
        ++freeWarpSlots_;
    }
    // If this was the block's last resident CTA, let the warp schedulers
    // drop their per-block state (keeps BAWS's rotation map bounded by
    // the number of *live* blocks instead of every block ever seen).
    bool block_live = false;
    for (const HwCta& peer : ctas_) {
        if (peer.valid && &peer != &cta && peer.blockSeq == cta.blockSeq) {
            block_live = true;
            break;
        }
    }
    if (!block_live) {
        for (auto& sched : schedulers_)
            sched->notifyBlockRetired(cta.blockSeq);
    }
    resources_.release(cta.footprint);
    const std::uint64_t issued = ctaIssued_[static_cast<std::size_t>(hw_cta)];
    kernels_[static_cast<std::size_t>(cta.kernelId)]
        .completedCtaIssued.push_back(issued);
    completed_.push_back(
        {id_, cta.kernelId, cta.ctaId, issued, now, cta.kernel});
    ++ctasCompleted_;

    if (tracer_ != nullptr) {
        TraceEvent event;
        event.cycle = now;
        event.duration = now - cta.launchCycle;
        event.kind = TraceEventKind::CtaComplete;
        event.kernelId = cta.kernelId;
        event.arg0 = cta.ctaId;
        event.arg1 = static_cast<std::int64_t>(issued);
        tracer_->record(track_, event);
    }
    cta.valid = false;
    BSCHED_INVARIANT(ctasLaunched_ == ctasCompleted_ + residentCtas(),
                     name_, ": CTA launch/retire balance broken");
}

void
SimtCore::setTracer(Tracer* tracer)
{
    tracer_ = tracer;
    track_ = tracer != nullptr ? tracer->coreTrack(id_) : 0;
    ldst_.setTracer(tracer, track_);
}

void
SimtCore::regroupSlots()
{
    for (std::size_t s = 0; s < ageOrder_.size(); ++s)
        groupByCta(ageOrder_[s], warps_, slotCtas_[s]);
}

void
SimtCore::wakeSlots()
{
    for (SlotStalls& slot : slotStalls_)
        slot.wake = 0;
    quietUntil_ = 0;
}

void
SimtCore::checkBarrier(int hw_cta)
{
    HwCta& cta = ctas_[static_cast<std::size_t>(hw_cta)];
    const std::uint32_t live = cta.warpsTotal - cta.warpsDone;
    if (live == 0 || cta.warpsArrived != live)
        return;
    for (const int id : cta.warpIds) {
        const auto w = static_cast<std::size_t>(id);
        warps_[w].atBarrier = false;
        refreshIssueState(w);
    }
    cta.warpsArrived = 0;
    wakeSlots();
}

bool
SimtCore::applyCompletions(Cycle now)
{
    const std::span<const LoadCompletion> done = ldst_.completions();
    if (done.empty())
        return false;
    for (const LoadCompletion& load : done) {
        const auto w = static_cast<std::size_t>(load.warpId);
        // The warp slot may have been recycled only if its CTA finished,
        // which is impossible with a load in flight.
        warps_[w].sb.release(load.reg, now);
        refreshIssueState(w);
        slotStalls_[w % slotStalls_.size()].wake = 0; // the warp's slot
    }
    ldst_.clearCompletions();
    return true;
}

inline bool
SimtCore::warpIssuable(std::size_t w, Cycle now, SlotStalls& stalls)
{
    const IssueState& state = issue_[w];
    BSCHED_CHECK(state == issueStateOf(warps_[w]), name_,
                 ": stale issue state for warp ", w, " at cycle ", now);
    if (state.gate != IssueState::Gate::Live) {
        if (state.gate == IssueState::Gate::Barrier)
            stalls.barrier = std::min(stalls.barrier, w);
        return false;
    }
    if (state.wake > now) {
        // A scoreboard wait: kCycleNever marks an outstanding load
        // (`scoreboard`, lifted by its completion), a finite cycle a
        // fixed-latency result (`pipeline`, lifted at that cycle).
        std::size_t& cat =
            state.wake == kCycleNever ? stalls.sb : stalls.pipe;
        cat = std::min(cat, w);
        stalls.wake = std::min(stalls.wake, state.wake);
        return false;
    }
    if (structuralReady(state.op, now))
        return true;
    // The refusal kind follows from the opcode alone: only memory ops
    // (LD/ST port, LD/ST queue, MSHRs, shared memory) and the SFU port
    // can structurally refuse a scoreboard-clear warp. A spent port
    // budget lifts next cycle and a busy shared-memory port when it
    // frees; LD/ST admission lifts on an event (the issue stage's
    // canAdmit watch).
    const bool sfu = state.op == Opcode::Sfu;
    std::size_t& cat = sfu ? stalls.pipe : stalls.mem;
    cat = std::min(cat, w);
    Cycle wake = kCycleNever;
    if (sfu || memIssuedThisCycle_ >= config_.ldstUnits)
        wake = now + 1;
    else if (state.op == Opcode::LdShared || state.op == Opcode::StShared)
        wake = smemBusyUntil_;
    stalls.wake = std::min(stalls.wake, wake);
    return false;
}

inline void
SimtCore::recordStalledSlot(CycleProfiler& profiler,
                            const SlotStalls& stalls, std::uint64_t n) const
{
    // The categories closest to an actionable resource bottleneck win
    // the slot: a structurally refused memory access (the warp *would*
    // issue if the memory pipe had room) outranks a scoreboard wait on
    // a load, which outranks execution-pipeline waits.
    std::size_t witness = SlotStalls::kNone;
    SlotCat cat = SlotCat::Empty;
    if (stalls.mem != SlotStalls::kNone) {
        witness = stalls.mem;
        cat = SlotCat::MemStructural;
    } else if (stalls.sb != SlotStalls::kNone) {
        witness = stalls.sb;
        cat = SlotCat::Scoreboard;
    } else if (stalls.pipe != SlotStalls::kNone) {
        witness = stalls.pipe;
        cat = SlotCat::Pipeline;
    } else if (stalls.barrier != SlotStalls::kNone) {
        witness = stalls.barrier;
        cat = SlotCat::Barrier;
    }
    profiler.recordSlotSpan(
        id_,
        witness == SlotStalls::kNone ? kInvalidId : issue_[witness].kernelId,
        cat, n);
}

template <class Policy>
bool
SimtCore::issueSlots(Cycle now)
{
    // LD/ST admission that opened since the last issue stage may lift a
    // sleeping slot's memory refusal.
    if ((!admitLoad_ && ldst_.canAdmit(false)) ||
        (!admitStore_ && ldst_.canAdmit(true)))
        wakeSlots();
    auto walk = [&](std::size_t s, SlotStalls& stalls) {
        auto issuable = [&](int id) {
            return warpIssuable(static_cast<std::size_t>(id), now, stalls);
        };
        return static_cast<Policy&>(*schedulers_[s]).walkWith(
            IssueView{warps_, slotIds_[s], ageOrder_[s], slotCtas_[s],
                      ctaIssued_},
            issuable);
    };
    std::uint32_t issued = 0;
    for (std::size_t s = 0; s < schedulers_.size(); ++s) {
        SlotStalls& slept = slotStalls_[s];
        if (slept.wake > now) {
            // Asleep: no wake event since its last fruitless walk, so
            // that walk's outcome stands. Validate builds walk anyway.
            if constexpr (kChecksEnabled) {
                SlotStalls fresh;
                const int chosen = walk(s, fresh);
                BSCHED_CHECK(chosen < 0 && fresh.mem == slept.mem &&
                                 fresh.sb == slept.sb &&
                                 fresh.pipe == slept.pipe &&
                                 fresh.barrier == slept.barrier,
                             name_, ": sleeping slot ", s, " would pick warp ",
                             chosen, " or change its stalls at cycle ", now);
            }
            if (profiler_ != nullptr)
                recordStalledSlot(*profiler_, slept, 1);
            continue;
        }
        SlotStalls stalls;
        const int chosen = walk(s, stalls);
        if (chosen < 0) {
            slept = stalls;
            if (profiler_ != nullptr)
                recordStalledSlot(*profiler_, stalls, 1);
            continue;
        }
        // Notify before issuing: issueFrom can retire the warp's CTA and
        // recycle the slot, after which its metadata is gone.
        schedulers_[s]->notifyIssued(chosen, warps_);
        if (profiler_ != nullptr) {
            // Attribute before issueFrom for the same recycling reason.
            profiler_->recordSlot(
                id_, warps_[static_cast<std::size_t>(chosen)].kernelId,
                SlotCat::Issued);
        }
        issueFrom(chosen, now);
        ++issued;
    }
    admitLoad_ = ldst_.canAdmit(false);
    admitStore_ = ldst_.canAdmit(true);
    // Issue-bandwidth conservation: one instruction per scheduler slot
    // per cycle, and the structural units never exceed their budgets.
    BSCHED_INVARIANT(issued <= schedulers_.size(), name_,
                     ": issued ", issued, " instructions with ",
                     schedulers_.size(), " scheduler slots");
    BSCHED_INVARIANT(memIssuedThisCycle_ <= config_.ldstUnits, name_,
                     ": memory issues exceed LD/ST ports");
    BSCHED_INVARIANT(sfuIssuedThisCycle_ <= config_.sfuUnits, name_,
                     ": SFU issues exceed SFU ports");
    return issued > 0;
}

bool
SimtCore::tick(Cycle now)
{
    if (now >= quietUntil_)
        return tickAwake(now);
    if constexpr (kChecksEnabled) {
        // Validate builds tick anyway: the plain tick must do no work
        // and leave every slot's stalls and the stall kind as they
        // were, which is exactly what the replay does.
        const std::vector<SlotStalls> slept = slotStalls_;
        const bool mem_stall = quietMemStall_;
        const bool worked = tickAwake(now);
        BSCHED_CHECK(!worked && slotStalls_ == slept &&
                         quietMemStall_ == mem_stall,
                     name_, ": core asleep until ", quietUntil_,
                     " would work at cycle ", now);
        return worked;
    } else {
        replayQuietTick();
        return false;
    }
}

void
SimtCore::replayQuietTick()
{
    // The port budgets are still zero: the quiet tick issued nothing.
    ldst_.recordOccupancy();
    if (residentCtas() == 0)
        return;
    ++activeCycles_;
    if (quietMemStall_)
        ++stallMemCycles_;
    else
        ++stallIdleCycles_;
    if (profiler_ != nullptr) {
        for (const SlotStalls& slept : slotStalls_)
            recordStalledSlot(*profiler_, slept, 1);
        profiler_->recordNoIssueCycle(id_);
    }
}

bool
SimtCore::tickAwake(Cycle now)
{
    bool did_work = applyCompletions(now);
    did_work |= ldst_.tick(now);
    did_work |= applyCompletions(now);

    memIssuedThisCycle_ = 0;
    sfuIssuedThisCycle_ = 0;

    if (residentCtas() == 0) {
        if (!did_work)
            quietUntil_ = ldst_.nextTickCycle(now + 1);
        return did_work;
    }
    ++activeCycles_;

    bool issued_any = false;
    switch (config_.warpSched) {
      case WarpSchedKind::LRR:
        issued_any = issueSlots<LrrScheduler>(now);
        break;
      case WarpSchedKind::GTO:
        issued_any = issueSlots<GtoScheduler>(now);
        break;
      case WarpSchedKind::TwoLevel:
        issued_any = issueSlots<TwoLevelScheduler>(now);
        break;
      case WarpSchedKind::BAWS:
        issued_any = issueSlots<BawsScheduler>(now);
        break;
    }
    const bool mem_stall = !issued_any && !ldst_.drained();
    if (issued_any)
        ++issueCycles_;
    else if (mem_stall)
        ++stallMemCycles_;
    else
        ++stallIdleCycles_;
    if (profiler_ != nullptr && !issued_any)
        profiler_->recordNoIssueCycle(id_);
    if (did_work || issued_any)
        return true;
    // A quiet tick repeats until a slot wakes or the LD/ST unit has an
    // event due, unless an outside event wakes the core first.
    quietUntil_ = ldst_.nextTickCycle(now + 1);
    for (const SlotStalls& slot : slotStalls_)
        quietUntil_ = std::min(quietUntil_, slot.wake);
    quietMemStall_ = mem_stall;
    return false;
}

Cycle
SimtCore::nextWorkCycle(Cycle now) const
{
    Cycle next = ldst_.nextEventCycle(now);
    if (residentCtas() == 0)
        return next;
    for (const IssueState& state : issue_) {
        if (state.gate != IssueState::Gate::Live)
            continue;
        Cycle wake = state.wake;
        switch (state.op) {
          case Opcode::LdShared:
          case Opcode::StShared:
            // The port matters only once the scoreboard has cleared:
            // until then the warp is a `scoreboard`/`pipeline` stall,
            // and the span must end where it turns `mem_structural`.
            if (wake <= now)
                wake = std::max(wake, smemBusyUntil_);
            break;
          case Opcode::LdGlobal:
          case Opcode::StGlobal:
            if (wake < now) {
                // Scoreboard-clear at the quiet cycle (`now` - 1) yet
                // not issued, so it was structurally refused then.
                // Queue/outgoing refusals pin the LD/ST unit's
                // nextEventCycle at `now` already; an MSHR-full refusal
                // clears only on a fill, an external event the GPU's
                // memory-side estimates bound. A warp with wake == now
                // carries no such evidence — its scoreboard clears only
                // this cycle and it may issue right here, so it must
                // pin the estimate (the max() below yields `now`).
                continue;
            }
            break;
          default:
            break;
        }
        if (wake == kCycleNever)
            continue; // wakes on a load fill (event, not time)
        next = std::min(next, std::max(wake, now));
    }
    return next;
}

void
SimtCore::accountQuietSpan(Cycle now, std::uint64_t n, MemProfiler* memprof)
{
    if (n == 0)
        return;
    // The LD/ST unit samples its MSHR occupancy every cycle, resident
    // CTAs or not; occupancy is constant across a quiet span.
    if (memprof != nullptr) {
        memprof->recordMshrOccupancySpan(MemLevel::L1,
                                         ldst_.mshr().entriesInUse(), n);
    }
    if (residentCtas() == 0)
        return;
    activeCycles_ += n;
    if (!ldst_.drained())
        stallMemCycles_ += n;
    else
        stallIdleCycles_ += n;
    if (profiler_ != nullptr) {
        // Classify each slot with the issue walk's own test at `now`:
        // the span ends at every wake time, so `now` stands for it all.
        for (std::size_t s = 0; s < schedulers_.size(); ++s) {
            SlotStalls stalls;
            for (const int id : slotIds_[s]) {
                const bool ready =
                    warpIssuable(static_cast<std::size_t>(id), now, stalls);
                BSCHED_CHECK(!ready, name_, ": warp ", id,
                             " can issue in a quiet span at cycle ", now);
            }
            recordStalledSlot(*profiler_, stalls, n);
        }
        profiler_->recordNoIssueSpan(id_, n);
    }
}

void
SimtCore::addStats(StatSet& stats) const
{
    ldst_.addStats(stats);
    stats.add(name_ + ".issued", static_cast<double>(issuedTotal_));
    stats.add(name_ + ".issued_alu", static_cast<double>(issuedAlu_));
    stats.add(name_ + ".issued_sfu", static_cast<double>(issuedSfu_));
    stats.add(name_ + ".issued_mem", static_cast<double>(issuedMem_));
    stats.add(name_ + ".issued_bar", static_cast<double>(issuedBar_));
    stats.add(name_ + ".active_cycles", static_cast<double>(activeCycles_));
    stats.add(name_ + ".issue_cycles", static_cast<double>(issueCycles_));
    stats.add(name_ + ".stall_mem", static_cast<double>(stallMemCycles_));
    stats.add(name_ + ".stall_idle", static_cast<double>(stallIdleCycles_));
    stats.add(name_ + ".ctas_launched", static_cast<double>(ctasLaunched_));
    stats.add(name_ + ".ctas_done", static_cast<double>(ctasCompleted_));
}

} // namespace bsched
