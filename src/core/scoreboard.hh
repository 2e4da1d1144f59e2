/**
 * @file
 * Per-warp register scoreboard. All lanes of a warp advance in lock-step,
 * so dependences are tracked at warp granularity: each virtual register
 * has a ready cycle (kCycleNever for loads, released on fill).
 */

#ifndef BSCHED_CORE_SCOREBOARD_HH
#define BSCHED_CORE_SCOREBOARD_HH

#include <algorithm>
#include <array>

#include "isa/instr.hh"
#include "sim/check.hh"
#include "sim/types.hh"

namespace bsched {

/** Tracks outstanding register writes of one warp. */
class Scoreboard
{
  public:
    Scoreboard() { reset(); }

    /** Clear all pending state (warp launch). */
    void
    reset()
    {
        ready_.fill(0);
    }

    /** True if @p reg is readable/writable at @p now. */
    bool
    regReady(std::int8_t reg, Cycle now) const
    {
        return reg == kNoReg || ready_[static_cast<std::size_t>(reg)] <= now;
    }

    /**
     * True if @p instr has no RAW/WAW hazard at @p now (sources readable,
     * destination not pending).
     */
    bool
    canIssue(const Instr& instr, Cycle now) const
    {
        return regReady(instr.src0, now) && regReady(instr.src1, now) &&
            regReady(instr.dst, now);
    }

    /** True if @p reg is pending until an explicit release (a load). */
    bool
    regPendingRelease(std::int8_t reg) const
    {
        return reg != kNoReg &&
            ready_[static_cast<std::size_t>(reg)] == kCycleNever;
    }

    /** Mark @p reg pending until @p ready_cycle (fixed-latency ops). */
    void
    setPending(std::int8_t reg, Cycle ready_cycle)
    {
        if (reg != kNoReg)
            ready_[static_cast<std::size_t>(reg)] = ready_cycle;
    }

    /** Mark @p reg pending until explicitly released (loads). */
    void
    setPendingUntilRelease(std::int8_t reg)
    {
        // Acquire/release pairing: a register with a load already in
        // flight must not be re-acquired — canIssue() gates on the
        // destination, so a second acquire means issue logic let a WAW
        // hazard through.
        BSCHED_CHECK(reg == kNoReg || !regPendingRelease(reg),
                     "scoreboard: double acquire of register ",
                     static_cast<int>(reg));
        setPending(reg, kCycleNever);
    }

    /** Release @p reg at @p now (load completion). */
    void
    release(std::int8_t reg, Cycle now)
    {
        // Pairing: only a register acquired with setPendingUntilRelease
        // (an outstanding load) may be released; a double release or a
        // release of a fixed-latency result means a completion was
        // delivered twice or routed to the wrong warp.
        BSCHED_CHECK(reg == kNoReg || regPendingRelease(reg),
                     "scoreboard: release of register ",
                     static_cast<int>(reg), " with no outstanding load");
        setPending(reg, now);
    }

    /**
     * Earliest cycle at which canIssue(@p instr) can become true:
     * the max ready cycle over the instruction's registers. Returns
     * kCycleNever while any of them awaits an explicit release (an
     * outstanding load) — such warps wake via events, not time.
     */
    Cycle
    nextReadyCycle(const Instr& instr) const
    {
        Cycle ready = 0;
        for (std::int8_t reg : {instr.src0, instr.src1, instr.dst}) {
            if (reg != kNoReg)
                ready = std::max(ready,
                                 ready_[static_cast<std::size_t>(reg)]);
        }
        return ready;
    }

    /** Count of registers still pending at @p now (tests/stats). */
    int
    pendingCount(Cycle now) const
    {
        int count = 0;
        for (Cycle c : ready_) {
            if (c > now)
                ++count;
        }
        return count;
    }

  private:
    std::array<Cycle, kMaxWarpRegs> ready_;
};

} // namespace bsched

#endif // BSCHED_CORE_SCOREBOARD_HH
