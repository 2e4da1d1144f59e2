#include "kernel/warp_program.hh"

#include "sim/log.hh"
#include "sim/rng.hh"

namespace bsched {

std::size_t
WarpProgram::addSegment(Segment segment)
{
    for (const Instr& instr : segment.instrs) {
        for (int reg : {int(instr.dst), int(instr.src0), int(instr.src1)}) {
            if (reg >= regCount_)
                regCount_ = reg + 1;
        }
    }
    segments_.push_back(std::move(segment));
    return segments_.size() - 1;
}

std::uint8_t
WarpProgram::addPattern(MemPattern pattern)
{
    pattern.validate();
    if (patterns_.size() >= 255)
        fatal("warp program: too many memory patterns");
    patterns_.push_back(pattern);
    return static_cast<std::uint8_t>(patterns_.size() - 1);
}

const MemPattern&
WarpProgram::pattern(std::uint8_t id) const
{
    if (id >= patterns_.size())
        panic("warp program: bad pattern id ", int(id));
    return patterns_[id];
}

std::uint32_t
WarpProgram::tripsFor(std::size_t seg, std::uint32_t cta) const
{
    const Segment& s = segments_.at(seg);
    if (s.tripJitterPct == 0)
        return s.trips;
    // Deterministic per-CTA imbalance in [-jitter, +jitter] percent.
    const std::uint64_t h = mix64(cta + 0x5eedULL + seg * 131ULL);
    const std::int64_t span = 2LL * s.tripJitterPct + 1;
    const std::int64_t pct =
        static_cast<std::int64_t>(h % span) - s.tripJitterPct;
    std::int64_t trips =
        static_cast<std::int64_t>(s.trips) +
        static_cast<std::int64_t>(s.trips) * pct / 100;
    return trips < 1 ? 1 : static_cast<std::uint32_t>(trips);
}

std::uint64_t
WarpProgram::dynamicInstrCount(std::uint32_t cta) const
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        count += static_cast<std::uint64_t>(tripsFor(i, cta)) *
            segments_[i].instrs.size();
    }
    return count;
}

bool
WarpProgram::hasBarrier() const
{
    for (const Segment& s : segments_) {
        for (const Instr& instr : s.instrs) {
            if (instr.op == Opcode::Bar)
                return true;
        }
    }
    return false;
}

void
WarpProgram::validate() const
{
    if (segments_.empty())
        fatal("warp program: empty");
    if (regCount_ > kMaxWarpRegs)
        fatal("warp program: uses ", regCount_, " regs, scoreboard max ",
              kMaxWarpRegs);
    const bool has_bar = hasBarrier();
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const Segment& s = segments_[i];
        if (s.instrs.empty() && s.trips > 0)
            fatal("warp program: segment ", i, " has no instructions");
        if (has_bar && s.tripJitterPct != 0)
            fatal("warp program: barrier programs cannot use trip jitter");
        for (const Instr& instr : s.instrs) {
            if (instr.activeLanes == 0 || instr.activeLanes > kWarpSize)
                fatal("warp program: bad activeLanes ",
                      int(instr.activeLanes));
            if (isMemory(instr.op)) {
                if (instr.patternId >= patterns_.size())
                    fatal("warp program: memory op references pattern ",
                          int(instr.patternId), " of ", patterns_.size());
                const MemPattern& p = patterns_[instr.patternId];
                const bool shared_op = instr.op == Opcode::LdShared ||
                    instr.op == Opcode::StShared;
                if (shared_op != (p.space == MemSpace::Shared))
                    fatal("warp program: op/pattern space mismatch");
            }
            if (isLoad(instr.op) && instr.dst == kNoReg)
                fatal("warp program: load without destination register");
        }
    }
}

void
ProgramCursor::advance(const WarpProgram& prog, std::uint32_t cta)
{
    const auto& segs = prog.segments();
    ++pc;
    if (pc < segs[seg].instrs.size())
        return;
    pc = 0;
    ++trip;
    if (trip < prog.tripsFor(seg, cta))
        return;
    trip = 0;
    ++seg;
    // Skip zero-trip segments.
    while (seg < segs.size() && prog.tripsFor(seg, cta) == 0)
        ++seg;
}

void
ProgramCursor::init(const WarpProgram& prog, std::uint32_t cta)
{
    reset();
    while (seg < prog.segments().size() && prog.tripsFor(seg, cta) == 0)
        ++seg;
}

bool
ProgramCursor::done(const WarpProgram& prog) const
{
    return seg >= prog.segments().size();
}

} // namespace bsched
