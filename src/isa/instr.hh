/**
 * @file
 * Static instruction record. Warps in a kernel share one program; the
 * per-warp dynamic state (PC, loop iteration) lives in the core's Warp
 * structure.
 */

#ifndef BSCHED_ISA_INSTR_HH
#define BSCHED_ISA_INSTR_HH

#include <cstdint>

#include "isa/opcode.hh"
#include "sim/types.hh"

namespace bsched {

/** Maximum virtual registers trackable per warp by the scoreboard. */
constexpr int kMaxWarpRegs = 64;

/** Sentinel register id meaning "no operand". */
constexpr std::int8_t kNoReg = -1;

/**
 * One static instruction. Register ids are warp-level virtual registers
 * (all lanes move in lock-step, so dependences are tracked per warp).
 */
struct Instr
{
    Opcode op = Opcode::Alu;
    std::int8_t dst = kNoReg;
    std::int8_t src0 = kNoReg;
    std::int8_t src1 = kNoReg;
    /** Index into the program's MemPattern table; memory ops only. */
    std::uint8_t patternId = 0;
    /** Lanes active under SIMT divergence (1..32). */
    std::uint8_t activeLanes = kWarpSize;

    bool operator==(const Instr&) const = default;
};

} // namespace bsched

#endif // BSCHED_ISA_INSTR_HH
