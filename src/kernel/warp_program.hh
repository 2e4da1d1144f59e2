/**
 * @file
 * Loop-structured warp programs. All warps of a kernel execute the same
 * program: a sequence of segments, each repeated for a trip count. Trip
 * counts may vary deterministically per CTA (work imbalance), except in
 * programs containing barriers.
 */

#ifndef BSCHED_KERNEL_WARP_PROGRAM_HH
#define BSCHED_KERNEL_WARP_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "isa/instr.hh"
#include "kernel/mem_pattern.hh"

namespace bsched {

/** A straight-line block of instructions repeated @c trips times. */
struct Segment
{
    std::vector<Instr> instrs;
    std::uint32_t trips = 1;
    /**
     * Per-CTA trip variation in percent: CTA c runs
     * trips * (1 +- jitter), deterministically hashed from c. Must be 0
     * when the segment (or any segment of the program) contains Bar.
     */
    std::uint32_t tripJitterPct = 0;

    bool operator==(const Segment&) const = default;
};

/** The complete per-warp instruction stream plus its pattern table. */
class WarpProgram
{
  public:
    /** Append a segment; returns its index. */
    std::size_t addSegment(Segment segment);

    /** Register a memory pattern; returns its patternId. */
    std::uint8_t addPattern(MemPattern pattern);

    const std::vector<Segment>& segments() const { return segments_; }
    const std::vector<MemPattern>& patterns() const { return patterns_; }

    const MemPattern& pattern(std::uint8_t id) const;

    /** Number of distinct virtual registers referenced (scoreboard size). */
    int regCount() const { return regCount_; }

    /** Effective trip count of @p seg for CTA @p cta (jitter applied). */
    std::uint32_t tripsFor(std::size_t seg, std::uint32_t cta) const;

    /** Total dynamic instructions one warp of CTA @p cta executes. */
    std::uint64_t dynamicInstrCount(std::uint32_t cta) const;

    /** True if any instruction is a barrier. */
    bool hasBarrier() const;

    /** Fatal() on malformed programs (bad regs, bad patterns, bar+jitter). */
    void validate() const;

    bool empty() const { return segments_.empty(); }

    bool operator==(const WarpProgram&) const = default;

  private:
    std::vector<Segment> segments_;
    std::vector<MemPattern> patterns_;
    int regCount_ = 0;
};

/**
 * A warp's dynamic position inside a program: (segment, trip, offset).
 * advance() steps through the loop structure; done() marks completion.
 */
struct ProgramCursor
{
    std::uint32_t seg = 0;
    std::uint32_t trip = 0;
    std::uint32_t pc = 0;

    /** Current instruction; program must not be done (bounds are
     *  guaranteed by advance()/done()). Inline: the issue stage reads it
     *  once per issued instruction. */
    const Instr&
    instr(const WarpProgram& prog) const
    {
        return prog.segments()[seg].instrs[pc];
    }

    /**
     * Iteration key for address generation: the trip index within the
     * current segment. Two memory instructions in one loop body thus share
     * a key per trip, which models intra-iteration reuse.
     */
    std::uint64_t iterKey() const { return trip; }

    /** Step past the current instruction. */
    void advance(const WarpProgram& prog, std::uint32_t cta);

    /** True when the program has been fully executed. */
    bool done(const WarpProgram& prog) const;

    /** Reset to program start. */
    void reset() { seg = trip = pc = 0; }

    /** Reset and skip any leading zero-trip segments for CTA @p cta. */
    void init(const WarpProgram& prog, std::uint32_t cta);
};

} // namespace bsched

#endif // BSCHED_KERNEL_WARP_PROGRAM_HH
