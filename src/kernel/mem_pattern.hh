/**
 * @file
 * Parametric address generators. A MemPattern describes how one static
 * memory instruction computes its 32 lane addresses as a function of
 * (ctaId, warpInCta, lane, iteration). These patterns are what give the
 * synthetic workloads their cache and DRAM behaviour:
 *
 *  - Coalesced:  streaming, one new line per warp access (BW-bound)
 *  - Strided:    uncoalesced, many lines per access (BW-amplified)
 *  - CtaTile:    each CTA re-walks a private tile (cache-capacity
 *                sensitive -> the paper's Type-3 behaviour)
 *  - HaloRows:   CTA i reads rows [i*R-H, (i+1)*R+H) (consecutive CTAs
 *                share 2H rows -> the inter-CTA locality BCS exploits)
 *  - Random:     hashed addresses over a large footprint (DRAM-bound)
 *  - Broadcast:  all lanes read one address (cache-friendly)
 *  - SharedBank: shared-memory access with a bank stride (conflicts)
 */

#ifndef BSCHED_KERNEL_MEM_PATTERN_HH
#define BSCHED_KERNEL_MEM_PATTERN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace bsched {

/** Address space the pattern targets. */
enum class MemSpace : std::uint8_t { Global, Shared };

/** Pattern family; see file comment. */
enum class AccessKind : std::uint8_t
{
    Coalesced,
    Strided,
    CtaTile,
    HaloRows,
    Random,
    Broadcast,
    SharedBank,
};

const char* toString(AccessKind kind);

/** Parameters of one address generator. */
struct MemPattern
{
    AccessKind kind = AccessKind::Coalesced;
    MemSpace space = MemSpace::Global;
    /** Base of the region this pattern addresses. */
    Addr base = 0;
    /** Bytes accessed per lane (typically 4 or 8). */
    std::uint32_t elemBytes = 4;
    /** Element stride between consecutive lanes (Strided). */
    std::uint32_t strideElems = 1;
    /** Per-CTA tile bytes (CtaTile) or total region bytes (Random). */
    std::uint64_t footprintBytes = 0;
    /** Row geometry for HaloRows. */
    std::uint32_t rowBytes = 0;
    std::uint32_t rowsPerCta = 0;
    std::uint32_t haloRows = 0;
    /** Bank stride for SharedBank (1 = conflict-free). */
    std::uint32_t bankStride = 1;

    /** Fatal() on inconsistent parameters. */
    void validate() const;

    bool operator==(const MemPattern&) const = default;
};

/** Launch geometry needed by the generators. */
struct KernelGeom
{
    std::uint32_t ctaThreads = 0; ///< threads per CTA
    std::uint32_t gridCtas = 0;   ///< CTAs in the grid
};

/**
 * Byte address touched by @p lane of warp @p warp_in_cta of CTA @p cta on
 * dynamic occurrence @p iter of the instruction. Deterministic and
 * stateless.
 */
Addr laneAddress(const MemPattern& pattern, const KernelGeom& geom,
                 std::uint32_t cta, std::uint32_t warp_in_cta,
                 std::uint32_t lane, std::uint64_t iter);

/**
 * Distinct line addresses generated by one warp access (the coalescer),
 * written into @p out (cleared first; its capacity is reused, so a
 * caller-owned buffer makes the access allocation-free).
 * @param active_lanes lanes participating (1..32).
 * @param line_bytes cache line size (power of two).
 * Result is capped at warp size and preserves first-touch order: it is
 * exactly the laneAddress() lines of lanes 0..active_lanes-1, each kept
 * at its first touch. Lane 0 is computed once and the other lanes step
 * from it, so an access pays its modulos once rather than once per lane:
 * Coalesced and Strided lanes are affine in the lane; CtaTile takes one
 * modulo of the tile index, then steps it and wraps it at the tile's end;
 * HaloRows computes the row once, then steps the column and wraps it at
 * the row's end. While affine lanes do not pass 2^64 they ascend, so
 * only the line pushed last can repeat, and lanes closer than a line
 * yield every line from lane 0's to the last lane's without visiting
 * each lane. Broadcast is one line, and Random hashes each lane. Lanes
 * that pass 2^64 or wrap inside the warp are deduplicated against every
 * line; lane arithmetic that would itself overflow takes the per-lane
 * laneAddress() path, which validate builds check every result against.
 */
void coalesce(const MemPattern& pattern, const KernelGeom& geom,
              std::uint32_t cta, std::uint32_t warp_in_cta,
              std::uint64_t iter, std::uint32_t active_lanes,
              std::uint32_t line_bytes, std::vector<Addr>& out);

/** As above, into a fresh vector. */
std::vector<Addr> coalesce(const MemPattern& pattern, const KernelGeom& geom,
                           std::uint32_t cta, std::uint32_t warp_in_cta,
                           std::uint64_t iter, std::uint32_t active_lanes,
                           std::uint32_t line_bytes);

/**
 * Shared-memory bank-conflict factor: the number of serialized wavefronts
 * for a 32-bank, 4B-word shared memory, given the pattern's bankStride
 * and the active lane count. Lane l hits bank (l * stride) mod 32, so
 * the banks repeat every 32 / gcd(stride, 32) lanes and the busiest bank
 * serves ceil(lanes / that period) of them.
 */
std::uint32_t sharedConflictFactor(const MemPattern& pattern,
                                   std::uint32_t active_lanes);

} // namespace bsched

#endif // BSCHED_KERNEL_MEM_PATTERN_HH
