/**
 * @file
 * Shared test fixture: a randomized but reproducible kernel and the
 * small three-core machine the property and golden tests run it on.
 */

#ifndef BSCHED_TESTS_RANDOM_KERNEL_HH
#define BSCHED_TESTS_RANDOM_KERNEL_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"
#include "kernel/kernel_info.hh"
#include "kernel/program_builder.hh"
#include "sim/rng.hh"

namespace bsched {

inline GpuConfig
smallMachine(WarpSchedKind warp, CtaSchedKind cta)
{
    GpuConfig c = makeConfig(warp, cta);
    c.numCores = 3;
    c.numMemPartitions = 2;
    return c;
}

/** A randomized but reproducible kernel drawn from @p seed. */
inline KernelInfo
randomKernel(std::uint64_t seed)
{
    Rng rng(seed);
    KernelInfo k;
    k.name = "rand" + std::to_string(seed);
    k.grid = {static_cast<std::uint32_t>(4 + rng.nextBelow(12)), 1, 1};
    k.cta = {static_cast<std::uint32_t>(32 * (1 + rng.nextBelow(4))), 1, 1};
    k.regsPerThread = static_cast<std::uint32_t>(8 + rng.nextBelow(24));
    ProgramBuilder b;
    MemPattern tile;
    tile.kind = AccessKind::CtaTile;
    tile.base = 0x40000000;
    tile.footprintBytes = 1024 << rng.nextBelow(4);
    const auto t = b.pattern(tile);
    MemPattern stream;
    stream.kind = AccessKind::Coalesced;
    stream.base = 0x80000000;
    const auto s = b.pattern(stream);
    const bool barrier = rng.nextBelow(2) == 0;
    b.loop(static_cast<std::uint32_t>(2 + rng.nextBelow(8)),
           barrier ? 0 : static_cast<std::uint32_t>(rng.nextBelow(30)));
    b.load(t).alu(static_cast<int>(1 + rng.nextBelow(5)));
    if (rng.nextBelow(2) == 0)
        b.load(s).alu(1);
    if (barrier)
        b.barrier();
    if (rng.nextBelow(2) == 0)
        b.store(s);
    b.endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

} // namespace bsched

#endif // BSCHED_TESTS_RANDOM_KERNEL_HH
