/**
 * @file
 * Idle fast-forward equivalence suite: eliding provably-quiet cycles
 * must be invisible in every serialized artifact. Each test runs the
 * same simulation with fast-forward on and off and compares the
 * concatenated `bsched-run-v1` + `bsched-profile-v1` +
 * `bsched-memprofile-v1` bytes — across all four warp schedulers, the
 * LCS/BCS/DynCTA CTA schedulers, multi-kernel policies and harness job
 * counts. Also holds the regression tests for the launchKernel
 * core-range validation and response-injection fairness fixes that
 * shipped with the fast-forward work.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gpu/multi_kernel.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/mem_profile.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"

namespace bsched {
namespace {

/** Small mixed load/ALU kernel with barriers of memory idleness. */
KernelInfo
ffKernel(const std::string& name, std::uint32_t grid_ctas = 12)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid_ctas, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(4).load(i).alu(3).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/**
 * Streaming load/ALU/store kernel (the backprop shape): the store at
 * the loop tail sits behind a fixed-latency ALU chain, so its
 * scoreboard clears at an exact future cycle with no structural
 * refusal in sight — the case a next-event estimate is most tempted
 * to skip. Saturating enough to keep the memory system busy.
 */
KernelInfo
ffStoreKernel(const std::string& name, std::uint32_t grid_ctas = 16)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid_ctas, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    MemPattern out;
    out.kind = AccessKind::Coalesced;
    out.base = 0x1000000 + (1u << 26);
    const auto i = b.pattern(in);
    const auto o = b.pattern(out);
    b.loop(8).load(i).alu(6).store(o).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/**
 * Shared-memory kernel: a 16-way bank-conflicted shared load keeps the
 * shared-memory port busy past the scoreboard wake of another warp's
 * shared store, which waits on an SFU result. That warp's stall
 * category turns from `pipeline` to `mem_structural` mid-span unless
 * the span ends at its scoreboard wake.
 */
KernelInfo
ffSharedKernel(const std::string& name, std::uint32_t grid_ctas = 12)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid_ctas, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    MemPattern sh;
    sh.kind = AccessKind::SharedBank;
    sh.space = MemSpace::Shared;
    sh.bankStride = 16;
    const auto i = b.pattern(in);
    const auto s = b.pattern(sh);
    b.loop(8).load(i).alu(2).loadShared(s).sfu(1).storeShared(s).endLoop();
    k.program = b.build();
    k.validate();
    return k;
}

/** Shrunk machine: quick runs, still multi-core and multi-partition. */
GpuConfig
smallConfig(WarpSchedKind warp_sched, CtaSchedKind cta_sched)
{
    GpuConfig config = makeConfig(warp_sched, cta_sched);
    config.numCores = 2;
    config.numMemPartitions = 2;
    return config;
}

/**
 * Run @p kernel with the full profiling stack attached and serialize
 * everything observable: the run artifact (stats + sampled series),
 * the cycle-accounting profile and the memory profile.
 */
std::string
artifactBytes(GpuConfig config, const KernelInfo& kernel, bool fast_forward)
{
    config.fastForward = fast_forward;
    IntervalSampler sampler(64);
    CycleProfiler profiler;
    MemProfiler mem_profiler;
    Observer obs;
    obs.sampler = &sampler;
    obs.profiler = &profiler;
    obs.memProfiler = &mem_profiler;
    const RunResult result = runKernel(config, kernel, obs);

    std::ostringstream os;
    writeRunJson(os, result, kernel.name, &sampler);
    writeProfileJson(os, profiler, kernel.name);
    writeMemProfileJson(os, mem_profiler, kernel.name);
    return os.str();
}

TEST(FastForwardEquivalence, AllWarpSchedulers)
{
    // The shared-memory kernel is the regression for a quiet span that
    // ran past a shared op's scoreboard wake to the port's free cycle
    // and so replayed the warp's earlier stall category.
    for (const KernelInfo& kernel :
         {ffKernel("ff_warp"), ffSharedKernel("ff_shared")}) {
        for (WarpSchedKind ws :
             {WarpSchedKind::LRR, WarpSchedKind::GTO,
              WarpSchedKind::TwoLevel, WarpSchedKind::BAWS}) {
            const GpuConfig config =
                smallConfig(ws, CtaSchedKind::RoundRobin);
            EXPECT_EQ(artifactBytes(config, kernel, true),
                      artifactBytes(config, kernel, false))
                << kernel.name << " under warp scheduler " << toString(ws);
        }
    }
}

TEST(FastForwardEquivalence, StoreHeavyKernels)
{
    // Regression for the store-path off-by-one: a warp whose scoreboard
    // clears exactly at the first elidable cycle (a store behind an ALU
    // chain) must pin the core's next-event estimate. The bug only
    // surfaced under schedulers whose pick depends on readiness timing,
    // so sweep all of them.
    const KernelInfo kernel = ffStoreKernel("ff_store");
    for (WarpSchedKind ws :
         {WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
          WarpSchedKind::BAWS}) {
        const GpuConfig config = smallConfig(ws, CtaSchedKind::RoundRobin);
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "warp scheduler " << toString(ws);
    }
}

TEST(FastForwardEquivalence, AllCtaSchedulers)
{
    const KernelInfo kernel = ffKernel("ff_cta");
    for (CtaSchedKind cs :
         {CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
          CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic}) {
        const GpuConfig config = smallConfig(WarpSchedKind::GTO, cs);
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "cta scheduler " << toString(cs);
    }
}

TEST(FastForwardEquivalence, LcsFixedWindowDeadlines)
{
    // FixedCycles windows close at exact deadlines that can fall in the
    // middle of an otherwise quiet stretch; the scheduler's next-event
    // estimate must wake the GPU for them.
    const KernelInfo kernel = ffKernel("ff_lcs_window");
    for (CtaSchedKind cs : {CtaSchedKind::Lazy, CtaSchedKind::LazyBlock}) {
        GpuConfig config = smallConfig(WarpSchedKind::GTO, cs);
        config.lcs.windowMode = LcsWindowMode::FixedCycles;
        config.lcs.fixedWindowCycles = 300;
        EXPECT_EQ(artifactBytes(config, kernel, true),
                  artifactBytes(config, kernel, false))
            << "cta scheduler " << toString(cs);
    }
}

/** Serialize everything observable about a multi-kernel run. */
std::string
multiKernelBytes(GpuConfig config, const KernelInfo& a, const KernelInfo& b,
                 MultiKernelPolicy policy, bool fast_forward)
{
    config.fastForward = fast_forward;
    const MultiKernelReport report =
        runMultiKernel(config, {&a, &b}, policy);
    std::ostringstream os;
    os << toString(policy) << " total=" << report.totalCycles << "\n";
    for (Cycle c : report.isolatedCycles)
        os << c << ",";
    for (Cycle c : report.sharedCycles)
        os << c << ",";
    os << "\n";
    writeStatsJson(os, report.stats);
    return os.str();
}

TEST(FastForwardEquivalence, MultiKernelPolicies)
{
    const KernelInfo a = ffKernel("ff_mck_a", 10);
    const KernelInfo b = ffKernel("ff_mck_b", 6);
    const GpuConfig config = smallConfig(WarpSchedKind::GTO,
                                         CtaSchedKind::Lazy);
    for (MultiKernelPolicy policy :
         {MultiKernelPolicy::Sequential, MultiKernelPolicy::Spatial,
          MultiKernelPolicy::Mixed}) {
        EXPECT_EQ(multiKernelBytes(config, a, b, policy, true),
                  multiKernelBytes(config, a, b, policy, false))
            << "policy " << toString(policy);
    }
}

TEST(FastForwardEquivalence, JobCountsAndBenchReports)
{
    // The bsched-bench-v1 report must be byte-identical across
    // fast-forward on/off and across --jobs counts, in any combination.
    const KernelInfo kernel = ffKernel("ff_jobs");
    GpuConfig config = smallConfig(WarpSchedKind::BAWS, CtaSchedKind::Block);

    std::vector<std::string> reports;
    for (bool ff : {true, false}) {
        config.fastForward = ff;
        for (unsigned jobs : {1u, 4u}) {
            const auto sweep =
                oracleStaticBest(config, {kernel}, jobs)[0].byLimit;
            BenchReport report("ff_jobs");
            for (std::size_t n = 0; n < sweep.size(); ++n)
                report.addRow("limit" + std::to_string(n + 1), sweep[n]);
            reports.push_back(report.toJson());
        }
    }
    for (std::size_t r = 1; r < reports.size(); ++r)
        EXPECT_EQ(reports[0], reports[r]) << "variant " << r;
}

TEST(LaunchKernel, RejectsEmptyOrInvertedCoreRange)
{
    const KernelInfo kernel = ffKernel("ff_range");
    const GpuConfig config = smallConfig(WarpSchedKind::GTO,
                                         CtaSchedKind::RoundRobin);
    // Empty range: end == begin leaves no core.
    EXPECT_DEATH(
        {
            Gpu gpu(config);
            gpu.launchKernel(kernel, 1, 1);
        },
        "empty core range");
    // Inverted range: end < begin.
    EXPECT_DEATH(
        {
            Gpu gpu(config);
            gpu.launchKernel(kernel, 1, 0);
        },
        "empty core range");
    // A negative end still means "all cores" and must keep working.
    Gpu gpu(config);
    gpu.launchKernel(kernel, 1, -1);
    gpu.run();
    EXPECT_TRUE(gpu.finished());
}

TEST(ResponseInjection, RotationBoundsRequestLatencyUnderContention)
{
    // One core fed by four partitions through capacity-limited response
    // channels: with a fixed partition-0-first injection order, a
    // saturated channel lets low-numbered partitions starve the rest,
    // growing the worst-case latency far beyond the mean. The rotating
    // order bounds every request's wait to roughly its fair share.
    GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                  CtaSchedKind::RoundRobin);
    config.numCores = 1;
    config.numMemPartitions = 4;

    KernelInfo k;
    k.name = "hot_core";
    k.grid = {8, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x4000000;
    const auto i = b.pattern(in);
    b.loop(8).load(i).alu(1).endLoop();
    k.program = b.build();
    k.validate();

    MemProfiler profiler;
    Observer obs;
    obs.memProfiler = &profiler;
    const RunResult result = runKernel(config, k, obs);
    ASSERT_GT(result.cycles, 0u);

    const StageProfile total = profiler.total();
    ASSERT_GT(total.completed(), 0u);
    // Worst case stays within a small multiple of the mean — starvation
    // shows up as a max tens of times the mean.
    EXPECT_LT(static_cast<double>(total.endToEnd.max()),
              8.0 * total.endToEnd.mean())
        << "max " << total.endToEnd.max() << " mean "
        << total.endToEnd.mean();
}

} // namespace
} // namespace bsched
