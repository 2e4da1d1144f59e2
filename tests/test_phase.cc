/**
 * @file
 * Tests for the phase telemetry: window conservation across all warp
 * schedulers, detector segmentation semantics (stability, backdated
 * commits, transient absorption), artifact byte-determinism across
 * fast-forward settings and repeats, the sampler gauges, and the E20
 * acceptance that the phased composite shows at least two machine
 * phases.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/phase/phase.hh"
#include "obs/sampler.hh"
#include "workloads/suite.hh"

namespace bsched {
namespace {

GpuConfig
cfg(WarpSchedKind warp = WarpSchedKind::GTO)
{
    GpuConfig c = makeConfig(warp, CtaSchedKind::RoundRobin);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "phased_test";
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Strided;
    in.strideElems = 8;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(24).load(i).alu(3).endLoop();
    k.program = b.build();
    return k;
}

PhaseConfig
smallWindows()
{
    PhaseConfig pc;
    pc.windowCycles = 256;
    return pc;
}

/**
 * Conservation: the per-window deltas are a complete partition of the
 * run — summing them reproduces the final totals, and the last window
 * ends exactly at the final cycle — for every warp-scheduler kind.
 */
TEST(PhaseTelemetry, WindowDeltasSumToRunTotals)
{
    for (const WarpSchedKind warp :
         {WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
          WarpSchedKind::BAWS}) {
        PhaseTelemetry phase(smallWindows());
        Observer obs;
        obs.phase = &phase;
        const RunResult r = runKernel(cfg(warp), kernel(), obs);

        const WindowedMetrics& m = phase.metrics();
        ASSERT_GE(m.windows(), 2u);
        EXPECT_EQ(m.endCycles().back(), r.cycles);

        std::uint64_t instrs = 0;
        for (const std::uint64_t d : m.instrDeltas())
            instrs += d;
        EXPECT_EQ(instrs, r.instrs);

        std::uint64_t l1 = 0;
        for (const std::uint64_t d : m.l1AccessDeltas())
            l1 += d;
        EXPECT_EQ(static_cast<double>(l1),
                  r.stats.sumBySuffix(".l1d.access"));
    }
}

TEST(PhaseDetector, StableStreamIsOnePhase)
{
    PhaseDetector d(PhaseConfig{}, {1});
    for (std::size_t w = 0; w < 20; ++w)
        EXPECT_FALSE(d.observe(w, {10.0}));
    ASSERT_EQ(d.phases().size(), 1u);
    EXPECT_EQ(d.phases()[0].startWindow, 0u);
    EXPECT_EQ(d.phases()[0].windows, 20u);
    EXPECT_DOUBLE_EQ(d.phases()[0].mean[0], 10.0);
}

TEST(PhaseDetector, StepChangeCommitsBackdated)
{
    PhaseConfig pc;
    pc.hysteresis = 2;
    PhaseDetector d(pc, {1});
    for (std::size_t w = 0; w < 10; ++w)
        d.observe(w, {10.0});
    EXPECT_FALSE(d.observe(10, {2.0})); // first deviation: pending only
    EXPECT_TRUE(d.observe(11, {2.0}));  // second commits, backdated
    ASSERT_EQ(d.phases().size(), 2u);
    EXPECT_EQ(d.phases()[1].startWindow, 10u);
    EXPECT_DOUBLE_EQ(d.phases()[1].mean[0], 2.0);
    EXPECT_EQ(d.currentPhase(), 1u);
}

TEST(PhaseDetector, SingleBlipIsAbsorbed)
{
    PhaseConfig pc;
    pc.hysteresis = 2;
    PhaseDetector d(pc, {1});
    for (std::size_t w = 0; w < 10; ++w)
        d.observe(w, {10.0});
    EXPECT_FALSE(d.observe(10, {2.0})); // transient…
    EXPECT_FALSE(d.observe(11, {10.0})); // …returns in-band
    for (std::size_t w = 12; w < 20; ++w)
        EXPECT_FALSE(d.observe(w, {10.0}));
    ASSERT_EQ(d.phases().size(), 1u);
    // The blip never polluted the reference mean.
    EXPECT_DOUBLE_EQ(d.phases()[0].mean[0], 10.0);
}

TEST(PhaseDetector, AbsoluteChannelUsesAbsThreshold)
{
    PhaseConfig pc;
    pc.absThreshold = 0.08;
    pc.hysteresis = 1;
    PhaseDetector d(pc, {0});
    d.observe(0, {0.01});
    // +0.05 absolute is in-band even though it is 5x relative.
    EXPECT_FALSE(d.observe(1, {0.06}));
    // Reference mean is now (0.01 + 0.06) / 2 = 0.035.
    EXPECT_TRUE(d.observe(2, {0.20}));
    EXPECT_EQ(d.phases().size(), 2u);
}

/** The artifact is byte-identical across fast-forward settings and
 *  repeated runs (the phase_gate ctest re-checks this across --jobs too). */
TEST(PhaseTelemetry, ArtifactBytesIndependentOfFastForward)
{
    const KernelInfo k = kernel();
    auto artifact = [&](bool fast_forward) {
        GpuConfig c = cfg();
        c.fastForward = fast_forward;
        PhaseTelemetry phase(smallWindows());
        Observer obs;
        obs.phase = &phase;
        runKernel(c, k, obs);
        std::ostringstream os;
        writePhaseJson(os, phase, "test/phase");
        return os.str();
    };
    const std::string ff_on = artifact(true);
    const std::string ff_off = artifact(false);
    const std::string again = artifact(true);
    EXPECT_EQ(ff_on, ff_off);
    EXPECT_EQ(ff_on, again);
    EXPECT_NE(ff_on.find("\"schema\": \"bsched-phase-v1\""),
              std::string::npos);
}

/** Attaching the telemetry must not change the simulation itself. */
TEST(PhaseTelemetry, AttachmentDoesNotPerturbTheRun)
{
    const KernelInfo k = kernel();
    const RunResult bare = runKernel(cfg(), k);
    PhaseTelemetry phase(smallWindows());
    Observer obs;
    obs.phase = &phase;
    const RunResult observed = runKernel(cfg(), k, obs);
    EXPECT_EQ(bare.cycles, observed.cycles);
    EXPECT_EQ(bare.instrs, observed.instrs);
}

TEST(PhaseTelemetry, SamplerCarriesPhaseGauges)
{
    PhaseTelemetry phase(smallWindows());
    IntervalSampler sampler(256);
    Observer obs;
    obs.phase = &phase;
    obs.sampler = &sampler;
    runKernel(cfg(), kernel(), obs);
    ASSERT_NE(sampler.find("phase.current"), nullptr);
    ASSERT_NE(sampler.find("phase.count"), nullptr);
    EXPECT_EQ(sampler.find("phase.current")->kind, SeriesKind::Gauge);
    // The final sample reflects the committed machine segmentation.
    EXPECT_DOUBLE_EQ(sampler.last("phase.count"),
                     static_cast<double>(phase.machine().phases().size()));
}

/** E20 acceptance: the phased composite splits into >= 2 machine
 *  phases on the full machine under GTO (the fig_phase setup). */
TEST(PhaseTelemetry, PhasedWorkloadShowsAtLeastTwoMachinePhases)
{
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::Lazy);
    PhaseTelemetry phase;
    Observer obs;
    obs.phase = &phase;
    runKernel(config, makeWorkload("phased"), obs);
    EXPECT_GE(phase.machine().phases().size(), 2u);
    EXPECT_GE(phase.metrics().windows(), 4u);
}

} // namespace
} // namespace bsched
