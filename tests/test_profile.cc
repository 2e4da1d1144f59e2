/**
 * @file
 * Tests for the issue-slot cycle-accounting profiler: the conservation
 * invariant (categories sum exactly to activeCycles × slots) across
 * every warp-scheduler kind, agreement with the legacy two-bucket
 * stall accounting, non-perturbation of simulation results, kernel
 * attribution, the `bsched-profile-v1` export, and the bounded-growth
 * regression test for BawsScheduler's per-block rotation map.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/simt_core.hh"
#include "core/warp_sched.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"
#include "obs/json.hh"
#include "obs/profile.hh"

namespace bsched {
namespace {

GpuConfig
cfg(WarpSchedKind warp_sched,
    CtaSchedKind cta_sched = CtaSchedKind::RoundRobin)
{
    GpuConfig c = makeConfig(warp_sched, cta_sched);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

/** A mixed kernel: loads, ALU stretches, and a barrier per iteration. */
KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "profiled";
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Strided;
    in.strideElems = 8;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(4).load(i).alu(3).barrier().endLoop();
    k.program = b.build();
    return k;
}

RunResult
profiledRun(const GpuConfig& config, const KernelInfo& k,
            CycleProfiler& profiler)
{
    return runKernel(config, k, Observer{nullptr, nullptr, &profiler});
}

class ProfileConservation
    : public ::testing::TestWithParam<WarpSchedKind>
{};

/**
 * The tentpole invariant: on every core the six exclusive categories
 * sum to exactly activeCycles × schedulerSlots — every slot cycle is
 * accounted once and only once, for every warp-scheduler kind.
 */
TEST_P(ProfileConservation, CategoriesSumToActiveCyclesTimesSlots)
{
    const GpuConfig config = cfg(GetParam());
    CycleProfiler profiler;
    const RunResult result = profiledRun(config, kernel(), profiler);

    ASSERT_EQ(profiler.numCores(), config.numCores);
    ASSERT_EQ(profiler.slotsPerCore(), config.numSchedulersPerCore);
    std::uint64_t machine_slot_cycles = 0;
    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        const auto active = static_cast<std::uint64_t>(
            result.stats.require("core" + std::to_string(c) +
                                 ".active_cycles"));
        EXPECT_EQ(profiler.core(c).total(),
                  active * config.numSchedulersPerCore)
            << "core " << c;
        machine_slot_cycles += active * config.numSchedulersPerCore;
    }
    EXPECT_EQ(profiler.total().total(), machine_slot_cycles);
    EXPECT_GT(profiler.total()[SlotCat::Issued], 0u);
}

/**
 * The collapsed no-issue view must equal the legacy two-bucket
 * accounting exactly: stall_mem + stall_idle per core. DYNCTA steers by
 * those buckets, so this equality pins their semantics.
 */
TEST_P(ProfileConservation, NoIssueCyclesMatchLegacyTwoBucketStalls)
{
    const GpuConfig config = cfg(GetParam());
    CycleProfiler profiler;
    const RunResult result = profiledRun(config, kernel(), profiler);

    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        const std::string prefix = "core" + std::to_string(c);
        const double legacy = result.stats.require(prefix + ".stall_mem") +
            result.stats.require(prefix + ".stall_idle");
        EXPECT_EQ(static_cast<double>(profiler.noIssueCycles(c)), legacy)
            << "core " << c;
    }
}

/** Attaching the profiler must not change what is simulated. */
TEST_P(ProfileConservation, DoesNotPerturbSimulationResults)
{
    const GpuConfig config = cfg(GetParam());
    const KernelInfo k = kernel();
    const RunResult bare = runKernel(config, k);
    CycleProfiler profiler;
    const RunResult profiled = profiledRun(config, k, profiler);

    EXPECT_EQ(bare.cycles, profiled.cycles);
    EXPECT_EQ(bare.instrs, profiled.instrs);
    EXPECT_EQ(bare.ipc, profiled.ipc);
    EXPECT_EQ(bare.stats.entries(), profiled.stats.entries());
}

INSTANTIATE_TEST_SUITE_P(
    AllWarpSchedulers, ProfileConservation,
    ::testing::Values(WarpSchedKind::LRR, WarpSchedKind::GTO,
                      WarpSchedKind::TwoLevel, WarpSchedKind::BAWS),
    [](const ::testing::TestParamInfo<WarpSchedKind>& info) {
        std::string name = toString(info.param);
        for (char& ch : name) {
            if (ch == '-')
                ch = '_';
        }
        return name;
    });

/**
 * Kernel attribution: every non-empty slot cycle belongs to exactly one
 * kernel, so per-kernel counts sum to the core totals minus `empty`
 * (which belongs to no kernel by construction).
 */
TEST(CycleProfiler, KernelCountsSumToTotalsMinusEmpty)
{
    const GpuConfig config = cfg(WarpSchedKind::GTO);
    CycleProfiler profiler;
    profiledRun(config, kernel(), profiler);

    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        SlotCounts from_kernels;
        for (const auto& [id, counts] : profiler.coreKernels(c)) {
            EXPECT_EQ(counts[SlotCat::Empty], 0u) << "kernel " << id;
            from_kernels.accumulate(counts);
        }
        const SlotCounts& total = profiler.core(c);
        for (std::size_t i = 0; i < kNumSlotCats; ++i) {
            const auto cat = static_cast<SlotCat>(i);
            if (cat == SlotCat::Empty)
                continue;
            EXPECT_EQ(from_kernels[cat], total[cat])
                << "core " << c << " " << toString(cat);
        }
    }
}

/** Two concurrent kernels both show up in the per-kernel aggregation. */
TEST(CycleProfiler, MultiKernelAttribution)
{
    const GpuConfig config = cfg(WarpSchedKind::GTO);
    const KernelInfo a = kernel();
    KernelInfo b = kernel();
    b.name = "profiled2";
    CycleProfiler profiler;
    Gpu gpu(config, Observer{nullptr, nullptr, &profiler});
    const int id_a = gpu.launchKernel(a);
    const int id_b = gpu.launchKernel(b);
    gpu.run();

    const auto totals = profiler.kernelTotals();
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_GT(totals.at(id_a)[SlotCat::Issued], 0u);
    EXPECT_GT(totals.at(id_b)[SlotCat::Issued], 0u);
}

/** The exported JSON parses, matches the schema, and is deterministic. */
TEST(ProfileJson, SchemaRoundTripAndDeterminism)
{
    const GpuConfig config = cfg(WarpSchedKind::GTO);
    const KernelInfo k = kernel();

    auto export_once = [&]() {
        CycleProfiler profiler;
        profiledRun(config, k, profiler);
        std::ostringstream os;
        writeProfileJson(os, profiler, "test/run");
        return os.str();
    };
    const std::string text = export_once();
    EXPECT_EQ(text, export_once()) << "export must be deterministic";

    const JsonValue doc = parseJson(text);
    EXPECT_EQ(doc.at("schema").asString(), "bsched-profile-v1");
    EXPECT_EQ(doc.at("label").asString(), "test/run");
    EXPECT_EQ(doc.at("warp_sched").asString(), toString(config.warpSched));
    EXPECT_EQ(doc.at("slots_per_core").asNumber(),
              config.numSchedulersPerCore);

    const auto& cats = doc.at("categories").asArray();
    ASSERT_EQ(cats.size(), kNumSlotCats);
    for (std::size_t i = 0; i < kNumSlotCats; ++i)
        EXPECT_EQ(cats[i].asString(), toString(static_cast<SlotCat>(i)));

    const auto& cores = doc.at("cores").asArray();
    ASSERT_EQ(cores.size(), config.numCores);
    double machine_sum = 0.0;
    for (const JsonValue& core : cores) {
        const auto& counts = core.at("counts").asObject();
        ASSERT_EQ(counts.size(), kNumSlotCats);
        double sum = 0.0;
        for (const auto& [name, value] : counts)
            sum += value.asNumber();
        EXPECT_EQ(sum, core.at("slot_cycles").asNumber());
        EXPECT_LE(core.at("no_issue_cycles").asNumber(),
                  core.at("slot_cycles").asNumber());
        machine_sum += sum;
        ASSERT_TRUE(core.at("kernels").isArray());
    }
    double total_sum = 0.0;
    for (const auto& [name, value] : doc.at("total").asObject())
        total_sum += value.asNumber();
    EXPECT_EQ(total_sum, machine_sum);
    ASSERT_TRUE(doc.at("kernels").isArray());
    EXPECT_EQ(doc.at("kernels").asArray().size(), 1u);
}

/** Reattaching one profiler to an identically-shaped machine is fine. */
TEST(CycleProfiler, AccumulatesAcrossSameShapeRuns)
{
    const GpuConfig config = cfg(WarpSchedKind::GTO);
    const KernelInfo k = kernel();
    CycleProfiler profiler;
    profiledRun(config, k, profiler);
    const std::uint64_t after_one = profiler.total().total();
    profiledRun(config, k, profiler);
    EXPECT_EQ(profiler.total().total(), 2 * after_one);
}

/**
 * Regression test for the BawsScheduler::rotate_ leak: per-block
 * rotation pointers must be pruned when a block's last CTA on the core
 * retires, so the map stays bounded by live residency across a long
 * run and is empty when the kernel drains.
 */
TEST(BawsScheduler, RotateMapStaysBoundedAndDrains)
{
    GpuConfig config = cfg(WarpSchedKind::BAWS, CtaSchedKind::Block);
    KernelInfo k = kernel();
    k.grid = {96, 1, 1}; // many blocks so an unbounded map would show
    const std::uint32_t max_ctas = maxCtasPerCore(config, k);

    Gpu gpu(config);
    gpu.launchKernel(k);
    auto baws_entries = [&](const SimtCore& core) {
        std::size_t most = 0;
        for (const auto& sched : core.schedulers()) {
            const auto* baws =
                dynamic_cast<const BawsScheduler*>(sched.get());
            EXPECT_NE(baws, nullptr);
            if (baws != nullptr)
                most = std::max(most, baws->rotation().size());
        }
        return most;
    };
    std::size_t peak = 0;
    while (gpu.stepCycle()) {
        for (const auto& core : gpu.cores())
            peak = std::max(peak, baws_entries(*core));
    }
    EXPECT_GT(peak, 0u) << "BAWS never tracked a block";
    EXPECT_LE(peak, max_ctas)
        << "rotate_ outgrew the core's live-CTA bound";
    for (const auto& core : gpu.cores())
        EXPECT_EQ(baws_entries(*core), 0u) << "rotate_ not drained";
}

} // namespace
} // namespace bsched
