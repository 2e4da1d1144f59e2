/**
 * @file
 * Contract-layer tests: the BSCHED_CHECK/BSCHED_INVARIANT macros
 * themselves (gating, throw mode, compile-out) and one injected
 * violation per instrumented module proving its contract actually
 * fires. Violation tests run only in builds with contracts compiled in
 * (Debug or -DBSCHED_VALIDATE=ON) and skip elsewhere — the Release
 * tests below instead pin that contracts cost nothing when disabled.
 */

#include <gtest/gtest.h>

#include "core/ldst_unit.hh"
#include "core/scoreboard.hh"
#include "core/simt_core.hh"
#include "core/warp_sched.hh"
#include "cta/block_cta_sched.hh"
#include "cta/cta_sched.hh"
#include "cta/dyncta_sched.hh"
#include "cta/lazy_cta_sched.hh"
#include "gpu/gpu.hh"
#include "gpu/multi_kernel.hh"
#include "kernel/kernel_info.hh"
#include "kernel/program_builder.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/mem_partition.hh"
#include "mem/mshr.hh"
#include "serve/predictor.hh"
#include "serve/serve_trace.hh"
#include "sim/check.hh"

namespace bsched {
namespace {

#define SKIP_UNLESS_CHECKS()                                              \
    if (!checksEnabled())                                                 \
        GTEST_SKIP() << "contracts compiled out (Release without "        \
                        "BSCHED_VALIDATE)";

// --- macro semantics ----------------------------------------------------

TEST(Contracts, EnabledMatchesBuildConfiguration)
{
#if !defined(NDEBUG) || defined(BSCHED_VALIDATE)
    EXPECT_TRUE(checksEnabled());
    EXPECT_EQ(BSCHED_CHECKS_ENABLED, 1);
#else
    EXPECT_FALSE(checksEnabled());
    EXPECT_EQ(BSCHED_CHECKS_ENABLED, 0);
#endif
}

TEST(Contracts, PassingChecksAreSilentAndEvaluateOnce)
{
    int evals = 0;
    BSCHED_CHECK(++evals > 0, "never shown");
    BSCHED_INVARIANT(++evals > 0);
    BSCHED_DCHECK(++evals > 0);
    // Enabled: each condition evaluated exactly once. Disabled: the
    // expressions are parsed (sizeof) but never executed — this is the
    // zero-overhead guarantee Release builds rely on.
    EXPECT_EQ(evals, checksEnabled() ? 3 : 0);
}

TEST(Contracts, DisabledChecksDoNotEvaluateMessageArguments)
{
    int message_evals = 0;
    const auto expensive = [&message_evals] {
        ++message_evals;
        return std::string("costly");
    };
    // Disabled contracts drop message arguments at preprocessing time,
    // so reference the lambda explicitly to stay -Werror clean there.
    static_cast<void>(expensive);
    if (checksEnabled()) {
        ScopedContractThrows guard;
        EXPECT_THROW(BSCHED_CHECK(false, expensive()), ContractViolation);
        EXPECT_EQ(message_evals, 1);
    } else {
        BSCHED_CHECK(false, expensive());
        EXPECT_EQ(message_evals, 0);
    }
}

TEST(Contracts, ViolationCarriesKindExpressionAndLocation)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    try {
        BSCHED_INVARIANT(1 + 1 == 3, "math broke: ", 42);
        FAIL() << "invariant did not fire";
    } catch (const ContractViolation& violation) {
        EXPECT_EQ(violation.kind(), "invariant");
        EXPECT_EQ(violation.expression(), "1 + 1 == 3");
        const std::string what = violation.what();
        EXPECT_NE(what.find("test_contracts.cc"), std::string::npos);
        EXPECT_NE(what.find("math broke: 42"), std::string::npos);
    }
}

TEST(Contracts, ScopedThrowModeRestoresPreviousSetting)
{
    EXPECT_FALSE(contractThrows());
    {
        ScopedContractThrows outer;
        EXPECT_TRUE(contractThrows());
        {
            ScopedContractThrows inner;
            EXPECT_TRUE(contractThrows());
        }
        EXPECT_TRUE(contractThrows());
    }
    EXPECT_FALSE(contractThrows());
}

// --- violation injection, one per instrumented module -------------------

TEST(ContractViolations, MshrDoubleFillFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    MshrFile mshr(4, 2, "t");
    ASSERT_EQ(mshr.allocate(0x1000, 7), MshrOutcome::NewEntry);
    EXPECT_EQ(mshr.complete(0x1000).size(), 1u); // legitimate fill
    // Second fill of the same line: the entry is gone, the fetch was
    // duplicated somewhere upstream.
    EXPECT_THROW(mshr.complete(0x1000), ContractViolation);
}

TEST(ContractViolations, ScoreboardDoubleReleaseFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    Scoreboard sb;
    sb.setPendingUntilRelease(3);
    sb.release(3, 10); // paired release
    EXPECT_THROW(sb.release(3, 11), ContractViolation);
}

TEST(ContractViolations, ScoreboardDoubleAcquireFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    Scoreboard sb;
    sb.setPendingUntilRelease(5);
    EXPECT_THROW(sb.setPendingUntilRelease(5), ContractViolation);
}

TEST(ContractViolations, CtaSlotLeakFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;

    GpuConfig config = GpuConfig::gtx480();
    config.maxCtasPerCore = 1; // one slot: the second launch must leak
    SimtCore core(config, 0);

    KernelInfo kernel;
    kernel.name = "slots";
    kernel.grid = {4, 1, 1};
    kernel.cta = {64, 1, 1};
    kernel.regsPerThread = 16;
    ProgramBuilder b;
    b.loop(64).alu(2, false).endLoop();
    kernel.program = b.build();
    kernel.validate();

    core.launchCta(0, kernel, 0, 0, 0);
    ASSERT_FALSE(core.canAccept(kernel));
    EXPECT_THROW(core.launchCta(0, kernel, 0, 1, 1), ContractViolation);
}

TEST(ContractViolations, CacheDoubleFillFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    TagArray tags(CacheConfig{}, "t");
    tags.fill(0x2000, 1);
    EXPECT_THROW(tags.fill(0x2000, 2), ContractViolation);
}

TEST(ContractViolations, LcsCtaDoneWithoutKernelInfoFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    GpuConfig config = GpuConfig::gtx480();
    config.ctaSched = CtaSchedKind::Lazy;
    LazyCtaScheduler lcs(config);
    CtaDoneEvent event;
    event.coreId = 0;
    event.kernelId = 0;
    event.info = nullptr; // the contract input LCS depends on
    CoreList cores;
    EXPECT_THROW(lcs.notifyCtaDone(0, event, cores), ContractViolation);
}

TEST(ContractViolations, DispatchPastEndOfGridFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;

    GpuConfig config = GpuConfig::gtx480();
    // Expose the protected dispatch() boundary the policies share.
    struct Probe : RoundRobinCtaScheduler
    {
        using RoundRobinCtaScheduler::dispatch;
        using RoundRobinCtaScheduler::RoundRobinCtaScheduler;
    } sched(config);

    KernelInfo kernel;
    kernel.name = "grid";
    kernel.grid = {1, 1, 1};
    kernel.cta = {32, 1, 1};
    kernel.regsPerThread = 16;
    ProgramBuilder b;
    b.alu(2, false);
    kernel.program = b.build();
    kernel.validate();

    KernelInstance inst;
    inst.info = &kernel;
    inst.id = 0;
    inst.nextCta = kernel.gridCtas(); // grid exhausted
    SimtCore core(config, 0);
    EXPECT_THROW(sched.dispatch(0, inst, core, 0), ContractViolation);
}

TEST(ContractViolations, DramPopWithoutResponseFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    DramChannel dram(DramConfig{}, 128, 1, "t");
    ASSERT_FALSE(dram.responseReady(0));
    EXPECT_THROW(dram.popResponse(0), ContractViolation);
}

TEST(ContractViolations, InterconnectPopWithoutRequestFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    Interconnect noc(GpuConfig::gtx480());
    ASSERT_FALSE(noc.requestReady(0, 0));
    EXPECT_THROW(noc.popRequest(0, 0), ContractViolation);
}

TEST(ContractViolations, InterconnectPopWithoutResponseFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    Interconnect noc(GpuConfig::gtx480());
    ASSERT_FALSE(noc.responseReady(0, 0));
    EXPECT_THROW(noc.popResponse(0, 0), ContractViolation);
}

TEST(ContractViolations, MemPartitionPopWithoutResponseFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    MemPartition partition(GpuConfig::gtx480(), 0);
    ASSERT_FALSE(partition.responseReady());
    EXPECT_THROW(partition.popResponse(), ContractViolation);
}

TEST(ContractViolations, DynctaTargetOutOfRangeFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    const GpuConfig config = GpuConfig::gtx480();
    DynctaScheduler dyncta(config);
    EXPECT_THROW(dyncta.target(config.numCores), ContractViolation);
}

TEST(ContractViolations, PredictorZeroRuntimeCompletionFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    RuntimePredictor predictor;
    EXPECT_THROW(predictor.recordCompletion("w", 0), ContractViolation);
}

TEST(ContractViolations, PredictorAccuracyZeroActualFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    PredictorAccuracy accuracy;
    EXPECT_THROW(accuracy.record("w", 100, 0), ContractViolation);
}

TEST(ContractViolations, ServeAuditOutOfOrderDecisionFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    ServeAudit audit;
    ServeDecision decision;
    decision.cycle = 10;
    audit.record(decision);
    decision.cycle = 5; // audit log must stay in cycle order
    EXPECT_THROW(audit.record(decision), ContractViolation);
}

TEST(ContractViolations, LdstEmptyBatchFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    LdstUnit ldst(GpuConfig::gtx480(), 0);
    EXPECT_THROW(ldst.pushBatch(0, 0, kNoReg, false, {}),
                 ContractViolation);
}

TEST(ContractViolations, GpuDrainUnknownKernelFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    Gpu gpu(GpuConfig::gtx480());
    EXPECT_THROW(gpu.requestDrain(0, true), ContractViolation);
}

TEST(ContractViolations, WarpSchedEmptyReadySetFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    const std::vector<int> ready;
    const std::vector<Warp> warps;
    LrrScheduler lrr;
    EXPECT_THROW(lrr.pick(ready, warps), ContractViolation);
    GtoScheduler gto;
    EXPECT_THROW(gto.pick(ready, warps), ContractViolation);
    TwoLevelScheduler two_level(8);
    EXPECT_THROW(two_level.pick(ready, warps), ContractViolation);
    BawsScheduler baws;
    EXPECT_THROW(baws.pick(ready, warps), ContractViolation);
}

TEST(ContractViolations, MultiKernelZeroIsolatedCyclesFires)
{
    SKIP_UNLESS_CHECKS();
    ScopedContractThrows guard;
    // The baseline is checked before anything is simulated.
    const KernelInfo k;
    const std::vector<Cycle> isolated = {0};
    EXPECT_THROW(runMultiKernel(GpuConfig::gtx480(), {&k},
                                MultiKernelPolicy::Sequential, {},
                                &isolated),
                 ContractViolation);
}

// --- fast-forward soundness regressions ---------------------------------

TEST(FfSoundness, GreedySchedulersDeclareEventDriven)
{
    // RoundRobin and Block opt into kCycleNever *explicitly* (the
    // ff-soundness analysis pass rejects a silent inherit): their
    // dispatch eligibility only changes on CTA completions, which end
    // a fast-forwarded span anyway.
    const GpuConfig config = GpuConfig::gtx480();
    const std::vector<KernelInstance> kernels;
    const CoreList cores;
    RoundRobinCtaScheduler rr(config);
    EXPECT_EQ(rr.nextEventCycle(0, kernels, cores), kCycleNever);
    BlockCtaScheduler block(config);
    EXPECT_EQ(block.nextEventCycle(123, kernels, cores), kCycleNever);
}

} // namespace
} // namespace bsched
