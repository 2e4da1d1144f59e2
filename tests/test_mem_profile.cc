/**
 * @file
 * Tests for the request-level memory profiler: the fixed-boundary
 * latency histogram, the request-lifecycle stage accounting and its two
 * conservation laws (per-stage cycles sum to end-to-end; histogram
 * totals equal completed requests), the unclosed-stage contract,
 * interference counting, non-perturbation of simulation results, and
 * byte-identity of the `bsched-memprofile-v1` export across repeats
 * and `--jobs` counts.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/json.hh"
#include "obs/mem_profile.hh"
#include "sim/check.hh"

namespace bsched {
namespace {

#define SKIP_UNLESS_CHECKS()                                              \
    if (!checksEnabled())                                                 \
        GTEST_SKIP() << "contracts compiled out (Release without "        \
                        "BSCHED_VALIDATE)";

GpuConfig
cfg(WarpSchedKind warp_sched = WarpSchedKind::GTO,
    CtaSchedKind cta_sched = CtaSchedKind::RoundRobin)
{
    GpuConfig c = makeConfig(warp_sched, cta_sched);
    c.numCores = 2;
    c.numMemPartitions = 2;
    return c;
}

/** A memory-heavy kernel: strided loads with reuse, several CTAs per
 *  core, so L1/L2 see misses, merges and evictions. */
KernelInfo
kernel()
{
    KernelInfo k;
    k.name = "memprofiled";
    k.grid = {12, 1, 1};
    k.cta = {64, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Strided;
    in.strideElems = 8;
    in.base = 0x1000000;
    const auto i = b.pattern(in);
    b.loop(4).load(i).alu(2).load(i).alu(1).endLoop();
    k.program = b.build();
    return k;
}

RunResult
profiledRun(const GpuConfig& config, const KernelInfo& k,
            MemProfiler& prof)
{
    Observer obs;
    obs.memProfiler = &prof;
    return runKernel(config, k, obs);
}

// --- LatencyHistogram ---------------------------------------------------

TEST(LatencyHistogram, BucketBoundariesArePowersOfTwo)
{
    // Bucket i covers (2^(i-1), 2^i]; 0 lands with 1 in bucket 0.
    EXPECT_EQ(LatencyHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(1), 0u);
    EXPECT_EQ(LatencyHistogram::bucketOf(2), 1u);
    EXPECT_EQ(LatencyHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(4), 2u);
    EXPECT_EQ(LatencyHistogram::bucketOf(5), 3u);
    EXPECT_EQ(LatencyHistogram::bucketOf(65536), 16u);
    EXPECT_EQ(LatencyHistogram::bucketOf(65537),
              LatencyHistogram::kFiniteBuckets); // overflow
    EXPECT_EQ(LatencyHistogram::bound(LatencyHistogram::kFiniteBuckets - 1),
              65536u);
}

TEST(LatencyHistogram, RecordTracksCountSumMinMaxMean)
{
    LatencyHistogram h;
    EXPECT_EQ(h.total(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);

    h.record(10);
    h.record(2);
    h.record(100000); // overflow bucket
    EXPECT_EQ(h.total(), 3u);
    EXPECT_EQ(h.sum(), 100012u);
    EXPECT_EQ(h.min(), 2u);
    EXPECT_EQ(h.max(), 100000u);
    EXPECT_DOUBLE_EQ(h.mean(), 100012.0 / 3.0);
    EXPECT_EQ(h.bucket(1), 1u);  // 2
    EXPECT_EQ(h.bucket(4), 1u);  // 10 in (8, 16]
    EXPECT_EQ(h.bucket(LatencyHistogram::kFiniteBuckets), 1u);

    std::uint64_t binned = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        binned += h.bucket(i);
    EXPECT_EQ(binned, h.total());
}

TEST(LatencyHistogram, AccumulateMergesAllMoments)
{
    LatencyHistogram a;
    LatencyHistogram b;
    a.record(4);
    b.record(2);
    b.record(300);

    LatencyHistogram empty;
    a.accumulate(empty); // no-op: min/max must survive
    EXPECT_EQ(a.min(), 4u);

    a.accumulate(b);
    EXPECT_EQ(a.total(), 3u);
    EXPECT_EQ(a.sum(), 306u);
    EXPECT_EQ(a.min(), 2u);
    EXPECT_EQ(a.max(), 300u);

    empty.accumulate(a); // accumulate into empty adopts min
    EXPECT_EQ(empty.min(), 2u);
    EXPECT_EQ(empty.total(), 3u);
}

// --- manual request lifecycle -------------------------------------------

TEST(MemProfiler, StageTransitionsAttributeEveryCycleOnce)
{
    MemProfiler prof;
    prof.onAttach(2);
    const std::int64_t cta = makeCtaKey(7, 3);
    const std::uint32_t id = prof.beginRequest(10, 1, 7, cta);
    ASSERT_NE(id, 0u);
    EXPECT_EQ(prof.ctaKeyOf(id), cta);
    EXPECT_EQ(prof.begunRequests(), 1u);
    EXPECT_EQ(prof.outstandingRequests(), 1u);

    prof.enterStage(id, MemStage::NocRequest, 15);  // core_q: 5
    prof.enterStage(id, MemStage::L2Queue, 22);     // noc_req: 7
    prof.enterStage(id, MemStage::DramQueue, 25);   // l2_q: 3
    prof.enterStage(id, MemStage::DramService, 75); // dram_q: 50
    prof.enterStage(id, MemStage::L2Return, 95);    // dram_svc: 20
    prof.enterStage(id, MemStage::NocResponse, 99); // l2_ret: 4
    prof.endRequest(id, 110);                       // noc_resp: 11

    EXPECT_EQ(prof.completedRequests(), 1u);
    EXPECT_EQ(prof.outstandingRequests(), 0u);
    EXPECT_EQ(prof.ctaKeyOf(id), -1); // record retired

    const StageProfile total = prof.total();
    EXPECT_EQ(total.endToEnd.sum(), 100u);
    EXPECT_EQ(total.stageCycleSum(), 100u);
    const auto stage = [&](MemStage s) {
        return total.stages[static_cast<std::size_t>(s)].sum();
    };
    EXPECT_EQ(stage(MemStage::CoreQueue), 5u);
    EXPECT_EQ(stage(MemStage::NocRequest), 7u);
    EXPECT_EQ(stage(MemStage::L2Queue), 3u);
    EXPECT_EQ(stage(MemStage::DramQueue), 50u);
    EXPECT_EQ(stage(MemStage::DramService), 20u);
    EXPECT_EQ(stage(MemStage::L2Mshr), 0u);
    EXPECT_EQ(stage(MemStage::L2Return), 4u);
    EXPECT_EQ(stage(MemStage::NocResponse), 11u);

    // Attributed to the issuing core and kernel, not the other one.
    EXPECT_EQ(prof.core(1).completed(), 1u);
    EXPECT_EQ(prof.core(0).completed(), 0u);
    ASSERT_EQ(prof.kernels().count(7), 1u);
    EXPECT_EQ(prof.kernels().at(7).endToEnd.sum(), 100u);
}

TEST(MemProfiler, UntrackedRequestIdZeroIsIgnored)
{
    MemProfiler prof;
    prof.onAttach(1);
    prof.enterStage(0, MemStage::DramQueue, 5);
    prof.endRequest(0, 9);
    EXPECT_EQ(prof.ctaKeyOf(0), -1);
    EXPECT_EQ(prof.begunRequests(), 0u);
    EXPECT_EQ(prof.completedRequests(), 0u);
}

TEST(MemProfiler, CompletingWithUnclosedStageViolatesContract)
{
    SKIP_UNLESS_CHECKS();
    MemProfiler prof;
    prof.onAttach(1);
    const std::uint32_t id = prof.beginRequest(0, 0, 1, makeCtaKey(1, 0));
    prof.enterStage(id, MemStage::L2Queue, 4);
    ScopedContractThrows guard;
    // The noc_resp stage was never opened: the request cannot complete.
    EXPECT_THROW(prof.endRequest(id, 9), ContractViolation);
}

TEST(MemProfiler, StageTransitionForUnknownRequestViolatesContract)
{
    SKIP_UNLESS_CHECKS();
    MemProfiler prof;
    prof.onAttach(1);
    ScopedContractThrows guard;
    EXPECT_THROW(prof.enterStage(42, MemStage::L2Queue, 1),
                 ContractViolation);
    EXPECT_THROW(prof.endRequest(42, 1), ContractViolation);
}

TEST(MemProfilerDeath, ReattachWithDifferentGeometryDies)
{
    MemProfiler prof;
    prof.onAttach(2);
    prof.onAttach(2); // same shape: fine
    EXPECT_DEATH(prof.onAttach(3), "different machine shape");
}

// --- interference counters ----------------------------------------------

TEST(MemProfiler, EvictionCountsSeparateCrossCtaFromSameCta)
{
    MemProfiler prof;
    prof.onAttach(1);
    const std::int64_t a = makeCtaKey(1, 0);
    const std::int64_t b = makeCtaKey(1, 1);
    prof.onEviction(MemLevel::L1, a, a, 1); // same CTA: not cross
    prof.onEviction(MemLevel::L1, a, b, 2); // cross
    prof.onEviction(MemLevel::L1, a, -1, 0); // untracked victim: not cross
    prof.onEviction(MemLevel::L2, b, a, 2); // other level

    const InterferenceCounts& l1 = prof.interference(MemLevel::L1);
    EXPECT_EQ(l1.evictions, 3u);
    EXPECT_EQ(l1.crossCtaEvictions, 1u);
    EXPECT_DOUBLE_EQ(l1.crossCtaFraction(), 1.0 / 3.0);
    // Every eviction samples the set occupancy, tracked owner or not.
    EXPECT_EQ(l1.setOccupancy.total(), 3u);
    EXPECT_EQ(l1.setOccupancy.max(), 2u);
    EXPECT_EQ(l1.setOccupancy.min(), 0u);

    const InterferenceCounts& l2 = prof.interference(MemLevel::L2);
    EXPECT_EQ(l2.evictions, 1u);
    EXPECT_EQ(l2.crossCtaEvictions, 1u);
    EXPECT_DOUBLE_EQ(l2.crossCtaFraction(), 1.0);

    EXPECT_DOUBLE_EQ(InterferenceCounts{}.crossCtaFraction(), 0.0);
}

// --- conservation laws on real runs -------------------------------------

class MemProfileConservation
    : public ::testing::TestWithParam<WarpSchedKind>
{};

/**
 * The two contract-backed conservation laws, end to end: every profiled
 * request drains, per-stage cycles sum exactly to the end-to-end
 * latency at every aggregation level, and the histogram totals equal
 * the completed request count.
 */
TEST_P(MemProfileConservation, StageCyclesSumToEndToEnd)
{
    const GpuConfig config = cfg(GetParam());
    MemProfiler prof;
    profiledRun(config, kernel(), prof);

    ASSERT_EQ(prof.numCores(), config.numCores);
    EXPECT_GT(prof.begunRequests(), 0u);
    EXPECT_EQ(prof.outstandingRequests(), 0u);
    EXPECT_EQ(prof.begunRequests(), prof.completedRequests());

    const StageProfile total = prof.total();
    EXPECT_EQ(total.completed(), prof.completedRequests());
    EXPECT_EQ(total.stageCycleSum(), total.endToEnd.sum());

    std::uint64_t core_sum = 0;
    for (std::uint32_t c = 0; c < config.numCores; ++c) {
        const StageProfile& profile = prof.core(c);
        EXPECT_EQ(profile.stageCycleSum(), profile.endToEnd.sum())
            << "core " << c;
        core_sum += profile.completed();
    }
    EXPECT_EQ(core_sum, prof.completedRequests());

    std::uint64_t kernel_sum = 0;
    for (const auto& [kernel_id, profile] : prof.kernels()) {
        EXPECT_EQ(profile.stageCycleSum(), profile.endToEnd.sum())
            << "kernel " << kernel_id;
        kernel_sum += profile.completed();
    }
    EXPECT_EQ(kernel_sum, prof.completedRequests());

    // Histogram binning is itself conservative at every level.
    std::uint64_t binned = 0;
    for (std::size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i)
        binned += total.endToEnd.bucket(i);
    EXPECT_EQ(binned, total.completed());

    // The run made the interference path exercise something.
    EXPECT_GT(prof.interference(MemLevel::L1).mshrOccupancy.total(), 0u);
    EXPECT_GT(prof.interference(MemLevel::L2).mshrOccupancy.total(), 0u);
    for (const MemLevel level : {MemLevel::L1, MemLevel::L2}) {
        const InterferenceCounts& i = prof.interference(level);
        EXPECT_LE(i.crossCtaEvictions, i.evictions);
    }
}

/** Attaching the memory profiler must not change what is simulated. */
TEST_P(MemProfileConservation, DoesNotPerturbSimulationResults)
{
    const GpuConfig config = cfg(GetParam());
    const KernelInfo k = kernel();
    const RunResult bare = runKernel(config, k);
    MemProfiler prof;
    const RunResult profiled = profiledRun(config, k, prof);

    EXPECT_EQ(bare.cycles, profiled.cycles);
    EXPECT_EQ(bare.instrs, profiled.instrs);
    EXPECT_EQ(bare.ipc, profiled.ipc);
    EXPECT_EQ(bare.stats.entries(), profiled.stats.entries());
}

INSTANTIATE_TEST_SUITE_P(
    AllWarpSchedulers, MemProfileConservation,
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

// --- export determinism --------------------------------------------------

std::string
serialized(const MemProfiler& prof)
{
    std::ostringstream os;
    writeMemProfileJson(os, prof, "determinism");
    return os.str();
}

/**
 * The `memprofile.json` run artifact is byte-identical across repeats and
 * across `--jobs` counts: the profiled runs are deterministic and the
 * serializer iterates only ordered containers with fixed boundaries.
 */
TEST(MemProfileExport, ByteIdenticalAcrossRepeatsAndJobCounts)
{
    const GpuConfig config = cfg();
    const KernelInfo k = kernel();

    const auto run_with_jobs = [&](unsigned jobs) {
        const ParallelRunner runner(jobs);
        // Three profiled points fanned across the pool, like a sweep.
        const std::vector<std::string> texts =
            runner.map<std::string>(3, [&](std::size_t i) {
                GpuConfig point = config;
                point.staticCtaLimit = static_cast<std::uint32_t>(i) + 1;
                MemProfiler prof;
                profiledRun(point, k, prof);
                return serialized(prof);
            });
        return texts;
    };

    const std::vector<std::string> serial = run_with_jobs(1);
    const std::vector<std::string> repeat = run_with_jobs(1);
    const std::vector<std::string> parallel = run_with_jobs(3);
    ASSERT_EQ(serial.size(), 3u);
    EXPECT_EQ(serial, repeat);
    EXPECT_EQ(serial, parallel);
    EXPECT_NE(serial[0], serial[1]); // different CTA limits really differ
}

TEST(MemProfileExport, EmitsParsableSchemaWithConservedTotals)
{
    const GpuConfig config = cfg();
    MemProfiler prof;
    profiledRun(config, kernel(), prof);

    const JsonValue root = parseJson(serialized(prof));
    EXPECT_EQ(root.at("schema").asString(), "bsched-memprofile-v1");
    EXPECT_EQ(root.at("stages").asArray().size(), kNumMemStages);
    EXPECT_EQ(root.at("bucket_bounds").asArray().size(),
              LatencyHistogram::kFiniteBuckets);
    const auto& points = root.at("points").asArray();
    ASSERT_EQ(points.size(), 1u);
    const JsonValue& point = points[0];
    EXPECT_EQ(point.at("outstanding").asNumber(), 0.0);
    EXPECT_EQ(point.at("begun").asNumber(), point.at("completed").asNumber());

    // Conservation, as seen by a JSON consumer.
    const JsonValue& total = point.at("total");
    double stage_sum = 0.0;
    for (const auto& [name, hist] : total.at("stages").asObject())
        stage_sum += hist.at("sum").asNumber();
    EXPECT_EQ(stage_sum, total.at("end_to_end").at("sum").asNumber());

    double binned = 0.0;
    for (const JsonValue& b : total.at("end_to_end").at("buckets").asArray())
        binned += b.asNumber();
    EXPECT_EQ(binned, point.at("completed").asNumber());

    EXPECT_EQ(point.at("cores").asArray().size(), config.numCores);
    for (const char* level : {"l1", "l2"}) {
        const JsonValue& i = point.at("interference").at(level);
        EXPECT_LE(i.at("cross_cta_evictions").asNumber(),
                  i.at("evictions").asNumber());
    }
}

} // namespace
} // namespace bsched
