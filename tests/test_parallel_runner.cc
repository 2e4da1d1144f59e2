/**
 * @file
 * Tests for the parallel experiment harness: the worker pool, the jobs
 * knob, the headline guarantee that a grid run produces the same
 * per-point results for every job count, and the grid's dedup of
 * repeated points.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <utility>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "harness/thread_pool.hh"
#include "kernel/occupancy.hh"
#include "kernel/program_builder.hh"
#include "random_kernel.hh"

namespace bsched {
namespace {

KernelInfo
tinyKernel(const std::string& name, std::uint32_t grid, std::uint32_t trips)
{
    KernelInfo k;
    k.name = name;
    k.grid = {grid, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder b;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto t = b.pattern(in);
    b.loop(trips).load(t).alu(2).endLoop();
    k.program = b.build();
    return k;
}

TEST(ThreadPool, RunsEverySubmittedTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, AtLeastOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<bool> ran{false};
    pool.submit([&ran] { ran = true; });
    pool.wait();
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, ReusableAcrossWaitRounds)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.wait(); // empty wait is a no-op
    pool.submit([&count] { ++count; });
    pool.wait();
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(ParallelRunner, ResolveJobsPrefersExplicitRequest)
{
    EXPECT_EQ(resolveJobs(3), 3u);
    EXPECT_GE(resolveJobs(0), 1u); // hardware default, whatever it is
}

TEST(ParallelRunner, ResolveJobsReadsEnvironment)
{
    const char* saved = std::getenv("BSCHED_JOBS");
    const std::string saved_value = saved ? saved : "";
    ::setenv("BSCHED_JOBS", "5", 1);
    EXPECT_EQ(resolveJobs(0), 5u);
    EXPECT_EQ(resolveJobs(2), 2u); // explicit request still wins
    ::setenv("BSCHED_JOBS", "garbage", 1);
    EXPECT_GE(resolveJobs(0), 1u); // unparsable -> hardware default
    if (saved)
        ::setenv("BSCHED_JOBS", saved_value.c_str(), 1);
    else
        ::unsetenv("BSCHED_JOBS");
}

TEST(ParallelRunner, MapPreservesSubmissionOrder)
{
    const ParallelRunner runner(4);
    const auto out = runner.map<std::size_t>(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunner, GridMatchesDirectRunKernel)
{
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::RoundRobin);
    const KernelInfo k = tinyKernel("grid_a", 30, 8);
    const std::vector<SimPoint> points = {{config, k, "a"}};
    const auto grid = runGrid(points, 2);
    const RunResult direct = runKernel(config, k);
    ASSERT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid[0].cycles, direct.cycles);
    EXPECT_EQ(grid[0].instrs, direct.instrs);
    EXPECT_DOUBLE_EQ(grid[0].ipc, direct.ipc);
}

TEST(ParallelRunner, GridIsDeterministicAcrossJobCounts)
{
    // The headline guarantee: per-point results are byte-identical for
    // any worker count; only wall-clock changes.
    std::vector<SimPoint> points;
    const GpuConfig base = makeConfig(WarpSchedKind::GTO,
                                      CtaSchedKind::RoundRobin);
    GpuConfig lazy = base;
    lazy.ctaSched = CtaSchedKind::Lazy;
    for (std::uint32_t grid = 20; grid < 24; ++grid) {
        const KernelInfo k =
            tinyKernel("det" + std::to_string(grid), grid, 6 + grid % 3);
        points.push_back({base, k, k.name + "/base"});
        points.push_back({lazy, k, k.name + "/lcs"});
    }
    ASSERT_GE(points.size(), 8u);

    const auto serial = runGrid(points, 1);
    const auto parallel = runGrid(points, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].cycles, parallel[i].cycles) << "point " << i;
        EXPECT_EQ(serial[i].instrs, parallel[i].instrs) << "point " << i;
        EXPECT_DOUBLE_EQ(serial[i].ipc, parallel[i].ipc) << "point " << i;
        EXPECT_EQ(serial[i].stats.entries(), parallel[i].stats.entries())
            << "point " << i;
    }
}

/** Cycles, instructions, IPC and every StatSet entry agree. */
void
expectSameResult(const RunResult& a, const RunResult& b,
                 const std::string& what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.instrs, b.instrs) << what;
    EXPECT_EQ(a.ipc, b.ipc) << what;
    EXPECT_EQ(a.stats.entries(), b.stats.entries()) << what;
}

TEST(ParallelRunner, RepeatedPointsMatchDirectRuns)
{
    // Differential check of the grid's dedup on drawn inputs: random
    // kernels under every warp x CTA scheduler pair, each point
    // submitted two or three times at shuffled positions, must give
    // what runKernel gives for that point alone.
    constexpr WarpSchedKind kWarpScheds[] = {
        WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
        WarpSchedKind::BAWS};
    constexpr CtaSchedKind kCtaScheds[] = {
        CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
        CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic};
    Rng rng(20);
    for (bool ff : {true, false}) {
        std::vector<SimPoint> points;
        for (std::uint64_t seed = 300; seed < 302; ++seed) {
            const KernelInfo k = randomKernel(seed);
            for (WarpSchedKind warp : kWarpScheds) {
                for (CtaSchedKind cta : kCtaScheds) {
                    GpuConfig config = smallMachine(warp, cta);
                    config.fastForward = ff;
                    const std::string label = k.name + "/" +
                        toString(warp) + "/" + toString(cta);
                    const std::uint64_t copies = 2 + rng.nextBelow(2);
                    for (std::uint64_t c = 0; c < copies; ++c)
                        points.push_back({config, k, label});
                }
            }
        }
        for (std::size_t i = points.size() - 1; i > 0; --i)
            std::swap(points[i], points[rng.nextBelow(i + 1)]);

        std::vector<RunResult> direct;
        for (const SimPoint& p : points)
            direct.push_back(runKernel(p.config, p.kernel));
        for (unsigned jobs : {1u, 4u}) {
            const auto grid = runGrid(points, jobs);
            ASSERT_EQ(grid.size(), points.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                expectSameResult(grid[i], direct[i],
                                 points[i].label + " ff=" +
                                     std::to_string(ff) + " jobs=" +
                                     std::to_string(jobs));
            }
        }
    }
}

/** @p k with its program rebuilt after @p edit changes its parts. */
KernelInfo
withProgram(KernelInfo k,
            const std::function<void(std::vector<Segment>&,
                                     std::vector<MemPattern>&)>& edit)
{
    std::vector<Segment> segments = k.program.segments();
    std::vector<MemPattern> patterns = k.program.patterns();
    edit(segments, patterns);
    WarpProgram program;
    for (const MemPattern& pattern : patterns)
        program.addPattern(pattern);
    for (const Segment& segment : segments)
        program.addSegment(segment);
    k.program = program;
    return k;
}

TEST(ParallelRunner, EveryFieldSeparatesPoints)
{
    // One field changed anywhere in the config or the kernel must make
    // a distinct point; an unchanged copy must be a repeat.
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::RoundRobin);
    const KernelInfo kernel = tinyKernel("eq", 8, 2);
    auto distinctness = [&](const GpuConfig& c, const KernelInfo& k) {
        return firstOccurrences({{config, kernel, "a"},
                                 {config, kernel, "b"},
                                 {c, k, "edited"}});
    };
    using Segments = std::vector<Segment>;
    using Patterns = std::vector<MemPattern>;
    EXPECT_EQ(distinctness(config, kernel),
              (std::vector<std::size_t>{0, 0, 0}));
    EXPECT_EQ(distinctness(config, withProgram(kernel,
                                               [](Segments&, Patterns&) {})),
              (std::vector<std::size_t>{0, 0, 0}))
        << "a rebuilt but unchanged program";

    const std::vector<std::pair<const char*,
                                std::function<void(GpuConfig&)>>>
        config_edits = {
            {"l1d.assoc", [](GpuConfig& c) { c.l1d.assoc *= 2; }},
            {"l1d.writeAllocate",
             [](GpuConfig& c) { c.l1d.writeAllocate = true; }},
            {"l2.mshrMaxMerged", [](GpuConfig& c) { ++c.l2.mshrMaxMerged; }},
            {"l2.hitLatency", [](GpuConfig& c) { ++c.l2.hitLatency; }},
            {"dram.maxStarveCycles",
             [](GpuConfig& c) { ++c.dram.maxStarveCycles; }},
            {"lcs.slackCtas", [](GpuConfig& c) { ++c.lcs.slackCtas; }},
            {"dyncta.samplePeriod",
             [](GpuConfig& c) { ++c.dyncta.samplePeriod; }},
            {"bcs.blockSize", [](GpuConfig& c) { ++c.bcs.blockSize; }},
            {"staticCtaLimit", [](GpuConfig& c) { c.staticCtaLimit = 2; }},
            {"ldstQueueDepth", [](GpuConfig& c) { ++c.ldstQueueDepth; }},
            {"fastForward",
             [](GpuConfig& c) { c.fastForward = !c.fastForward; }},
        };
    for (const auto& [field, edit] : config_edits) {
        GpuConfig edited = config;
        edit(edited);
        EXPECT_EQ(distinctness(edited, kernel),
                  (std::vector<std::size_t>{0, 0, 2}))
            << field;
    }

    const std::vector<std::pair<const char*, KernelInfo>> kernel_edits = {
        {"grid",
         [&] {
             KernelInfo k = kernel;
             k.grid.y = 2;
             return k;
         }()},
        {"segment trips",
         withProgram(kernel, [](Segments& s, Patterns&) { ++s[0].trips; })},
        {"segment tripJitterPct",
         withProgram(kernel,
                     [](Segments& s, Patterns&) { s[0].tripJitterPct = 10; })},
        {"instr activeLanes",
         withProgram(kernel,
                     [](Segments& s, Patterns&) {
                         s[0].instrs[0].activeLanes = 16;
                     })},
        {"pattern base",
         withProgram(kernel,
                     [](Segments&, Patterns& p) { p[0].base += 128; })},
    };
    for (const auto& [field, edited] : kernel_edits) {
        EXPECT_EQ(distinctness(config, edited),
                  (std::vector<std::size_t>{0, 0, 2}))
            << field;
    }
}

TEST(ParallelRunner, OracleListMatchesPerKernelSweeps)
{
    // The list oracle runs every kernel's limit sweep in one grid; each
    // sweep must equal the kernel's limits run one by one, for any job
    // count. The repeated kernel shares its sweep with the first copy.
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::RoundRobin);
    const std::vector<KernelInfo> kernels = {tinyKernel("o1", 24, 6),
                                             tinyKernel("o2", 40, 3),
                                             tinyKernel("o1", 24, 6)};
    const auto serial = oracleStaticBest(config, kernels, 1);
    const auto parallel = oracleStaticBest(config, kernels, 3);
    ASSERT_EQ(serial.size(), kernels.size());
    ASSERT_EQ(parallel.size(), kernels.size());
    for (std::size_t k = 0; k < kernels.size(); ++k) {
        const std::uint32_t n_max = maxCtasPerCore(config, kernels[k]);
        ASSERT_EQ(serial[k].maxLimit, n_max);
        ASSERT_EQ(serial[k].byLimit.size(), n_max);
        ASSERT_EQ(parallel[k].byLimit.size(), n_max);
        std::uint32_t best = 1;
        for (std::uint32_t limit = 1; limit <= n_max; ++limit) {
            GpuConfig limited = config;
            limited.staticCtaLimit = limit;
            const RunResult direct = runKernel(limited, kernels[k]);
            const std::string what =
                kernels[k].name + " limit " + std::to_string(limit);
            expectSameResult(serial[k].byLimit[limit - 1], direct, what);
            expectSameResult(parallel[k].byLimit[limit - 1], direct, what);
            if (direct.ipc > serial[k].byLimit[best - 1].ipc)
                best = limit;
        }
        EXPECT_EQ(serial[k].bestLimit, best);
        EXPECT_EQ(parallel[k].bestLimit, best);
    }
}

} // namespace
} // namespace bsched
