/**
 * @file
 * Determinism regression tests backing the determinism pass of
 * tools/analyze: the MSHR outstanding set (a flat array whose entries
 * move when one completes) and the BAWS per-block rotation (a std::map,
 * never a hash container) must not leak insertion / encounter order
 * into waiter lists, schedule decisions, or the serialized
 * bsched-run-v1 artifact.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/warp_sched.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "mem/mshr.hh"
#include "obs/sink.hh"

namespace bsched {
namespace {

/** Serialize an MSHR file's observable state: stats + per-line waiters. */
std::string
mshrFingerprint(MshrFile& mshr, const std::vector<Addr>& lines)
{
    std::ostringstream os;
    StatSet stats;
    mshr.addStats(stats, "m.");
    writeStatsCsv(os, stats);
    for (Addr line : lines) {
        os << std::hex << line << ":";
        for (MshrWaiter waiter : mshr.complete(line))
            os << waiter << ",";
        os << "\n";
    }
    return os.str();
}

TEST(MshrDeterminism, LineInsertionOrderDoesNotLeak)
{
    // Same misses, two line-allocation orders. Per-line waiter order is
    // architectural (merge order on that line) and is kept fixed; only
    // the interleaving across lines is permuted. Everything observable —
    // stats and the waiters each fill returns — must be identical.
    const std::vector<Addr> lines = {0x40, 0x9000, 0x140, 0x7fff00};

    MshrFile forward(8, 4, "m");
    for (Addr line : lines)
        ASSERT_EQ(forward.allocate(line, 1), MshrOutcome::NewEntry);
    for (Addr line : lines)
        ASSERT_EQ(forward.allocate(line, 2), MshrOutcome::Merged);

    MshrFile reverse(8, 4, "m");
    for (auto it = lines.rbegin(); it != lines.rend(); ++it)
        ASSERT_EQ(reverse.allocate(*it, 1), MshrOutcome::NewEntry);
    for (auto it = lines.rbegin(); it != lines.rend(); ++it)
        ASSERT_EQ(reverse.allocate(*it, 2), MshrOutcome::Merged);

    EXPECT_EQ(mshrFingerprint(forward, lines), mshrFingerprint(reverse, lines));
}

TEST(BawsDeterminism, BlockEncounterOrderDoesNotLeak)
{
    // Warp table: two dispatch blocks, two warps each.
    std::vector<Warp> warps(4);
    for (int i = 0; i < 4; ++i) {
        warps[i].valid = true;
        warps[i].ctaSeq = static_cast<std::uint64_t>(i / 2);
        warps[i].blockSeq = (i < 2) ? 7 : 3;
    }

    // Scheduler A meets block 7 first, scheduler B meets block 3 first.
    BawsScheduler a;
    a.notifyIssued(0, warps); // block 7
    a.notifyIssued(2, warps); // block 3
    BawsScheduler b;
    b.notifyIssued(2, warps);
    b.notifyIssued(0, warps);
    // Same rotation state per block -> encounter order must not matter.
    // B last issued from block 7, so force A's greedy pointer there too.
    a.notifyIssued(0, warps);
    b.notifyIssued(0, warps);

    const std::vector<int> ready = {0, 1, 2, 3};
    for (int step = 0; step < 8; ++step) {
        const int pa = a.pick(ready, warps);
        const int pb = b.pick(ready, warps);
        ASSERT_EQ(pa, pb) << "diverged at step " << step;
        a.notifyIssued(pa, warps);
        b.notifyIssued(pb, warps);
    }
}

/**
 * End-to-end pin: a config exercising both converted containers (BCS
 * dispatch + BAWS rotation + MSHR-heavy loads) serializes to
 * byte-identical bsched-run-v1 artifacts across repeated runs, and to
 * byte-identical bsched-bench-v1 reports across --jobs counts.
 */
TEST(RunDeterminism, RunJsonBytesIdenticalAcrossRepeatsAndJobs)
{
    GpuConfig config = makeConfig(WarpSchedKind::BAWS, CtaSchedKind::Block);
    config.numCores = 2;
    config.numMemPartitions = 2;

    KernelInfo k;
    k.name = "determinism";
    k.grid = {12, 1, 1};
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

    std::string run_bytes[2];
    for (auto& bytes : run_bytes) {
        std::ostringstream os;
        writeRunJson(os, runKernel(config, k), "determinism");
        bytes = os.str();
    }
    EXPECT_EQ(run_bytes[0], run_bytes[1]);

    std::string report_bytes[2];
    const unsigned job_counts[2] = {1, 3};
    for (int r = 0; r < 2; ++r) {
        const auto sweep =
            oracleStaticBest(config, {k}, job_counts[r])[0].byLimit;
        BenchReport report("determinism");
        for (std::size_t n = 0; n < sweep.size(); ++n)
            report.addRow("limit" + std::to_string(n + 1), sweep[n]);
        report_bytes[r] = report.toJson();
    }
    EXPECT_EQ(report_bytes[0], report_bytes[1]);
}

} // namespace
} // namespace bsched
