/**
 * @file
 * Committed schedule golden: every warp scheduler crossed with every
 * CTA scheduler over the random-kernel seeds (as drawn and in a dense
 * variant), plus LCS fixed-window runs, co-resident kernel pairs and
 * profiled runs, must reproduce the cycles, instruction count
 * and StatSet (or profile) hash recorded in data/schedule_golden.txt.
 * The machine/ rows run each random kernel on a random machine
 * (randomMachine()) under every warp scheduler, plain and profiled.
 * A policy refactor that changes any issue or dispatch decision moves
 * at least one row. On a mismatch the test prints the whole table in
 * the file's format.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu.hh"
#include "obs/profile.hh"
#include "random_kernel.hh"

namespace bsched {
namespace {

constexpr WarpSchedKind kWarpScheds[] = {
    WarpSchedKind::LRR, WarpSchedKind::GTO, WarpSchedKind::TwoLevel,
    WarpSchedKind::BAWS};
constexpr CtaSchedKind kCtaScheds[] = {
    CtaSchedKind::RoundRobin, CtaSchedKind::Lazy, CtaSchedKind::Block,
    CtaSchedKind::LazyBlock, CtaSchedKind::Dynamic};

/** FNV-1a over @p text. */
std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (unsigned char ch : text) {
        h ^= ch;
        h *= 1099511628211ULL;
    }
    return h;
}

/** Every StatSet entry at full precision (StatSet::toString rounds). */
std::uint64_t
statsHash(const StatSet& stats)
{
    std::string text;
    char buf[64];
    for (const auto& [name, value] : stats.entries()) {
        std::snprintf(buf, sizeof(buf), "=%.17g\n", value);
        text += name;
        text += buf;
    }
    return fnv1a(text);
}

std::string
row(const std::string& key, const Gpu& gpu, std::uint64_t hash)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %" PRIu64 " %" PRIu64 " %016" PRIx64,
                  key.c_str(), static_cast<std::uint64_t>(gpu.cycle()),
                  gpu.totalInstrsIssued(), hash);
    return buf;
}

/** Simulate every golden point; one formatted row each. */
std::vector<std::string>
simulateTable()
{
    std::vector<std::string> rows;
    for (std::uint64_t seed = 100; seed < 112; ++seed) {
        const KernelInfo k = randomKernel(seed);
        for (WarpSchedKind warp : kWarpScheds) {
            for (CtaSchedKind cta : kCtaScheds) {
                Gpu gpu(smallMachine(warp, cta));
                gpu.launchKernel(k);
                gpu.run();
                rows.push_back(row("single/" + std::to_string(seed) + "/" +
                                       toString(warp) + "/" + toString(cta),
                                   gpu, statsHash(gpu.stats())));
            }
            // LCS with a fixed monitoring window: the window closes on a
            // cycle deadline rather than on a CTA completion.
            GpuConfig fixed = smallMachine(warp, CtaSchedKind::Lazy);
            fixed.lcs.windowMode = LcsWindowMode::FixedCycles;
            fixed.lcs.fixedWindowCycles = 500;
            Gpu gpu(fixed);
            gpu.launchKernel(k);
            gpu.run();
            rows.push_back(row("lcs-fixed/" + std::to_string(seed) + "/" +
                                   toString(warp),
                               gpu, statsHash(gpu.stats())));
        }
    }
    for (std::uint64_t seed = 100; seed < 106; ++seed) {
        // Dense variant: 8-warp CTAs over a six-fold grid, so each
        // scheduler slot holds warps of several CTAs and blocks.
        KernelInfo k = randomKernel(seed);
        k.grid.x *= 6;
        k.cta.x = 256;
        for (WarpSchedKind warp : kWarpScheds) {
            for (CtaSchedKind cta : kCtaScheds) {
                Gpu gpu(smallMachine(warp, cta));
                gpu.launchKernel(k);
                gpu.run();
                rows.push_back(row("dense/" + std::to_string(seed) + "/" +
                                       toString(warp) + "/" + toString(cta),
                                   gpu, statsHash(gpu.stats())));
            }
        }
    }
    const KernelInfo a = randomKernel(100);
    const KernelInfo b = randomKernel(105);
    for (WarpSchedKind warp : kWarpScheds) {
        // Two co-resident kernels: per-kernel LCS monitors and mixed
        // CTAs in every scheduler slot.
        Gpu gpu(smallMachine(warp, CtaSchedKind::Lazy));
        gpu.launchKernel(a);
        gpu.launchKernel(b);
        gpu.run();
        rows.push_back(row(std::string("pair/") + toString(warp), gpu,
                           statsHash(gpu.stats())));
    }
    for (WarpSchedKind warp : kWarpScheds) {
        // The cycle profiler's per-slot stall attribution.
        CycleProfiler profiler;
        Observer obs;
        obs.profiler = &profiler;
        Gpu gpu(smallMachine(warp, CtaSchedKind::Lazy), obs);
        gpu.launchKernel(a);
        gpu.launchKernel(b);
        gpu.run();
        std::ostringstream json;
        writeProfileJson(json, profiler, "golden");
        rows.push_back(row(std::string("profiled/") + toString(warp), gpu,
                           fnv1a(json.str())));
    }
    for (std::uint64_t seed = 200; seed < 212; ++seed) {
        // Random machines: issue width, port budgets and LD/ST admission
        // depths the fixed machines above never reach.
        const KernelInfo k = randomKernel(seed);
        for (WarpSchedKind warp : kWarpScheds) {
            GpuConfig config = randomMachine(seed);
            config.warpSched = warp;
            const std::string key =
                "machine/" + std::to_string(seed) + "/" + toString(warp);
            Gpu plain(config);
            plain.launchKernel(k);
            plain.run();
            rows.push_back(row(key, plain, statsHash(plain.stats())));

            CycleProfiler profiler;
            Observer obs;
            obs.profiler = &profiler;
            Gpu gpu(config, obs);
            gpu.launchKernel(k);
            gpu.run();
            std::ostringstream json;
            writeProfileJson(json, profiler, "golden");
            rows.push_back(
                row(key + "/profiled", gpu, fnv1a(json.str())));
        }
    }
    return rows;
}

std::vector<std::string>
readGolden()
{
    std::ifstream in(BSCHED_TESTS_DIR "/data/schedule_golden.txt");
    EXPECT_TRUE(in.good()) << "missing data/schedule_golden.txt";
    std::vector<std::string> rows;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line[0] != '#')
            rows.push_back(line);
    }
    return rows;
}

TEST(ScheduleGolden, EveryPolicyPairReproducesCommittedTable)
{
    const std::vector<std::string> golden = readGolden();
    const std::vector<std::string> actual = simulateTable();
    if (golden == actual)
        return;
    std::ostringstream diff;
    std::ostringstream table;
    for (std::size_t i = 0; i < actual.size(); ++i) {
        if (i >= golden.size() || golden[i] != actual[i])
            diff << "  simulated: " << actual[i] << "\n";
        table << actual[i] << "\n";
    }
    ADD_FAILURE() << golden.size() << " golden rows, " << actual.size()
                  << " simulated; rows that differ:\n"
                  << diff.str()
                  << "simulated table (key cycles instrs hash):\n"
                  << table.str();
}

} // namespace
} // namespace bsched
