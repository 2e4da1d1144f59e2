/**
 * @file
 * Runner binary of the repository benchmark: runs one workload once and
 * prints what it measured as one JSON line. run.py builds this binary,
 * runs it repeatedly and reduces the runs to the benchmark's metrics.
 *
 *   perfbench --workload paper_sweep|serve_open|observed_run
 *             [--seed N] [--trace] [--expected DIR] [--record FILE]
 *             [--kernels a,b,...] [--no-fast-forward]
 *
 * Artifacts and spans go to .bench_out/ under the working directory.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include <sys/mman.h>

#include "bench.hh"
#include "obs/sink.hh"
#include "sim/config.hh"
#include "sim/log.hh"

namespace {

using namespace perfbench;

std::uint64_t
parseCount(const std::string& flag, const std::string& value)
{
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (value.empty() || *end != '\0')
        bsched::fatal(flag, " expects a non-negative integer, got '", value,
                      "'");
    return parsed;
}

Options
parseArgs(int argc, char** argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                bsched::fatal(arg, " requires a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            opts.seed = parseCount(arg, value());
        } else if (arg == "--trace") {
            opts.trace = true;
        } else if (arg == "--expected") {
            opts.expectedDir = value();
        } else if (arg == "--record") {
            opts.recordPath = value();
        } else if (arg == "--kernels") {
            std::istringstream list(value());
            std::string name;
            while (std::getline(list, name, ','))
                opts.kernels.push_back(name);
        } else if (arg == "--no-fast-forward") {
            bsched::setDefaultFastForward(false);
        } else {
            bsched::fatal("unknown argument '", arg, "'");
        }
    }
    return opts;
}

/**
 * Host-speed reference: seconds for @p threads threads to each map,
 * touch and unmap 64 MiB of fresh memory, 2 MiB at a time (smaller
 * pieces tracked the host worse; each thread adds 2 MiB to the peak
 * resident memory). On a shared
 * host the simulator's speed swings by up to half with the state of the
 * machine's memory system, and this reference swings with it (an
 * integer loop and a pointer chase did not). It uses no simulator code,
 * so run.py can divide host times by it.
 */
double
hostReference(unsigned threads)
{
    auto touch = [] {
        constexpr std::size_t kBytes = 2u << 20;
        for (int i = 0; i < 32; ++i) {
            void* map = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (map == MAP_FAILED)
                bsched::fatal("perfbench: mmap failed");
            auto* bytes = static_cast<volatile char*>(map);
            for (std::size_t at = 0; at < kBytes; at += 4096)
                bytes[at] = 1;
            munmap(map, kBytes);
        }
    };
    const double t0 = now();
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < threads; ++i)
        pool.emplace_back(touch);
    for (std::thread& thread : pool)
        thread.join();
    return now() - t0;
}

void
printMap(const char* key, const std::map<std::string, double>& values)
{
    std::printf(",\"%s\":{", key);
    const char* sep = "";
    for (const auto& [name, value] : values) {
        std::printf("%s\"%s\":%s", sep, bsched::jsonEscape(name).c_str(),
                    bsched::jsonNumber(value).c_str());
        sep = ",";
    }
    std::printf("}");
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = parseArgs(argc, argv);
    if (opts.trace)
        enableSpans();
    std::filesystem::create_directories(opts.outDir);

    Expectations expect;
    Report report;
    // The reference loads as many threads as the workload does.
    const unsigned threads =
        opts.workload == "paper_sweep" ? sweepJobs() : 1;
    const double ref_before = hostReference(threads);
    if (opts.workload == "paper_sweep")
        report = runPaperSweep(opts, expect);
    else if (opts.workload == "serve_open")
        report = runServeOpen(opts, expect);
    else if (opts.workload == "observed_run")
        report = runObservedRun(opts, expect);
    else
        bsched::fatal("unknown workload '", opts.workload, "'");
    const double ref_s = 0.5 * (ref_before + hostReference(threads));

    if (!opts.recordPath.empty())
        expect.writeRecorded(opts.recordPath);
    if (opts.trace) {
        writeSpans(opts.outDir + "/" + opts.workload + ".spans.json");
        report.selfS = spanSelfSeconds();
    }

    std::printf("{\"workload\":\"%s\",\"wall_s\":%s,\"setup_s\":%s,"
                "\"ref_s\":%s,\"sim_cycles\":%s,\"sim_instrs\":%s,"
                "\"attempted\":%llu,\"failed\":%llu",
                opts.workload.c_str(), bsched::jsonNumber(report.wallS).c_str(),
                bsched::jsonNumber(report.setupS).c_str(),
                bsched::jsonNumber(ref_s).c_str(),
                bsched::jsonNumber(report.simCycles).c_str(),
                bsched::jsonNumber(report.simInstrs).c_str(),
                static_cast<unsigned long long>(expect.attempted()),
                static_cast<unsigned long long>(expect.failed()));
    printMap("exact", report.exact);
    printMap("layers", report.layers);
    printMap("self_s", report.selfS);
    std::printf(",\"samples\":{");
    const char* sep = "";
    for (const auto& [name, values] : report.samples) {
        std::printf("%s\"%s\":[", sep, name.c_str());
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::printf("%s%s", i ? "," : "",
                        bsched::jsonNumber(values[i]).c_str());
        }
        std::printf("]");
        sep = ",";
    }
    std::printf("}}\n");
    return 0;
}
