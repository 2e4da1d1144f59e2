#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/log.hh"
#include "workloads/suite.hh"

namespace bsched::bench {

namespace {

/** Sampler period of the --artifacts re-run. */
constexpr Cycle kSamplePeriod = 512;

long
parsePositive(const char* flag, const char* value)
{
    char* end = nullptr;
    const long parsed = std::strtol(value, &end, 10);
    if (parsed <= 0 || end == value || *end != '\0')
        fatal(flag, " expects a positive integer, got '", value, "'");
    return parsed;
}

} // namespace

BenchOptions
parseArgs(int argc, char** argv)
{
    setLogLevelFromEnv();

    BenchOptions opts;
    unsigned requested = 0;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc)
                fatal(flag, " requires a value");
            return argv[++i];
        };
        if (std::strcmp(arg, "--jobs") == 0) {
            requested = static_cast<unsigned>(
                parsePositive("--jobs", next("--jobs")));
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            requested =
                static_cast<unsigned>(parsePositive("--jobs", arg + 7));
        } else if (std::strncmp(arg, "-j", 2) == 0 && arg[2] != '\0') {
            requested =
                static_cast<unsigned>(parsePositive("-j", arg + 2));
        } else if (std::strcmp(arg, "--artifacts") == 0) {
            opts.artifactsDir = next("--artifacts");
        } else if (std::strncmp(arg, "--artifacts=", 12) == 0) {
            opts.artifactsDir = arg + 12;
        } else if (std::strcmp(arg, "--progress") == 0) {
            opts.progress = true;
        } else if (std::strcmp(arg, "--no-fast-forward") == 0) {
            // Escape hatch: force plain cycle-by-cycle stepping in every
            // simulation this process runs (results are byte-identical
            // either way; this exists to prove exactly that).
            setDefaultFastForward(false);
        } else if (std::strcmp(arg, "--emit-json") == 0) {
            opts.emitJsonPath = next("--emit-json");
        } else if (std::strncmp(arg, "--emit-json=", 12) == 0) {
            opts.emitJsonPath = arg + 12;
        } else if (std::strcmp(arg, "--log") == 0) {
            setLogLevel(parseLogLevel(next("--log")));
        } else if (std::strncmp(arg, "--log=", 6) == 0) {
            setLogLevel(parseLogLevel(arg + 6));
        } else {
            fatal("unknown argument '", arg,
                  "' (figures accept --jobs N, --emit-json FILE, "
                  "--artifacts DIR, --progress, --no-fast-forward, "
                  "--log LEVEL)");
        }
    }
    if (!opts.emitJsonPath.empty()) {
        // Make the report's directory now: a missing one must not cost a
        // whole sweep before the write fails.
        const std::filesystem::path dir =
            std::filesystem::path(opts.emitJsonPath).parent_path();
        std::error_code ec;
        if (!dir.empty())
            std::filesystem::create_directories(dir, ec);
        if (ec) {
            fatal("--emit-json: cannot create '", dir.string(), "': ",
                  ec.message());
        }
    }
    opts.jobs = resolveJobs(requested);
    if (!opts.progress) {
        const char* env = std::getenv("BSCHED_PROGRESS");
        opts.progress = env != nullptr && *env != '\0' &&
            std::strcmp(env, "0") != 0;
    }
    setHarnessProgress(opts.progress);
    return opts;
}

void
writeReport(const BenchOptions& opts, const BenchReport& report)
{
    if (opts.emitJsonPath.empty())
        return;
    const std::size_t bytes =
        writeFile(opts.emitJsonPath, [&](std::ostream& os) {
            report.writeJson(os);
        });
    std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                 opts.emitJsonPath.c_str(), bytes);
}

void
writeRunArtifacts(const BenchOptions& opts, const GpuConfig& config,
                  const KernelInfo& kernel, const std::string& label,
                  const std::vector<RunArtifact>& own)
{
    if (opts.artifactsDir.empty())
        return;

    Tracer tracer(config.numCores, config.numMemPartitions);
    IntervalSampler sampler(kSamplePeriod);
    CycleProfiler profiler;
    MemProfiler mem_profiler;
    PhaseTelemetry phase;
    Observer obs;
    obs.tracer = &tracer;
    obs.sampler = &sampler;
    obs.profiler = &profiler;
    obs.memProfiler = &mem_profiler;
    obs.phase = &phase;
    runKernel(config, kernel, obs);

    std::vector<RunArtifact> table = {
        {"trace.json",
         [&](std::ostream& os) { tracer.writeChromeTrace(os, &sampler); }},
        {"profile.json",
         [&](std::ostream& os) { writeProfileJson(os, profiler, label); }},
        {"memprofile.json",
         [&](std::ostream& os) {
             writeMemProfileJson(os, mem_profiler, label);
         }},
        {"phase.json",
         [&](std::ostream& os) { writePhaseJson(os, phase, label); }},
    };
    for (const RunArtifact& a : own) {
        const auto row = std::find_if(
            table.begin(), table.end(),
            [&](const RunArtifact& t) { return t.file == a.file; });
        if (row == table.end())
            table.push_back(a);
        else
            row->write = a.write;
    }

    std::error_code ec;
    std::filesystem::create_directories(opts.artifactsDir, ec);
    if (ec) {
        fatal("--artifacts: cannot create '", opts.artifactsDir, "': ",
              ec.message());
    }
    for (const RunArtifact& a : table) {
        const std::string path = opts.artifactsDir + "/" + a.file;
        const std::size_t bytes = writeFile(path, a.write);
        std::fprintf(stderr, "wrote %s (%zu bytes, %s)\n", path.c_str(),
                     bytes, label.c_str());
    }
}

GridResults
runKernelGrid(const std::vector<KernelInfo>& kernels,
              const std::vector<GpuConfig>& configs, unsigned jobs)
{
    std::vector<SimPoint> points;
    points.reserve(kernels.size() * configs.size());
    for (const KernelInfo& kernel : kernels) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            points.push_back({configs[c], kernel,
                              kernel.name + "/cfg" + std::to_string(c)});
        }
    }
    GridResults results;
    results.numConfigs = configs.size();
    results.flat = runGrid(points, jobs);
    return results;
}

GridResults
runWorkloadGrid(const std::vector<std::string>& names,
                const std::vector<GpuConfig>& configs, unsigned jobs)
{
    std::vector<KernelInfo> kernels;
    kernels.reserve(names.size());
    for (const std::string& name : names)
        kernels.push_back(makeWorkload(name));
    return runKernelGrid(kernels, configs, jobs);
}

std::vector<std::uint32_t>
lcsChosenLimits(const GpuConfig& base,
                const std::vector<KernelInfo>& kernels, unsigned jobs)
{
    GpuConfig config = base;
    config.ctaSched = CtaSchedKind::Lazy;
    std::vector<SimPoint> points;
    points.reserve(kernels.size());
    for (const KernelInfo& kernel : kernels)
        points.push_back({config, kernel, kernel.name + "/lcs"});
    const std::vector<RunResult> results = runGrid(points, jobs);

    std::vector<std::uint32_t> limits;
    limits.reserve(results.size());
    for (const RunResult& result : results)
        limits.push_back(lcsChosenLimit(result.stats));
    return limits;
}

std::uint32_t
lcsChosenLimit(const StatSet& stats)
{
    std::vector<double> decisions;
    for (const auto& [name, value] : stats.entries()) {
        if (name.rfind("lcs.core", 0) == 0 && name.size() >= 6 &&
            name.compare(name.size() - 6, 6, ".n_opt") == 0) {
            decisions.push_back(value);
        }
    }
    std::sort(decisions.begin(), decisions.end());
    return decisions.empty()
        ? 0
        : static_cast<std::uint32_t>(decisions[decisions.size() / 2]);
}

} // namespace bsched::bench
