/**
 * @file
 * Shared scaffolding for the figure/table binaries: the common command
 * line (--jobs, --emit-json, --artifacts, --progress, --no-fast-forward,
 * --log), the run-artifact writer, and the workload × config grid
 * runner every sweep figure uses instead of hand-rolled serial loops.
 *
 * All figures accept `--jobs N` (also `--jobs=N` / `-jN`) or the
 * BSCHED_JOBS environment variable; the default is the hardware
 * concurrency. Per-point results are identical for every job count —
 * only the wall-clock changes (see parallel_runner.hh) — and the
 * --emit-json report and every --artifacts file are byte-identical for
 * any job count.
 */

#ifndef BSCHED_BENCH_BENCH_COMMON_HH
#define BSCHED_BENCH_BENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/parallel_runner.hh"
#include "harness/runner.hh"
#include "obs/sink.hh"

namespace bsched::bench {

/** The shared figure/table command line, parsed by parseArgs(). */
struct BenchOptions
{
    /** Resolved worker count (already passed through resolveJobs()). */
    unsigned jobs = 0;

    /** --emit-json FILE: write the figure's BenchReport as JSON. */
    std::string emitJsonPath;

    /** --artifacts DIR: write the run artifacts (see writeRunArtifacts)
     *  into this directory. */
    std::string artifactsDir;

    /** --progress: stderr heartbeat for long grid sweeps. */
    bool progress = false;
};

/**
 * Parse the shared bench command line. Recognizes "--jobs N" /
 * "--jobs=N" / "-jN", "--emit-json FILE", "--artifacts DIR",
 * "--progress" (also the BSCHED_PROGRESS environment variable),
 * "--no-fast-forward" (force plain cycle-by-cycle stepping; results
 * are byte-identical either way) and "--log LEVEL" (also BSCHED_LOG);
 * anything else is fatal() so a typo doesn't silently fall back to
 * defaults.
 */
BenchOptions parseArgs(int argc, char** argv);

/** Write the report to opts.emitJsonPath when --emit-json was given. */
void writeReport(const BenchOptions& opts, const BenchReport& report);

/** One run artifact: its file name under --artifacts DIR and its
 *  writer. */
struct RunArtifact
{
    std::string file;
    std::function<void(std::ostream&)> write;
};

/**
 * Honour --artifacts DIR: re-run one representative simulation point
 * with every observer attached — a Tracer plus an IntervalSampler
 * (period 512), a CycleProfiler, a MemProfiler and a PhaseTelemetry —
 * and write `trace.json` (`bsched-trace-v1`), `profile.json`
 * (`bsched-profile-v1`), `memprofile.json` (`bsched-memprofile-v1`)
 * and `phase.json` (`bsched-phase-v1`) into the directory. A figure
 * whose own result is one of those artifacts passes its writer in
 * @p own under the same file name; it replaces the re-run's. An @p own
 * entry under any other name is written after them. No-op
 * without --artifacts; the re-run is serial and separate from the
 * measured grid, so artifacts never perturb the parallel sweep.
 */
void writeRunArtifacts(const BenchOptions& opts, const GpuConfig& config,
                       const KernelInfo& kernel, const std::string& label,
                       const std::vector<RunArtifact>& own = {});

/** Results of a workload × config sweep, workload-major. */
struct GridResults
{
    std::size_t numConfigs = 0;
    std::vector<RunResult> flat;

    const RunResult& at(std::size_t workload, std::size_t config) const
    {
        return flat.at(workload * numConfigs + config);
    }
};

/**
 * The shared grid runner: simulate every (workload, config) pair, fanned
 * out across @p jobs workers (0 = resolveJobs() default).
 */
GridResults runWorkloadGrid(const std::vector<std::string>& names,
                            const std::vector<GpuConfig>& configs,
                            unsigned jobs = 0);

/** As runWorkloadGrid, over prebuilt kernels instead of suite names. */
GridResults runKernelGrid(const std::vector<KernelInfo>& kernels,
                          const std::vector<GpuConfig>& configs,
                          unsigned jobs = 0);

/**
 * The CTA limit LCS converges to for each kernel in @p kernels: the
 * median of the per-core `lcs.coreC.k0.n_opt` decisions of one run
 * under @p base with the Lazy CTA scheduler (0 when the run recorded
 * none). Every kernel's run goes into one grid across @p jobs workers;
 * results come back in the order of @p kernels.
 */
std::vector<std::uint32_t> lcsChosenLimits(
    const GpuConfig& base, const std::vector<KernelInfo>& kernels,
    unsigned jobs = 0);

} // namespace bsched::bench

#endif // BSCHED_BENCH_BENCH_COMMON_HH
