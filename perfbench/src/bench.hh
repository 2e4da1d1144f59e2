/**
 * @file
 * Shared pieces of the repository benchmark's runner binary: command-line
 * options, the per-run report, the in-memory span log used by traced
 * runs, the expected-result check, and the simulated-counter roll-up.
 *
 * One process runs one workload once. run.py launches it repeatedly,
 * takes medians and prints the benchmark's metrics.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "kernel/kernel_info.hh"
#include "sim/stats.hh"

namespace perfbench {

using bsched::RunResult;
using bsched::StatSet;

/** Command line of one runner process. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 4;     ///< serve_open trace seed
    bool trace = false;         ///< record spans and per-layer metrics
    std::string expectedDir;    ///< directory of committed expectations
    std::string recordPath;     ///< write this run's results here
    std::vector<std::string> kernels; ///< paper_sweep kernel override
    const std::string outDir = ".bench_out"; ///< artifacts and spans
};

/** What one runner process measured. */
struct Report
{
    double wallS = 0.0;   ///< workload wall time (host s)
    double setupS = 0.0;  ///< median of the set-up repetitions (host s)
    double simCycles = 0.0;
    double simInstrs = 0.0;
    /** Workload-level simulated results (exact). */
    std::map<std::string, double> exact;
    /** Per-layer metrics (traced runs only). */
    std::map<std::string, double> layers;
    /** Raw samples run.py reduces to percentiles. */
    std::map<std::string, std::vector<double>> samples;
    /** Self time per span name (traced runs only). */
    std::map<std::string, double> selfS;
};

// --- timing -------------------------------------------------------------

/** Host seconds on the steady clock since process start. */
double now();

/** Median of @p values (0 for an empty list). */
double median(std::vector<double> values);

/**
 * Median seconds of @p setUp, run at least 5 times and for at least
 * 0.25 s in all, so that millisecond set-ups get enough repetitions.
 */
double timeSetUp(const std::function<void()>& setUp);
// --- spans ----------------------------------------------------------------

/** Parent value meaning "the innermost open span on this thread". */
constexpr int kParentAuto = -2;

/** One recorded interval around a call into a layer. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;       ///< index of the enclosing span, -1 = root
    std::int64_t id = -1;  ///< point or request id, -1 = none
};

/** Enable span recording for this process (off by default). */
void enableSpans();

/** Durations (s) of every span called @p name. */
std::vector<double> spanDurations(const std::string& name);

/**
 * Self time per span name: each span's duration minus the part of its
 * interval that its child spans cover (children on other threads may
 * overlap one another; their union is subtracted once).
 */
std::map<std::string, double> spanSelfSeconds();

/** Write every span with its self time as JSON to @p path. */
void writeSpans(const std::string& path);

/** RAII span; a no-op unless spans are enabled. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name, std::int64_t id = -1,
                        int parent = kParentAuto);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** Index to pass as an explicit parent (-1 when disabled). */
    int index() const { return index_; }

  private:
    int index_ = -1;
};

// --- output check ---------------------------------------------------------

/** Canonical text of a run's simulated result: cycles, instrs, digest. */
std::string resultText(const RunResult& result);

/** FNV-1a digest of every (name, value) pair of @p stats, as hex. */
std::string statsDigest(const StatSet& stats);

/**
 * Committed expected results ("id value" lines) and the tally of one
 * run's checks against them. Recording collects every checked value so
 * the file can be regenerated from the current code.
 */
class Expectations
{
  public:
    /** Load @p file from @p dir; a missing file leaves the set empty. */
    void load(const std::string& dir, const std::string& file);

    /** The expectation for @p id, or null when none was committed. */
    const std::string* lookup(const std::string& id) const;

    /** Remember @p value for writeRecorded() without checking it. */
    void record(const std::string& id, const std::string& value);

    /**
     * Record @p value for @p id and compare it with the expectation. A
     * missing expectation is a mismatch when @p required, else a match.
     * Counts nothing: the caller tallies one operation per outcome.
     */
    bool matches(const std::string& id, const std::string& value,
                 bool required = true);

    /** Count one checked operation. */
    void tally(bool ok);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Write every value passed to check(), in check order. */
    void writeRecorded(const std::string& path) const;

  private:
    std::map<std::string, std::string> expected_;
    std::vector<std::pair<std::string, std::string>> recorded_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

// --- simulated counters ---------------------------------------------------

/** Sums of the simulated counters behind the core/mem/cta layer metrics. */
struct SimCounters
{
    double activeCycles = 0, issueCycles = 0, stallMem = 0;
    double ldstLines = 0, ldstRetry = 0;
    double l1Access = 0, l1Miss = 0, l2Access = 0, l2Miss = 0;
    double rowHit = 0, rowMiss = 0;
    double mshrAlloc = 0, mshrMerge = 0;
    double dispatches = 0, noptSum = 0, noptCount = 0;

    void add(const StatSet& stats);

    /** Emit core.*, mem.* and cta.* counter metrics into @p layers. */
    void emit(std::map<std::string, double>& layers) const;
};

/** Timed Gpu::stepCycle loop totals (traced runs drive the clock). */
struct StepTimes
{
    double busyNs = 0, ffNs = 0;
    double busySteps = 0, ffSteps = 0;
    double cycles = 0, elided = 0;

    void merge(const StepTimes& other);

    /** Emit gpu.step_busy_ns, step_ff_ns, elided_share, steps_per_kcycle. */
    void emit(std::map<std::string, double>& layers) const;
};

/**
 * One Gpu::stepCycle, timed into @p times as a busy step (the clock
 * advanced one cycle) or a fast-forward step (it jumped).
 */
bool timedStep(bsched::Gpu& gpu, StepTimes& times);

/** Gpu::run() with every step timed; adds the run's cycle totals. */
void timedRun(bsched::Gpu& gpu, StepTimes& times);

/** The RunResult runKernel() builds from a finished @p gpu. */
RunResult resultOf(const bsched::Gpu& gpu);

// --- workloads ------------------------------------------------------------

/**
 * Component probes: timed calls into public core/mem/kernel functions,
 * fed with the address streams coalesce() produces from @p kernels'
 * own memory patterns.
 */
void runProbes(const std::vector<bsched::KernelInfo>& kernels,
               Report& report);

/** paper_sweep's worker count: min(4, nproc). */
unsigned sweepJobs();

// Each workload reports only the per-layer metrics it exercises; run.py
// reports the rest as 0.
Report runPaperSweep(const Options& opts, Expectations& expect);
Report runServeOpen(const Options& opts, Expectations& expect);
Report runObservedRun(const Options& opts, Expectations& expect);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
