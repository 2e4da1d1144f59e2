/**
 * @file
 * Simulator-performance guardrail: the sim rate of a small kernel bare,
 * with the tracer+sampler stack, with the cycle-accounting profiler,
 * with the request-level memory profiler, and with the phase
 * telemetry; a serving-engine pair with and without the decision audit
 * attached (serve_plain/servetraced); plus a `fast_forward` section
 * timing an idle-heavy and a fully-busy microkernel with idle
 * fast-forward on and off. Every point runs in one interleaved trial
 * schedule (measureInterleaved), so each overhead or speedup ratio
 * divides measurements taken moments apart.
 *
 * The result is a `bsched-simspeed-v1` artifact, written to
 * `--emit-json FILE` or else to stdout. The committed
 * bench/BENCH_simspeed.json baseline is produced this way and CI's
 * perf-smoke job diffs a fresh artifact against it with
 * tools/bench_compare.py. That script judges every rate and ratio
 * against the baseline (memprofiled_vs_plain only that way) and holds
 * hard floors on the observed, profiled, phase and servetraced
 * overhead ratios and the fast-forward speedups. The
 * command line is the figures' (bench::parseArgs); the measurement is
 * serial by design, so `--jobs` changes nothing.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "gpu/gpu.hh"
#include "harness/runner.hh"
#include "kernel/program_builder.hh"
#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "obs/profile.hh"
#include "obs/sampler.hh"
#include "obs/sink.hh"
#include "obs/trace.hh"
#include "serve/engine.hh"
#include "serve/serve_trace.hh"
#include "serve/traffic.hh"

namespace {

using namespace bsched;

KernelInfo
smallKernel()
{
    KernelInfo k;
    k.name = "micro";
    k.grid = {30, 1, 1};
    k.cta = {128, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder builder;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x1000000;
    const auto i = builder.pattern(in);
    builder.loop(16).load(i).alu(4).endLoop();
    k.program = builder.build();
    return k;
}

/**
 * Idle-heavy microkernel: a single warp chasing dependent long-latency
 * loads on an otherwise empty GPU. With exactly one request in flight
 * at a time every memory hop (interconnect, L2, DRAM, return path) is
 * a quiet span of the full hop latency, so the overwhelming majority
 * of cycles are elidable. This is the idle fast-forward showcase — and
 * with fast-forward off, the worst case for the plain tick loop.
 */
KernelInfo
idleHeavyKernel()
{
    KernelInfo k;
    k.name = "idle_heavy";
    k.grid = {1, 1, 1};
    k.cta = {32, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder builder;
    MemPattern in;
    in.kind = AccessKind::Coalesced;
    in.base = 0x2000000;
    const auto i = builder.pattern(in);
    builder.loop(256).load(i).alu(1).endLoop();
    k.program = builder.build();
    return k;
}

/**
 * Fully-busy microkernel: maximum-occupancy pure-ALU CTAs that issue
 * every cycle on every core. Fast-forward never fires here, so the
 * ff_on/ff_off ratio bounds the overhead of the quiet-cycle gate
 * itself.
 */
KernelInfo
busyKernel()
{
    KernelInfo k;
    k.name = "busy";
    k.grid = {60, 1, 1};
    k.cta = {256, 1, 1};
    k.regsPerThread = 16;
    ProgramBuilder builder;
    builder.loop(64).alu(1).endLoop();
    k.program = builder.build();
    return k;
}

/** One measured simulator configuration for the simspeed artifact. */
struct RateSample
{
    double simCyclesPerSec = 0.0;       ///< best trial
    std::uint64_t cyclesPerRep = 0;
    std::uint64_t reps = 0;             ///< simulations per trial
    double wallSec = 0.0;               ///< wall time of the best trial
    std::vector<double> trialRates;     ///< every trial, in time order
};

/**
 * Timed trials per measured configuration. The artifact's gated ratios
 * are medians over per-trial pairs (pairedRatio below), so this is
 * also the sample count behind every overhead/speedup figure.
 */
constexpr int kRateTrials = 5;

/**
 * Simulated cycles one trial of a point covers at least. Each point
 * runs ceil(kMinTrialCycles / cyclesPerRep) simulations per trial: 22
 * for the 4,753-cycle toy kernel, one for a 345,905-cycle serving run.
 * A rep count shared by all points would make each serving trial about
 * 70x as long as a toy-kernel trial.
 */
constexpr std::uint64_t kMinTrialCycles = 100'000;

/** Which observers the measured runs attach. */
enum class ObsMode
{
    Plain,       ///< no observers — the null-pointer disabled path
    Observed,    ///< tracer + interval sampler (as --trace runs)
    Profiled,    ///< cycle-accounting profiler only (as --profile runs)
    MemProfiled, ///< memory profiler only (as --mem-profile runs)
    Phased,      ///< phase telemetry only (as --phase runs)
    ServePlain,  ///< serving engine, no audit — the null-trace_ path
    ServeTraced  ///< serving engine with the decision audit attached
};

/**
 * Small serving trace for the serve_plain/servetraced overhead pair:
 * two closed-loop tenants cycling the suite's shortest kernels, so the
 * run is dominated by engine decisions (admissions, completions,
 * predictor updates) rather than one long kernel — the worst realistic
 * case for per-decision audit bookkeeping.
 */
TrafficSpec
serveSpec()
{
    TrafficSpec spec;
    spec.seed = 7;
    TenantSpec t0;
    t0.process = ArrivalProcess::ClosedLoop;
    t0.mix = {"lud", "nw"};
    t0.requests = 8;
    t0.closedDepth = 2;
    t0.meanGapCycles = 5000;
    TenantSpec t1;
    t1.process = ArrivalProcess::ClosedLoop;
    t1.mix = {"pf"};
    t1.requests = 6;
    t1.closedDepth = 1;
    t1.meanGapCycles = 8000;
    spec.tenants = {t0, t1};
    return spec;
}

/** One complete simulation with the observers of @p mode attached. */
std::uint64_t
simulateOnce(const GpuConfig& config, const KernelInfo& kernel, ObsMode mode)
{
    if (mode == ObsMode::ServePlain || mode == ObsMode::ServeTraced) {
        // Serving-engine pair: @p kernel is unused — the engine builds
        // its own pool from the trace's workload names.
        ServeConfig serve;
        serve.policy = ServePolicy::ReorderPreempt;
        ServingEngine engine(config, serve);
        ServeTrace trace;
        if (mode == ObsMode::ServeTraced)
            engine.setTrace(&trace);
        return engine.run(generateTrace(serveSpec())).totalCycles;
    }

    // Construct only the observers the mode attaches: an idle
    // Tracer still allocates its event buffers, which would bill a
    // constant per-rep cost against every mode — enough to distort
    // the short fast-forwarded reps this function times.
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<IntervalSampler> sampler;
    std::unique_ptr<CycleProfiler> profiler;
    std::unique_ptr<MemProfiler> mem_profiler;
    std::unique_ptr<PhaseTelemetry> phase;
    Observer obs;
    if (mode == ObsMode::Observed) {
        tracer = std::make_unique<Tracer>(config.numCores,
                                          config.numMemPartitions);
        sampler = std::make_unique<IntervalSampler>(512);
        obs.tracer = tracer.get();
        obs.sampler = sampler.get();
    } else if (mode == ObsMode::Profiled) {
        profiler = std::make_unique<CycleProfiler>();
        obs.profiler = profiler.get();
    } else if (mode == ObsMode::MemProfiled) {
        mem_profiler = std::make_unique<MemProfiler>();
        obs.memProfiler = mem_profiler.get();
    } else if (mode == ObsMode::Phased) {
        // Phase telemetry alone: this is the --phase overhead on the
        // always-available counters; interference channels (a
        // MemProfiler riding along) are billed by MemProfiled above.
        phase = std::make_unique<PhaseTelemetry>();
        obs.phase = phase.get();
    }
    Gpu gpu(config, obs);
    gpu.launchKernel(kernel);
    gpu.run();
    return gpu.cycle();
}

/** One measurement request for measureInterleaved(). */
struct RatePoint
{
    const GpuConfig* config = nullptr;
    const KernelInfo* kernel = nullptr;
    ObsMode mode = ObsMode::Plain;
};

/**
 * Time every point kRateTrials times, each trial at least
 * kMinTrialCycles simulated cycles, with the trial loop on the
 * *outside*: trial t of every point runs back-to-back before trial t+1
 * of any. Ratios between two points' same-index trials therefore
 * compare measurements taken moments apart — see pairedRatio() for why
 * that matters.
 */
std::vector<RateSample>
measureInterleaved(const std::vector<RatePoint>& points)
{
    using Clock = std::chrono::steady_clock;
    std::vector<RateSample> samples(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        // Warmup, also pins the per-rep cycle count and so the reps.
        RateSample& sample = samples[i];
        sample.cyclesPerRep = simulateOnce(
            *points[i].config, *points[i].kernel, points[i].mode);
        sample.reps = (kMinTrialCycles + sample.cyclesPerRep - 1) /
            sample.cyclesPerRep;
    }
    for (int trial = 0; trial < kRateTrials; ++trial) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Clock::time_point t0 = Clock::now();
            std::uint64_t total_cycles = 0;
            for (std::uint64_t rep = 0; rep < samples[i].reps; ++rep) {
                total_cycles += simulateOnce(*points[i].config,
                                             *points[i].kernel,
                                             points[i].mode);
            }
            const double wall =
                std::chrono::duration<double>(Clock::now() - t0).count();
            if (wall <= 0.0)
                continue;
            const double rate = static_cast<double>(total_cycles) / wall;
            RateSample& sample = samples[i];
            sample.trialRates.push_back(rate);
            if (rate > sample.simCyclesPerSec) {
                sample.simCyclesPerSec = rate;
                sample.wallSec = wall;
            }
        }
    }
    return samples;
}

/**
 * Robust ratio of two rate measurements: the median of the per-trial
 * rate ratios (trial i of @p num against trial i of @p den). The two
 * mode's trials are interleaved in time by the caller, so host-speed
 * drift — the dominant noise on virtualized runners, where wall rates
 * can swing tens of percent between seconds — hits both sides of each
 * pair about equally and cancels in the ratio; the median then absorbs
 * one descheduled pair. Dividing best-of-N rates instead (the obvious
 * alternative) compares trials from *different* moments, which is
 * exactly the drift this avoids.
 */
double
pairedRatio(const RateSample& num, const RateSample& den)
{
    std::vector<double> ratios;
    const std::size_t n =
        std::min(num.trialRates.size(), den.trialRates.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (den.trialRates[i] > 0.0)
            ratios.push_back(num.trialRates[i] / den.trialRates[i]);
    }
    if (ratios.empty())
        return 0.0;
    std::sort(ratios.begin(), ratios.end());
    return ratios[ratios.size() / 2];
}

/**
 * Measure every point and write the `bsched-simspeed-v1` artifact to
 * @p path (stdout when empty). Absolute rates are machine-dependent
 * (tools/bench_compare.py gates them with tolerance); the overhead and
 * speedup ratios are machine-independent budgets gated with hard
 * floors.
 */
void
writeSimspeedJson(const std::string& path)
{
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::RoundRobin);
    const KernelInfo kernel = smallKernel();

    // Fast-forward on/off configs; explicit flags so the section
    // measures both paths regardless of the process-wide default.
    GpuConfig ff_on_cfg = config;
    ff_on_cfg.fastForward = true;
    GpuConfig ff_off_cfg = config;
    ff_off_cfg.fastForward = false;
    const KernelInfo idle_kernel = idleHeavyKernel();
    const KernelInfo busy_kernel = busyKernel();

    // All eleven points in ONE interleaved trial schedule, so every
    // gated ratio (observer overheads, serve-audit overhead,
    // fast-forward speedups) divides measurements taken moments apart.
    const std::vector<RatePoint> points = {
        {&config, &kernel, ObsMode::Plain},
        {&config, &kernel, ObsMode::Observed},
        {&config, &kernel, ObsMode::Profiled},
        {&config, &kernel, ObsMode::MemProfiled},
        {&config, &kernel, ObsMode::Phased},
        {&ff_on_cfg, &idle_kernel, ObsMode::Plain},
        {&ff_off_cfg, &idle_kernel, ObsMode::Plain},
        {&ff_on_cfg, &busy_kernel, ObsMode::Plain},
        {&ff_off_cfg, &busy_kernel, ObsMode::Plain},
        {&config, &kernel, ObsMode::ServePlain},
        {&config, &kernel, ObsMode::ServeTraced},
    };
    const std::vector<RateSample> samples = measureInterleaved(points);
    const RateSample& plain = samples[0];
    const RateSample& observed = samples[1];
    const RateSample& profiled = samples[2];
    const RateSample& mem_profiled = samples[3];
    const RateSample& phased = samples[4];
    const RateSample& idle_on = samples[5];
    const RateSample& idle_off = samples[6];
    const RateSample& busy_on = samples[7];
    const RateSample& busy_off = samples[8];
    const RateSample& serve_plain = samples[9];
    const RateSample& serve_traced = samples[10];

    auto mode_json = [](std::ostream& os, const char* name,
                        const RateSample& s, bool last) {
        os << "    \"" << name << "\": {\"sim_cycles_per_s\": "
           << jsonNumber(s.simCyclesPerSec) << ", \"cycles_per_rep\": "
           << s.cyclesPerRep << ", \"wall_s\": " << jsonNumber(s.wallSec)
           << "}" << (last ? "\n" : ",\n");
    };
    auto ratio = [&](const RateSample& s) { return pairedRatio(s, plain); };
    auto speedup = [](const RateSample& on, const RateSample& off) {
        return pairedRatio(on, off);
    };
    auto ff_json = [&](std::ostream& os, const char* name,
                       const RateSample& on, const RateSample& off,
                       bool last) {
        os << "    \"" << name << "\": {\n";
        os << "  ";
        mode_json(os, "ff_on", on, false);
        os << "  ";
        mode_json(os, "ff_off", off, false);
        os << "      \"speedup\": " << jsonNumber(speedup(on, off))
           << "\n    }" << (last ? "\n" : ",\n");
    };
    auto write = [&](std::ostream& os) {
        os << "{\n  \"schema\": \"bsched-simspeed-v1\",\n"
           << "  \"kernel\": \"" << jsonEscape(kernel.name) << "\",\n"
           << "  \"reps\": " << plain.reps << ",\n  \"modes\": {\n";
        mode_json(os, "plain", plain, false);
        mode_json(os, "observed", observed, false);
        mode_json(os, "profiled", profiled, false);
        mode_json(os, "memprofiled", mem_profiled, false);
        mode_json(os, "phased", phased, false);
        mode_json(os, "serve_plain", serve_plain, false);
        mode_json(os, "servetraced", serve_traced, true);
        os << "  },\n  \"relative_rate\": {\"observed_vs_plain\": "
           << jsonNumber(ratio(observed)) << ", \"profiled_vs_plain\": "
           << jsonNumber(ratio(profiled))
           << ", \"memprofiled_vs_plain\": "
           << jsonNumber(ratio(mem_profiled))
           << ", \"phase_vs_plain\": "
           << jsonNumber(ratio(phased))
           << ", \"servetraced_vs_plain\": "
           << jsonNumber(pairedRatio(serve_traced, serve_plain)) << "},\n"
           << "  \"fast_forward\": {\n";
        ff_json(os, "idle_heavy", idle_on, idle_off, false);
        ff_json(os, "busy", busy_on, busy_off, true);
        os << "  }\n}\n";
    };
    if (path.empty()) {
        write(std::cout);
        return;
    }
    const std::size_t bytes = writeFile(path, write);
    std::fprintf(stderr, "wrote %s (%zu bytes)\n", path.c_str(), bytes);
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    writeSimspeedJson(opts.emitJsonPath);
    return 0;
}
