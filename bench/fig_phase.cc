/**
 * @file
 * E20 — why a one-shot N_opt is wrong for half the run: the "phased"
 * composite (compute-bound prologue into cache-thrashing epilogue)
 * run under GTO + Lazy-LCS with the phase telemetry attached. The
 * windowed metrics segment the run into phases online, and the
 * detected boundary lines up with the inflection of the E17
 * interference counters (cross-CTA eviction rate, DRAM-queue
 * occupancy) — direct evidence that the interference regime, and
 * hence the static-best CTA limit, changes mid-kernel. Sweeping each
 * regime standalone gives two different static optima; LCS's single
 * converged pick can match at most one of them.
 *
 * Reproduces: the paper's Section 6 observation that workload
 * behaviour is phasic and a single sampled decision goes stale, plus
 * the DynCTA motivation for continuous monitoring (PAPERS.md).
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "harness/runner.hh"
#include "kernel/occupancy.hh"
#include "obs/mem_profile.hh"
#include "obs/phase/phase.hh"
#include "sim/log.hh"
#include "sim/table.hh"
#include "workloads/suite.hh"

namespace {

using namespace bsched;

/** Best two-segment step fit over windows [lo, n): the split
 *  minimizing the summed squared deviation from the two segment
 *  means — the classic change point. */
std::size_t
changePoint(const std::vector<double>& series, std::size_t lo,
            std::size_t n)
{
    auto sse = [&](std::size_t a, std::size_t b) {
        double mean = 0.0;
        for (std::size_t i = a; i < b; ++i)
            mean += series[i];
        mean /= static_cast<double>(b - a);
        double err = 0.0;
        for (std::size_t i = a; i < b; ++i)
            err += (series[i] - mean) * (series[i] - mean);
        return err;
    };
    std::size_t at = lo + 1;
    double best = -1.0;
    for (std::size_t w = lo + 1; w < n; ++w) {
        const double err = sse(lo, w) + sse(w, n);
        if (best < 0.0 || err < best) {
            best = err;
            at = w;
        }
    }
    return at;
}

/**
 * Window where the E17 interference counters say the memory regime
 * flips: the change point of the L2 cross-CTA eviction rate. The L2
 * is the one cache shared machine-wide, so its eviction rate flips
 * only when the thrash regime goes bulk; the per-core L1 cross rates
 * lead it (GTO trickles the oldest warps into the epilogue early) and
 * the MSHR occupancy is dominated by the launch ramp. Window 0 (every
 * warp's cold misses at once) and the final partial-width drain-tail
 * window are excluded from the fit.
 */
std::size_t
interferenceInflection(const WindowedMetrics& m)
{
    return changePoint(m.l2CrossRate(), 1, m.windows() - 1);
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const GpuConfig config = makeConfig(WarpSchedKind::GTO,
                                        CtaSchedKind::Lazy);
    const KernelInfo phased = makeWorkload("phased");

    std::printf("E20: online phase detection on the phased composite "
                "(GTO, Lazy CTA scheduler; %u jobs)\n\n",
                opts.jobs);

    // The canonical phased run: phase telemetry for the detector plus
    // the memory profiler so every window carries the E17 interference
    // channels (the detector itself never reads them).
    PhaseTelemetry phase;
    MemProfiler mem_profiler;
    Observer obs;
    obs.phase = &phase;
    obs.memProfiler = &mem_profiler;
    const RunResult run = runKernel(config, phased, obs);

    const WindowedMetrics& m = phase.metrics();
    const PhaseDetector& machine = phase.machine();
    if (machine.phases().size() < 2) {
        fatal("fig_phase: expected >= 2 machine phases on the phased "
              "composite, detected ", machine.phases().size());
    }
    if (!m.hasInterference())
        fatal("fig_phase: windows carry no interference channels");

    // A detected boundary must line up with the interference
    // inflection. The detector may legitimately segment the launch
    // ramp-up as its own phase, so check the boundary nearest the
    // inflection — the compute->thrash transition must be among the
    // detected changes. (The check itself runs after the table below
    // so a failing run still shows its windows.)
    const std::size_t inflection = interferenceInflection(m);
    std::size_t boundary = machine.phases()[1].startWindow;
    std::size_t miss = static_cast<std::size_t>(-1);
    for (std::size_t p = 1; p < machine.phases().size(); ++p) {
        const std::size_t start = machine.phases()[p].startWindow;
        const std::size_t d = start > inflection
            ? start - inflection : inflection - start;
        if (d < miss) {
            miss = d;
            boundary = start;
        }
    }

    Table windows("phased: windowed metrics (window = " +
                  std::to_string(phase.config().windowCycles) +
                  " cycles)");
    windows.setHeader({"w", "end", "ipc", "stall_mem", "l1_miss",
                       "rowhit", "l1x/kc", "l2x/kc", "dram_qocc",
                       "mshr_occ", "phase", ""});
    std::vector<std::size_t> phaseOfWindow(m.windows(), 0);
    for (std::size_t p = 0; p < machine.phases().size(); ++p) {
        const auto& ph = machine.phases()[p];
        for (std::size_t w = ph.startWindow;
             w < m.windows(); ++w)
            phaseOfWindow[w] = p;
    }
    for (std::size_t w = 0; w < m.windows(); ++w) {
        std::string marker;
        if (w > 0 && phaseOfWindow[w] != phaseOfWindow[w - 1])
            marker = "<- phase change";
        if (w == inflection)
            marker += marker.empty() ? "<- E17 inflection"
                                     : " + E17 inflection";
        windows.addRow({std::to_string(w),
                        std::to_string(m.endCycles()[w]),
                        fmt(m.ipc()[w], 2),
                        fmt(m.stallMemShare()[w], 3),
                        fmt(m.l1MissRate()[w], 3),
                        fmt(m.rowHitRate()[w], 3),
                        fmt(m.l1CrossRate()[w], 1),
                        fmt(m.l2CrossRate()[w], 1),
                        fmt(m.dramQOccupancy()[w], 1),
                        fmt(m.l2MshrOccupancy()[w], 1),
                        std::to_string(phaseOfWindow[w]), marker});
    }
    std::printf("%s\n", windows.toText().c_str());
    std::printf("change points: l1x=%zu l2x=%zu mshr=%zu -> "
                "inflection=%zu; nearest boundary=%zu\n\n",
                changePoint(m.l1CrossRate(), 1, m.windows() - 1),
                changePoint(m.l2CrossRate(), 1, m.windows() - 1),
                changePoint(m.l2MshrOccupancy(), 1, m.windows() - 1),
                inflection, boundary);

    if (miss > 2) {
        fatal("fig_phase: detected boundary (window ", boundary,
              ") does not match the interference inflection (window ",
              inflection, ")");
    }

    // Per-regime static optima vs the composite's one-shot pick.
    const KernelInfo pro = makePhasedPrologue();
    const KernelInfo epi = makePhasedEpilogue();
    GpuConfig sweep = config;
    sweep.ctaSched = CtaSchedKind::RoundRobin;
    const auto regime_best = oracleStaticBest(sweep, {pro, epi}, opts.jobs);
    const OracleResult& pro_best = regime_best[0];
    const OracleResult& epi_best = regime_best[1];
    const std::uint32_t n_lcs =
        bench::lcsChosenLimits(config, {phased}, opts.jobs)[0];

    Table regimes("per-regime static-best CTA limit vs one-shot pick");
    regimes.setHeader({"regime", "N_best", "N_max", "ipc@best", ""});
    regimes.addRow({"prologue (compute)",
                    std::to_string(pro_best.bestLimit),
                    std::to_string(pro_best.maxLimit),
                    fmt(pro_best.byLimit[pro_best.bestLimit - 1].ipc, 2),
                    ""});
    regimes.addRow({"epilogue (thrash)",
                    std::to_string(epi_best.bestLimit),
                    std::to_string(epi_best.maxLimit),
                    fmt(epi_best.byLimit[epi_best.bestLimit - 1].ipc, 2),
                    ""});
    regimes.addRow({"composite (LCS)", std::to_string(n_lcs), "-", "-",
                    "<- one pick for both"});
    std::printf("%s\n", regimes.toText().c_str());

    std::printf("Reading: the detector segments the run at window %zu "
                "— exactly where the shared L2's\ncross-CTA eviction "
                "rate flips (window %zu) — and the two regimes want "
                "different static\nlimits (%u vs %u). Any "
                "single N_opt, including LCS's converged %u, is wrong "
                "for one half\nof the run; only continuous monitoring "
                "can see the change.\n",
                boundary, inflection, pro_best.bestLimit,
                epi_best.bestLimit, n_lcs);

    BenchReport report("fig_phase");
    report.addRow("phased/lazy", run);
    report.addMetric("machine.phase_count",
                     static_cast<double>(machine.phases().size()));
    report.addMetric("machine.boundary_window",
                     static_cast<double>(boundary));
    report.addMetric("interference.inflection_window",
                     static_cast<double>(inflection));
    report.addMetric("windows", static_cast<double>(m.windows()));
    report.addMetric("prologue.n_best",
                     static_cast<double>(pro_best.bestLimit));
    report.addMetric("epilogue.n_best",
                     static_cast<double>(epi_best.bestLimit));
    report.addMetric("composite.lcs_n_opt", static_cast<double>(n_lcs));
    bench::writeReport(opts, report);

    // The E20 phase artifact is this exact canonical run, not the
    // representative re-run's.
    bench::writeRunArtifacts(
        opts, config, phased, "phased/lazy",
        {{"phase.json", [&](std::ostream& os) {
              writePhaseJson(os, phase, "fig_phase/phased/lazy");
          }}});
    return 0;
}
