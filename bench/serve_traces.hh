/**
 * @file
 * The canonical serving scenarios shared by the serving figures
 * (fig_serving / E18 and fig_serve_trace / E19). One definition means
 * the committed bsched-serving-v1 and bsched-servetrace-v1 baselines
 * are built from byte-identical traces — a drift in one figure's copy
 * can't silently desynchronize the other's.
 */

#ifndef BSCHED_BENCH_SERVE_TRACES_HH
#define BSCHED_BENCH_SERVE_TRACES_HH

#include <string>
#include <vector>

#include "serve/traffic.hh"

namespace bsched::bench {

/** A named serving scenario. */
struct ServeTraceDef
{
    std::string name;
    TrafficSpec spec;
};

/** The three serving scenarios. Gaps are tuned against the suite's
 *  isolated runtimes (about 8k cycles for lud up to 624k for bp) so
 *  queues actually form without the trace running away. */
inline std::vector<ServeTraceDef>
makeServeTraces()
{
    std::vector<ServeTraceDef> traces;

    // Steady mixed load: two open-loop tenants, no deadlines.
    {
        TrafficSpec spec;
        spec.seed = 11;
        TenantSpec t0;
        t0.process = ArrivalProcess::Poisson;
        t0.mix = {"kmeans", "sc", "gemm"};
        t0.requests = 8;
        t0.meanGapCycles = 200000;
        TenantSpec t1;
        t1.process = ArrivalProcess::Poisson;
        t1.mix = {"srad", "hs", "lavamd"};
        t1.requests = 8;
        t1.meanGapCycles = 200000;
        spec.tenants = {t0, t1};
        traces.push_back({"poisson_mix", spec});
    }

    // The preemption showcase: a latency tenant firing bursts of short
    // deadline-bound kernels into a batch tenant's long Type-1/3
    // kernels. FCFS strands the bursts behind a long resident pair;
    // reordering admits them first when a slot frees; drain preemption
    // makes room immediately.
    {
        TrafficSpec spec;
        spec.seed = 23;
        TenantSpec latency;
        latency.process = ArrivalProcess::Bursty;
        latency.mix = {"lud", "nw", "lavamd"};
        latency.requests = 12;
        latency.burstLen = 4;
        latency.meanGapCycles = 600000;
        latency.intraBurstGapCycles = 1000;
        latency.deadlineSlack = 150000;
        TenantSpec batch;
        batch.process = ArrivalProcess::Poisson;
        batch.mix = {"bp", "bfs"};
        batch.requests = 4;
        batch.meanGapCycles = 700000;
        spec.tenants = {latency, batch};
        traces.push_back({"bursty_mix", spec});
    }

    // Closed loops: a single-outstanding long-kernel tenant against a
    // depth-2 short-kernel tenant.
    {
        TrafficSpec spec;
        spec.seed = 37;
        TenantSpec t0;
        t0.process = ArrivalProcess::ClosedLoop;
        t0.mix = {"mummer"};
        t0.requests = 4;
        t0.closedDepth = 1;
        t0.meanGapCycles = 20000;
        TenantSpec t1;
        t1.process = ArrivalProcess::ClosedLoop;
        t1.mix = {"lud", "nw", "pf"};
        t1.requests = 10;
        t1.closedDepth = 2;
        t1.meanGapCycles = 10000;
        spec.tenants = {t0, t1};
        traces.push_back({"closed_pair", spec});
    }
    return traces;
}

} // namespace bsched::bench

#endif // BSCHED_BENCH_SERVE_TRACES_HH
