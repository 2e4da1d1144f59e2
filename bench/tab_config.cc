/**
 * @file
 * E1 — the simulator-configuration table (the paper's "simulation
 * methodology" table): the GTX480-class machine every experiment uses.
 */

#include <cstdio>

#include "bench_common.hh"
#include "sim/config.hh"

int
main(int argc, char** argv)
{
    using namespace bsched;
    // No simulations here; parse anyway so every bench binary shares
    // the same CLI (a stray --jobs is accepted, a typo is rejected).
    const bench::BenchOptions opts = bench::parseArgs(argc, argv);
    const GpuConfig config = GpuConfig::gtx480();
    config.validate();
    std::printf("E1: simulated machine configuration (GTX480-class)\n\n%s",
                config.toString().c_str());

    BenchReport report("tab_config");
    report.addMetric("num_cores", config.numCores);
    report.addMetric("num_mem_partitions", config.numMemPartitions);
    report.addMetric("max_ctas_per_core", config.maxCtasPerCore);
    report.addMetric("l1d_size_bytes", config.l1d.sizeBytes);
    report.addMetric("l2_size_bytes", config.l2.sizeBytes);
    bench::writeReport(opts, report);
    return 0;
}
