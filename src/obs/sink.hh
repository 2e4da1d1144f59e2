/**
 * @file
 * Structured sinks — the third pillar of the observability subsystem.
 *
 * Serializers that turn RunResults, StatSets and sampled time series
 * into machine-readable artifacts with *stable schemas*:
 *
 *  - `bsched-run-v1`   one simulated run (writeRunJson)
 *  - `bsched-bench-v1` one figure/table binary's results (BenchReport)
 *
 * Output is deterministic byte-for-byte: map iteration gives name
 * order, and jsonNumber() formats doubles locale-independently with
 * round-trip precision. Because the parallel harness is deterministic,
 * the same experiment serialized from a `--jobs 1` and a `--jobs N` run
 * produces identical bytes — a property the tests pin.
 */

#ifndef BSCHED_OBS_SINK_HH
#define BSCHED_OBS_SINK_HH

#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "harness/runner.hh"
#include "obs/sampler.hh"
#include "sim/stats.hh"

namespace bsched {

// --- JSON primitives ----------------------------------------------------

/** JSON-escape @p s (quotes, backslashes, control characters). */
std::string jsonEscape(const std::string& s);

/**
 * Deterministic JSON literal for @p value: integral doubles print as
 * integers, everything else with round-trip (%.17g) precision;
 * non-finite values become null.
 */
std::string jsonNumber(double value);

// --- writers ------------------------------------------------------------

/** Write a StatSet as a flat JSON object in name order. */
void writeStatsJson(std::ostream& os, const StatSet& stats);

/** Write a StatSet as "name,value" CSV lines (header included). */
void writeStatsCsv(std::ostream& os, const StatSet& stats);

/**
 * Write one run with the `bsched-run-v1` schema: label, headline
 * numbers, derived metrics, the full StatSet, and — when @p sampler is
 * non-null — its time series.
 */
void writeRunJson(std::ostream& os, const RunResult& result,
                  const std::string& label,
                  const IntervalSampler* sampler = nullptr);

// --- bench report -------------------------------------------------------

/**
 * Accumulates one figure/table binary's results and serializes them
 * with the `bsched-bench-v1` schema (the BENCH_*.json artifacts).
 * Rows and metrics serialize in insertion order; nothing
 * parallelism-dependent (job counts, wall clock) is included, so the
 * bytes are identical for any --jobs value.
 */
class BenchReport
{
  public:
    explicit BenchReport(std::string bench_name);

    /** Append one simulated point (label must be unique per report). */
    void addRow(const std::string& label, const RunResult& result);

    /** Append one derived scalar (geomean speedup, oracle gap, ...). */
    void addMetric(const std::string& name, double value);

    std::size_t rows() const { return rows_.size(); }

    void writeJson(std::ostream& os) const;

    /** writeJson to a string (tests, byte-identity checks). */
    std::string toJson() const;

  private:
    struct Row
    {
        std::string label;
        Cycle cycles = 0;
        std::uint64_t instrs = 0;
        double ipc = 0.0;
        double l1MissRate = 0.0;
        double l2MissRate = 0.0;
        double dramRowHitRate = 0.0;
    };

    std::string name_;
    std::vector<Row> rows_;
    std::vector<std::pair<std::string, double>> metrics_;
};

/**
 * Open @p path and hand the stream to @p writer; fatal() if the file
 * cannot be created. Returns the number of bytes written.
 */
std::size_t writeFile(const std::string& path,
                      const std::function<void(std::ostream&)>& writer);

} // namespace bsched

#endif // BSCHED_OBS_SINK_HH
