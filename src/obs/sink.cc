#include "obs/sink.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/log.hh"

namespace bsched {

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    // Integral values print exactly (cycle counts, instruction totals);
    // everything else with round-trip precision. snprintf with the
    // default "C" locale keeps the decimal point deterministic.
    if (value == std::rint(value) && std::fabs(value) < 9.0e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
writeStatsJson(std::ostream& os, const StatSet& stats)
{
    os << "{";
    bool first = true;
    for (const auto& [name, value] : stats.entries()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << jsonNumber(value);
    }
    os << "}";
}

void
writeStatsCsv(std::ostream& os, const StatSet& stats)
{
    os << "name,value\n";
    for (const auto& [name, value] : stats.entries())
        os << name << "," << jsonNumber(value) << "\n";
}

namespace {

/** Write sampled time series as a JSON object (period, cycles, data). */
void
writeSeriesJson(std::ostream& os, const IntervalSampler& sampler)
{
    os << "{\"period\":" << sampler.period() << ",\"cycles\":[";
    bool first = true;
    for (Cycle c : sampler.cycles()) {
        if (!first)
            os << ",";
        first = false;
        os << c;
    }
    os << "],\"data\":{";
    first = true;
    for (const auto& [name, series] : sampler.series()) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":{\"kind\":\""
           << toString(series.kind) << "\",\"values\":[";
        bool v_first = true;
        for (double v : series.values) {
            if (!v_first)
                os << ",";
            v_first = false;
            os << jsonNumber(v);
        }
        os << "]}";
    }
    os << "}}";
}

} // namespace

void
writeRunJson(std::ostream& os, const RunResult& result,
             const std::string& label, const IntervalSampler* sampler)
{
    os << "{\"schema\":\"bsched-run-v1\",\"label\":\"" << jsonEscape(label)
       << "\",\"cycles\":" << result.cycles
       << ",\"instrs\":" << result.instrs
       << ",\"ipc\":" << jsonNumber(result.ipc) << ",\"metrics\":{"
       << "\"l1_miss_rate\":" << jsonNumber(result.l1MissRate())
       << ",\"l2_miss_rate\":" << jsonNumber(result.l2MissRate())
       << ",\"dram_row_hit_rate\":" << jsonNumber(result.dramRowHitRate())
       << "},\"stats\":";
    writeStatsJson(os, result.stats);
    if (sampler != nullptr) {
        os << ",\"series\":";
        writeSeriesJson(os, *sampler);
    }
    os << "}\n";
}

BenchReport::BenchReport(std::string bench_name)
    : name_(std::move(bench_name))
{}

void
BenchReport::addRow(const std::string& label, const RunResult& result)
{
    for (const Row& row : rows_) {
        if (row.label == label)
            fatal("bench report '", name_, "': duplicate row label '",
                  label, "'");
    }
    rows_.push_back({label, result.cycles, result.instrs, result.ipc,
                     result.l1MissRate(), result.l2MissRate(),
                     result.dramRowHitRate()});
}

void
BenchReport::addMetric(const std::string& name, double value)
{
    metrics_.emplace_back(name, value);
}

void
BenchReport::writeJson(std::ostream& os) const
{
    os << "{\"schema\":\"bsched-bench-v1\",\"bench\":\""
       << jsonEscape(name_) << "\",\"rows\":[";
    bool first = true;
    for (const Row& row : rows_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"label\":\"" << jsonEscape(row.label)
           << "\",\"cycles\":" << row.cycles << ",\"instrs\":" << row.instrs
           << ",\"ipc\":" << jsonNumber(row.ipc)
           << ",\"l1_miss_rate\":" << jsonNumber(row.l1MissRate)
           << ",\"l2_miss_rate\":" << jsonNumber(row.l2MissRate)
           << ",\"dram_row_hit_rate\":" << jsonNumber(row.dramRowHitRate)
           << "}";
    }
    os << "],\"metrics\":{";
    first = true;
    for (const auto& [name, value] : metrics_) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(name) << "\":" << jsonNumber(value);
    }
    os << "}}\n";
}

std::string
BenchReport::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

std::size_t
writeFile(const std::string& path,
          const std::function<void(std::ostream&)>& writer)
{
    std::ostringstream buffer;
    writer(buffer);
    const std::string bytes = buffer.str();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("cannot open '", path, "' for writing");
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out)
        fatal("write to '", path, "' failed");
    return bytes.size();
}

} // namespace bsched
