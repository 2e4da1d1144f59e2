#include "sim/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/log.hh"

namespace bsched {

Table::Table(std::string title)
    : title_(std::move(title))
{}

void
Table::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
Table::addRow(std::vector<std::string> row)
{
    if (!header_.empty() && row.size() != header_.size())
        fatal("table row width ", row.size(), " != header width ",
              header_.size());
    rows_.push_back(std::move(row));
}

void
Table::addRow(const std::string& label, const std::vector<double>& values,
              int precision)
{
    std::vector<std::string> row;
    row.reserve(values.size() + 1);
    row.push_back(label);
    for (double v : values)
        row.push_back(fmt(v, precision));
    addRow(std::move(row));
}

std::string
Table::toText() const
{
    std::vector<std::size_t> widths(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& row) {
        if (row.size() > widths.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    widen(header_);
    for (const auto& row : rows_)
        widen(row);

    std::ostringstream os;
    if (!title_.empty())
        os << "== " << title_ << " ==\n";
    auto emit = [&](const std::vector<std::string>& row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
               << row[i];
        }
        os << "\n";
    };
    if (!header_.empty()) {
        emit(header_);
        std::size_t total = 0;
        for (std::size_t w : widths)
            total += w + 2;
        os << std::string(total, '-') << "\n";
    }
    for (const auto& row : rows_)
        emit(row);
    return os.str();
}

std::string
fmt(double value, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return os.str();
}

std::string
barChart(const std::string& title,
         const std::vector<std::pair<std::string, double>>& data,
         int width, int precision)
{
    std::ostringstream os;
    if (!title.empty())
        os << "== " << title << " ==\n";
    double max_val = 0.0;
    std::size_t label_w = 0;
    for (const auto& [label, value] : data) {
        max_val = std::max(max_val, value);
        label_w = std::max(label_w, label.size());
    }
    for (const auto& [label, value] : data) {
        int bar = (max_val > 0.0)
            ? static_cast<int>(value / max_val * width + 0.5) : 0;
        os << std::left << std::setw(static_cast<int>(label_w) + 1) << label
           << "|" << std::string(static_cast<std::size_t>(bar), '#')
           << std::string(static_cast<std::size_t>(width - bar), ' ')
           << "| " << fmt(value, precision) << "\n";
    }
    return os.str();
}

} // namespace bsched
