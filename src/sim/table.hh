/**
 * @file
 * Plain-text table and ASCII bar-chart rendering for the experiment
 * harness. Every bench binary uses these to print the paper-style rows
 * and series.
 */

#ifndef BSCHED_SIM_TABLE_HH
#define BSCHED_SIM_TABLE_HH

#include <string>
#include <vector>

namespace bsched {

/** A simple column-aligned text table with an optional title. */
class Table
{
  public:
    explicit Table(std::string title = "");

    /** Set the header row. Must be called before addRow. */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match header width. */
    void addRow(std::vector<std::string> row);

    /** Convenience: format doubles with @p precision into a row. */
    void addRow(const std::string& label, const std::vector<double>& values,
                int precision = 3);

    /** Render column-aligned text. */
    std::string toText() const;

    std::size_t rowCount() const { return rows_.size(); }

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Horizontal ASCII bar chart: one labelled bar per (label, value) pair,
 * scaled so the longest bar is @p width characters. Used to render the
 * paper's figures in terminal output.
 */
std::string barChart(const std::string& title,
                     const std::vector<std::pair<std::string, double>>& data,
                     int width = 50, int precision = 3);

/** Format a double with fixed precision. */
std::string fmt(double value, int precision = 3);

} // namespace bsched

#endif // BSCHED_SIM_TABLE_HH
