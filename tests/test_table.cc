/**
 * @file
 * Unit tests for the table and bar-chart renderers.
 */

#include <gtest/gtest.h>

#include "sim/table.hh"

namespace bsched {
namespace {

TEST(Table, TextRenderingAlignsColumns)
{
    Table t("demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string text = t.toText();
    EXPECT_NE(text.find("demo"), std::string::npos);
    EXPECT_NE(text.find("alpha"), std::string::npos);
    // Header separator line present.
    EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, NumericRowFormatsPrecision)
{
    Table t;
    t.setHeader({"w", "x", "y"});
    t.addRow("k", {1.23456, 2.0}, 2);
    const std::string text = t.toText();
    EXPECT_NE(text.find("1.23 "), std::string::npos);
    EXPECT_EQ(text.find("1.235"), std::string::npos);
    EXPECT_NE(text.find("2.00"), std::string::npos);
}

TEST(Table, MismatchedRowWidthDies)
{
    Table t;
    t.setHeader({"a", "b"});
    EXPECT_DEATH(t.addRow({"only-one"}), "row width");
}

TEST(Fmt, FixedPrecision)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
}

TEST(BarChart, ScalesToLongestBar)
{
    const auto chart = barChart("t", {{"a", 2.0}, {"b", 1.0}}, 10, 1);
    // The max bar has 10 hashes, the half-size bar 5.
    EXPECT_NE(chart.find("##########"), std::string::npos);
    EXPECT_EQ(chart.find("###########"), std::string::npos);
}

TEST(BarChart, HandlesAllZeroValues)
{
    const auto chart = barChart("z", {{"a", 0.0}}, 10, 1);
    EXPECT_NE(chart.find("a"), std::string::npos);
    EXPECT_EQ(chart.find("#"), std::string::npos);
}

} // namespace
} // namespace bsched
