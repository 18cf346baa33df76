#include <gtest/gtest.h>

#include <cmath>

#include "util/assert.hpp"
#include "util/table.hpp"

namespace cid {
namespace {

TEST(FormatDouble, FixedAndScientificRegimes) {
  EXPECT_EQ(format_double(1.5, 2), "1.50");
  EXPECT_EQ(format_double(0.0, 3), "0.000");
  EXPECT_EQ(format_double(1.23e9, 2), "1.23e+09");
  EXPECT_EQ(format_double(5e-7, 1), "5.0e-07");
  EXPECT_EQ(format_double(std::nan(""), 2), "nan");
}

TEST(Table, AlignedRendering) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{12});
  t.row().cell("b").cell(3.5, 1);
  const std::string s = t.to_string("demo");
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("3.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, RejectsMisuse) {
  Table t({"a", "b"});
  EXPECT_THROW(t.cell("no row yet"), invariant_violation);
  t.row().cell("1").cell("2");
  EXPECT_THROW(t.cell("overflow"), invariant_violation);
  t.row().cell("only one");
  EXPECT_THROW(t.row(), invariant_violation);  // previous row incomplete
}

TEST(Table, PlusMinusCell) {
  Table t({"v"});
  t.row().cell_pm(1.23456, 0.01, 2);
  EXPECT_NE(t.to_string().find("1.23 ± 0.01"), std::string::npos);
}

}  // namespace
}  // namespace cid
