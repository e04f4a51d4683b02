#include "pbs/sim/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace pbs {
namespace {

TEST(Table, RendersAlignedColumnsAndCsv) {
  Table table{"bench", "caption", {"d", "scheme", "bytes"}, {}};
  table.AddRow({"10", "PBS", "123"});
  table.AddRow({"100", "PinSketch", "4"});
  const std::string s = table.ToString();
  EXPECT_EQ(s.rfind("caption\nd    scheme     bytes", 0), 0u);
  EXPECT_EQ(table.At(1, "scheme").text, "PinSketch");
  EXPECT_THROW(table.At(0, "rounds"), std::out_of_range);
  EXPECT_NE(s.find("# csv: d,scheme,bytes"), std::string::npos);
  EXPECT_NE(s.find("# csv: 100,PinSketch,4"), std::string::npos);
}

TEST(Table, ShortRowsArePadded) {
  Table table{"bench", "", {"a", "b", "c"}, {}};
  table.AddRow({"1"});
  const std::string s = table.ToString();
  EXPECT_NE(s.find("# csv: 1,,"), std::string::npos);
}

TEST(Formatting, Doubles) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
}

TEST(Formatting, Scientific) {
  EXPECT_EQ(FormatScientific(0.000361, 2), "3.61e-04");
}

TEST(Formatting, Bytes) {
  EXPECT_EQ(FormatBytes(100), "100B");
  EXPECT_EQ(FormatBytes(2048), "2.00KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3.00MB");
}

}  // namespace
}  // namespace pbs
