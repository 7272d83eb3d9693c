#include "common/table.h"

#include <fstream>
#include <sstream>

#include "gtest/gtest.h"
#include "testing/temp_dir.h"

namespace stsm {
namespace {

TEST(TableTest, TextRenderingAligned) {
  Table table({"Model", "RMSE"});
  table.AddRow({"STSM", "8.610"});
  table.AddRow({"INCREASE", "8.820"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("| Model"), std::string::npos);
  EXPECT_NE(text.find("STSM"), std::string::npos);
  EXPECT_NE(text.find("INCREASE"), std::string::npos);
  // Header separator row present.
  EXPECT_NE(text.find("|--"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  Table table({"a", "b"});
  table.AddRow({"1", "2"});
  EXPECT_EQ(table.ToCsv(), "a,b\n1,2\n");
}

TEST(TableTest, CsvQuotesSpecialCharacters) {
  Table table({"a", "b"});
  table.AddRow({"x,y", "he said \"hi\""});
  const std::string csv = table.ToCsv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table table({"h"});
  table.AddRow({"v"});
  ScopedTempDir dir;
  const std::string path = dir.File("table.csv");
  ASSERT_TRUE(table.WriteCsv(path));
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), "h\nv\n");
}

TEST(TableTest, NumRows) {
  Table table({"h"});
  EXPECT_EQ(table.num_rows(), 0);
  table.AddRow({"a"});
  table.AddRow({"b"});
  EXPECT_EQ(table.num_rows(), 2);
}

TEST(FormatFloatTest, DigitControl) {
  EXPECT_EQ(FormatFloat(3.14159, 2), "3.14");
  EXPECT_EQ(FormatFloat(3.14159, 4), "3.1416");
  EXPECT_EQ(FormatFloat(-0.5, 1), "-0.5");
  EXPECT_EQ(FormatFloat(2.0, 0), "2");
}

}  // namespace
}  // namespace stsm
