// Tests for CSV dataset I/O and SVG map rendering.

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "data/csv_io.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "data/svg_map.h"
#include "gtest/gtest.h"
#include "testing/temp_dir.h"

namespace stsm {
namespace {

SpatioTemporalDataset TinyDataset() {
  SimulatorConfig config;
  config.name = "csv-io-test";
  config.kind = RegionKind::kHighway;
  config.num_sensors = 12;
  config.num_days = 2;
  config.steps_per_day = 12;
  config.area_km = 10.0;
  config.seed = 77;
  return SimulateDataset(config);
}

class CsvIoTest : public ::testing::Test {
 protected:
  ScopedTempDir dir_;
  const std::string directory_ = dir_.path();
};

TEST_F(CsvIoTest, RoundTripPreservesEverything) {
  const SpatioTemporalDataset original = TinyDataset();
  ASSERT_TRUE(SaveDatasetCsv(original, directory_));
  const auto loaded = LoadDatasetCsv(directory_);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->name, original.name);
  EXPECT_EQ(loaded->steps_per_day, original.steps_per_day);
  ASSERT_EQ(loaded->num_nodes(), original.num_nodes());
  ASSERT_EQ(loaded->num_steps(), original.num_steps());
  for (int i = 0; i < original.num_nodes(); ++i) {
    EXPECT_NEAR(loaded->coords[i].x, original.coords[i].x, 1e-4);
    EXPECT_NEAR(loaded->coords[i].y, original.coords[i].y, 1e-4);
    EXPECT_NEAR(loaded->metadata[i].scale, original.metadata[i].scale, 1e-3);
    EXPECT_FLOAT_EQ(loaded->metadata[i].lanes, original.metadata[i].lanes);
    for (int c = 0; c < kNumPoiCategories; ++c) {
      EXPECT_FLOAT_EQ(loaded->metadata[i].poi_counts[c],
                      original.metadata[i].poi_counts[c]);
    }
  }
  for (int t = 0; t < original.num_steps(); ++t) {
    for (int n = 0; n < original.num_nodes(); ++n) {
      EXPECT_NEAR(loaded->series.at(t, n), original.series.at(t, n), 1e-3);
    }
  }
}

TEST_F(CsvIoTest, MissingDirectoryFails) {
  EXPECT_FALSE(LoadDatasetCsv(dir_.Absent()).has_value());
}

TEST_F(CsvIoTest, DimensionMismatchRejected) {
  ASSERT_TRUE(SaveDatasetCsv(TinyDataset(), directory_));
  // Append a malformed short row to series.csv.
  std::ofstream series(directory_ + "/series.csv", std::ios::app);
  series << "1.0,2.0\n";
  series.close();
  EXPECT_FALSE(LoadDatasetCsv(directory_).has_value());
}

TEST_F(CsvIoTest, GarbageValuesRejected) {
  ASSERT_TRUE(SaveDatasetCsv(TinyDataset(), directory_));
  std::ofstream series(directory_ + "/series.csv", std::ios::trunc);
  series << "sensor_0\n";
  for (int t = 0; t < 5; ++t) series << "not_a_number\n";
  series.close();
  EXPECT_FALSE(LoadDatasetCsv(directory_).has_value());
}

TEST_F(CsvIoTest, NonFiniteCoordinatesRejected) {
  // A NaN or infinite coordinate would only surface later, as an aborted
  // Eq. 2 build; the loader refuses it instead.
  ASSERT_TRUE(SaveDatasetCsv(TinyDataset(), directory_));
  std::vector<std::string> lines;
  {
    std::ifstream in(directory_ + "/sensors.csv");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    for (const int column : {0, 1}) {  // x_km, y_km.
      std::vector<std::string> edited = lines;
      std::string& row = edited[2];
      const size_t first_comma = row.find(',');
      if (column == 0) {
        row = bad + row.substr(first_comma);
      } else {
        const size_t second_comma = row.find(',', first_comma + 1);
        row = row.substr(0, first_comma + 1) + bad + row.substr(second_comma);
      }
      {
        std::ofstream out(directory_ + "/sensors.csv", std::ios::trunc);
        for (const std::string& line : edited) out << line << "\n";
      }
      EXPECT_FALSE(LoadDatasetCsv(directory_).has_value())
          << bad << " in column " << column;
    }
  }
}

TEST_F(CsvIoTest, NonFiniteSeriesValuesRejected) {
  // One NaN reading turns every training loss and the test RMSE into NaN
  // without an error, so the loader refuses non-finite series values (and
  // values past the float range, which parse to infinity).
  ASSERT_TRUE(SaveDatasetCsv(TinyDataset(), directory_));
  std::vector<std::string> lines;
  {
    std::ifstream in(directory_ + "/series.csv");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 3u);
  ASSERT_TRUE(LoadDatasetCsv(directory_).has_value());
  for (const std::string bad : {"nan", "inf", "-inf", "1e39"}) {
    for (const int column : {0, 5}) {
      std::vector<std::string> edited = lines;
      std::string& row = edited[2];
      size_t begin = 0;
      for (int c = 0; c < column; ++c) begin = row.find(',', begin) + 1;
      const size_t end = row.find(',', begin);
      row = row.substr(0, begin) + bad +
            (end == std::string::npos ? "" : row.substr(end));
      {
        std::ofstream out(directory_ + "/series.csv", std::ios::trunc);
        for (const std::string& line : edited) out << line << "\n";
      }
      EXPECT_FALSE(LoadDatasetCsv(directory_).has_value())
          << bad << " in column " << column;
    }
  }
}

TEST(SvgMapTest, SensorMapContainsAllDots) {
  const auto dataset = TinyDataset();
  const std::string svg = RenderSensorMapSvg(dataset.coords);
  size_t circles = 0;
  for (size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, static_cast<size_t>(dataset.num_nodes()));
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
}

TEST(SvgMapTest, SplitMapUsesPaperColours) {
  const auto dataset = TinyDataset();
  const SpaceSplit split = SplitSpace(dataset.coords, SplitAxis::kVertical);
  const std::string svg = RenderSplitMapSvg(dataset.coords, split);
  EXPECT_NE(svg.find("#cc2222"), std::string::npos);  // Train red.
  EXPECT_NE(svg.find("#ee88aa"), std::string::npos);  // Validation pink.
  EXPECT_NE(svg.find("#2255cc"), std::string::npos);  // Test blue.
  EXPECT_NE(svg.find("unobserved"), std::string::npos);  // Legend labels.
}

TEST(SvgMapTest, TitleRendered) {
  const auto dataset = TinyDataset();
  SvgMapOptions options;
  options.title = "hello map";
  const std::string svg = RenderSensorMapSvg(dataset.coords, options);
  EXPECT_NE(svg.find("hello map"), std::string::npos);
}

TEST(SvgMapTest, WriteSvgCreatesFile) {
  const auto dataset = TinyDataset();
  ScopedTempDir dir;
  const std::string path = dir.File("map.svg");
  ASSERT_TRUE(WriteSvg(RenderSensorMapSvg(dataset.coords), path));
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
}

}  // namespace
}  // namespace stsm
