#include "data/csv_io.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/check.h"

namespace stsm {
namespace {

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream stream(line);
  while (std::getline(stream, cell, ',')) cells.push_back(cell);
  // A trailing comma yields an implicit empty cell.
  if (!line.empty() && line.back() == ',') cells.push_back("");
  return cells;
}

bool ParseFloat(const std::string& text, float* value) {
  char* end = nullptr;
  *value = std::strtof(text.c_str(), &end);
  return end != text.c_str();
}

// Coordinates must be finite: Eq. 2 cannot weigh a NaN or infinite distance
// (the all-pairs sigma itself turns NaN).
bool ParseFiniteDouble(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && std::isfinite(*value);
}

// Series values must be finite too: one NaN reading turns every loss and
// metric NaN downstream, silently (DESIGN.md, "Non-finite values").
bool ParseFiniteFloat(const std::string& text, float* value) {
  return ParseFloat(text, value) && std::isfinite(*value);
}

}  // namespace

bool SaveDatasetCsv(const SpatioTemporalDataset& dataset,
                    const std::string& directory) {
  {
    std::ofstream meta(directory + "/meta.csv");
    if (!meta) return false;
    meta << dataset.name << "," << dataset.steps_per_day << "\n";
    if (!meta) return false;
  }
  {
    std::ofstream sensors(directory + "/sensors.csv");
    if (!sensors) return false;
    sensors << "x_km,y_km,scale,highway_level,maxspeed,is_oneway,lanes";
    for (int c = 0; c < kNumPoiCategories; ++c) sensors << ",poi_" << c;
    sensors << "\n";
    for (int i = 0; i < dataset.num_nodes(); ++i) {
      const NodeMetadata& meta = dataset.metadata[i];
      sensors << dataset.coords[i].x << "," << dataset.coords[i].y << ","
              << meta.scale << "," << meta.highway_level << ","
              << meta.maxspeed << "," << meta.is_oneway << "," << meta.lanes;
      for (int c = 0; c < kNumPoiCategories; ++c) {
        sensors << "," << meta.poi_counts[c];
      }
      sensors << "\n";
    }
    if (!sensors) return false;
  }
  {
    std::ofstream series(directory + "/series.csv");
    if (!series) return false;
    for (int i = 0; i < dataset.num_nodes(); ++i) {
      series << (i > 0 ? "," : "") << "sensor_" << i;
    }
    series << "\n";
    for (int t = 0; t < dataset.num_steps(); ++t) {
      for (int i = 0; i < dataset.num_nodes(); ++i) {
        series << (i > 0 ? "," : "") << dataset.series.at(t, i);
      }
      series << "\n";
    }
    if (!series) return false;
  }
  return true;
}

std::optional<SpatioTemporalDataset> LoadDatasetCsv(
    const std::string& directory) {
  SpatioTemporalDataset dataset;

  // meta.csv
  {
    std::ifstream meta(directory + "/meta.csv");
    if (!meta) return std::nullopt;
    std::string line;
    if (!std::getline(meta, line)) return std::nullopt;
    const auto cells = SplitCsvLine(line);
    if (cells.size() != 2) return std::nullopt;
    dataset.name = cells[0];
    dataset.steps_per_day = std::atoi(cells[1].c_str());
    if (dataset.steps_per_day <= 0) return std::nullopt;
  }

  // sensors.csv
  {
    std::ifstream sensors(directory + "/sensors.csv");
    if (!sensors) return std::nullopt;
    std::string line;
    if (!std::getline(sensors, line)) return std::nullopt;  // Header.
    const size_t expected_cells = 7 + kNumPoiCategories;
    while (std::getline(sensors, line)) {
      if (line.empty()) continue;
      const auto cells = SplitCsvLine(line);
      if (cells.size() != expected_cells) return std::nullopt;
      GeoPoint point;
      NodeMetadata meta;
      float value = 0.0f;
      if (!ParseFiniteDouble(cells[0], &point.x)) return std::nullopt;
      if (!ParseFiniteDouble(cells[1], &point.y)) return std::nullopt;
      if (!ParseFloat(cells[2], &meta.scale)) return std::nullopt;
      if (!ParseFloat(cells[3], &meta.highway_level)) return std::nullopt;
      if (!ParseFloat(cells[4], &meta.maxspeed)) return std::nullopt;
      if (!ParseFloat(cells[5], &meta.is_oneway)) return std::nullopt;
      if (!ParseFloat(cells[6], &meta.lanes)) return std::nullopt;
      for (int c = 0; c < kNumPoiCategories; ++c) {
        if (!ParseFloat(cells[7 + c], &value)) return std::nullopt;
        meta.poi_counts[c] = value;
      }
      dataset.coords.push_back(point);
      dataset.metadata.push_back(meta);
    }
    if (dataset.coords.empty()) return std::nullopt;
  }

  // series.csv
  {
    std::ifstream series(directory + "/series.csv");
    if (!series) return std::nullopt;
    std::string line;
    if (!std::getline(series, line)) return std::nullopt;  // Header.
    std::vector<std::vector<float>> rows;
    while (std::getline(series, line)) {
      if (line.empty()) continue;
      const auto cells = SplitCsvLine(line);
      if (cells.size() != dataset.coords.size()) return std::nullopt;
      std::vector<float> row(cells.size());
      for (size_t c = 0; c < cells.size(); ++c) {
        if (!ParseFiniteFloat(cells[c], &row[c])) return std::nullopt;
      }
      rows.push_back(std::move(row));
    }
    if (rows.empty()) return std::nullopt;
    dataset.series = SeriesMatrix(static_cast<int>(rows.size()),
                                  static_cast<int>(dataset.coords.size()));
    for (size_t t = 0; t < rows.size(); ++t) {
      for (size_t n = 0; n < rows[t].size(); ++n) {
        dataset.series.set(static_cast<int>(t), static_cast<int>(n),
                           rows[t][n]);
      }
    }
  }
  return dataset;
}

}  // namespace stsm
