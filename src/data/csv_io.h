// CSV import/export for datasets, so the library can run on real sensor
// data (e.g. the original PEMS exports) instead of the built-in simulators.
//
// On-disk layout (all files share a directory):
//   <dir>/meta.csv     - one line: name,steps_per_day
//   <dir>/sensors.csv  - header + one row per sensor:
//                        x_km,y_km,scale,highway_level,maxspeed,is_oneway,
//                        lanes,poi_0..poi_25
//   <dir>/series.csv   - header + one row per time step, one column per
//                        sensor, raw observation values.

#ifndef STSM_DATA_CSV_IO_H_
#define STSM_DATA_CSV_IO_H_

#include <optional>
#include <string>

#include "data/dataset.h"

namespace stsm {

// Writes the dataset into `directory` (which must exist). Returns false on
// I/O failure.
bool SaveDatasetCsv(const SpatioTemporalDataset& dataset,
                    const std::string& directory);

// Reads a dataset back. Returns nullopt on missing/malformed files
// (dimension mismatches between sensors.csv and series.csv included), and
// on a NaN or infinite coordinate or series value.
std::optional<SpatioTemporalDataset> LoadDatasetCsv(
    const std::string& directory);

}  // namespace stsm

#endif  // STSM_DATA_CSV_IO_H_
