// Bringing your own data: export a dataset to CSV, reload it, and train.
//
// Real deployments load sensor data from CSV exports (e.g. PEMS downloads)
// instead of the built-in simulators. This example round-trips a dataset
// through the CSV layout documented in data/csv_io.h, then runs STSM on the
// reloaded copy — the exact workflow for custom data.
//
// Run: ./build/examples/custom_data [output_dir]
// Without an argument the CSV bundle goes to a fresh directory under the
// system temp directory; its path is printed first.

#include <stdlib.h>  // mkdtemp (POSIX).

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/config.h"
#include "core/stsm.h"
#include "data/csv_io.h"
#include "data/simulator.h"
#include "data/splits.h"
#include "data/svg_map.h"

int main(int argc, char** argv) {
  using namespace stsm;
  std::string directory;
  if (argc > 1) {
    directory = argv[1];
    std::filesystem::create_directories(directory);
  } else {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "stsm_custom_data.XXXXXX")
            .string();
    if (mkdtemp(pattern.data()) == nullptr) {
      std::perror("mkdtemp");
      return 1;
    }
    directory = pattern;
  }
  std::printf("Output directory: %s\n", directory.c_str());

  // Stand-in for your own data: a simulated region written out as CSV.
  SimulatorConfig sim;
  sim.name = "my-city";
  sim.kind = RegionKind::kUrban;
  sim.num_sensors = 40;
  sim.num_days = 6;
  sim.steps_per_day = 96;
  sim.area_km = 5.0;
  sim.seed = 321;
  if (!SaveDatasetCsv(SimulateDataset(sim), directory)) {
    std::fprintf(stderr, "failed to write %s\n", directory.c_str());
    return 1;
  }
  std::printf("Wrote CSV bundle to %s:\n", directory.c_str());
  std::printf("  meta.csv, sensors.csv, series.csv\n");

  // --- This is where your pipeline would start: load the CSVs. ---
  const auto dataset = LoadDatasetCsv(directory);
  if (!dataset.has_value()) {
    std::fprintf(stderr, "failed to load the CSV bundle\n");
    return 1;
  }
  std::printf("Loaded %s: %d sensors x %d steps (%d/day)\n",
              dataset->name.c_str(), dataset->num_nodes(),
              dataset->num_steps(), dataset->steps_per_day);

  const SpaceSplit split = SplitSpace(dataset->coords, SplitAxis::kVertical);
  // Render the split like the paper's Fig. 6 for a sanity check.
  SvgMapOptions map_options;
  map_options.title = dataset->name + " split";
  WriteSvg(RenderSplitMapSvg(dataset->coords, split, map_options),
           directory + "/split.svg");
  std::printf("Split map written to %s/split.svg\n", directory.c_str());

  StsmConfig config;
  config.input_length = 8;
  config.horizon = 8;
  config.hidden_dim = 12;
  config.epochs = 6;
  config.batches_per_epoch = 8;
  config.top_k = 16;
  config.max_eval_windows = 16;
  StsmRunner runner(*dataset, split, config);
  const ExperimentResult result = runner.Run();
  std::printf("\nForecasts for the unobserved half of %s:\n",
              dataset->name.c_str());
  std::printf("  RMSE %.3f, MAE %.3f, R2 %.3f (train %.1fs)\n",
              result.metrics.rmse, result.metrics.mae, result.metrics.r2,
              result.train_seconds);
  return 0;
}
