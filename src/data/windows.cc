#include "data/windows.h"

#include <algorithm>

#include "common/check.h"
#include "timeseries/time_features.h"

namespace stsm {

std::vector<int> ValidWindowStarts(int range_begin, int range_end,
                                   const WindowSpec& spec, int stride) {
  STSM_CHECK_GE(range_begin, 0);
  STSM_CHECK_GE(stride, 1);
  std::vector<int> starts;
  const int last_start = range_end - spec.input_length - spec.horizon;
  for (int t = range_begin; t <= last_start; t += stride) starts.push_back(t);
  return starts;
}

std::vector<int> CapWindowStarts(std::vector<int> starts, int cap) {
  if (cap <= 0 || static_cast<int>(starts.size()) <= cap) return starts;
  std::vector<int> result;
  result.reserve(cap);
  const double step = static_cast<double>(starts.size()) / cap;
  for (int i = 0; i < cap; ++i) {
    result.push_back(starts[static_cast<size_t>(i * step)]);
  }
  return result;
}

WindowBatch MakeWindowBatch(const SeriesMatrix& series,
                            const std::vector<int>& starts,
                            const WindowSpec& spec, int steps_per_day,
                            int first_step) {
  STSM_CHECK(!starts.empty());
  const int batch = static_cast<int>(starts.size());
  const int nodes = series.num_nodes;
  const int t_in = spec.input_length;
  const int t_out = spec.horizon;

  WindowBatch result;
  result.starts = starts;
  result.inputs = Tensor::Zeros(Shape({batch, t_in, nodes, 1}));
  result.targets = Tensor::Zeros(Shape({batch, t_out, nodes, 1}));
  result.input_time = Tensor::Zeros(Shape({batch, t_in, 3}));

  float* in = result.inputs.data();
  float* out = result.targets.data();
  float* time_feat = result.input_time.data();
  for (int b = 0; b < batch; ++b) {
    const int start = starts[b];
    const int first_row = start - first_step;
    STSM_CHECK_GE(first_row, 0);
    STSM_CHECK_LE(first_row + t_in + t_out, series.num_steps);
    for (int t = 0; t < t_in; ++t) {
      const float* row =
          series.values.data() + static_cast<size_t>(first_row + t) * nodes;
      std::copy(row, row + nodes, in + ((b * t_in + t) * nodes));
    }
    for (int t = 0; t < t_out; ++t) {
      const float* row = series.values.data() +
                         static_cast<size_t>(first_row + t_in + t) * nodes;
      std::copy(row, row + nodes, out + ((b * t_out + t) * nodes));
    }
    const Tensor tod = TimeOfDayFeatures(
        TimeOfDayIds(start, t_in, steps_per_day), steps_per_day);
    std::copy(tod.data(), tod.data() + t_in * 3,
              time_feat + b * t_in * 3);
  }
  return result;
}

std::vector<int> SampleWindowStarts(int range_begin, int range_end,
                                    const WindowSpec& spec, int count,
                                    Rng* rng) {
  STSM_CHECK(rng != nullptr);
  const std::vector<int> valid = ValidWindowStarts(range_begin, range_end, spec);
  STSM_CHECK(!valid.empty()) << "no valid windows in range [" << range_begin
                             << "," << range_end << ")";
  if (count >= static_cast<int>(valid.size())) return valid;
  std::vector<int> picks =
      rng->SampleWithoutReplacement(static_cast<int>(valid.size()), count);
  std::vector<int> starts(count);
  for (int i = 0; i < count; ++i) starts[i] = valid[picks[i]];
  std::sort(starts.begin(), starts.end());
  return starts;
}

}  // namespace stsm
