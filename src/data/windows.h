// Sliding-window batch construction: turns a SeriesMatrix into the
// [B, T, N, C] input and [B, T', N, C] target tensors the models consume.

#ifndef STSM_DATA_WINDOWS_H_
#define STSM_DATA_WINDOWS_H_

#include <vector>

#include "common/rng.h"
#include "tensor/tensor.h"
#include "timeseries/series.h"

namespace stsm {

struct WindowSpec {
  int input_length = 12;  // T in the paper.
  int horizon = 12;       // T' in the paper.
};

// Start indices t such that input [t, t+T) and target [t+T, t+T+T') both lie
// inside [range_begin, range_end). `stride` sub-samples the starts.
std::vector<int> ValidWindowStarts(int range_begin, int range_end,
                                   const WindowSpec& spec, int stride = 1);

// Evenly subsamples `starts` down to at most `cap` entries (cap <= 0: all),
// the evaluation window budget every model shares.
std::vector<int> CapWindowStarts(std::vector<int> starts, int cap);

// A batch of windows drawn from the series.
struct WindowBatch {
  Tensor inputs;       // [B, T, N, 1]
  Tensor targets;      // [B, T', N, 1]
  Tensor input_time;   // [B, T, 3] time-of-day features of the input steps.
  std::vector<int> starts;
};

// Materialises the windows starting at `starts`. All nodes are included;
// callers select observed/unobserved columns downstream via IndexSelect.
// Row 0 of `series` is the absolute step `first_step` (a period sliced out
// of a longer series); `starts` are absolute, and the time-of-day features
// read them.
WindowBatch MakeWindowBatch(const SeriesMatrix& series,
                            const std::vector<int>& starts,
                            const WindowSpec& spec, int steps_per_day,
                            int first_step = 0);

// Samples `count` window starts uniformly (without replacement when
// possible) from the valid range.
std::vector<int> SampleWindowStarts(int range_begin, int range_end,
                                    const WindowSpec& spec, int count,
                                    Rng* rng);

}  // namespace stsm

#endif  // STSM_DATA_WINDOWS_H_
