#include "timeseries/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace stsm {

double DtwDistance(const std::vector<float>& a, const std::vector<float>& b,
                   int band) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  STSM_CHECK_GT(n, 0);
  STSM_CHECK_GT(m, 0);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Two-row dynamic program; row index i runs over `a`. Row i writes only its
  // band [j_lo, j_hi], and the next row must read +inf everywhere else. The
  // buffer row i overwrites still holds row i - 2, so only that row's band is
  // reset first: O(band) per row instead of O(m). Row 0's band is its 0.0
  // seed in cell 0.
  std::vector<double> previous(m + 1, kInf);
  std::vector<double> current(m + 1, kInf);
  previous[0] = 0.0;
  int stale_lo = 1, stale_hi = 0;        // Band of `current`'s row (none).
  int previous_lo = 0, previous_hi = 0;  // Band of `previous`'s row.

  const double slope = static_cast<double>(m) / n;
  for (int i = 1; i <= n; ++i) {
    std::fill(current.begin() + stale_lo, current.begin() + stale_hi + 1,
              kInf);
    int j_lo = 1, j_hi = m;
    if (band > 0) {
      const int center = static_cast<int>(std::lround(i * slope));
      j_lo = std::max(1, center - band);
      j_hi = std::min(m, center + band);
    }
    double left = kInf;  // current[j - 1]; +inf left of the band.
    for (int j = j_lo; j <= j_hi; ++j) {
      const double cost = std::fabs(static_cast<double>(a[i - 1]) - b[j - 1]);
      const double best = std::min({previous[j], previous[j - 1], left});
      left = best < kInf ? cost + best : kInf;
      current[j] = left;
    }
    std::swap(previous, current);
    stale_lo = previous_lo;
    stale_hi = previous_hi;
    previous_lo = j_lo;
    previous_hi = j_hi;
  }
  return previous[m];
}

std::vector<float> DailyProfile(const std::vector<float>& series,
                                int steps_per_day) {
  STSM_CHECK_GT(steps_per_day, 0);
  STSM_CHECK_GE(static_cast<int>(series.size()), steps_per_day);
  std::vector<double> sums(steps_per_day, 0.0);
  std::vector<int> counts(steps_per_day, 0);
  for (size_t t = 0; t < series.size(); ++t) {
    const int slot = static_cast<int>(t % steps_per_day);
    sums[slot] += series[t];
    ++counts[slot];
  }
  std::vector<float> profile(steps_per_day);
  for (int s = 0; s < steps_per_day; ++s) {
    profile[s] = static_cast<float>(sums[s] / std::max(1, counts[s]));
  }
  return profile;
}

}  // namespace stsm
