#include "timeseries/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/prof.h"

namespace stsm {

double DtwDistance(const std::vector<float>& a, const std::vector<float>& b,
                   int band, double abandon_above) {
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
    double row_min = kInf;
    for (int j = j_lo; j <= j_hi; ++j) {
      const double cost = std::fabs(static_cast<double>(a[i - 1]) - b[j - 1]);
      const double best = std::min({previous[j], previous[j - 1], left});
      left = best < kInf ? cost + best : kInf;
      current[j] = left;
      row_min = std::min(row_min, left);
    }
    // Every path to (n, m) passes through this row and only adds costs
    // >= 0 after it, so the distance is at least row_min.
    if (row_min > abandon_above) return kInf;
    std::swap(previous, current);
    stale_lo = previous_lo;
    stale_hi = previous_hi;
    previous_lo = j_lo;
    previous_hi = j_hi;
  }
  return previous[m] > abandon_above ? kInf : previous[m];
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

std::vector<std::vector<float>> DailyProfiles(const SeriesMatrix& series,
                                              const std::vector<int>& nodes,
                                              int steps_per_day) {
  STSM_CHECK_GT(steps_per_day, 0);
  STSM_CHECK_GE(series.num_steps, steps_per_day);
  const size_t count = nodes.size();
  for (int node : nodes) STSM_CHECK(node >= 0 && node < series.num_nodes);
  // sums[i * steps_per_day + slot]; every node sees each slot equally often.
  std::vector<double> sums(count * steps_per_day, 0.0);
  std::vector<int> counts(steps_per_day, 0);
  for (int t = 0; t < series.num_steps; ++t) {
    const int slot = t % steps_per_day;
    const float* row =
        series.values.data() + static_cast<size_t>(t) * series.num_nodes;
    double* slot_sums = sums.data() + slot;
    for (size_t i = 0; i < count; ++i) {
      slot_sums[i * steps_per_day] += row[nodes[i]];
    }
    ++counts[slot];
  }
  std::vector<std::vector<float>> profiles(count,
                                           std::vector<float>(steps_per_day));
  for (size_t i = 0; i < count; ++i) {
    for (int s = 0; s < steps_per_day; ++s) {
      profiles[i][s] = static_cast<float>(sums[i * steps_per_day + s] /
                                          std::max(1, counts[s]));
    }
  }
  return profiles;
}

bool DtwNeighbourLess(const DtwNeighbour& x, const DtwNeighbour& y) {
  const bool x_nan = std::isnan(x.distance);
  const bool y_nan = std::isnan(y.distance);
  if (x_nan != y_nan) return y_nan;
  if (!x_nan && x.distance != y.distance) return x.distance < y.distance;
  return x.index < y.index;
}

DtwNeighbourSearch::DtwNeighbourSearch(
    const std::vector<std::vector<float>>& profiles, int band)
    : profiles_(profiles),
      band_(band),
      lower_(profiles.size()),
      upper_(profiles.size()) {
  for (size_t p = 0; p < profiles.size(); ++p) {
    const std::vector<float>& v = profiles[p];
    if (!std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); })) {
      continue;
    }
    const int len = static_cast<int>(v.size());
    lower_[p].resize(len);
    upper_[p].resize(len);
    // Slot j of a same-length DTW is matched only within [j - band,
    // j + band] (DtwDistance's band centre is j when the lengths agree), or
    // anywhere when band <= 0.
    const int w = band > 0 ? band : len;
    for (int j = 0; j < len; ++j) {
      if (j > 0 && w >= len - 1) {  // Every window is the whole profile.
        lower_[p][j] = lower_[p][0];
        upper_[p][j] = upper_[p][0];
        continue;
      }
      const int last = std::min(len - 1, j + w);
      float lo = v[std::max(0, j - w)];
      float hi = lo;
      for (int k = std::max(0, j - w) + 1; k <= last; ++k) {
        lo = std::min(lo, v[k]);
        hi = std::max(hi, v[k]);
      }
      lower_[p][j] = lo;
      upper_[p][j] = hi;
    }
  }
}

// The DP matches every slot of x (as rows or as columns) with at least one
// slot of y inside its band window, on a path that visits the slots in
// ascending order. Term j is fl(x_j - U_j) or fl(L_j - x_j) or 0, which by
// monotone rounding is <= the cost of any such match, and the terms are
// summed in the same ascending order. So the sum is <= every path's
// floating-point sum, hence <= the DtwDistance of x and y.
template <typename T>
double DtwNeighbourSearch::LbKeoghSum(const T* x, int y) const {
  const double* lo = lower_[y].data();
  const double* hi = upper_[y].data();
  double sum = 0.0;
  for (size_t j = 0; j < lower_[y].size(); ++j) {
    const double v = x[j];
    // At most one of the two differences is positive.
    sum += std::max(v - hi[j], 0.0) + std::max(lo[j] - v, 0.0);
  }
  return sum;
}

double DtwNeighbourSearch::LbKeogh(int x, int y) const {
  return LbKeoghSum(profiles_[x].data(), y);
}

double DtwNeighbourSearch::Distance(int query, int candidate,
                                    DtwArgumentOrder order,
                                    double abandon_above) const {
  const bool query_first =
      order == DtwArgumentOrder::kQueryFirst || query < candidate;
  return DtwDistance(profiles_[query_first ? query : candidate],
                     profiles_[query_first ? candidate : query], band_,
                     abandon_above);
}

std::vector<DtwNeighbour> DtwNeighbourSearch::Nearest(
    int query, const std::vector<int>& candidates, int count,
    DtwArgumentOrder order) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t k = std::min(static_cast<size_t>(std::max(count, 0)),
                            candidates.size());
  std::vector<DtwNeighbour> best;
  if (k == 0) return best;
  STSM_PROF_COUNT("dtw.candidates", static_cast<int64_t>(candidates.size()));

  const size_t len = profiles_[query].size();
  const bool bounded =
      len > 0 && lower_[query].size() == len &&
      std::all_of(candidates.begin(), candidates.end(), [&](int c) {
        return lower_[c].size() == len;
      });
  if (!bounded) {
    // Brute force: LB_Keogh bounds only equal-length DTW, and a NaN or an
    // infinity breaks the cost arithmetic the bounds rest on.
    best.reserve(candidates.size());
    for (int c : candidates) {
      best.push_back({Distance(query, c, order, kInf), c});
    }
    std::partial_sort(best.begin(), best.begin() + k, best.end(),
                      DtwNeighbourLess);
    best.resize(k);
    STSM_PROF_COUNT("dtw.started", static_cast<int64_t>(candidates.size()));
    return best;
  }

  // Visit candidates by (lower bound, index), the bound being the query
  // against the candidate's envelope. Once q are kept, a candidate whose
  // bound is > the q-th distance cannot enter, nor can any after it; one
  // whose reverse bound is > it is skipped, and a DTW that must exceed it
  // is abandoned. Equal bounds and equal distances are never pruned, so the
  // index tie-break stays exact. The query is widened once: these bounds
  // are most of the search's arithmetic, and widening a float per slot
  // made them about three times slower.
  const std::vector<double> query_values(profiles_[query].begin(),
                                         profiles_[query].end());
  std::vector<DtwNeighbour> visit(candidates.size());
  for (size_t p = 0; p < candidates.size(); ++p) {
    visit[p] = {LbKeoghSum(query_values.data(), candidates[p]),
                candidates[p]};
  }
  std::sort(visit.begin(), visit.end(), DtwNeighbourLess);
  best.reserve(k + 1);
  int64_t started = 0, abandoned = 0;
  for (const DtwNeighbour& v : visit) {
    const double kth = best.size() == k ? best.back().distance : kInf;
    if (v.distance > kth) break;
    if (kth < kInf && LbKeogh(v.index, query) > kth) continue;
    const DtwNeighbour found{Distance(query, v.index, order, kth), v.index};
    ++started;
    // Finite profiles give finite distances: +inf means > the q-th one.
    if (found.distance == kInf) {
      ++abandoned;
      continue;
    }
    if (best.size() == k && !DtwNeighbourLess(found, best.back())) continue;
    best.insert(
        std::upper_bound(best.begin(), best.end(), found, DtwNeighbourLess),
        found);
    if (best.size() > k) best.pop_back();
  }
  STSM_PROF_COUNT("dtw.started", started);
  STSM_PROF_COUNT("dtw.abandoned", abandoned);
  return best;
}

}  // namespace stsm
