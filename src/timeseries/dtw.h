// Dynamic time warping (Berndt & Clifford 1994), used to build STSM's
// temporal-similarity adjacency matrix (Section 3.4.1, following STFGNN),
// and an exact top-q DTW neighbour search over daily profiles.

#ifndef STSM_TIMESERIES_DTW_H_
#define STSM_TIMESERIES_DTW_H_

#include <limits>
#include <vector>

#include "timeseries/series.h"

namespace stsm {

// DTW distance between two sequences with absolute-difference local cost.
// `band` is the Sakoe-Chiba band half-width: cells with |i - j| > band are
// skipped. band <= 0 means unconstrained DTW. Sequences may differ in length
// (the band is applied around the diagonal scaled to the length ratio).
//
// `abandon_above` bounds the answer: a distance > abandon_above comes back
// as +inf, any other as the same double an unbounded call returns (the
// same cells in the same order). The dynamic program stops after the first
// row over `a` whose minimum is > abandon_above: for finite inputs local
// costs are >= 0 and rounded addition is monotone, so row minima never
// decrease and the distance is at least every row's minimum.
double DtwDistance(const std::vector<float>& a, const std::vector<float>& b,
                   int band = 0,
                   double abandon_above =
                       std::numeric_limits<double>::infinity());

// Compresses a long series into its average daily profile of length
// `steps_per_day` (mean over days per time-of-day slot). DTW on daily
// profiles is the standard way to make series similarity tractable.
std::vector<float> DailyProfile(const std::vector<float>& series,
                                int steps_per_day);

// DailyProfile of series column `nodes[i]`, for every i, in one row-major
// pass over the matrix instead of one strided column copy per node. Each
// (node, slot) sum adds its values in the same ascending-t order, so every
// profile is bitwise DailyProfile(series.NodeSeries(nodes[i]), ...).
std::vector<std::vector<float>> DailyProfiles(const SeriesMatrix& series,
                                              const std::vector<int>& nodes,
                                              int steps_per_day);

// One result of a DTW neighbour search.
struct DtwNeighbour {
  double distance;
  int index;
};

// The neighbour order: distance ascending with every NaN after every
// number, then index ascending. A strict weak order even when distances
// are NaN, which a plain pair comparison is not.
bool DtwNeighbourLess(const DtwNeighbour& x, const DtwNeighbour& y);

// Which profile is DtwDistance's first argument. Banded DTW is not
// symmetric when lengths differ, and the summation order differs with the
// argument order, so each caller keeps the order its distances always had.
enum class DtwArgumentOrder {
  kLowerIndexFirst,  // DtwDistance(profile[min(i, j)], profile[max(i, j)])
  kQueryFirst,       // DtwDistance(profile[query], profile[candidate])
};

// Exact top-q DTW neighbour search over a fixed set of profiles, after the
// UCR suite (Rakthanmanon et al., KDD 2012). Candidates are visited in
// LB_Keogh order, the visit stops once the lower bound exceeds the current
// q-th distance, and each DTW is abandoned once it must exceed it. Only a
// strict `>` prunes, so the result is exactly the first q candidates under
// DtwNeighbourLess of the full distance list, with the same distances.
//
// A query whose profiles are not all finite and of one length takes the
// brute-force path: every candidate's distance, then the same selection.
class DtwNeighbourSearch {
 public:
  // `profiles` must outlive the search; only the non-empty ones may be
  // queried or be candidates. Each one's LB_Keogh envelope is built here.
  DtwNeighbourSearch(const std::vector<std::vector<float>>& profiles,
                     int band);

  // The min(count, candidates.size()) candidates nearest to
  // profiles[query], sorted by DtwNeighbourLess; `index` is the candidate's
  // profile index. Thread-safe: concurrent calls share only const state.
  std::vector<DtwNeighbour> Nearest(int query,
                                    const std::vector<int>& candidates,
                                    int count, DtwArgumentOrder order) const;

  // LB_Keogh: the sum over slots of the distance from profiles[x] to the
  // envelope of profiles[y], in ascending slot order. Both profiles must be
  // finite and of one length; then it is <= their DtwDistance in either
  // argument order, in floating point too (see dtw.cc). Public for tests.
  double LbKeogh(int x, int y) const;

 private:
  // LB_Keogh of the values `x` against profiles[y]'s envelope.
  template <typename T>
  double LbKeoghSum(const T* x, int y) const;
  double Distance(int query, int candidate, DtwArgumentOrder order,
                  double abandon_above) const;

  const std::vector<std::vector<float>>& profiles_;
  const int band_;
  // Per profile, empty unless every value is finite: its min / max over
  // each slot's band window, widened to double.
  std::vector<std::vector<double>> lower_;
  std::vector<std::vector<double>> upper_;
};

}  // namespace stsm

#endif  // STSM_TIMESERIES_DTW_H_
