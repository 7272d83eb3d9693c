// Temporal-similarity adjacency matrix (STSM Section 3.4.1).
//
// DTW distances between daily profiles define similarity. Edges are placed
// between the q_kk most similar pairs of observed locations (symmetric) and
// from the q_ku most similar observed locations into each target (masked or
// unobserved) location — directed, so targets never pollute observed nodes'
// embeddings during message passing.

#ifndef STSM_TIMESERIES_TEMPORAL_ADJACENCY_H_
#define STSM_TIMESERIES_TEMPORAL_ADJACENCY_H_

#include <vector>

#include "tensor/tensor.h"
#include "timeseries/series.h"

namespace stsm {

struct TemporalAdjacencyOptions {
  // Top similar observed neighbours per observed node (q_kk in the paper).
  int q_kk = 1;
  // Top similar observed neighbours per target node (q_ku in the paper).
  int q_ku = 1;
  // Time slots per day, for daily-profile compression before DTW.
  int steps_per_day = 288;
  // Sakoe-Chiba band half-width for DTW on the daily profiles (0 = full).
  int dtw_band = 12;
};

// Builds the N x N binary temporal adjacency. `series` must contain real
// observations in the observed columns and pseudo-observations in the target
// columns (the caller fills them beforehand; see FillPseudoObservations).
// A[i][j] = 1 means node i aggregates from node j in a GCN step.
//
// Only the DTW distances the top-q selection reads are computed: pairs with
// one observed endpoint and the other observed or a target. Target x target
// pairs and nodes in neither list cost nothing. The pairs are flattened into
// one list and split evenly over the thread pool; each costs O(len * band)
// for daily profiles of length len = steps_per_day.
Tensor TemporalSimilarityAdjacency(const SeriesMatrix& series,
                                   const std::vector<int>& observed,
                                   const std::vector<int>& targets,
                                   const TemporalAdjacencyOptions& options);

// DTW distances between every pair of node daily profiles; row-major
// N x N with 0 on the diagonal. Runs the same pair loop as
// TemporalSimilarityAdjacency over all N(N-1)/2 pairs, so each distance is
// bitwise the one the adjacency ranks. Exposed for tests and diagnostics.
std::vector<double> ProfileDtwDistances(const SeriesMatrix& series,
                                        int steps_per_day, int dtw_band);

}  // namespace stsm

#endif  // STSM_TIMESERIES_TEMPORAL_ADJACENCY_H_
