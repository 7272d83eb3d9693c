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

  bool operator==(const TemporalAdjacencyOptions&) const = default;
};

// Builds the N x N binary temporal adjacency. `series` must contain real
// observations in the observed columns and pseudo-observations in the target
// columns (the caller fills them beforehand; see FillPseudoObservations).
// A[i][j] = 1 means node i aggregates from node j in a GCN step.
//
// Each observed and each target node is one query of an exact top-q
// DtwNeighbourSearch over the observed nodes' daily profiles (length
// len = steps_per_day): lower bounds skip most candidates and abandon most
// DTWs, and each kept distance is the DtwDistance(profile[min(i, j)],
// profile[max(i, j)], band) a full distance matrix would hold, so the edges
// are those of ranking every such distance with ties to the lower index.
// Queries run in parallel; nodes in neither list cost nothing.
Tensor TemporalSimilarityAdjacency(const SeriesMatrix& series,
                                   const std::vector<int>& observed,
                                   const std::vector<int>& targets,
                                   const TemporalAdjacencyOptions& options);

// DTW distances between every pair of node daily profiles; row-major
// N x N with 0 on the diagonal. Pair (i, j), i < j, runs
// DtwDistance(profile[i], profile[j], band), the call whose value the
// adjacency ranks. The brute-force oracle for tests and diagnostics.
std::vector<double> ProfileDtwDistances(const SeriesMatrix& series,
                                        int steps_per_day, int dtw_band);

}  // namespace stsm

#endif  // STSM_TIMESERIES_TEMPORAL_ADJACENCY_H_
