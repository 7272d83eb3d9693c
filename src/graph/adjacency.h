// Spatial adjacency construction and normalisation (STSM Eq. 2 and Eq. 6),
// in dense and CSR sparse form.
//
// The Gaussian-threshold kernel of Eq. 2 zeroes most entries of a
// metro-area graph by construction, so every dense builder/normaliser here
// has a CSR counterpart that never materialises the N x N matrix. The
// sparse results are value-compatible with the dense path: normalising a
// CSR matrix and densifying gives bitwise the same tensor as normalising
// the dense matrix (identical double-precision degree accumulation order),
// which the graph tests assert.

#ifndef STSM_GRAPH_ADJACENCY_H_
#define STSM_GRAPH_ADJACENCY_H_

#include <vector>

#include "graph/geo.h"
#include "tensor/sparse.h"
#include "tensor/tensor.h"

namespace stsm {

// Gaussian-kernel thresholded adjacency (Eq. 2):
//   w_ij = exp(-dist(i,j)^2 / sigma^2); A_ij = w_ij if w_ij >= epsilon else 0,
// where sigma is the standard deviation of all pairwise distances (DCRNN
// convention) unless `sigma_override` > 0. The diagonal is 1 by construction
// (dist = 0). `distances` is the row-major N x N distance matrix.
//
// Eq. 2 as printed assigns 1 above the threshold; following the works the
// paper builds on (DCRNN [16], STGODE [9]) we keep the kernel weight, which
// preserves the distance information within the neighbourhood. Pass
// binary = true for the literal 0/1 matrix (used for the sub-graph
// definition A_sg, where only the support matters).
Tensor GaussianThresholdAdjacency(const std::vector<double>& distances, int n,
                                  double epsilon, double sigma_override = 0.0,
                                  bool binary = false);

// The one Eq. 2 builder: the pruned entries are never stored, so the output
// is O(nnz), not O(N^2). GaussianThresholdAdjacency is its ToDense().
SparseCsr GaussianThresholdAdjacencyCsr(const std::vector<double>& distances,
                                        int n, double epsilon,
                                        double sigma_override = 0.0,
                                        bool binary = false);

// City-scale CSR construction straight from coordinates, skipping the O(N^2)
// distance matrix entirely: the threshold w >= epsilon bounds the neighbour
// radius at r = sigma * sqrt(ln(1/epsilon)), so a uniform grid of cell size
// r reduces each row to its 3x3 cell neighbourhood. `sigma` must be given
// explicitly (the DCRNN all-pairs sigma is itself O(N^2)). Weights use the
// exact Eq. 2 expression, so for identical (epsilon, sigma) this matches
// GaussianThresholdAdjacencyCsr over PairwiseDistances(coords).
SparseCsr GaussianAdjacencyFromCoords(const std::vector<GeoPoint>& coords,
                                      double epsilon, double sigma,
                                      bool binary = false);

// Symmetric GCN normalisation (Eq. 6): D̃^{-1/2} (A + I) D̃^{-1/2}.
// When the diagonal of A is already 1 (Eq. 2 output), pass
// add_self_loops = false to avoid double self-loops.
Tensor NormalizeSymmetric(const Tensor& adjacency, bool add_self_loops = true);

// Row normalisation D̃^{-1} (A + I), for directed adjacency matrices such as
// the temporal-similarity matrix whose edges only point from observed to
// unobserved locations.
Tensor NormalizeRow(const Tensor& adjacency, bool add_self_loops = true);

// Sparse normalisations. Degrees accumulate in double over ascending
// columns — the same order the dense loops use — so ToDense() of the result
// is bitwise the dense normalisation of ToDense() of the input.
SparseCsr NormalizeSymmetric(const SparseCsr& adjacency,
                             bool add_self_loops = true);
SparseCsr NormalizeRow(const SparseCsr& adjacency, bool add_self_loops = true);

// The square sub-matrix at `indices` (rows and columns), re-indexed to the
// local order of `indices`.
SparseCsr SubAdjacency(const SparseCsr& adjacency,
                       const std::vector<int>& indices);

// Neighbour lists (excluding self-loops) of a binary adjacency matrix.
// The dense overload converts and reads the CSR structure.
std::vector<std::vector<int>> NeighborLists(const SparseCsr& adjacency);
std::vector<std::vector<int>> NeighborLists(const Tensor& adjacency);

// Number of non-zero entries (sparsity diagnostics for Fig. 7).
int64_t CountEdges(const SparseCsr& adjacency);
int64_t CountEdges(const Tensor& adjacency);

}  // namespace stsm

#endif  // STSM_GRAPH_ADJACENCY_H_
