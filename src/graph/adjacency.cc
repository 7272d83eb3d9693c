#include "graph/adjacency.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/prof.h"
#include "common/thread_pool.h"
#include "graph/geo.h"

namespace stsm {

namespace {

// Shared guard for the Eq. 2 builders: `distances` must be a full N x N
// matrix. The product is taken in int64 so a large n cannot overflow the
// comparison, and a negative n is rejected outright instead of flowing into
// allocation sizes.
void CheckDistanceMatrix(const std::vector<double>& distances, int n,
                         double epsilon) {
  STSM_CHECK_GE(n, 0) << "adjacency dimension must be non-negative";
  STSM_CHECK_EQ(static_cast<int64_t>(distances.size()),
                static_cast<int64_t>(n) * static_cast<int64_t>(n));
  STSM_CHECK_GT(epsilon, 0.0);
}

// Assembles per-row (column, value) lists — each already sorted by column —
// into a validated CSR matrix.
SparseCsr AssembleCsr(
    int64_t rows, int64_t cols,
    const std::vector<std::vector<std::pair<int32_t, float>>>& row_entries) {
  std::vector<int32_t> row_ptr(rows + 1, 0);
  for (int64_t i = 0; i < rows; ++i) {
    row_ptr[i + 1] =
        row_ptr[i] + static_cast<int32_t>(row_entries[i].size());
  }
  const int64_t nnz = row_ptr[rows];
  std::vector<int32_t> col_idx(nnz);
  std::vector<float> values(nnz);
  for (int64_t i = 0; i < rows; ++i) {
    int32_t p = row_ptr[i];
    for (const auto& [col, value] : row_entries[i]) {
      col_idx[p] = col;
      values[p] = value;
      ++p;
    }
  }
  return SparseCsr::FromParts(rows, cols, row_ptr, col_idx, values);
}

}  // namespace

SparseCsr GaussianThresholdAdjacencyCsr(const std::vector<double>& distances,
                                        int n, double epsilon,
                                        double sigma_override, bool binary) {
  CheckDistanceMatrix(distances, n, epsilon);
  const double sigma =
      sigma_override > 0.0 ? sigma_override : DistanceStd(distances);
  STSM_CHECK_GT(sigma, 0.0) << "degenerate distance matrix";

  const double sigma_sq = sigma * sigma;
  std::vector<std::vector<std::pair<int32_t, float>>> rows(n);
  ParallelFor(0, n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        const double d = distances[static_cast<size_t>(i) * n + j];
        const double w = std::exp(-(d * d) / sigma_sq);
        if (w >= epsilon) {
          rows[i].emplace_back(static_cast<int32_t>(j),
                               binary ? 1.0f : static_cast<float>(w));
        }
      }
    }
  });
  return AssembleCsr(n, n, rows);
}

Tensor GaussianThresholdAdjacency(const std::vector<double>& distances, int n,
                                  double epsilon, double sigma_override,
                                  bool binary) {
  return GaussianThresholdAdjacencyCsr(distances, n, epsilon, sigma_override,
                                       binary)
      .ToDense();
}

SparseCsr GaussianAdjacencyFromCoords(const std::vector<GeoPoint>& coords,
                                      double epsilon, double sigma,
                                      bool binary) {
  STSM_PROF_SCOPE("sparse.adjacency_from_coords");
  STSM_CHECK_GT(epsilon, 0.0);
  STSM_CHECK_GT(sigma, 0.0);
  const int64_t n = static_cast<int64_t>(coords.size());
  if (n == 0) return SparseCsr::FromParts(0, 0, {0}, {}, {});

  // w >= epsilon  <=>  d^2 <= sigma^2 * ln(1/epsilon). A uniform grid with
  // that radius as cell size confines every neighbour to the 3x3 cell
  // block. The exact membership test below is still the Eq. 2 expression on
  // the sqrt-rounded distance, so results match the distance-matrix
  // builders at identical (epsilon, sigma); the radius prefilter only needs
  // a little slack for the d -> d*d round-trip.
  const double cut_sq = sigma * sigma * std::log(1.0 / epsilon);
  const double cut_sq_slack = cut_sq * (1.0 + 1e-9) + 1e-300;
  const double cell = cut_sq > 0.0 ? std::sqrt(cut_sq) : 1.0;

  double min_x = coords[0].x, min_y = coords[0].y;
  double max_x = coords[0].x, max_y = coords[0].y;
  for (const GeoPoint& p : coords) {
    min_x = std::min(min_x, p.x);
    min_y = std::min(min_y, p.y);
    max_x = std::max(max_x, p.x);
    max_y = std::max(max_y, p.y);
  }
  const int64_t grid_w =
      std::max<int64_t>(1, static_cast<int64_t>((max_x - min_x) / cell) + 1);
  const int64_t grid_h =
      std::max<int64_t>(1, static_cast<int64_t>((max_y - min_y) / cell) + 1);
  auto cell_of = [&](const GeoPoint& p) {
    const int64_t cx = std::min<int64_t>(
        grid_w - 1, static_cast<int64_t>((p.x - min_x) / cell));
    const int64_t cy = std::min<int64_t>(
        grid_h - 1, static_cast<int64_t>((p.y - min_y) / cell));
    return cy * grid_w + cx;
  };
  std::vector<std::vector<int32_t>> bins(grid_w * grid_h);
  for (int64_t i = 0; i < n; ++i) {
    bins[cell_of(coords[i])].push_back(static_cast<int32_t>(i));
  }

  const double sigma_sq = sigma * sigma;
  std::vector<std::vector<std::pair<int32_t, float>>> rows(n);
  ParallelFor(0, n, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int64_t cx = std::min<int64_t>(
          grid_w - 1, static_cast<int64_t>((coords[i].x - min_x) / cell));
      const int64_t cy = std::min<int64_t>(
          grid_h - 1, static_cast<int64_t>((coords[i].y - min_y) / cell));
      auto& row = rows[i];
      for (int64_t dy = -1; dy <= 1; ++dy) {
        const int64_t y = cy + dy;
        if (y < 0 || y >= grid_h) continue;
        for (int64_t dx = -1; dx <= 1; ++dx) {
          const int64_t x = cx + dx;
          if (x < 0 || x >= grid_w) continue;
          for (const int32_t j : bins[y * grid_w + x]) {
            const double ddx = coords[i].x - coords[j].x;
            const double ddy = coords[i].y - coords[j].y;
            if (ddx * ddx + ddy * ddy > cut_sq_slack) continue;
            const double d = Distance(coords[i], coords[j]);
            const double w = std::exp(-(d * d) / sigma_sq);
            if (w >= epsilon) {
              row.emplace_back(j, binary ? 1.0f : static_cast<float>(w));
            }
          }
        }
      }
      std::sort(row.begin(), row.end());
    }
  });
  return AssembleCsr(n, n, rows);
}

Tensor NormalizeSymmetric(const Tensor& adjacency, bool add_self_loops) {
  STSM_CHECK_EQ(adjacency.ndim(), 2);
  const int64_t n = adjacency.shape()[0];
  STSM_CHECK_EQ(adjacency.shape()[1], n);

  std::vector<float> a_tilde(adjacency.data(), adjacency.data() + n * n);
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) a_tilde[i * n + i] += 1.0f;
  }
  std::vector<double> degree(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) degree[i] += a_tilde[i * n + j];
  }
  Tensor result = Tensor::Zeros(Shape({n, n}));
  float* out = result.data();
  for (int64_t i = 0; i < n; ++i) {
    if (degree[i] <= 0.0) continue;  // Isolated node: row stays zero.
    const double di = 1.0 / std::sqrt(degree[i]);
    for (int64_t j = 0; j < n; ++j) {
      if (a_tilde[i * n + j] == 0.0f || degree[j] <= 0.0) continue;
      const double dj = 1.0 / std::sqrt(degree[j]);
      out[i * n + j] = static_cast<float>(a_tilde[i * n + j] * di * dj);
    }
  }
  return result;
}

Tensor NormalizeRow(const Tensor& adjacency, bool add_self_loops) {
  STSM_CHECK_EQ(adjacency.ndim(), 2);
  const int64_t n = adjacency.shape()[0];
  STSM_CHECK_EQ(adjacency.shape()[1], n);

  std::vector<float> a_tilde(adjacency.data(), adjacency.data() + n * n);
  if (add_self_loops) {
    for (int64_t i = 0; i < n; ++i) a_tilde[i * n + i] += 1.0f;
  }
  Tensor result = Tensor::Zeros(Shape({n, n}));
  float* out = result.data();
  for (int64_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (int64_t j = 0; j < n; ++j) degree += a_tilde[i * n + j];
    if (degree <= 0.0) continue;
    for (int64_t j = 0; j < n; ++j) {
      out[i * n + j] = static_cast<float>(a_tilde[i * n + j] / degree);
    }
  }
  return result;
}

namespace {

// A + I in CSR form, merging the diagonal into the sorted column order.
// The diagonal value is `existing + 1.0f` in float, exactly as the dense
// path mutates its a_tilde copy.
std::vector<std::vector<std::pair<int32_t, float>>> CsrWithSelfLoops(
    const SparseCsr& a, bool add_self_loops) {
  const int64_t n = a.rows();
  const int32_t* rp = a.row_ptr();
  const int32_t* ci = a.col_idx();
  const float* av = a.values();
  std::vector<std::vector<std::pair<int32_t, float>>> rows(n);
  for (int64_t i = 0; i < n; ++i) {
    auto& row = rows[i];
    row.reserve(rp[i + 1] - rp[i] + 1);
    bool diagonal_seen = false;
    for (int32_t p = rp[i]; p < rp[i + 1]; ++p) {
      float value = av[p];
      if (add_self_loops && ci[p] == i) {
        value += 1.0f;
        diagonal_seen = true;
      }
      row.emplace_back(ci[p], value);
    }
    if (add_self_loops && !diagonal_seen) {
      const auto at = std::lower_bound(
          row.begin(), row.end(),
          std::make_pair(static_cast<int32_t>(i), 0.0f),
          [](const auto& lhs, const auto& rhs) { return lhs.first < rhs.first; });
      row.insert(at, {static_cast<int32_t>(i), 1.0f});
    }
  }
  return rows;
}

}  // namespace

SparseCsr NormalizeSymmetric(const SparseCsr& adjacency, bool add_self_loops) {
  STSM_CHECK(adjacency.defined());
  STSM_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const int64_t n = adjacency.rows();
  auto a_tilde = CsrWithSelfLoops(adjacency, add_self_loops);

  // Degrees accumulate over the stored entries in ascending column order.
  // The dense loop sums the full row in the same order; its extra zero
  // terms are exact no-ops in double, so both paths produce bit-identical
  // degrees for the non-negative matrices Eq. 2 emits.
  std::vector<double> degree(n, 0.0);
  for (int64_t i = 0; i < n; ++i) {
    for (const auto& [col, value] : a_tilde[i]) degree[i] += value;
  }
  std::vector<std::vector<std::pair<int32_t, float>>> rows(n);
  for (int64_t i = 0; i < n; ++i) {
    if (degree[i] <= 0.0) continue;  // Isolated node: row stays empty.
    const double di = 1.0 / std::sqrt(degree[i]);
    auto& row = rows[i];
    row.reserve(a_tilde[i].size());
    for (const auto& [col, value] : a_tilde[i]) {
      if (value == 0.0f || degree[col] <= 0.0) continue;
      const double dj = 1.0 / std::sqrt(degree[col]);
      row.emplace_back(col, static_cast<float>(value * di * dj));
    }
  }
  return AssembleCsr(n, n, rows);
}

SparseCsr NormalizeRow(const SparseCsr& adjacency, bool add_self_loops) {
  STSM_CHECK(adjacency.defined());
  STSM_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const int64_t n = adjacency.rows();
  auto a_tilde = CsrWithSelfLoops(adjacency, add_self_loops);

  std::vector<std::vector<std::pair<int32_t, float>>> rows(n);
  for (int64_t i = 0; i < n; ++i) {
    double degree = 0.0;
    for (const auto& [col, value] : a_tilde[i]) degree += value;
    if (degree <= 0.0) continue;
    auto& row = rows[i];
    row.reserve(a_tilde[i].size());
    for (const auto& [col, value] : a_tilde[i]) {
      row.emplace_back(col, static_cast<float>(value / degree));
    }
  }
  return AssembleCsr(n, n, rows);
}

SparseCsr SubAdjacency(const SparseCsr& adjacency,
                       const std::vector<int>& indices) {
  STSM_CHECK(adjacency.defined());
  STSM_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const int64_t n = adjacency.rows();
  const int64_t k = static_cast<int64_t>(indices.size());
  std::vector<int32_t> local(n, -1);
  for (int64_t li = 0; li < k; ++li) {
    STSM_CHECK_GE(indices[li], 0);
    STSM_CHECK_LT(indices[li], n);
    local[indices[li]] = static_cast<int32_t>(li);
  }
  const int32_t* rp = adjacency.row_ptr();
  const int32_t* ci = adjacency.col_idx();
  const float* av = adjacency.values();
  std::vector<std::vector<std::pair<int32_t, float>>> rows(k);
  for (int64_t li = 0; li < k; ++li) {
    const int64_t g = indices[li];
    auto& row = rows[li];
    for (int32_t p = rp[g]; p < rp[g + 1]; ++p) {
      const int32_t lc = local[ci[p]];
      if (lc >= 0) row.emplace_back(lc, av[p]);
    }
    // `indices` need not be sorted, so the local column order can differ
    // from the global one.
    std::sort(row.begin(), row.end());
  }
  return AssembleCsr(k, k, rows);
}

std::vector<std::vector<int>> NeighborLists(const SparseCsr& adjacency) {
  STSM_CHECK(adjacency.defined());
  const int64_t n = adjacency.rows();
  const int32_t* rp = adjacency.row_ptr();
  const int32_t* ci = adjacency.col_idx();
  const float* av = adjacency.values();
  std::vector<std::vector<int>> neighbors(n);
  for (int64_t i = 0; i < n; ++i) {
    for (int32_t p = rp[i]; p < rp[i + 1]; ++p) {
      if (ci[p] != i && av[p] != 0.0f) neighbors[i].push_back(ci[p]);
    }
  }
  return neighbors;
}

std::vector<std::vector<int>> NeighborLists(const Tensor& adjacency) {
  return NeighborLists(SparseCsr::FromDense(adjacency));
}

int64_t CountEdges(const SparseCsr& adjacency) {
  STSM_CHECK(adjacency.defined());
  // FromParts may carry explicit zeros; only actual edges count.
  const float* av = adjacency.values();
  int64_t count = 0;
  for (int64_t p = 0; p < adjacency.nnz(); ++p) {
    if (av[p] != 0.0f) ++count;
  }
  return count;
}

int64_t CountEdges(const Tensor& adjacency) {
  return CountEdges(SparseCsr::FromDense(adjacency));
}

}  // namespace stsm
