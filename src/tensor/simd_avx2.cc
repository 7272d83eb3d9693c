// AVX2/FMA kernel table. This is the only translation unit compiled with
// -mavx2 -mfma (plus -ffp-contract=off so scalar tail loops round exactly
// like the scalar-dispatch code in ops.cc); nothing here executes unless
// simd::Active() handed out the table, which requires CPUID support, so the
// binary stays runnable on plain SSE2 hardware.
//
// Exactness rules (see simd.h): elementwise kernels use only operations the
// hardware rounds identically to their scalar counterparts (add/sub/mul/div/
// sqrt/compare-blend), never FMA, so they are bitwise-exact; so are the CSR
// gather, the temporal convolution and the gradient accumulators, which only
// vectorise across columns or elements. The GEMM
// microkernel and softmax/sum deliberately trade bitwise equality for speed
// (FMA tiles, lane-split accumulation, polynomial exp) and are ULP-bounded.

#include "tensor/simd.h"

#if defined(STSM_HAVE_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstring>
#include <limits>

namespace stsm {
namespace simd {
namespace {

constexpr int64_t kMr = 6;
constexpr int64_t kNr = 16;

// 6x16 register tile: 12 __m256 accumulators + 2 B vectors + 1 broadcast
// fit the 16 ymm registers. Panels are laid out exactly like the scalar
// kernel's (k-major, zero-padded), just with the wider geometry.
void GemmMicro6x16(int64_t kb, const float* a_panel, const float* b_panel,
                   float* acc) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (int64_t kk = 0; kk < kb; ++kk) {
    const float* av = a_panel + kk * kMr;
    // Whole-column skip, same contract as the scalar kernel: adjacency-style
    // operands are mostly zeros and one predictable branch per k step keeps
    // that win (the first compare fails immediately on dense data).
    if (av[0] == 0.0f && av[1] == 0.0f && av[2] == 0.0f && av[3] == 0.0f &&
        av[4] == 0.0f && av[5] == 0.0f) {
      continue;
    }
    const float* bv = b_panel + kk * kNr;
    const __m256 b0 = _mm256_loadu_ps(bv);
    const __m256 b1 = _mm256_loadu_ps(bv + 8);
    __m256 a = _mm256_broadcast_ss(av + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(av + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(av + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(av + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(av + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(av + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  _mm256_storeu_ps(acc + 0 * kNr, c00);
  _mm256_storeu_ps(acc + 0 * kNr + 8, c01);
  _mm256_storeu_ps(acc + 1 * kNr, c10);
  _mm256_storeu_ps(acc + 1 * kNr + 8, c11);
  _mm256_storeu_ps(acc + 2 * kNr, c20);
  _mm256_storeu_ps(acc + 2 * kNr + 8, c21);
  _mm256_storeu_ps(acc + 3 * kNr, c30);
  _mm256_storeu_ps(acc + 3 * kNr + 8, c31);
  _mm256_storeu_ps(acc + 4 * kNr, c40);
  _mm256_storeu_ps(acc + 4 * kNr + 8, c41);
  _mm256_storeu_ps(acc + 5 * kNr, c50);
  _mm256_storeu_ps(acc + 5 * kNr + 8, c51);
}

// ---- Elementwise ------------------------------------------------------------

// Vector body + scalar tail. The scalar tail expressions must match the
// scalar-dispatch lambdas in ops.cc operation for operation (this TU is
// compiled with -ffp-contract=off so gcc cannot fuse them differently).
template <typename VOp, typename SOp>
inline void MapBinary(const float* a, const float* b, float* y, int64_t n,
                      VOp vop, SOp sop) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, vop(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) y[i] = sop(a[i], b[i]);
}

template <typename VOp, typename SOp>
inline void MapUnary(const float* x, float* y, int64_t n, VOp vop, SOp sop) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, vop(_mm256_loadu_ps(x + i)));
  }
  for (; i < n; ++i) y[i] = sop(x[i]);
}

void AddK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n, [](__m256 u, __m256 v) { return _mm256_add_ps(u, v); },
      [](float u, float v) { return u + v; });
}

void SubK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n, [](__m256 u, __m256 v) { return _mm256_sub_ps(u, v); },
      [](float u, float v) { return u - v; });
}

void MulK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n, [](__m256 u, __m256 v) { return _mm256_mul_ps(u, v); },
      [](float u, float v) { return u * v; });
}

void DivK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n, [](__m256 u, __m256 v) { return _mm256_div_ps(u, v); },
      [](float u, float v) { return u / v; });
}

// maxps/minps pick the second operand on NaN and on ±0 ties, which does NOT
// match the scalar `x >= y ? x : y`; an explicit ordered compare + blend
// reproduces the scalar choice bit for bit (NaN operands fall through to y,
// Maximum(-0.0, +0.0) keeps -0.0).
void MaximumK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n,
      [](__m256 u, __m256 v) {
        return _mm256_blendv_ps(v, u, _mm256_cmp_ps(u, v, _CMP_GE_OQ));
      },
      [](float u, float v) { return u >= v ? u : v; });
}

void MinimumK(const float* a, const float* b, float* y, int64_t n) {
  MapBinary(
      a, b, y, n,
      [](__m256 u, __m256 v) {
        return _mm256_blendv_ps(v, u, _mm256_cmp_ps(u, v, _CMP_LE_OQ));
      },
      [](float u, float v) { return u <= v ? u : v; });
}

void AddScalarK(const float* x, float* y, int64_t n, float p) {
  const __m256 pv = _mm256_set1_ps(p);
  MapUnary(
      x, y, n, [pv](__m256 v) { return _mm256_add_ps(v, pv); },
      [p](float v) { return v + p; });
}

void SubScalarK(const float* x, float* y, int64_t n, float p) {
  const __m256 pv = _mm256_set1_ps(p);
  MapUnary(
      x, y, n, [pv](__m256 v) { return _mm256_sub_ps(v, pv); },
      [p](float v) { return v - p; });
}

void MulScalarK(const float* x, float* y, int64_t n, float p) {
  const __m256 pv = _mm256_set1_ps(p);
  MapUnary(
      x, y, n, [pv](__m256 v) { return _mm256_mul_ps(v, pv); },
      [p](float v) { return v * p; });
}

void DivScalarK(const float* x, float* y, int64_t n, float p) {
  const __m256 pv = _mm256_set1_ps(p);
  MapUnary(
      x, y, n, [pv](__m256 v) { return _mm256_div_ps(v, pv); },
      [p](float v) { return v / p; });
}

void NegK(const float* x, float* y, int64_t n, float /*p*/) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  MapUnary(
      x, y, n, [sign](__m256 v) { return _mm256_xor_ps(v, sign); },
      [](float v) { return -v; });
}

void ReluK(const float* x, float* y, int64_t n, float /*p*/) {
  const __m256 zero = _mm256_setzero_ps();
  MapUnary(
      x, y, n,
      [zero](__m256 v) {
        // v > 0 ? v : 0 — NaN and -0.0 both take the +0.0 arm, like scalar.
        return _mm256_blendv_ps(zero, v, _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
      },
      [](float v) { return v > 0.0f ? v : 0.0f; });
}

void LeakyReluK(const float* x, float* y, int64_t n, float p) {
  const __m256 zero = _mm256_setzero_ps();
  const __m256 alpha = _mm256_set1_ps(p);
  MapUnary(
      x, y, n,
      [zero, alpha](__m256 v) {
        return _mm256_blendv_ps(_mm256_mul_ps(alpha, v), v,
                                _mm256_cmp_ps(v, zero, _CMP_GT_OQ));
      },
      [p](float v) { return v > 0.0f ? v : p * v; });
}

void SquareK(const float* x, float* y, int64_t n, float /*p*/) {
  MapUnary(
      x, y, n, [](__m256 v) { return _mm256_mul_ps(v, v); },
      [](float v) { return v * v; });
}

void AbsK(const float* x, float* y, int64_t n, float /*p*/) {
  const __m256 mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  MapUnary(
      x, y, n, [mask](__m256 v) { return _mm256_and_ps(v, mask); },
      [](float v) { return std::fabs(v); });
}

void SqrtK(const float* x, float* y, int64_t n, float /*p*/) {
  MapUnary(
      x, y, n, [](__m256 v) { return _mm256_sqrt_ps(v); },
      [](float v) { return std::sqrt(v); });
}

// ---- In-place ---------------------------------------------------------------

void AxpyK(float* x, const float* y, float alpha, int64_t n) {
  const __m256 av = _mm256_set1_ps(alpha);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // mul + add, NOT fmadd: the scalar path rounds the product first.
    const __m256 t = _mm256_mul_ps(av, _mm256_loadu_ps(y + i));
    _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), t));
  }
  for (; i < n; ++i) x[i] += alpha * y[i];
}

void ScalK(float* x, float v, int64_t n) {
  const __m256 sv = _mm256_set1_ps(v);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), sv));
  }
  for (; i < n; ++i) x[i] *= v;
}

void ReluInPlaceK(float* x, int64_t n) { ReluK(x, x, n, 0.0f); }

// ---- Reductions -------------------------------------------------------------

// Lane-split sum with double accumulators: each 8-float block is widened to
// two 4-double partial sums, merged lane-by-lane in a fixed order, then the
// tail is added sequentially. Deterministic, but not the scalar order.
double SumK(const float* x, int64_t n) {
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc_lo = _mm256_add_pd(acc_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, _mm256_add_pd(acc_lo, acc_hi));
  double total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) total += static_cast<double>(x[i]);
  return total;
}

// Shared max/min row reduction. Each lane tracks the strict-compare extremum
// of its stride-8 slice (earliest index wins within a lane because the
// compare is strict); the horizontal merge then prefers lower indices on
// value ties, which together reproduces the scalar first-occurrence-wins
// scan exactly. Rows containing NaN are declined: NaN ordering is
// position-dependent in the scalar scan and cannot be split across lanes.
template <bool kIsMax>
bool ExtremumRowK(const float* x, int64_t n, float* best, int64_t* argbest) {
  if (n < 8 || n > std::numeric_limits<int32_t>::max()) return false;
  __m256 bestv = _mm256_loadu_ps(x);
  __m256 nan_seen = _mm256_cmp_ps(bestv, bestv, _CMP_UNORD_Q);
  __m256i bestidx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  __m256i curidx = bestidx;
  const __m256i step = _mm256_set1_epi32(8);
  int64_t i = 8;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    curidx = _mm256_add_epi32(curidx, step);
    nan_seen = _mm256_or_ps(nan_seen, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    const __m256 better =
        _mm256_cmp_ps(v, bestv, kIsMax ? _CMP_GT_OQ : _CMP_LT_OQ);
    bestv = _mm256_blendv_ps(bestv, v, better);
    bestidx = _mm256_castps_si256(_mm256_blendv_ps(
        _mm256_castsi256_ps(bestidx), _mm256_castsi256_ps(curidx), better));
  }
  if (_mm256_movemask_ps(nan_seen) != 0) return false;

  float lane_v[8];
  int32_t lane_i[8];
  _mm256_storeu_ps(lane_v, bestv);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lane_i), bestidx);
  float b = lane_v[0];
  int64_t bi = lane_i[0];
  for (int lane = 1; lane < 8; ++lane) {
    const bool wins = kIsMax ? (lane_v[lane] > b) : (lane_v[lane] < b);
    if (wins || (lane_v[lane] == b && lane_i[lane] < bi)) {
      b = lane_v[lane];
      bi = lane_i[lane];
    }
  }
  // Tail indices are all larger than any vector index, so the scalar strict
  // compare keeps first-occurrence semantics. NaN in the tail loses every
  // ordered compare, exactly like the scalar scan (a tail element is never
  // at row position 0, the only slot where scalar propagates NaN).
  for (; i < n; ++i) {
    const bool wins = kIsMax ? (x[i] > b) : (x[i] < b);
    if (wins) {
      b = x[i];
      bi = i;
    }
  }
  *best = b;
  *argbest = bi;
  return true;
}

bool MaxRowK(const float* x, int64_t n, float* best, int64_t* argbest) {
  return ExtremumRowK<true>(x, n, best, argbest);
}

bool MinRowK(const float* x, int64_t n, float* best, int64_t* argbest) {
  return ExtremumRowK<false>(x, n, best, argbest);
}

// ---- Softmax ----------------------------------------------------------------

// Polynomial exp (Cephes-style range reduction, degree-5 minimax), accurate
// to a couple of ULP over the clamped range. Inputs below kExpFlushLo flush
// to +0.0 (std::exp would return a denormal there; softmax callers tolerate
// that — the denominator is >= 1 because the max-shifted row contains an
// exact 0). Precondition: finite inputs (softmax_row declines rows that are
// not).
constexpr float kExpFlushLo = -87.3365478515625f;

inline __m256 Exp8(__m256 x0) {
  const __m256 hi = _mm256_set1_ps(88.3762626647949f);
  const __m256 lo = _mm256_set1_ps(kExpFlushLo);
  __m256 x = _mm256_max_ps(_mm256_min_ps(x0, hi), lo);
  // n = round(x * log2(e)); r = x - n*ln2 in two parts for extra bits.
  __m256 fx = _mm256_mul_ps(x, _mm256_set1_ps(1.44269504088896341f));
  fx = _mm256_round_ps(fx, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(0.693359375f), x);
  x = _mm256_fnmadd_ps(fx, _mm256_set1_ps(-2.12194440e-4f), x);
  const __m256 z = _mm256_mul_ps(x, x);
  __m256 y = _mm256_set1_ps(1.9875691500e-4f);
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
  y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
  y = _mm256_fmadd_ps(y, z, x);
  y = _mm256_add_ps(y, _mm256_set1_ps(1.0f));
  // Scale by 2^n via the exponent field; the clamp keeps n in [-126, 127].
  __m256i imm = _mm256_cvtps_epi32(fx);
  imm = _mm256_add_epi32(imm, _mm256_set1_epi32(0x7f));
  imm = _mm256_slli_epi32(imm, 23);
  y = _mm256_mul_ps(y, _mm256_castsi256_ps(imm));
  // Flush lanes whose ORIGINAL input sat below the clamp to exactly +0.0.
  return _mm256_and_ps(y, _mm256_cmp_ps(x0, lo, _CMP_GE_OQ));
}

bool SoftmaxRowK(const float* x, float* y, int64_t n) {
  if (n < 8) return false;  // Scalar handles short rows (and stays bitwise).
  // Pass 1: row max + finiteness screen. max is order-independent over
  // finite floats, so the lane-split result equals the scalar scan's.
  __m256 maxv = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 bad = _mm256_setzero_ps();
  const __m256 absmask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 inf =
      _mm256_set1_ps(std::numeric_limits<float>::infinity());
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    // NaN: unordered self-compare. ±Inf: |v| >= inf (ordered, so NaN falls
    // through to the first test).
    bad = _mm256_or_ps(bad, _mm256_cmp_ps(v, v, _CMP_UNORD_Q));
    bad = _mm256_or_ps(
        bad, _mm256_cmp_ps(_mm256_and_ps(v, absmask), inf, _CMP_GE_OQ));
    maxv = _mm256_max_ps(maxv, v);
  }
  float m = -std::numeric_limits<float>::infinity();
  {
    float lanes[8];
    _mm256_storeu_ps(lanes, maxv);
    for (float lv : lanes) m = std::max(m, lv);
  }
  for (; i < n; ++i) {
    if (!std::isfinite(x[i])) return false;
    m = std::max(m, x[i]);
  }
  if (_mm256_movemask_ps(bad) != 0) return false;

  // Pass 2: e = exp(x - m) into y, accumulating the denominator in
  // lane-split doubles. The final partial block loads only its valid lanes;
  // the others hold the row max, so they compute exp(0) = 1, and are then
  // masked to +0.0, which adds nothing. No padded lane may reach Exp8's
  // flush clamp: there the result is a denormal, which costs a microcode
  // assist on every row (DESIGN §10).
  const __m256 mv = _mm256_set1_ps(m);
  __m256d den_lo = _mm256_setzero_pd();
  __m256d den_hi = _mm256_setzero_pd();
  i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 e = Exp8(_mm256_sub_ps(_mm256_loadu_ps(x + i), mv));
    _mm256_storeu_ps(y + i, e);
    den_lo = _mm256_add_pd(den_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    den_hi = _mm256_add_pd(den_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  if (i < n) {
    const __m256i valid = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int32_t>(n - i)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    const __m256 keep = _mm256_castsi256_ps(valid);
    const __m256 v =
        _mm256_blendv_ps(mv, _mm256_maskload_ps(x + i, valid), keep);
    const __m256 e = _mm256_and_ps(Exp8(_mm256_sub_ps(v, mv)), keep);
    _mm256_maskstore_ps(y + i, valid, e);
    den_lo = _mm256_add_pd(den_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    den_hi = _mm256_add_pd(den_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, _mm256_add_pd(den_lo, den_hi));
  const double denom = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);

  // Pass 3: scale, with the same float(1/denom) factor the scalar path uses.
  const float invf = static_cast<float>(1.0 / denom);
  const __m256 inv = _mm256_set1_ps(invf);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(y + i, _mm256_mul_ps(_mm256_loadu_ps(y + i), inv));
  }
  for (; i < n; ++i) y[i] *= invf;
  return true;
}

// ---- CSR gather -------------------------------------------------------------

// One output row's column tiles stay in registers across the whole nonzero
// loop: 16 columns in two ymm accumulators, then one 8-column tile, then a
// scalar tail. Each term is mul then add (never fmadd) in ascending p, which
// is exactly the scalar kernels' per-element sequence, so the result is
// bitwise identical. The overwrite mode starts from +0.0 like their
// std::fill, so a lone -0.0 product still lands as +0.0.
void SpmmRowsK(const int32_t* row_ptr, const int32_t* col_idx,
               const float* values, const float* x, float* y,
               int64_t row_begin, int64_t row_end, int64_t c,
               bool accumulate) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t i = row_begin; i < row_end; ++i) {
    const int32_t p0 = row_ptr[i];
    const int32_t p1 = row_ptr[i + 1];
    float* yrow = y + i * c;
    int64_t cc = 0;
    for (; cc + 16 <= c; cc += 16) {
      __m256 acc0 = zero;
      __m256 acc1 = zero;
      if (accumulate) {
        acc0 = _mm256_loadu_ps(yrow + cc);
        acc1 = _mm256_loadu_ps(yrow + cc + 8);
      }
      for (int32_t p = p0; p < p1; ++p) {
        const __m256 a = _mm256_set1_ps(values[p]);
        const float* xrow = x + static_cast<int64_t>(col_idx[p]) * c + cc;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(a, _mm256_loadu_ps(xrow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(a, _mm256_loadu_ps(xrow + 8)));
      }
      _mm256_storeu_ps(yrow + cc, acc0);
      _mm256_storeu_ps(yrow + cc + 8, acc1);
    }
    if (cc + 8 <= c) {
      __m256 acc = accumulate ? _mm256_loadu_ps(yrow + cc) : zero;
      for (int32_t p = p0; p < p1; ++p) {
        const __m256 a = _mm256_set1_ps(values[p]);
        const float* xrow = x + static_cast<int64_t>(col_idx[p]) * c + cc;
        acc = _mm256_add_ps(acc, _mm256_mul_ps(a, _mm256_loadu_ps(xrow)));
      }
      _mm256_storeu_ps(yrow + cc, acc);
      cc += 8;
    }
    for (; cc < c; ++cc) {
      float acc = accumulate ? yrow[cc] : 0.0f;
      for (int32_t p = p0; p < p1; ++p) {
        acc += values[p] * x[static_cast<int64_t>(col_idx[p]) * c + cc];
      }
      yrow[cc] = acc;
    }
  }
}

// ---- Temporal convolution ---------------------------------------------------

// Conv1dTime forward for one (b, t) slab. Output channel tiles (16 in two
// ymm registers, then 8, then a scalar tail) hold the running output and the
// current tap's partial sum across the channel loop; the packed weight rows
// are contiguous in c_out. Per element this is the scalar kernel's sequence:
// the tap sum starts at +0.0 and adds w * x in ascending ci (mul then add),
// then joins the output in ascending tap order.
void ConvTimeRowsK(const float* x_b, const float* w_packed, const float* bias,
                   float* y, int64_t t, int64_t dilation, int64_t kernel,
                   int64_t nodes, int64_t c_in, int64_t c_out) {
  const __m256 zero = _mm256_setzero_ps();
  for (int64_t n = 0; n < nodes; ++n) {
    float* yrow = y + n * c_out;
    int64_t co = 0;
    for (; co + 16 <= c_out; co += 16) {
      __m256 out0 = bias != nullptr ? _mm256_loadu_ps(bias + co) : zero;
      __m256 out1 = bias != nullptr ? _mm256_loadu_ps(bias + co + 8) : zero;
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const int64_t t_in = t - (kernel - 1 - kk) * dilation;
        if (t_in < 0) continue;  // Left zero-padding (causal).
        const float* xrow = x_b + (t_in * nodes + n) * c_in;
        const float* w = w_packed + kk * c_in * c_out + co;
        __m256 acc0 = zero;
        __m256 acc1 = zero;
        for (int64_t ci = 0; ci < c_in; ++ci, w += c_out) {
          const __m256 xv = _mm256_set1_ps(xrow[ci]);
          acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_loadu_ps(w), xv));
          acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_loadu_ps(w + 8), xv));
        }
        out0 = _mm256_add_ps(out0, acc0);
        out1 = _mm256_add_ps(out1, acc1);
      }
      _mm256_storeu_ps(yrow + co, out0);
      _mm256_storeu_ps(yrow + co + 8, out1);
    }
    if (co + 8 <= c_out) {
      __m256 out = bias != nullptr ? _mm256_loadu_ps(bias + co) : zero;
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const int64_t t_in = t - (kernel - 1 - kk) * dilation;
        if (t_in < 0) continue;
        const float* xrow = x_b + (t_in * nodes + n) * c_in;
        const float* w = w_packed + kk * c_in * c_out + co;
        __m256 acc = zero;
        for (int64_t ci = 0; ci < c_in; ++ci, w += c_out) {
          acc = _mm256_add_ps(
              acc, _mm256_mul_ps(_mm256_loadu_ps(w), _mm256_set1_ps(xrow[ci])));
        }
        out = _mm256_add_ps(out, acc);
      }
      _mm256_storeu_ps(yrow + co, out);
      co += 8;
    }
    for (; co < c_out; ++co) {
      float out = bias != nullptr ? bias[co] : 0.0f;
      for (int64_t kk = 0; kk < kernel; ++kk) {
        const int64_t t_in = t - (kernel - 1 - kk) * dilation;
        if (t_in < 0) continue;
        const float* xrow = x_b + (t_in * nodes + n) * c_in;
        const float* w = w_packed + kk * c_in * c_out + co;
        float acc = 0.0f;
        for (int64_t ci = 0; ci < c_in; ++ci) acc += w[ci * c_out] * xrow[ci];
        out += acc;
      }
      yrow[co] = out;
    }
  }
}

// Row tiles of y (16 columns in two ymm registers, then 8, then a scalar
// tail) stay in registers across the j loop; each term is mul then add in
// ascending j, skipping a == 0 like the scalar loops' `g == 0` test.
void RowsAxpyK(const float* a, int64_t a_row, int64_t a_col, const float* b,
               float* y, int64_t rows, int64_t inner, int64_t c) {
  for (int64_t i = 0; i < rows; ++i) {
    const float* ai = a + i * a_row;
    float* yrow = y + i * c;
    int64_t cc = 0;
    for (; cc + 16 <= c; cc += 16) {
      __m256 acc0 = _mm256_loadu_ps(yrow + cc);
      __m256 acc1 = _mm256_loadu_ps(yrow + cc + 8);
      for (int64_t j = 0; j < inner; ++j) {
        const float s = ai[j * a_col];
        if (s == 0.0f) continue;
        const __m256 sv = _mm256_set1_ps(s);
        const float* brow = b + j * c + cc;
        acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(sv, _mm256_loadu_ps(brow)));
        acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(sv, _mm256_loadu_ps(brow + 8)));
      }
      _mm256_storeu_ps(yrow + cc, acc0);
      _mm256_storeu_ps(yrow + cc + 8, acc1);
    }
    if (cc + 8 <= c) {
      __m256 acc = _mm256_loadu_ps(yrow + cc);
      for (int64_t j = 0; j < inner; ++j) {
        const float s = ai[j * a_col];
        if (s == 0.0f) continue;
        acc = _mm256_add_ps(
            acc, _mm256_mul_ps(_mm256_set1_ps(s), _mm256_loadu_ps(b + j * c + cc)));
      }
      _mm256_storeu_ps(yrow + cc, acc);
      cc += 8;
    }
    for (; cc < c; ++cc) {
      float acc = yrow[cc];
      for (int64_t j = 0; j < inner; ++j) {
        const float s = ai[j * a_col];
        if (s == 0.0f) continue;
        acc += s * b[j * c + cc];
      }
      yrow[cc] = acc;
    }
  }
}

void MulAccK(float* x, const float* y, const float* z, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t = _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_loadu_ps(z + i));
    _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), t));
  }
  for (; i < n; ++i) x[i] += y[i] * z[i];
}

void SelectGeAccK(float* x, const float* y, const float* u, const float* v,
                  float t, float f, int64_t n) {
  const __m256 tv = _mm256_set1_ps(t);
  const __m256 fv = _mm256_set1_ps(f);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 ge =
        _mm256_cmp_ps(_mm256_loadu_ps(u + i), _mm256_loadu_ps(v + i),
                      _CMP_GE_OQ);
    const __m256 d =
        _mm256_mul_ps(_mm256_loadu_ps(y + i), _mm256_blendv_ps(fv, tv, ge));
    _mm256_storeu_ps(x + i, _mm256_add_ps(_mm256_loadu_ps(x + i), d));
  }
  for (; i < n; ++i) x[i] += y[i] * (u[i] >= v[i] ? t : f);
}

const KernelTable kAvx2Table = {
    /*gemm_mr=*/kMr,
    /*gemm_nr=*/kNr,
    GemmMicro6x16,
    AddK,
    SubK,
    MulK,
    DivK,
    MaximumK,
    MinimumK,
    AddScalarK,
    SubScalarK,
    MulScalarK,
    DivScalarK,
    NegK,
    ReluK,
    LeakyReluK,
    SquareK,
    AbsK,
    SqrtK,
    AxpyK,
    ScalK,
    ReluInPlaceK,
    SumK,
    MaxRowK,
    MinRowK,
    SoftmaxRowK,
    SpmmRowsK,
    ConvTimeRowsK,
    RowsAxpyK,
    MulAccK,
    SelectGeAccK,
    /*isa=*/"avx2+fma",
};

}  // namespace

namespace internal {
const KernelTable* Avx2Table() { return &kAvx2Table; }
}  // namespace internal

}  // namespace simd
}  // namespace stsm

#else  // !STSM_HAVE_AVX2

namespace stsm {
namespace simd {
namespace internal {
const KernelTable* Avx2Table() { return nullptr; }
}  // namespace internal
}  // namespace simd
}  // namespace stsm

#endif  // STSM_HAVE_AVX2
