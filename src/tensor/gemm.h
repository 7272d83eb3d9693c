// Packed, register-tiled single-precision GEMM microkernel.
//
// PackedGemm computes C (+)= A @ B for one matrix pair, where every operand
// is addressed through explicit (row, column) element strides. Arbitrary
// strides let the caller feed transposed or otherwise strided views without
// materializing them: MatMul(Transpose(X), W) passes X's swapped strides and
// the packing loops absorb the layout change. The kernel is single-threaded
// by design — callers (tensor/ops.cc MatMul forward and both backwards, the
// fused GCNL node in nn/gcn.cc) parallelize over batches and row blocks via
// ParallelFor, and every output element has exactly one owning task. When
// many output slices read the same A (an adjacency against every B x T slice
// of an activation), one PackedGemmShared call runs them all against one
// packing of A.
//
// Internals: classic three-level blocking. The k dimension is split into
// KC-sized blocks; within a block, B is packed into NR-wide column panels
// and A into MR-tall row panels (both zero-padded at the edges), and an
// MR x NR register tile accumulates the product. Per output element the
// flop order over k is identical to a plain ordered dot product whenever
// k <= KC, and is independent of the caller's thread count either way, so
// results are deterministic run-to-run.

#ifndef STSM_TENSOR_GEMM_H_
#define STSM_TENSOR_GEMM_H_

#include <cstdint>

#include "tensor/dtype.h"

namespace stsm {

// Register-tile and cache-block parameters, exported so benchmarks and tests
// can reason about edge cases (m % kGemmMr, n % kGemmNr, k > kGemmKc).
// kGemmMr/kGemmNr describe the scalar reference tile; when a SIMD kernel
// table is active (see tensor/simd.h) PackedGemm packs with the table's
// wider geometry instead, bounded by kGemmMaxMr/kGemmMaxNr.
inline constexpr int64_t kGemmMr = 4;   // rows per register tile (scalar)
inline constexpr int64_t kGemmNr = 8;   // columns per register tile (scalar)
inline constexpr int64_t kGemmMaxMr = 8;   // upper bound over all kernels
inline constexpr int64_t kGemmMaxNr = 16;  // upper bound over all kernels
inline constexpr int64_t kGemmKc = 256; // k-block (packed panel depth)

// Suggested number of C rows per parallel task when callers split a single
// GEMM across the thread pool.
inline constexpr int64_t kGemmRowBlock = 64;

// C[i, j] (+)= sum_k A[i, k] * B[k, j] for i < m, j < n.
//
// Element addresses: A[i, k] = a[i * rs_a + k * cs_a], and likewise for B
// and C. When `accumulate` is false C is overwritten (and zeroed if k == 0);
// when true the product is added to the existing C values.
//
// The output block must not alias either input.
void PackedGemm(int64_t m, int64_t n, int64_t k,            //
                const float* a, int64_t rs_a, int64_t cs_a,  //
                const float* b, int64_t rs_b, int64_t cs_b,  //
                float* c, int64_t rs_c, int64_t cs_c,        //
                bool accumulate);

// One (B, C) operand pair of a shared-A GEMM. `b` points at fp32 or bf16
// elements (the call's b_dtype); `c` is always fp32.
struct GemmSlice {
  const void* b;
  float* c;
};

// C_s (+)= A @ B_s for every slice s in [0, count), all with the same A and
// the same B and C strides; otherwise the PackedGemm contract. Per k-block
// each A row panel is packed once and reused for every slice; per output
// element the arithmetic is exactly that of a PackedGemm call on the one
// slice, so a result is bitwise independent of the list it travels in, and
// PackedGemm is the list-of-one case. The A pack scratch grows to
// m x kGemmKc floats per thread, so callers pass row blocks
// (kGemmRowBlock), not whole tall matrices. No C may alias another slice's
// C or any input.
//
// A and B carry a runtime element type (fp32 or bf16 bit patterns). bf16
// operands are widened to fp32 *inside the packing loops* — the panels
// handed to the register microkernel are always fp32, so the 6x16 AVX2
// kernel and the scalar reference tile are reused unchanged and
// accumulation is fp32 end-to-end. With both dtypes kF32 this is PackedGemm's
// template instantiation, so the fp32 path stays bit-for-bit. C is always
// fp32: reduced precision is a storage format, not a compute format.
void PackedGemmShared(int64_t m, int64_t n, int64_t k,                      //
                      const void* a, DType a_dtype, int64_t rs_a, int64_t cs_a,
                      DType b_dtype, int64_t rs_b, int64_t cs_b,            //
                      const GemmSlice* slices, int64_t count,               //
                      int64_t rs_c, int64_t cs_c, bool accumulate);

// Reference implementation (triple loop, same stride convention). Used by
// tests and benchmarks as the correctness / speed baseline.
void NaiveGemm(int64_t m, int64_t n, int64_t k,             //
               const float* a, int64_t rs_a, int64_t cs_a,   //
               const float* b, int64_t rs_b, int64_t cs_b,   //
               float* c, int64_t rs_c, int64_t cs_c,         //
               bool accumulate);

}  // namespace stsm

#endif  // STSM_TENSOR_GEMM_H_
