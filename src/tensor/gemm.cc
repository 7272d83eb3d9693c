#include "tensor/gemm.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "tensor/simd.h"

namespace stsm {

namespace {

// Pack buffers are thread_local so concurrent PackedGemm calls from the
// thread pool never share them; they grow to the high-water mark once per
// thread and are reused across calls.
thread_local std::vector<float> tl_a_pack;
thread_local std::vector<float> tl_b_pack;

// MR x NR register tile: acc[i][j] accumulates over one packed k-block.
// `a_panel` is k-major (kb x MR), `b_panel` is k-major (kb x NR); both are
// zero-padded to full tile width, so the tile loop has no edge branches.
void MicroKernel(int64_t kb, const float* a_panel, const float* b_panel,
                 float* acc) {
  static_assert(kGemmMr == 4, "zero-column skip below is written for MR == 4");
  for (int64_t kk = 0; kk < kb; ++kk) {
    const float* av = a_panel + kk * kGemmMr;
    // Adjacency-style operands are mostly zeros; a whole-column skip keeps
    // the sparse win of the old per-element kernel at dense-case branch cost
    // of one predictable test per k step.
    if (av[0] == 0.0f && av[1] == 0.0f && av[2] == 0.0f && av[3] == 0.0f) {
      continue;
    }
    const float* bv = b_panel + kk * kGemmNr;
    for (int64_t i = 0; i < kGemmMr; ++i) {
      const float a_val = av[i];
      float* row = acc + i * kGemmNr;
      for (int64_t j = 0; j < kGemmNr; ++j) row[j] += a_val * bv[j];
    }
  }
}

// Widening element loads for the packing loops: fp32 panels are copied
// verbatim, bf16 bit patterns are widened exactly (<< 16). Everything past
// the pack — microkernel, accumulator, C stores — is fp32 either way.
inline float WidenLoad(float v) { return v; }
inline float WidenLoad(uint16_t v) { return F32FromBf16(v); }

// The blocked GEMM body, templated on the storage element type of each
// operand. PackedGemmImpl<float, float> is the historical fp32 kernel
// (identical arithmetic and flop order); the bf16 instantiations differ only
// in the pack-time loads.
//
// One A against a list of (B, C) slices: per k-block, each A row panel is
// packed while the first slice runs and reused by every later slice, so a
// shared operand (an adjacency against B x T activations) is packed once
// per call instead of once per slice. Per output element the loop is the
// single-slice one — the same k-blocks, the same zero-padded panels, the
// same acc -> C store — so a slice's result does not depend on the list it
// travels in. A single slice reuses one panel slot, exactly as before.
template <typename AT, typename BT>
void PackedGemmImpl(int64_t m, int64_t n, int64_t k,        //
                    const AT* a, int64_t rs_a, int64_t cs_a,  //
                    const GemmSlice* slices, int64_t count,   //
                    int64_t rs_b, int64_t cs_b,               //
                    int64_t rs_c, int64_t cs_c, bool accumulate) {
  if (m <= 0 || n <= 0 || count <= 0) return;
  if (k <= 0) {
    if (!accumulate) {
      for (int64_t s = 0; s < count; ++s) {
        float* c = slices[s].c;
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < n; ++j) c[i * rs_c + j * cs_c] = 0.0f;
        }
      }
    }
    return;
  }

  // Fetch the dispatch once per call: every pack/store below uses the same
  // tile geometry, and flipping dispatch mid-call (tests) cannot tear us.
  const simd::KernelTable* vk = simd::Active();
  const int64_t mr = vk != nullptr ? vk->gemm_mr : kGemmMr;
  const int64_t nr = vk != nullptr ? vk->gemm_nr : kGemmNr;
  assert(mr <= kGemmMaxMr && nr <= kGemmMaxNr);

  const int64_t n_panels = (n + nr - 1) / nr;
  const int64_t a_slots = count == 1 ? 1 : (m + mr - 1) / mr;
  tl_a_pack.resize(static_cast<size_t>(a_slots * mr * kGemmKc));
  tl_b_pack.resize(static_cast<size_t>(n_panels * nr * kGemmKc));

  for (int64_t kc = 0; kc < k; kc += kGemmKc) {
    const int64_t kb = std::min(kGemmKc, k - kc);
    // On the first k-block a non-accumulating call overwrites C; every later
    // block adds on top.
    const bool overwrite = (kc == 0) && !accumulate;

    for (int64_t s = 0; s < count; ++s) {
      const BT* b = static_cast<const BT*>(slices[s].b);
      float* c = slices[s].c;
      // Pack B into NR-wide, k-major panels (zero-padded past column n).
      float* b_pack = tl_b_pack.data();
      for (int64_t jp = 0; jp < n_panels; ++jp) {
        const int64_t j0 = jp * nr;
        const int64_t jw = std::min(nr, n - j0);
        float* panel = b_pack + jp * kb * nr;
        for (int64_t kk = 0; kk < kb; ++kk) {
          const BT* src = b + (kc + kk) * rs_b + j0 * cs_b;
          float* dst = panel + kk * nr;
          for (int64_t j = 0; j < jw; ++j) dst[j] = WidenLoad(src[j * cs_b]);
          for (int64_t j = jw; j < nr; ++j) dst[j] = 0.0f;
        }
      }

      for (int64_t i0 = 0; i0 < m; i0 += mr) {
        const int64_t iw = std::min(mr, m - i0);
        float* a_pack = tl_a_pack.data() + (a_slots == 1 ? 0 : i0 * kb);
        if (s == 0) {
          // Pack the A row panel k-major (zero-padded past row m).
          for (int64_t kk = 0; kk < kb; ++kk) {
            const AT* src = a + i0 * rs_a + (kc + kk) * cs_a;
            float* dst = a_pack + kk * mr;
            for (int64_t i = 0; i < iw; ++i) dst[i] = WidenLoad(src[i * rs_a]);
            for (int64_t i = iw; i < mr; ++i) dst[i] = 0.0f;
          }
        }

        for (int64_t jp = 0; jp < n_panels; ++jp) {
          const int64_t j0 = jp * nr;
          const int64_t jw = std::min(nr, n - j0);
          alignas(32) float acc[kGemmMaxMr * kGemmMaxNr] = {};
          if (vk != nullptr) {
            vk->gemm_micro(kb, a_pack, b_pack + jp * kb * nr, acc);
          } else {
            MicroKernel(kb, a_pack, b_pack + jp * kb * nr, acc);
          }
          for (int64_t i = 0; i < iw; ++i) {
            float* dst = c + (i0 + i) * rs_c + j0 * cs_c;
            const float* src = acc + i * nr;
            if (overwrite) {
              for (int64_t j = 0; j < jw; ++j) dst[j * cs_c] = src[j];
            } else {
              for (int64_t j = 0; j < jw; ++j) dst[j * cs_c] += src[j];
            }
          }
        }
      }
    }
  }
}

}  // namespace

void PackedGemm(int64_t m, int64_t n, int64_t k,            //
                const float* a, int64_t rs_a, int64_t cs_a,  //
                const float* b, int64_t rs_b, int64_t cs_b,  //
                float* c, int64_t rs_c, int64_t cs_c,        //
                bool accumulate) {
  const GemmSlice slice{b, c};
  PackedGemmImpl<float, float>(m, n, k, a, rs_a, cs_a, &slice, 1,  //
                               rs_b, cs_b, rs_c, cs_c, accumulate);
}

void PackedGemmShared(int64_t m, int64_t n, int64_t k,                      //
                      const void* a, DType a_dtype, int64_t rs_a, int64_t cs_a,
                      DType b_dtype, int64_t rs_b, int64_t cs_b,            //
                      const GemmSlice* slices, int64_t count,               //
                      int64_t rs_c, int64_t cs_c, bool accumulate) {
  const bool a16 = a_dtype == DType::kBf16;
  const bool b16 = b_dtype == DType::kBf16;
  if (!a16 && !b16) {
    PackedGemmImpl<float, float>(m, n, k, static_cast<const float*>(a), rs_a,
                                 cs_a, slices, count, rs_b, cs_b, rs_c, cs_c,
                                 accumulate);
  } else if (a16 && !b16) {
    PackedGemmImpl<uint16_t, float>(m, n, k, static_cast<const uint16_t*>(a),
                                    rs_a, cs_a, slices, count, rs_b, cs_b,
                                    rs_c, cs_c, accumulate);
  } else if (!a16 && b16) {
    PackedGemmImpl<float, uint16_t>(m, n, k, static_cast<const float*>(a),
                                    rs_a, cs_a, slices, count, rs_b, cs_b,
                                    rs_c, cs_c, accumulate);
  } else {
    PackedGemmImpl<uint16_t, uint16_t>(
        m, n, k, static_cast<const uint16_t*>(a), rs_a, cs_a, slices, count,
        rs_b, cs_b, rs_c, cs_c, accumulate);
  }
}

void NaiveGemm(int64_t m, int64_t n, int64_t k,             //
               const float* a, int64_t rs_a, int64_t cs_a,   //
               const float* b, int64_t rs_b, int64_t cs_b,   //
               float* c, int64_t rs_c, int64_t cs_c,         //
               bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a[i * rs_a + kk * cs_a] * b[kk * rs_b + j * cs_b];
      }
      float* dst = c + i * rs_c + j * cs_c;
      if (accumulate) {
        *dst += acc;
      } else {
        *dst = acc;
      }
    }
  }
}

}  // namespace stsm
