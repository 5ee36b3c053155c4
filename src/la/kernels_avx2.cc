// AVX2 + FMA kernel tier (x86-64-v3). Compiled with -mavx2 -mfma via
// per-file flags in la/CMakeLists.txt; only registered when the host
// CPU reports avx2+fma (see cpu_features.cc).
//
// Numerics: every kernel keeps the scalar tier's accumulation ORDER —
// vector lanes span independent output columns wherever possible, and
// the depth dimension advances sequentially — so the only rounding
// difference vs scalar is FMA contraction (one rounding per
// multiply-add instead of two), which the <= 4-ULP dispatch gate covers
// (tests/la/dispatch_test.cc). kTanh / kSigmoid epilogues call the
// scalar libm path on purpose: transcendental polynomial approximations
// are where SIMD math libraries silently diverge, and the elementwise
// cost is dwarfed by the GEMM/SpMM they follow.
#if defined(TURBO_LA_HAVE_AVX2)

#include <immintrin.h>

#include "la/kernel_table.h"

namespace turbo::la::internal {
namespace {

void GemmRows(const float* a, const float* b, float* c, size_t k, size_t n,
              size_t r0, size_t r1, size_t p0, size_t p1) {
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    // Register blocks of 64, then 32 columns: the accumulators live
    // across the whole depth block, so B streams and C is touched once
    // per block. The 64-column block's 8 independent FMA chains also
    // cover the FMA latency, which the 32-column block's 4 do not.
    for (; j + 64 <= n; j += 64) {
      float* cj = crow + j;
      __m256 acc[8];
      for (int q = 0; q < 8; ++q) acc[q] = _mm256_loadu_ps(cj + 8 * q);
      for (size_t p = p0; p < p1; ++p) {
        const __m256 av = _mm256_set1_ps(arow[p]);
        const float* bj = b + p * n + j;
        for (int q = 0; q < 8; ++q) {
          acc[q] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 8 * q), acc[q]);
        }
      }
      for (int q = 0; q < 8; ++q) _mm256_storeu_ps(cj + 8 * q, acc[q]);
    }
    for (; j + 32 <= n; j += 32) {
      float* cj = crow + j;
      __m256 acc0 = _mm256_loadu_ps(cj);
      __m256 acc1 = _mm256_loadu_ps(cj + 8);
      __m256 acc2 = _mm256_loadu_ps(cj + 16);
      __m256 acc3 = _mm256_loadu_ps(cj + 24);
      for (size_t p = p0; p < p1; ++p) {
        const __m256 av = _mm256_set1_ps(arow[p]);
        const float* bj = b + p * n + j;
        acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj), acc0);
        acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 8), acc1);
        acc2 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 16), acc2);
        acc3 = _mm256_fmadd_ps(av, _mm256_loadu_ps(bj + 24), acc3);
      }
      _mm256_storeu_ps(cj, acc0);
      _mm256_storeu_ps(cj + 8, acc1);
      _mm256_storeu_ps(cj + 16, acc2);
      _mm256_storeu_ps(cj + 24, acc3);
    }
    for (; j + 8 <= n; j += 8) {
      float* cj = crow + j;
      __m256 acc = _mm256_loadu_ps(cj);
      for (size_t p = p0; p < p1; ++p) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[p]),
                              _mm256_loadu_ps(b + p * n + j), acc);
      }
      _mm256_storeu_ps(cj, acc);
    }
    for (; j < n; ++j) {
      float s = crow[j];
      for (size_t p = p0; p < p1; ++p) s += arow[p] * b[p * n + j];
      crow[j] = s;
    }
  }
}

void SpmmRows(const uint32_t* row_ptr, const uint32_t* cols,
              const float* vals, const float* x, float* y, size_t n,
              size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    float* yrow = y + r * n;
    const uint32_t e0 = row_ptr[r], e1 = row_ptr[r + 1];
    size_t j = 0;
    // Column tiles held in registers across the neighbor loop: each
    // gathered X row is touched once per tile.
    for (; j + 16 <= n; j += 16) {
      __m256 acc0 = _mm256_loadu_ps(yrow + j);
      __m256 acc1 = _mm256_loadu_ps(yrow + j + 8);
      for (uint32_t e = e0; e < e1; ++e) {
        const __m256 v = _mm256_set1_ps(vals[e]);
        const float* xj = x + static_cast<size_t>(cols[e]) * n + j;
        acc0 = _mm256_fmadd_ps(v, _mm256_loadu_ps(xj), acc0);
        acc1 = _mm256_fmadd_ps(v, _mm256_loadu_ps(xj + 8), acc1);
      }
      _mm256_storeu_ps(yrow + j, acc0);
      _mm256_storeu_ps(yrow + j + 8, acc1);
    }
    for (; j + 8 <= n; j += 8) {
      __m256 acc = _mm256_loadu_ps(yrow + j);
      for (uint32_t e = e0; e < e1; ++e) {
        acc = _mm256_fmadd_ps(
            _mm256_set1_ps(vals[e]),
            _mm256_loadu_ps(x + static_cast<size_t>(cols[e]) * n + j), acc);
      }
      _mm256_storeu_ps(yrow + j, acc);
    }
    for (; j < n; ++j) {
      float s = yrow[j];
      for (uint32_t e = e0; e < e1; ++e) {
        s += vals[e] * x[static_cast<size_t>(cols[e]) * n + j];
      }
      yrow[j] = s;
    }
  }
}

void EpilogueRows(float* c, const float* add, size_t add_stride, size_t n,
                  size_t r0, size_t r1, Act act) {
  if (act == Act::kTanh || act == Act::kSigmoid) {
    // Transcendentals stay on the scalar libm path on every tier.
    for (size_t r = r0; r < r1; ++r) {
      float* crow = c + r * n;
      const float* arow = add == nullptr ? nullptr : add + r * add_stride;
      for (size_t j = 0; j < n; ++j) {
        const float z = arow == nullptr ? crow[j] : crow[j] + arow[j];
        crow[j] = ApplyAct(act, z);
      }
    }
    return;
  }
  const __m256 zero = _mm256_setzero_ps();
  for (size_t r = r0; r < r1; ++r) {
    float* crow = c + r * n;
    const float* arow = add == nullptr ? nullptr : add + r * add_stride;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      __m256 z = _mm256_loadu_ps(crow + j);
      if (arow != nullptr) z = _mm256_add_ps(z, _mm256_loadu_ps(arow + j));
      // max(z, +0) matches the scalar `x > 0 ? x : 0` bit-for-bit: on
      // equal operands (incl. -0) and on NaN, MAXPS returns the second
      // operand, here +0.
      if (act == Act::kRelu) z = _mm256_max_ps(z, zero);
      _mm256_storeu_ps(crow + j, z);
    }
    for (; j < n; ++j) {
      const float z = arow == nullptr ? crow[j] : crow[j] + arow[j];
      crow[j] = ApplyAct(act, z);
    }
  }
}

void MapAct(Act act, const float* in, float* out, size_t count) {
  if (act == Act::kRelu) {
    const __m256 zero = _mm256_setzero_ps();
    size_t i = 0;
    for (; i + 8 <= count; i += 8) {
      _mm256_storeu_ps(out + i,
                       _mm256_max_ps(_mm256_loadu_ps(in + i), zero));
    }
    for (; i < count; ++i) out[i] = ApplyAct(act, in[i]);
    return;
  }
  for (size_t i = 0; i < count; ++i) out[i] = ApplyAct(act, in[i]);
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = {GemmRows, SpmmRows, EpilogueRows,
                                    MapAct};
  return table;
}

}  // namespace turbo::la::internal

#endif  // TURBO_LA_HAVE_AVX2
