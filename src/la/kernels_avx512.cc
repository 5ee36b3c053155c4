// AVX-512F kernel tier. Compiled with -mavx512f via per-file flags in
// la/CMakeLists.txt; only registered when the host CPU reports avx512f.
//
// Same structural contract as the AVX2 tier (see kernels_avx2.cc): lanes
// span output columns, depth advances sequentially, transcendental
// epilogues stay scalar. Column tails use lane masks instead of scalar
// loops — maskz loads read zeros into dead lanes and masked stores leave
// memory past the tail untouched, so tails follow the exact same FMA
// sequence as full vectors. Only AVX-512F instructions are used (no
// BW/DQ/VL), so any avx512f host can run this tier.
#if defined(TURBO_LA_HAVE_AVX512)

#include <immintrin.h>

#include "la/kernel_table.h"

namespace turbo::la::internal {
namespace {

inline __mmask16 TailMask(size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

void GemmRows(const float* a, const float* b, float* c, size_t k, size_t n,
              size_t r0, size_t r1, size_t p0, size_t p1) {
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    // 64-column register block: 4 zmm accumulators live across the
    // whole depth block.
    for (; j + 64 <= n; j += 64) {
      float* cj = crow + j;
      __m512 acc0 = _mm512_loadu_ps(cj);
      __m512 acc1 = _mm512_loadu_ps(cj + 16);
      __m512 acc2 = _mm512_loadu_ps(cj + 32);
      __m512 acc3 = _mm512_loadu_ps(cj + 48);
      for (size_t p = p0; p < p1; ++p) {
        const __m512 av = _mm512_set1_ps(arow[p]);
        const float* bj = b + p * n + j;
        acc0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bj), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bj + 16), acc1);
        acc2 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bj + 32), acc2);
        acc3 = _mm512_fmadd_ps(av, _mm512_loadu_ps(bj + 48), acc3);
      }
      _mm512_storeu_ps(cj, acc0);
      _mm512_storeu_ps(cj + 16, acc1);
      _mm512_storeu_ps(cj + 32, acc2);
      _mm512_storeu_ps(cj + 48, acc3);
    }
    for (; j + 16 <= n; j += 16) {
      float* cj = crow + j;
      __m512 acc = _mm512_loadu_ps(cj);
      for (size_t p = p0; p < p1; ++p) {
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[p]),
                              _mm512_loadu_ps(b + p * n + j), acc);
      }
      _mm512_storeu_ps(cj, acc);
    }
    if (j < n) {
      const __mmask16 m = TailMask(n - j);
      __m512 acc = _mm512_maskz_loadu_ps(m, crow + j);
      for (size_t p = p0; p < p1; ++p) {
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[p]),
                              _mm512_maskz_loadu_ps(m, b + p * n + j), acc);
      }
      _mm512_mask_storeu_ps(crow + j, m, acc);
    }
  }
}

void GemmTransBRows(const float* a, const float* b, float* c, size_t k,
                    size_t n, size_t r0, size_t r1) {
  for (size_t i = r0; i < r1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    size_t j = 0;
    for (; j + 1 < n; j += 2) {
      const float* b0 = b + j * k;
      const float* b1 = b + (j + 1) * k;
      __m512 acc0 = _mm512_setzero_ps();
      __m512 acc1 = _mm512_setzero_ps();
      size_t p = 0;
      for (; p + 16 <= k; p += 16) {
        const __m512 av = _mm512_loadu_ps(arow + p);
        acc0 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b0 + p), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_loadu_ps(b1 + p), acc1);
      }
      if (p < k) {
        const __mmask16 m = TailMask(k - p);
        const __m512 av = _mm512_maskz_loadu_ps(m, arow + p);
        acc0 = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m, b0 + p), acc0);
        acc1 = _mm512_fmadd_ps(av, _mm512_maskz_loadu_ps(m, b1 + p), acc1);
      }
      crow[j] = _mm512_reduce_add_ps(acc0);
      crow[j + 1] = _mm512_reduce_add_ps(acc1);
    }
    if (j < n) {
      const float* brow = b + j * k;
      __m512 acc = _mm512_setzero_ps();
      size_t p = 0;
      for (; p + 16 <= k; p += 16) {
        acc = _mm512_fmadd_ps(_mm512_loadu_ps(arow + p),
                              _mm512_loadu_ps(brow + p), acc);
      }
      if (p < k) {
        const __mmask16 m = TailMask(k - p);
        acc = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(m, arow + p),
                              _mm512_maskz_loadu_ps(m, brow + p), acc);
      }
      crow[j] = _mm512_reduce_add_ps(acc);
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
    for (; j + 32 <= n; j += 32) {
      __m512 acc0 = _mm512_loadu_ps(yrow + j);
      __m512 acc1 = _mm512_loadu_ps(yrow + j + 16);
      for (uint32_t e = e0; e < e1; ++e) {
        const __m512 v = _mm512_set1_ps(vals[e]);
        const float* xj = x + static_cast<size_t>(cols[e]) * n + j;
        acc0 = _mm512_fmadd_ps(v, _mm512_loadu_ps(xj), acc0);
        acc1 = _mm512_fmadd_ps(v, _mm512_loadu_ps(xj + 16), acc1);
      }
      _mm512_storeu_ps(yrow + j, acc0);
      _mm512_storeu_ps(yrow + j + 16, acc1);
    }
    for (; j + 16 <= n; j += 16) {
      __m512 acc = _mm512_loadu_ps(yrow + j);
      for (uint32_t e = e0; e < e1; ++e) {
        acc = _mm512_fmadd_ps(
            _mm512_set1_ps(vals[e]),
            _mm512_loadu_ps(x + static_cast<size_t>(cols[e]) * n + j), acc);
      }
      _mm512_storeu_ps(yrow + j, acc);
    }
    if (j < n) {
      const __mmask16 m = TailMask(n - j);
      __m512 acc = _mm512_maskz_loadu_ps(m, yrow + j);
      for (uint32_t e = e0; e < e1; ++e) {
        acc = _mm512_fmadd_ps(
            _mm512_set1_ps(vals[e]),
            _mm512_maskz_loadu_ps(
                m, x + static_cast<size_t>(cols[e]) * n + j),
            acc);
      }
      _mm512_mask_storeu_ps(yrow + j, m, acc);
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
  const __m512 zero = _mm512_setzero_ps();
  for (size_t r = r0; r < r1; ++r) {
    float* crow = c + r * n;
    const float* arow = add == nullptr ? nullptr : add + r * add_stride;
    size_t j = 0;
    for (; j + 16 <= n; j += 16) {
      __m512 z = _mm512_loadu_ps(crow + j);
      if (arow != nullptr) z = _mm512_add_ps(z, _mm512_loadu_ps(arow + j));
      // Second-operand-on-equal/NaN semantics match scalar relu exactly,
      // as in the AVX2 tier.
      if (act == Act::kRelu) z = _mm512_max_ps(z, zero);
      _mm512_storeu_ps(crow + j, z);
    }
    if (j < n) {
      const __mmask16 m = TailMask(n - j);
      __m512 z = _mm512_maskz_loadu_ps(m, crow + j);
      if (arow != nullptr) {
        z = _mm512_add_ps(z, _mm512_maskz_loadu_ps(m, arow + j));
      }
      if (act == Act::kRelu) z = _mm512_max_ps(z, zero);
      _mm512_mask_storeu_ps(crow + j, m, z);
    }
  }
}

void MapAct(Act act, const float* in, float* out, size_t count) {
  if (act == Act::kRelu) {
    const __m512 zero = _mm512_setzero_ps();
    size_t i = 0;
    for (; i + 16 <= count; i += 16) {
      _mm512_storeu_ps(out + i,
                       _mm512_max_ps(_mm512_loadu_ps(in + i), zero));
    }
    if (i < count) {
      const __mmask16 m = TailMask(count - i);
      _mm512_mask_storeu_ps(
          out + i, m,
          _mm512_max_ps(_mm512_maskz_loadu_ps(m, in + i), zero));
    }
    return;
  }
  for (size_t i = 0; i < count; ++i) out[i] = ApplyAct(act, in[i]);
}

}  // namespace

const KernelTable& Avx512Kernels() {
  static const KernelTable table = {GemmRows, GemmTransBRows, SpmmRows,
                                    EpilogueRows, MapAct};
  return table;
}

}  // namespace turbo::la::internal

#endif  // TURBO_LA_HAVE_AVX512
