// Internal function-pointer kernel table behind the products the
// inference forwards dispatch.
//
// Each ISA tier (kernels_scalar.cc, kernels_avx2.cc) fills one
// KernelTable with raw-pointer row-range microkernels; the drivers in
// kernel_dispatch.cc own the blocking / thread-pool structure and call
// through the table for the inner loops. The plain la:: kernels run the
// drivers on the scalar table, la::dispatch on the active one.
// Keeping the outer structure ISA-independent is what makes the tiers
// ULP-comparable: every tier accumulates each output element in exactly
// the same order (depth-sequential, rows never split), so the only
// numerical difference between tiers is FMA contraction inside a step.
//
// Contract per entry (all matrices row-major, fully packed):
//  * gemm_rows:    C[r,:] += A[r, p0:p1] * B[p0:p1, :] for r in [r0,r1).
//                  lda == k, ldb == ldc == n.
//  * spmm_rows:    Y[r,:] += sum_e vals[e] * X[cols[e],:] over the CSR
//                  entries of row r, rows in [r0,r1). X/Y have n cols.
//  * epilogue_rows: C[r,:] = act(C[r,:] + add[r*add_stride ..]) for r in
//                  [r0,r1). `add` may be null (no addend); add_stride is
//                  0 for a broadcast [1,n] bias or n for a full [m,n]
//                  addend. Runs after ALL accumulation for those rows.
//  * map_act:      out[i] = act(in[i]) for i in [0,count). kTanh and
//                  kSigmoid call the scalar libm routine on every tier
//                  (bit-identical across tiers by construction); kRelu
//                  and kIdentity are exact on every tier.
#pragma once

#include <cstddef>
#include <cstdint>

namespace turbo::la {

/// Elementwise epilogue kinds the fused kernels understand.
enum class Act {
  kIdentity = 0,
  kRelu = 1,
  kTanh = 2,
  kSigmoid = 3,
};

namespace internal {

struct KernelTable {
  void (*gemm_rows)(const float* a, const float* b, float* c, size_t k,
                    size_t n, size_t r0, size_t r1, size_t p0, size_t p1);
  void (*spmm_rows)(const uint32_t* row_ptr, const uint32_t* cols,
                    const float* vals, const float* x, float* y, size_t n,
                    size_t r0, size_t r1);
  void (*epilogue_rows)(float* c, const float* add, size_t add_stride,
                        size_t n, size_t r0, size_t r1, Act act);
  void (*map_act)(Act act, const float* in, float* out, size_t count);
};

/// Scalar tier; always present. The plain la:: kernels (la::MatMul,
/// SparseMatrix::Multiply) run on this table.
const KernelTable& ScalarKernels();

/// AVX2 tier; declared unconditionally, defined only when
/// TURBO_LA_HAVE_AVX2 compiled the TU. Callers gate on IsaSupported().
const KernelTable& Avx2Kernels();

/// Scalar activation shared by every tier's tail/transcendental paths.
float ApplyAct(Act act, float x);

}  // namespace internal
}  // namespace turbo::la
