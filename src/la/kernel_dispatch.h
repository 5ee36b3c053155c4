// Dense/sparse product drivers, run on two kernel tables.
//
// The drivers in kernel_dispatch.cc own the blocking and row-parallel
// threading of every GEMM and SpMM and route the inner row-range loops
// through a per-ISA kernel table (kernel_table.h). The plain la:: kernels
// (la::MatMul, SparseMatrix::Multiply) run them on the scalar table;
// autograd and training call those, so training is bit-exact across
// machines. The functions here run them on the table selected by
// la::ActiveIsa() (see cpu_features.h) and add the fused epilogues the
// tape-free inference forwards use. With KernelIsa::kScalar forced, every
// function is bit-identical to its la:: counterpart because both run the
// same loops; the AVX2 tier keeps the same accumulation order and is held
// to a <= 4-ULP elementwise bound by tests/la/dispatch_test.cc and
// tests/core/simd_equivalence_test.cc. C = A * B^T has no dispatched form:
// only the training backward calls it, through la::MatMulTransB, which
// always runs scalar.
#pragma once

#include "la/cpu_features.h"
#include "la/kernel_table.h"
#include "la/matrix.h"
#include "la/sparse.h"

namespace turbo::la::dispatch {

/// C = A * B, dispatched. Same contract as la::MatMul.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Y = S * X, dispatched. Same contract as SparseMatrix::Multiply.
Matrix Spmm(const SparseMatrix& s, const Matrix& x);

/// Fused Y = act(S * X + addend): SpMM, addend and activation in one
/// pass over Y. `addend` may be null (no addend), [1,n] (row-broadcast
/// bias) or [m,n] (full addend, e.g. the self-transform branch of a
/// SAGE-style layer). The addend is applied after ALL accumulation, so
/// the result is bitwise equal to act(Spmm(s,x) + addend) composed from
/// unfused calls on the same ISA tier.
Matrix SpmmBiasAct(const SparseMatrix& s, const Matrix& x,
                   const Matrix* addend, Act act);

/// Fused C = act(A * B + addend); addend as in SpmmBiasAct. Bitwise
/// equal to act(MatMul(a,b) + addend) on the same tier.
Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix* addend,
                     Act act);

/// Elementwise out = act(a), dispatched. kRelu/kIdentity are exact on
/// every tier; kTanh/kSigmoid use the scalar libm path on every tier,
/// so MapAct is bit-identical across tiers (and to la::MapT with the
/// matching la::kernels functor).
Matrix MapAct(const Matrix& a, Act act);

}  // namespace turbo::la::dispatch
