// Scalar kernel tier: the only tier training runs on, and the reference
// the AVX2 tier is ULP-gated against.
//
// The plain la:: kernels (la::MatMul, SparseMatrix::Multiply) are this
// table driven by kernel_dispatch.cc, so forcing KernelIsa::kScalar makes
// the dispatched inference kernels bit-identical to the autograd/training
// kernels: both run these loops.
#include "la/kernel_table.h"
#include "la/matrix.h"

namespace turbo::la::internal {

float ApplyAct(Act act, float x) {
  switch (act) {
    case Act::kIdentity:
      return x;
    case Act::kRelu:
      return kernels::Relu(x);
    case Act::kTanh:
      return kernels::Tanh(x);
    case Act::kSigmoid:
      return kernels::Sigmoid(x);
  }
  return x;
}

namespace {

void GemmRows(const float* a, const float* b, float* c, size_t k, size_t n,
              size_t r0, size_t r1, size_t p0, size_t p1) {
  for (size_t i = r0; i < r1; ++i) {
    float* crow = c + i * n;
    const float* arow = a + i * k;
    for (size_t p = p0; p < p1; ++p) {
      const float av = arow[p];
      const float* brow = b + p * n;
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void SpmmRows(const uint32_t* row_ptr, const uint32_t* cols,
              const float* vals, const float* x, float* y, size_t n,
              size_t r0, size_t r1) {
  for (size_t r = r0; r < r1; ++r) {
    float* yrow = y + r * n;
    for (uint32_t e = row_ptr[r]; e < row_ptr[r + 1]; ++e) {
      const float v = vals[e];
      const float* xrow = x + static_cast<size_t>(cols[e]) * n;
      for (size_t j = 0; j < n; ++j) yrow[j] += v * xrow[j];
    }
  }
}

void EpilogueRows(float* c, const float* add, size_t add_stride, size_t n,
                  size_t r0, size_t r1, Act act) {
  for (size_t r = r0; r < r1; ++r) {
    float* crow = c + r * n;
    const float* arow = add == nullptr ? nullptr : add + r * add_stride;
    for (size_t j = 0; j < n; ++j) {
      const float z = arow == nullptr ? crow[j] : crow[j] + arow[j];
      crow[j] = ApplyAct(act, z);
    }
  }
}

void MapAct(Act act, const float* in, float* out, size_t count) {
  for (size_t i = 0; i < count; ++i) out[i] = ApplyAct(act, in[i]);
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = {GemmRows, SpmmRows, EpilogueRows,
                                    MapAct};
  return table;
}

}  // namespace turbo::la::internal
