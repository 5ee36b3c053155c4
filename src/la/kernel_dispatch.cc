#include "la/kernel_dispatch.h"

#include <algorithm>
#include <atomic>
#include <functional>

#include "util/thread_pool.h"

namespace turbo::la {

namespace {

// Kernel parallelism: rows are sliced across the shared pool only when
// the product is big enough to amortize the hand-off, and each row is
// computed start-to-finish by one thread, so the floating-point
// accumulation order (and therefore the result bits) never depends on
// the thread count.
constexpr size_t kParallelFlopThreshold = size_t{1} << 20;

std::atomic<int> g_kernel_threads{0};  // <= 0: hardware default

/// Runs `body(r0, r1)` over row ranges covering [0, rows), on the shared
/// pool when rows * flops_per_row clears the parallel threshold (and the
/// SetKernelThreads cap allows it), inline otherwise.
void ParallelRows(size_t rows, size_t flops_per_row,
                  const std::function<void(size_t, size_t)>& body) {
  const size_t total = rows * flops_per_row;
  const int cap = g_kernel_threads.load(std::memory_order_relaxed);
  if (total < kParallelFlopThreshold || rows < 2 || cap == 1) {
    body(0, rows);
    return;
  }
  // Aim for a few chunks per thread for load balance, but keep every
  // chunk above the threshold's worth of work.
  auto& pool = util::ThreadPool::Shared();
  size_t threads = static_cast<size_t>(pool.size()) + 1;
  if (cap > 0) threads = std::min(threads, static_cast<size_t>(cap));
  const size_t min_rows =
      std::max<size_t>(1, kParallelFlopThreshold / 4 / flops_per_row);
  const size_t grain =
      std::max(min_rows, (rows + 2 * threads - 1) / (2 * threads));
  pool.ParallelFor(rows, grain, body);
}

// ikj GEMM with the depth loop blocked to keep the active slice of b in
// cache for large k. Blocks advance in increasing p, so each c[i,j]
// accumulates depth-sequentially on every tier.
constexpr size_t kDepthBlock = 128;

// Resolves the addend pointer/stride for the fused epilogues. Returns
// stride 0 for a [1,n] broadcast bias, n for a full [m,n] addend.
const float* AddendPtr(const Matrix* addend, size_t m, size_t n,
                       size_t* stride) {
  if (addend == nullptr) {
    *stride = 0;
    return nullptr;
  }
  TURBO_CHECK_EQ(addend->cols(), n);
  if (addend->rows() == 1) {
    *stride = 0;
  } else {
    TURBO_CHECK_EQ(addend->rows(), m);
    *stride = n;
  }
  return addend->data();
}

// The drivers. Each owns shapes, blocking and threading, and calls `t`
// for the inner row-range loops; `fused` adds the act(C + addend)
// epilogue after all accumulation of a row range.

Matrix MatMulOn(const internal::KernelTable& t, const Matrix& a,
                const Matrix& b, const Matrix* addend, Act act, bool fused) {
  TURBO_CHECK_EQ(a.cols(), b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  size_t add_stride = 0;
  const float* add = fused ? AddendPtr(addend, m, n, &add_stride) : nullptr;
  ParallelRows(m, k * n, [&](size_t r0, size_t r1) {
    for (size_t p0 = 0; p0 < k; p0 += kDepthBlock) {
      const size_t p1 = std::min(k, p0 + kDepthBlock);
      t.gemm_rows(a.data(), b.data(), c.data(), k, n, r0, r1, p0, p1);
    }
    if (fused) t.epilogue_rows(c.data(), add, add_stride, n, r0, r1, act);
  });
  return c;
}

Matrix SpmmOn(const internal::KernelTable& t, const SparseMatrix& s,
              const Matrix& x, const Matrix* addend, Act act, bool fused) {
  TURBO_CHECK_EQ(s.cols(), x.rows());
  Matrix y(s.rows(), x.cols());
  const size_t m = s.rows(), n = x.cols();
  size_t add_stride = 0;
  const float* add = fused ? AddendPtr(addend, m, n, &add_stride) : nullptr;
  // Threshold on the average work per row.
  const size_t avg_flops = m == 0 ? 0 : std::max<size_t>(1, s.nnz() * n / m);
  ParallelRows(m, avg_flops, [&](size_t r0, size_t r1) {
    t.spmm_rows(s.row_ptr().data(), s.col_idx().data(), s.values().data(),
                x.data(), y.data(), n, r0, r1);
    if (fused) t.epilogue_rows(y.data(), add, add_stride, n, r0, r1, act);
  });
  return y;
}

}  // namespace

void SetKernelThreads(int threads) {
  g_kernel_threads.store(threads <= 0 ? 0 : threads, std::memory_order_relaxed);
}

int KernelThreads() {
  const int cap = g_kernel_threads.load(std::memory_order_relaxed);
  return cap > 0 ? cap : util::ThreadPool::Shared().size() + 1;
}

// ---- plain la:: kernels: the drivers on the scalar table ----

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulOn(internal::ScalarKernels(), a, b, nullptr, Act::kIdentity,
                  /*fused=*/false);
}

// C = A * B^T has no kernel-table entry: nothing dispatches it, so its
// row loop (C[r, j] = dot(A[r,:], B[j,:]), two columns of B per pass over
// A's row) runs scalar under the same row-parallel driver.
Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  TURBO_CHECK_EQ(a.cols(), b.cols());
  Matrix c(a.rows(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  ParallelRows(m, k * n, [&](size_t r0, size_t r1) {
    for (size_t i = r0; i < r1; ++i) {
      const float* arow = a.data() + i * k;
      float* crow = c.data() + i * n;
      size_t j = 0;
      for (; j + 1 < n; j += 2) {
        const float* b0 = b.data() + j * k;
        const float* b1 = b.data() + (j + 1) * k;
        float s0 = 0.0f, s1 = 0.0f;
        for (size_t p = 0; p < k; ++p) {
          const float av = arow[p];
          s0 += av * b0[p];
          s1 += av * b1[p];
        }
        crow[j] = s0;
        crow[j + 1] = s1;
      }
      if (j < n) {
        const float* brow = b.data() + j * k;
        float s = 0.0f;
        for (size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
        crow[j] = s;
      }
    }
  });
  return c;
}

Matrix SparseMatrix::Multiply(const Matrix& x) const {
  return SpmmOn(internal::ScalarKernels(), *this, x, nullptr, Act::kIdentity,
                /*fused=*/false);
}

// ---- la::dispatch: the drivers on the active tier's table ----

namespace dispatch {

namespace {

// Kernel table for the active ISA (scalar fallback if the active tier was
// not compiled in, which SetKernelIsa makes unreachable).
const internal::KernelTable& ActiveTable() {
  switch (ActiveIsa()) {
    case KernelIsa::kScalar:
      return internal::ScalarKernels();
    case KernelIsa::kAvx2:
#if defined(TURBO_LA_HAVE_AVX2)
      return internal::Avx2Kernels();
#else
      break;
#endif
  }
  return internal::ScalarKernels();
}

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  return MatMulOn(ActiveTable(), a, b, nullptr, Act::kIdentity,
                  /*fused=*/false);
}

Matrix MatMulBiasAct(const Matrix& a, const Matrix& b, const Matrix* addend,
                     Act act) {
  return MatMulOn(ActiveTable(), a, b, addend, act, /*fused=*/true);
}

Matrix Spmm(const SparseMatrix& s, const Matrix& x) {
  return SpmmOn(ActiveTable(), s, x, nullptr, Act::kIdentity, /*fused=*/false);
}

Matrix SpmmBiasAct(const SparseMatrix& s, const Matrix& x,
                   const Matrix* addend, Act act) {
  return SpmmOn(ActiveTable(), s, x, addend, act, /*fused=*/true);
}

Matrix MapAct(const Matrix& a, Act act) {
  Matrix out(a.rows(), a.cols());
  ActiveTable().map_act(act, a.data(), out.data(), a.size());
  return out;
}

}  // namespace dispatch
}  // namespace turbo::la
