// Parameterized gradient checks: every composite op pattern is verified
// across a sweep of shapes and seeds.
#include <ostream>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"

namespace turbo::ag {
namespace {

struct ShapeCase {
  size_t rows;
  size_t cols;
  uint64_t seed;
};

// Names each ctest case by its fields instead of its raw bytes.
void PrintTo(const ShapeCase& c, std::ostream* os) {
  *os << "rows=" << c.rows << " cols=" << c.cols << " seed=" << c.seed;
}

class OpsPropertyTest : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(OpsPropertyTest, LinearGateChainGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.6f), "x");
  Tensor w = Param(la::Matrix::Randn(p.cols, 3, &rng, 0.6f), "w");
  Tensor gate = Param(la::Matrix::Randn(p.rows, 1, &rng, 0.6f), "gate");
  auto res = CheckGradients({x, w, gate}, [&] {
    return Sum(Tanh(MulColBroadcast(MatMul(x, w), Sigmoid(gate))));
  });
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST_P(OpsPropertyTest, SoftmaxSliceGradients) {
  const auto& p = GetParam();
  if (p.cols < 2) GTEST_SKIP();
  Rng rng(p.seed + 1);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.8f), "x");
  Tensor pick = Constant(la::Matrix::Randn(p.rows, 1, &rng));
  auto res = CheckGradients({x}, [&] {
    return Sum(Mul(SliceCols(SoftmaxRows(x), p.cols / 2, 1), pick));
  });
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST_P(OpsPropertyTest, BceGradientsWithRandomWeights) {
  const auto& p = GetParam();
  Rng rng(p.seed + 2);
  Tensor z = Param(la::Matrix::Randn(p.rows, 1, &rng, 1.2f), "z");
  la::Matrix targets(p.rows, 1);
  la::Matrix w(p.rows, 1);
  for (size_t i = 0; i < p.rows; ++i) {
    targets(i, 0) = rng.NextBool(0.5) ? 1.0f : 0.0f;
    w(i, 0) = static_cast<float>(rng.NextDouble(0.0, 3.0));
  }
  w(0, 0) += 0.1f;  // keep the weight sum positive
  auto res = CheckGradients({z}, [&] {
    return BceWithLogits(z, targets, w);
  });
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST_P(OpsPropertyTest, SpmmChainGradients) {
  const auto& p = GetParam();
  Rng rng(p.seed + 3);
  std::vector<la::Triplet> trips;
  for (size_t i = 0; i < p.rows * 2; ++i) {
    trips.push_back({static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<uint32_t>(rng.NextUint(p.rows)),
                     static_cast<float>(rng.NextGaussian())});
  }
  auto adj = la::SparseMatrix::FromTriplets(p.rows, p.rows, trips);
  Tensor x = Param(la::Matrix::Randn(p.rows, p.cols, &rng, 0.5f), "x");
  Tensor w = Param(la::Matrix::Randn(p.cols, 2, &rng, 0.5f), "w");
  auto res = CheckGradients({x, w}, [&] {
    return Mean(Tanh(MatMul(SpMM(adj, x), w)));
  });
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST_P(OpsPropertyTest, ValueIdentities) {
  const auto& p = GetParam();
  Rng rng(p.seed + 4);
  Tensor a = Constant(la::Matrix::Randn(p.rows, p.cols, &rng));
  Tensor b = Constant(la::Matrix::Randn(p.rows, p.cols, &rng));
  // a - b == a + (-1 * b)
  EXPECT_TRUE(la::AllClose(Sub(a, b)->value,
                           Add(a, ScalarMul(b, -1.0f))->value));
  // sum == rowsums then sum
  EXPECT_NEAR(Sum(a)->value(0, 0), Sum(RowSums(a))->value(0, 0), 1e-3);
  // mean * size == sum
  EXPECT_NEAR(Mean(a)->value(0, 0) * static_cast<float>(p.rows * p.cols),
              Sum(a)->value(0, 0), 1e-2);
  // concat then slice recovers the parts
  Tensor cat = ConcatCols(a, b);
  EXPECT_TRUE(la::AllClose(SliceCols(cat, 0, p.cols)->value, a->value));
  EXPECT_TRUE(
      la::AllClose(SliceCols(cat, p.cols, p.cols)->value, b->value));
}

INSTANTIATE_TEST_SUITE_P(Shapes, OpsPropertyTest,
                         ::testing::Values(ShapeCase{1, 1, 10},
                                           ShapeCase{2, 5, 20},
                                           ShapeCase{7, 3, 30},
                                           ShapeCase{12, 8, 40}));

}  // namespace
}  // namespace turbo::ag
