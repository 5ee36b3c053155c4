// Runtime ISA dispatch: CpuFeatures sanity, override plumbing, and the
// numerical contracts of the dispatched kernels — forced-scalar dispatch
// is bit-identical to the plain la:: kernels, the AVX2 tier stays within
// 4 ULP of scalar on the same inputs, and fused epilogues are bitwise
// equal to their unfused composition within a tier.
#include "la/kernel_dispatch.h"

#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "la/cpu_features.h"
#include "tests/la/ulp_test_util.h"
#include "util/rng.h"

namespace turbo::la {
namespace {

using testing::AccumFloor;
using testing::ExpectBitEqual;
using testing::ExpectUlpClose;

constexpr int64_t kMaxUlps = 4;

std::vector<KernelIsa> SupportedIsas() {
  std::vector<KernelIsa> isas;
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (IsaSupported(isa)) isas.push_back(isa);
  }
  return isas;
}

TEST(CpuFeaturesTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(IsaSupported(KernelIsa::kScalar));
}

TEST(CpuFeaturesTest, BestIsaIsSupported) {
  EXPECT_TRUE(IsaSupported(BestIsa()));
}

TEST(CpuFeaturesTest, BestIsaRespectsProbe) {
  CpuFeatures none;
  EXPECT_EQ(BestIsa(none), KernelIsa::kScalar);
  CpuFeatures avx2_only;
  avx2_only.avx2 = avx2_only.fma = true;
  KernelIsa best = BestIsa(avx2_only);
  // Without the AVX2 TU compiled in this still resolves to scalar.
  EXPECT_TRUE(best == KernelIsa::kAvx2 || best == KernelIsa::kScalar);
}

TEST(CpuFeaturesTest, IsaNameRoundTrips) {
  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    KernelIsa parsed;
    ASSERT_TRUE(ParseIsaName(IsaName(isa), &parsed)) << IsaName(isa);
    EXPECT_EQ(parsed, isa);
  }
  KernelIsa parsed;
  EXPECT_TRUE(ParseIsaName("auto", &parsed));
  EXPECT_EQ(parsed, BestIsa());
  EXPECT_FALSE(ParseIsaName("sse9", &parsed));
  EXPECT_FALSE(ParseIsaName("neon", &parsed));
  EXPECT_FALSE(ParseIsaName("avx512", &parsed));
  EXPECT_FALSE(ParseIsaName("", &parsed));
}

TEST(CpuFeaturesTest, ActiveIsaIsSupported) {
  EXPECT_TRUE(IsaSupported(ActiveIsa()));
}

TEST(CpuFeaturesTest, ScopedOverrideRestores) {
  const KernelIsa before = ActiveIsa();
  {
    ScopedKernelIsa forced(KernelIsa::kScalar);
    EXPECT_EQ(ActiveIsa(), KernelIsa::kScalar);
  }
  EXPECT_EQ(ActiveIsa(), before);
}

TEST(CpuFeaturesTest, EnvVarOverridesActiveIsa) {
  // CI runs this binary with TURBO_KERNEL_ISA already set, so save and
  // restore whatever was there instead of assuming a clean environment.
  const char* orig = std::getenv("TURBO_KERNEL_ISA");
  const std::string saved = orig ? orig : "";

  ASSERT_EQ(setenv("TURBO_KERNEL_ISA", "scalar", 1), 0);
  ResetKernelIsa();
  EXPECT_EQ(ActiveIsa(), KernelIsa::kScalar);

  if (orig) {
    ASSERT_EQ(setenv("TURBO_KERNEL_ISA", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("TURBO_KERNEL_ISA"), 0);
  }
  ResetKernelIsa();
  KernelIsa expected = BestIsa();
  if (orig) {
    ASSERT_TRUE(ParseIsaName(saved, &expected));
  }
  EXPECT_EQ(ActiveIsa(), expected);
}

TEST(CpuFeaturesDeathTest, ForcingUnsupportedTierAborts) {
  // No binary contains a tier past kAvx2, so this runs on every host.
  const auto missing =
      static_cast<KernelIsa>(static_cast<int>(KernelIsa::kAvx2) + 1);
  EXPECT_FALSE(IsaSupported(missing));
  EXPECT_DEATH(SetKernelIsa(missing), "CHECK failed");
}

TEST(CpuFeaturesDeathTest, UnknownEnvIsaAbortsAtFirstUse) {
  // A deployment still setting a removed tier's name must fail loudly at
  // the first dispatched kernel, not fall back silently. The environment
  // change stays inside the death-test child.
  EXPECT_DEATH(
      {
        setenv("TURBO_KERNEL_ISA", "avx512", 1);
        ResetKernelIsa();
        dispatch::MapAct(Matrix(1, 1), Act::kRelu);
      },
      "unknown ISA name 'avx512'");
}

/// Shapes chosen to hit every vector-width tail: 1-wide, odd widths,
/// exact multiples of 8/16/32/64 columns, and k > 128 to cross the
/// depth-block boundary.
struct GemmShape {
  size_t m, k, n;
};

const GemmShape kGemmShapes[] = {
    {1, 1, 1},   {7, 13, 9},   {3, 5, 8},    {4, 17, 16},
    {5, 24, 31}, {2, 130, 33}, {6, 129, 64}, {3, 200, 65},
};

class DispatchIsaTest : public ::testing::TestWithParam<KernelIsa> {};

INSTANTIATE_TEST_SUITE_P(
    SupportedTiers, DispatchIsaTest, ::testing::ValuesIn(SupportedIsas()),
    [](const ::testing::TestParamInfo<KernelIsa>& info) {
      return IsaName(info.param);
    });

TEST_P(DispatchIsaTest, GemmMatchesScalarWithinUlps) {
  Rng rng(21);
  for (const GemmShape& s : kGemmShapes) {
    const Matrix a = Matrix::Randn(s.m, s.k, &rng);
    const Matrix b = Matrix::Randn(s.k, s.n, &rng);
    Matrix ref;
    {
      ScopedKernelIsa scalar(KernelIsa::kScalar);
      ref = dispatch::MatMul(a, b);
    }
    ScopedKernelIsa forced(GetParam());
    ExpectUlpClose(ref, dispatch::MatMul(a, b), kMaxUlps,
                   AccumFloor(s.k, a.MaxAbs(), b.MaxAbs()), "MatMul");
  }
}

SparseMatrix RandomSparse(size_t rows, size_t cols, int per_row, Rng* rng) {
  std::vector<Triplet> triplets;
  for (size_t r = 0; r < rows; ++r) {
    for (int e = 0; e < per_row; ++e) {
      triplets.push_back({static_cast<uint32_t>(r),
                          static_cast<uint32_t>(rng->NextInt(0, cols - 1)),
                          static_cast<float>(rng->NextDouble(-1.0, 1.0))});
    }
  }
  return SparseMatrix::FromTriplets(rows, cols, triplets);
}

TEST_P(DispatchIsaTest, SpmmMatchesScalarWithinUlps) {
  Rng rng(23);
  for (size_t n : {1ul, 7ul, 16ul, 33ul, 64ul}) {
    const SparseMatrix s = RandomSparse(40, 30, 6, &rng);
    const Matrix x = Matrix::Randn(30, n, &rng);
    Matrix ref;
    {
      ScopedKernelIsa scalar(KernelIsa::kScalar);
      ref = dispatch::Spmm(s, x);
    }
    ScopedKernelIsa forced(GetParam());
    ExpectUlpClose(ref, dispatch::Spmm(s, x), kMaxUlps,
                   AccumFloor(6, 1.0f, x.MaxAbs()), "Spmm");
  }
}

TEST_P(DispatchIsaTest, FusedSpmmEqualsUnfusedBitwise) {
  Rng rng(24);
  ScopedKernelIsa forced(GetParam());
  const SparseMatrix s = RandomSparse(25, 20, 5, &rng);
  const Matrix x = Matrix::Randn(20, 19, &rng);
  const Matrix bias = Matrix::Randn(1, 19, &rng);
  const Matrix full = Matrix::Randn(25, 19, &rng);
  for (Act act : {Act::kIdentity, Act::kRelu, Act::kTanh, Act::kSigmoid}) {
    const Matrix base = dispatch::Spmm(s, x);
    ExpectBitEqual(dispatch::MapAct(base, act),
                   dispatch::SpmmBiasAct(s, x, nullptr, act),
                   "SpmmBiasAct/no-addend");
    ExpectBitEqual(dispatch::MapAct(AddRowBroadcast(base, bias), act),
                   dispatch::SpmmBiasAct(s, x, &bias, act),
                   "SpmmBiasAct/bias");
    Matrix sum = base;
    sum.Add(full, 1.0f);
    ExpectBitEqual(dispatch::MapAct(sum, act),
                   dispatch::SpmmBiasAct(s, x, &full, act),
                   "SpmmBiasAct/full-addend");
  }
}

TEST_P(DispatchIsaTest, FusedGemmEqualsUnfusedBitwise) {
  Rng rng(25);
  ScopedKernelIsa forced(GetParam());
  const Matrix a = Matrix::Randn(9, 14, &rng);
  const Matrix b = Matrix::Randn(14, 21, &rng);
  const Matrix bias = Matrix::Randn(1, 21, &rng);
  for (Act act : {Act::kIdentity, Act::kRelu, Act::kTanh, Act::kSigmoid}) {
    const Matrix base = dispatch::MatMul(a, b);
    ExpectBitEqual(dispatch::MapAct(AddRowBroadcast(base, bias), act),
                   dispatch::MatMulBiasAct(a, b, &bias, act),
                   "MatMulBiasAct/bias");
    ExpectBitEqual(dispatch::MapAct(base, act),
                   dispatch::MatMulBiasAct(a, b, nullptr, act),
                   "MatMulBiasAct/no-addend");
  }
}

TEST_P(DispatchIsaTest, MapActBitIdenticalToScalarTier) {
  Rng rng(26);
  // Odd count exercises the vector tail; include negatives and zeros.
  Matrix a = Matrix::Randn(11, 13, &rng, 2.0f);
  a(0, 0) = 0.0f;
  a(0, 1) = -0.0f;
  for (Act act : {Act::kIdentity, Act::kRelu, Act::kTanh, Act::kSigmoid}) {
    Matrix ref;
    {
      ScopedKernelIsa scalar(KernelIsa::kScalar);
      ref = dispatch::MapAct(a, act);
    }
    ScopedKernelIsa forced(GetParam());
    ExpectBitEqual(ref, dispatch::MapAct(a, act), "MapAct");
  }
}

TEST(DispatchScalarTest, ForcedScalarBitIdenticalToPlainKernels) {
  Rng rng(28);
  ScopedKernelIsa scalar(KernelIsa::kScalar);
  const Matrix a = Matrix::Randn(13, 140, &rng);
  const Matrix b = Matrix::Randn(140, 27, &rng);
  ExpectBitEqual(la::MatMul(a, b), dispatch::MatMul(a, b), "MatMul");
  const SparseMatrix s = RandomSparse(30, 13, 4, &rng);
  ExpectBitEqual(s.Multiply(a), dispatch::Spmm(s, a), "Spmm");
  ExpectBitEqual(MapT(a, kernels::Relu), dispatch::MapAct(a, Act::kRelu),
                 "MapAct/relu");
  ExpectBitEqual(MapT(a, kernels::Sigmoid),
                 dispatch::MapAct(a, Act::kSigmoid), "MapAct/sigmoid");
}

}  // namespace
}  // namespace turbo::la
