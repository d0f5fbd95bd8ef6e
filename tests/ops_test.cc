#include "tensor/ops.h"

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "tensor/matmul_kernels.h"
#include "tensor/simd/simd.h"
#include "tensor/tensor.h"

namespace sarn::tensor {
namespace {

void ExpectTensorNear(const Tensor& t, const std::vector<float>& expected,
                      float tol = 1e-5f) {
  ASSERT_EQ(t.numel(), static_cast<int64_t>(expected.size()));
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(t.data()[i], expected[i], tol) << "index " << i;
  }
}

TEST(OpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {10, 20, 30, 40});
  ExpectTensorNear(Add(a, b), {11, 22, 33, 44});
}

TEST(OpsTest, AddRowBroadcast) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector({3}, {10, 20, 30});
  ExpectTensorNear(Add(a, bias), {11, 22, 33, 14, 25, 36});
}

TEST(OpsTest, AddScalarBroadcastEitherSide) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor s = Tensor::FromVector({1}, {100});
  ExpectTensorNear(Add(a, s), {101, 102, 103});
  ExpectTensorNear(Add(s, a), {101, 102, 103});
}

TEST(OpsTest, SubAndDiv) {
  Tensor a = Tensor::FromVector({2}, {6, 9});
  Tensor b = Tensor::FromVector({2}, {2, 3});
  ExpectTensorNear(Sub(a, b), {4, 6});
  ExpectTensorNear(Div(a, b), {3, 3});
}

TEST(OpsTest, SubWithSmallerLeftOperand) {
  Tensor s = Tensor::FromVector({1}, {10});
  Tensor b = Tensor::FromVector({3}, {1, 2, 3});
  ExpectTensorNear(Sub(s, b), {9, 8, 7});
}

TEST(OpsTest, MulElementwiseAndBroadcast) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor row = Tensor::FromVector({1, 2}, {10, 100});
  ExpectTensorNear(Mul(a, row), {10, 200, 30, 400});
}

TEST(OpsTest, UnaryFunctions) {
  Tensor a = Tensor::FromVector({4}, {-2, -0.5, 0.5, 2});
  ExpectTensorNear(Neg(a), {2, 0.5, -0.5, -2});
  ExpectTensorNear(Abs(a), {2, 0.5, 0.5, 2});
  ExpectTensorNear(Relu(a), {0, 0, 0.5, 2});
  ExpectTensorNear(LeakyRelu(a, 0.1f), {-0.2f, -0.05f, 0.5f, 2.0f});
  ExpectTensorNear(Square(a), {4, 0.25, 0.25, 4});
  ExpectTensorNear(ClampMin(a, 0.0f), {0, 0, 0.5, 2});
}

TEST(OpsTest, ExpLogSqrt) {
  Tensor a = Tensor::FromVector({3}, {1, 4, 9});
  ExpectTensorNear(Sqrt(a), {1, 2, 3});
  ExpectTensorNear(Log(a), {0.0f, std::log(4.0f), std::log(9.0f)});
  Tensor b = Tensor::FromVector({2}, {0, 1});
  ExpectTensorNear(Exp(b), {1.0f, std::exp(1.0f)});
}

TEST(OpsTest, EluMatchesDefinition) {
  Tensor a = Tensor::FromVector({2}, {-1.0f, 2.0f});
  ExpectTensorNear(Elu(a, 1.0f), {std::exp(-1.0f) - 1.0f, 2.0f});
}

TEST(OpsTest, SigmoidStableInTails) {
  Tensor a = Tensor::FromVector({3}, {-100.0f, 0.0f, 100.0f});
  Tensor s = Sigmoid(a);
  EXPECT_NEAR(s.at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(s.at(1), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(2), 1.0f, 1e-6f);
  for (float v : s.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(OpsTest, TanhValues) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  ExpectTensorNear(Tanh(a), {0.0f, std::tanh(1.0f)});
}

TEST(OpsTest, MatMulKnownResult) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  ExpectTensorNear(MatMul(a, b), {58, 64, 139, 154});
}

TEST(OpsTest, MatMulIdentity) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor eye = Tensor::FromVector({2, 2}, {1, 0, 0, 1});
  ExpectTensorNear(MatMul(a, eye), {1, 2, 3, 4});
}

// --- Blocked-kernel equivalence ---------------------------------------------
// The register-tiled kernels must reproduce the seed's naive loops. Sizes
// deliberately include multiples of the tile (4/16), sub-tile remainders and
// degenerate 1-wide shapes so every edge path runs.

struct MatMulDims {
  int64_t m, k, n;
};

class MatMulKernelEquivalence : public ::testing::TestWithParam<MatMulDims> {};

TEST_P(MatMulKernelEquivalence, ForwardMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(42 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> naive(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> blocked(static_cast<size_t>(m * n), 0.0f);
  kernels::MatMulNaive(a.data().data(), b.data().data(), naive.data(), 0, m, k, n);
  kernels::MatMulBlocked(a.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  for (size_t i = 0; i < naive.size(); ++i) {
    // Same per-element reduction order: bitwise equality, not just tolerance.
    EXPECT_EQ(blocked[i], naive[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, InitOverwritesGarbageAndMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(42 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> naive(static_cast<size_t>(m * n), 0.0f);
  // Poisoned output: the init kernel must overwrite every element without
  // reading it, so garbage (including NaN) must not leak into the result.
  std::vector<float> init(static_cast<size_t>(m * n),
                          std::numeric_limits<float>::quiet_NaN());
  kernels::MatMulNaive(a.data().data(), b.data().data(), naive.data(), 0, m, k, n);
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), init.data(), 0, m, k, n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(init[i], naive[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradAMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(77 + m + k + n);
  Tensor g = Tensor::Randn({m, n}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> naive(static_cast<size_t>(m * k), 0.5f);  // Accumulates on top.
  std::vector<float> blocked(static_cast<size_t>(m * k), 0.5f);
  kernels::MatMulGradANaive(g.data().data(), b.data().data(), naive.data(), 0, m, k, n);
  kernels::MatMulGradABlocked(g.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(blocked[i], naive[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradBMatchesNaive) {
  auto [m, k, n] = GetParam();
  Rng rng(99 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor g = Tensor::Randn({m, n}, rng);
  std::vector<float> naive(static_cast<size_t>(k * n), -0.25f);
  std::vector<float> blocked(static_cast<size_t>(k * n), -0.25f);
  kernels::MatMulGradBNaive(a.data().data(), g.data().data(), naive.data(), 0, k, m, k, n);
  kernels::MatMulGradBBlocked(a.data().data(), g.data().data(), blocked.data(), 0, k, m, k,
                              n);
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(blocked[i], naive[i]) << "index " << i;
  }
}

#if defined(SARN_HAVE_AVX2_KERNELS)
// Compiled AVX2 kernels (MatMul's default on AVX2 hosts): vector lanes are
// distinct output elements, so they must match the scalar blocked kernels bit for bit —
// including on inputs with exact zeros (post-ReLU activations) and on
// shapes with sub-tile remainders.

TEST_P(MatMulKernelEquivalence, InitAvx2MatchesBlockedInit) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(42 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  for (size_t i = 0; i < a.data().size(); i += 3) a.mutable_data()[i] = 0.0f;
  std::vector<float> blocked(static_cast<size_t>(m * n),
                             std::numeric_limits<float>::quiet_NaN());
  std::vector<float> avx2(static_cast<size_t>(m * n),
                          std::numeric_limits<float>::quiet_NaN());
  kernels::MatMulBlockedInit(a.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  kernels::MatMulInitAvx2(a.data().data(), b.data().data(), avx2.data(), 0, m, k, n);
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(avx2[i], blocked[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradATAvx2MatchesBlocked) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(77 + m + k + n);
  Tensor g = Tensor::Randn({m, n}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> blocked(static_cast<size_t>(m * k), 0.5f);  // Accumulates on top.
  std::vector<float> avx2(static_cast<size_t>(m * k), 0.5f);
  kernels::MatMulGradABlocked(g.data().data(), b.data().data(), blocked.data(), 0, m, k, n);
  // The AVX2 kernel takes B pre-transposed ([n, k]) — build it as MatMul does.
  std::vector<float> bt(static_cast<size_t>(n * k));
  for (int64_t kk = 0; kk < k; ++kk) {
    for (int64_t j = 0; j < n; ++j) bt[j * k + kk] = b.data()[kk * n + j];
  }
  kernels::MatMulGradATAvx2(g.data().data(), bt.data(), avx2.data(), 0, m, k, n);
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(avx2[i], blocked[i]) << "index " << i;
  }
}

TEST_P(MatMulKernelEquivalence, GradBAvx2MatchesBlocked) {
  if (!kernels::MatMulAvx2Supported()) GTEST_SKIP() << "host lacks AVX2";
  auto [m, k, n] = GetParam();
  Rng rng(99 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor g = Tensor::Randn({m, n}, rng);
  for (size_t i = 0; i < a.data().size(); i += 3) a.mutable_data()[i] = 0.0f;
  std::vector<float> blocked(static_cast<size_t>(k * n), -0.25f);
  std::vector<float> avx2(static_cast<size_t>(k * n), -0.25f);
  kernels::MatMulGradBBlocked(a.data().data(), g.data().data(), blocked.data(), 0, k, m, k,
                              n);
  kernels::MatMulGradBAvx2(a.data().data(), g.data().data(), avx2.data(), 0, k, m, k, n);
  for (size_t i = 0; i < blocked.size(); ++i) {
    EXPECT_EQ(avx2[i], blocked[i]) << "index " << i;
  }
}
#endif  // SARN_HAVE_AVX2_KERNELS

TEST_P(MatMulKernelEquivalence, RowRangeCoversPartition) {
  // Kernels run on arbitrary row sub-ranges under ParallelFor; a partition
  // at non-tile-aligned boundaries must produce the same matrix.
  auto [m, k, n] = GetParam();
  Rng rng(123 + m + k + n);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  std::vector<float> whole(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> split(static_cast<size_t>(m * n), 0.0f);
  kernels::MatMulBlocked(a.data().data(), b.data().data(), whole.data(), 0, m, k, n);
  int64_t mid = m / 2 + (m > 2 ? 1 : 0);  // Deliberately off-center.
  kernels::MatMulBlocked(a.data().data(), b.data().data(), split.data(), 0, mid, k, n);
  kernels::MatMulBlocked(a.data().data(), b.data().data(), split.data(), mid, m, k, n);
  for (size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(split[i], whole[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulKernelEquivalence,
                         ::testing::Values(MatMulDims{1, 1, 1}, MatMulDims{3, 5, 7},
                                           MatMulDims{4, 16, 16}, MatMulDims{5, 17, 19},
                                           MatMulDims{8, 32, 16}, MatMulDims{13, 9, 33},
                                           MatMulDims{16, 8, 1}, MatMulDims{33, 64, 47}));

TEST(OpsTest, MatMulOpMatchesNaiveKernelsThroughAutograd) {
  // End-to-end: the MatMul op (blocked kernels + ParallelFor) vs a serial
  // naive-kernel reference for the forward and both gradients.
  const int64_t m = 21, k = 34, n = 29;
  Rng rng(7);
  Tensor a = Tensor::Randn({m, k}, rng).RequiresGrad();
  Tensor b = Tensor::Randn({k, n}, rng).RequiresGrad();
  Tensor y = MatMul(a, b);
  y.Backward(std::vector<float>(static_cast<size_t>(m * n), 1.0f));

  std::vector<float> ref_y(static_cast<size_t>(m * n), 0.0f);
  kernels::MatMulNaive(a.data().data(), b.data().data(), ref_y.data(), 0, m, k, n);
  std::vector<float> ones(static_cast<size_t>(m * n), 1.0f);
  std::vector<float> ref_da(static_cast<size_t>(m * k), 0.0f);
  std::vector<float> ref_db(static_cast<size_t>(k * n), 0.0f);
  kernels::MatMulGradANaive(ones.data(), b.data().data(), ref_da.data(), 0, m, k, n);
  kernels::MatMulGradBNaive(a.data().data(), ones.data(), ref_db.data(), 0, k, m, k, n);

  for (int64_t i = 0; i < m * n; ++i) EXPECT_EQ(y.data()[i], ref_y[i]) << i;
  for (int64_t i = 0; i < m * k; ++i) EXPECT_EQ(a.grad()[i], ref_da[i]) << i;
  for (int64_t i = 0; i < k * n; ++i) EXPECT_EQ(b.grad()[i], ref_db[i]) << i;
}

TEST(OpsTest, MatMulIdenticalAcrossThreadCounts) {
  // Row-partitioned kernels write disjoint outputs, so the thread count must
  // not change a single bit of the result.
  const int64_t m = 64, k = 48, n = 40;
  Rng rng(11);
  Tensor a = Tensor::Randn({m, k}, rng);
  Tensor b = Tensor::Randn({k, n}, rng);
  size_t original = GetParallelThreads();
  SetParallelThreads(1);
  Tensor serial = MatMul(a, b);
  SetParallelThreads(4);
  Tensor parallel = MatMul(a, b);
  SetParallelThreads(original);
  for (int64_t i = 0; i < m * n; ++i) {
    EXPECT_EQ(serial.data()[i], parallel.data()[i]) << "index " << i;
  }
}

TEST(OpsTest, MatMulForwardAndBackwardBitwiseIdenticalAcrossSimdTiers) {
  // MatMul runs the compiled AVX2 kernels whenever the active SIMD tier is
  // AVX2 and the scalar blocked kernels otherwise (SARN_SIMD=scalar, a
  // -DSARN_NO_SIMD build, non-x86 hosts). The forward value and every
  // gradient through a downstream chain must agree bit for bit.
  if (!simd::TierAvailable(simd::Tier::kAvx2)) GTEST_SKIP() << "host lacks AVX2";
  auto run = [](simd::Tier tier) {
    simd::ForceTier(tier);
    Rng rng(5);
    // Full 4x16 register tiles plus row and column remainders.
    Tensor x = Tensor::Randn({21, 34}, rng, 0.2f).RequiresGrad();
    Tensor w = Tensor::Randn({34, 40}, rng, 0.2f).RequiresGrad();
    Tensor y = MatMul(x, w);
    Tensor loss = Mean(Square(LeakyRelu(y)));
    EXPECT_EQ(loss.Backward(), Tensor::BackwardStatus::kOk);
    std::vector<float> out(y.data().begin(), y.data().end());
    out.insert(out.end(), w.grad().begin(), w.grad().end());
    out.insert(out.end(), x.grad().begin(), x.grad().end());
    out.push_back(loss.item());
    return out;
  };
  const simd::Tier saved = simd::ActiveTier();
  std::vector<float> scalar = run(simd::Tier::kScalar);
  std::vector<float> avx2 = run(simd::Tier::kAvx2);
  simd::ForceTier(saved);
  ASSERT_EQ(scalar.size(), avx2.size());
  for (size_t i = 0; i < scalar.size(); ++i) EXPECT_EQ(scalar[i], avx2[i]) << i;
}

TEST(OpsDeathTest, MatMulShapeMismatch) {
  Tensor a = Tensor::Zeros({2, 3});
  Tensor b = Tensor::Zeros({2, 3});
  EXPECT_DEATH(MatMul(a, b), "MatMul");
}

TEST(OpsTest, TransposeRoundTrip) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor t = Transpose(a);
  EXPECT_EQ(t.shape(), (Shape{3, 2}));
  EXPECT_EQ(t.at(0, 1), 4.0f);
  ExpectTensorNear(Transpose(t), {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  ExpectTensorNear(r, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_FLOAT_EQ(Sum(a).item(), 21.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 3.5f);
  ExpectTensorNear(SumAxis(a, 0), {5, 7, 9});
  ExpectTensorNear(SumAxis(a, 1), {6, 15});
  ExpectTensorNear(MeanAxis(a, 0), {2.5, 3.5, 4.5});
  ExpectTensorNear(MeanAxis(a, 1), {2, 5});
}

TEST(OpsTest, RowSoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 1000, 1001, 1002});
  Tensor s = RowSoftmax(a);
  for (int64_t i = 0; i < 2; ++i) {
    float sum = s.at(i, 0) + s.at(i, 1) + s.at(i, 2);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  // Shift invariance: both rows should be identical distributions.
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(s.at(0, j), s.at(1, j), 1e-5f);
  for (float v : s.data()) EXPECT_FALSE(std::isnan(v));
}

TEST(OpsTest, RowLogSoftmaxConsistentWithSoftmax) {
  Tensor a = Tensor::FromVector({1, 4}, {0.5f, -1.0f, 2.0f, 0.0f});
  Tensor ls = RowLogSoftmax(a);
  Tensor s = RowSoftmax(a);
  for (int64_t j = 0; j < 4; ++j) EXPECT_NEAR(std::exp(ls.at(0, j)), s.at(0, j), 1e-5f);
}

TEST(OpsTest, RowL2NormalizeUnitNorm) {
  Tensor a = Tensor::FromVector({2, 2}, {3, 4, 0, 0});
  Tensor n = RowL2Normalize(a);
  EXPECT_NEAR(n.at(0, 0), 0.6f, 1e-5f);
  EXPECT_NEAR(n.at(0, 1), 0.8f, 1e-5f);
  // Zero row stays finite (zero).
  EXPECT_EQ(n.at(1, 0), 0.0f);
}

TEST(OpsTest, DotRowsValues) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({2, 2}, {5, 6, 7, 8});
  ExpectTensorNear(DotRows(a, b), {17, 53});
}

TEST(OpsTest, RowsGather) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = Rows(a, {2, 0, 2});
  ExpectTensorNear(g, {5, 6, 1, 2, 5, 6});
}

TEST(OpsTest, TakePerRowValues) {
  Tensor a = Tensor::FromVector({3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  ExpectTensorNear(TakePerRow(a, {0, 2, 1}), {1, 6, 8});
}

TEST(OpsTest, ColsRangeValues) {
  Tensor a = Tensor::FromVector({2, 4}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor mid = ColsRange(a, 1, 2);
  EXPECT_EQ(mid.shape(), (Shape{2, 2}));
  ExpectTensorNear(mid, {2, 3, 6, 7});
  ExpectTensorNear(ColsRange(a, 0, 4), {1, 2, 3, 4, 5, 6, 7, 8});
  ExpectTensorNear(ColsRange(a, 3, 1), {4, 8});
}

TEST(OpsTest, ColsRangeBackwardScattersIntoSlice) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6}).RequiresGrad();
  Tensor s = ColsRange(a, 1, 2);
  Sum(Mul(s, s)).Backward();  // d/dx sum(x^2) = 2x on the slice, 0 elsewhere.
  ExpectTensorNear(Tensor::FromVector({6}, a.grad().ToVector()), {0, 4, 6, 0, 10, 12});
}

TEST(OpsTest, ColsRangeInverseOfConcat) {
  Rng rng(3);
  Tensor left = Tensor::Randn({3, 2}, rng);
  Tensor right = Tensor::Randn({3, 5}, rng);
  Tensor joined = Concat({left, right}, 1);
  ExpectTensorNear(ColsRange(joined, 0, 2), left.data().ToVector());
  ExpectTensorNear(ColsRange(joined, 2, 5), right.data().ToVector());
}

TEST(OpsDeathTest, ColsRangeOutOfBounds) {
  Tensor a = Tensor::Zeros({2, 3});
  EXPECT_DEATH(ColsRange(a, 2, 2), "ColsRange");
}

TEST(OpsTest, ConcatAxis0) {
  Tensor a = Tensor::FromVector({1, 2}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 0);
  EXPECT_EQ(c.shape(), (Shape{3, 2}));
  ExpectTensorNear(c, {1, 2, 3, 4, 5, 6});
}

TEST(OpsTest, ConcatAxis1) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor c = Concat({a, b}, 1);
  EXPECT_EQ(c.shape(), (Shape{2, 3}));
  ExpectTensorNear(c, {1, 3, 4, 2, 5, 6});
}

TEST(OpsTest, DropoutZeroPIsIdentity) {
  Rng rng(1);
  Tensor a = Tensor::FromVector({4}, {1, 2, 3, 4});
  Tensor d = Dropout(a, 0.0f, rng);
  ExpectTensorNear(d, {1, 2, 3, 4});
}

TEST(OpsTest, DropoutKeepsExpectationAndMasks) {
  Rng rng(2);
  Tensor a = Tensor::Ones({10000});
  Tensor d = Dropout(a, 0.4f, rng);
  int zeros = 0;
  double sum = 0.0;
  for (float v : d.data()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0f / 0.6f, 1e-5f);
    }
    sum += v;
  }
  EXPECT_NEAR(zeros / 10000.0, 0.4, 0.03);
  EXPECT_NEAR(sum / 10000.0, 1.0, 0.05);  // Inverted dropout preserves E[x].
}

TEST(OpsTest, EdgeSoftmaxGroupsSumToOne) {
  // Edges into vertex 0: {0,1}; into vertex 1: {2,3,4}.
  Tensor scores = Tensor::FromVector({5}, {1.0f, 2.0f, -1.0f, 0.0f, 1.0f});
  Tensor alpha = EdgeSoftmax(scores, GroupByIndex({0, 0, 1, 1, 1}, 2));
  EXPECT_NEAR(alpha.at(0) + alpha.at(1), 1.0f, 1e-5f);
  EXPECT_NEAR(alpha.at(2) + alpha.at(3) + alpha.at(4), 1.0f, 1e-5f);
  EXPECT_GT(alpha.at(1), alpha.at(0));  // Higher score, higher weight.
}

TEST(OpsTest, EdgeSoftmaxSingleEdgeGroupIsOne) {
  Tensor scores = Tensor::FromVector({1}, {-5.0f});
  Tensor alpha = EdgeSoftmax(scores, GroupByIndex({0}, 3));
  EXPECT_NEAR(alpha.at(0), 1.0f, 1e-6f);
}

TEST(OpsTest, ScatterAddRowsAggregates) {
  Tensor messages = Tensor::FromVector({3, 2}, {1, 2, 10, 20, 100, 200});
  Tensor out = ScatterAddRows(messages, GroupByIndex({1, 1, 0}, 2));
  ExpectTensorNear(out, {100, 200, 11, 22});
}

TEST(OpsTest, ScatterAddRowsIsolatedVertexIsZero) {
  Tensor messages = Tensor::FromVector({1, 2}, {1, 1});
  Tensor out = ScatterAddRows(messages, GroupByIndex({0}, 3));
  ExpectTensorNear(out, {1, 1, 0, 0, 0, 0});
}

// --- Pool-partitioned ops against their serial oracles ----------------------
//
// Every op that runs on the kernel pool is checked against a naive serial
// reference: the loop the op ran before it was partitioned. Forward values
// and every gradient must match bit for bit at 1 and 4 threads. Shapes sit
// above each op's grain, so the partitioned paths really run, and the edge
// graph has empty, single-edge, duplicate-edge and hub destination groups.

using Vec = std::vector<float>;

class ThreadPin {
 public:
  explicit ThreadPin(size_t threads) : previous_(GetParallelThreads()) {
    SetParallelThreads(threads);
  }
  ~ThreadPin() { SetParallelThreads(previous_); }

 private:
  size_t previous_;
};

// Mixed signs over six decades, so a reordered float sum changes low bits.
Vec Spread(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (float& x : v) {
    float magnitude = static_cast<float>(std::pow(10.0, rng.Uniform(-3.0, 3.0)));
    x = rng.Bernoulli(0.5) ? magnitude : -magnitude;
  }
  return v;
}

// Inputs for exp-like ops: no overflow to inf.
Vec Moderate(size_t n, uint64_t seed) {
  Rng rng(seed);
  Vec v(n);
  for (float& x : v) x = static_cast<float>(rng.Uniform(-4.0, 4.0));
  return v;
}

Vec Positive(size_t n, uint64_t seed) {
  Vec v = Spread(n, seed);
  for (float& x : v) x = std::fabs(x);
  return v;
}

testing::AssertionResult SameBits(const Vec& expected, const Storage& actual) {
  if (expected.size() != actual.size()) {
    return testing::AssertionFailure()
           << "size " << actual.size() << " vs expected " << expected.size();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(float)) != 0) {
      return testing::AssertionFailure() << "first difference at " << i << ": " << actual[i]
                                         << " vs expected " << expected[i];
    }
  }
  return testing::AssertionSuccess();
}

struct OracleInput {
  Shape shape;
  Vec values;
};

// One op with its serial reference. `backward` adds the input gradients for
// output `out` and seed gradient `seed` into `grads` (one per input); it is
// empty for the inference-only ops.
struct OracleCase {
  std::vector<OracleInput> inputs;
  std::function<Tensor(const std::vector<Tensor>&)> op;
  std::function<Vec(const std::vector<Vec>&)> forward;
  std::function<void(const std::vector<Vec>&, const Vec&, const Vec&, std::vector<Vec>&)>
      backward;
};

// Runs the op at 1 and 4 threads. Each input is a gradient leaf whose grad
// already holds values, so the backward accumulates as it does mid-tape.
void ExpectMatchesOracle(const OracleCase& c) {
  std::vector<Vec> in;
  for (const OracleInput& input : c.inputs) in.push_back(input.values);
  Vec out = c.forward(in);
  Vec seed = Spread(out.size(), 99);
  std::vector<Vec> grads;
  for (size_t i = 0; i < in.size(); ++i) grads.push_back(Spread(in[i].size(), 1000 + i));
  const std::vector<Vec> initial_grads = grads;
  if (c.backward) c.backward(in, out, seed, grads);
  for (size_t threads : {1, 4}) {
    ThreadPin pin(threads);
    std::vector<Tensor> leaves;
    for (size_t i = 0; i < in.size(); ++i) {
      Tensor t = Tensor::FromVector(c.inputs[i].shape, in[i]);
      if (c.backward) {
        t.RequiresGrad();
        t.mutable_grad() = initial_grads[i];
      }
      leaves.push_back(t);
    }
    uint64_t regions = GetParallelPoolStats().regions;
    Tensor y = c.op(leaves);
    EXPECT_TRUE(SameBits(out, y.data())) << "forward at " << threads << " threads";
    if (c.backward) {
      ASSERT_EQ(y.Backward(seed), Tensor::BackwardStatus::kOk);
      for (size_t i = 0; i < in.size(); ++i) {
        EXPECT_TRUE(SameBits(grads[i], leaves[i].grad()))
            << "gradient of input " << i << " at " << threads << " threads";
      }
    }
    if (threads > 1) {
      EXPECT_GT(GetParallelPoolStats().regions, regions) << "the shapes are below the grain";
    }
  }
}

// Shapes above every grain: 28,000 elements for elementwise ops, 1,000 rows
// for row ops.
constexpr int64_t kRows = 1000;
constexpr int64_t kCols = 70;

using UnaryRef = std::function<float(float)>;
using UnaryGradRef = std::function<float(float, float)>;

OracleCase UnaryCase(std::function<Tensor(const Tensor&)> op, UnaryRef f, UnaryGradRef df,
                     Vec values) {
  OracleCase c;
  c.inputs = {{{400, kCols}, std::move(values)}};
  c.op = [op](const std::vector<Tensor>& t) { return op(t[0]); };
  c.forward = [f](const std::vector<Vec>& in) {
    Vec out(in[0].size());
    for (size_t i = 0; i < out.size(); ++i) out[i] = f(in[0][i]);
    return out;
  };
  c.backward = [df](const std::vector<Vec>& in, const Vec& out, const Vec& g,
                    std::vector<Vec>& grads) {
    for (size_t i = 0; i < g.size(); ++i) grads[0][i] += g[i] * df(in[0][i], out[i]);
  };
  return c;
}

TEST(OpsOracleTest, UnaryOpsMatchSerialLoops) {
  const float slope = 0.2f, alpha = 1.0f, lo = -0.5f, s = 0.37f;
  size_t n = 400 * kCols;
  std::vector<std::pair<const char*, OracleCase>> cases = {
      {"Relu", UnaryCase([](const Tensor& a) { return Relu(a); },
                         [](float x) { return x > 0 ? x : 0.0f; },
                         [](float x, float) { return x > 0 ? 1.0f : 0.0f; }, Spread(n, 1))},
      {"LeakyRelu",
       UnaryCase([&](const Tensor& a) { return LeakyRelu(a, slope); },
                 [&](float x) { return x > 0 ? x : slope * x; },
                 [&](float x, float) { return x > 0 ? 1.0f : slope; }, Spread(n, 2))},
      {"Elu", UnaryCase([&](const Tensor& a) { return Elu(a, alpha); },
                        [&](float x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0f); },
                        [&](float x, float out) { return x > 0 ? 1.0f : out + alpha; },
                        Moderate(n, 3))},
      {"Exp", UnaryCase([](const Tensor& a) { return Exp(a); },
                        [](float x) { return std::exp(x); },
                        [](float, float out) { return out; }, Moderate(n, 4))},
      {"Log", UnaryCase([](const Tensor& a) { return Log(a); },
                        [](float x) { return std::log(x); },
                        [](float x, float) { return 1.0f / x; }, Positive(n, 5))},
      {"Sqrt", UnaryCase([](const Tensor& a) { return Sqrt(a); },
                         [](float x) { return std::sqrt(x); },
                         [](float, float out) { return out > 0 ? 0.5f / out : 0.0f; },
                         Positive(n, 6))},
      {"Square", UnaryCase([](const Tensor& a) { return Square(a); },
                           [](float x) { return x * x; },
                           [](float x, float) { return 2.0f * x; }, Spread(n, 7))},
      {"Abs", UnaryCase([](const Tensor& a) { return Abs(a); },
                        [](float x) { return std::fabs(x); },
                        [](float x, float) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); },
                        Spread(n, 8))},
      {"ClampMin", UnaryCase([&](const Tensor& a) { return ClampMin(a, lo); },
                             [&](float x) { return x < lo ? lo : x; },
                             [&](float x, float) { return x > lo ? 1.0f : 0.0f; },
                             Moderate(n, 9))},
      {"Sigmoid", UnaryCase([](const Tensor& a) { return Sigmoid(a); },
                            [](float x) {
                              if (x >= 0) return 1.0f / (1.0f + std::exp(-x));
                              float z = std::exp(x);
                              return z / (1.0f + z);
                            },
                            [](float, float out) { return out * (1.0f - out); },
                            Moderate(n, 10))},
      {"Tanh", UnaryCase([](const Tensor& a) { return Tanh(a); },
                         [](float x) { return std::tanh(x); },
                         [](float, float out) { return 1.0f - out * out; }, Moderate(n, 11))},
      {"MulScalar", UnaryCase([&](const Tensor& a) { return MulScalar(a, s); },
                              [&](float x) { return x * s; }, [&](float, float) { return s; },
                              Spread(n, 12))},
      {"AddScalar", UnaryCase([&](const Tensor& a) { return AddScalar(a, s); },
                              [&](float x) { return x + s; },
                              [](float, float) { return 1.0f; }, Spread(n, 13))},
  };
  for (const auto& [name, c] : cases) {
    SCOPED_TRACE(name);
    ExpectMatchesOracle(c);
  }
}

enum class Operand { kSame, kRowVec, kScalar };

// The serial loops of BinaryOp: every a-gradient first, then every
// b-gradient, a broadcast b accumulating over rows in ascending order.
OracleCase BinaryCase(std::function<Tensor(const Tensor&, const Tensor&)> op,
                      std::function<float(float, float)> f,
                      std::function<float(float, float, float)> dfdx,
                      std::function<float(float, float, float)> dfdy, Operand b_kind) {
  const int64_t rows = 400;
  size_t n = static_cast<size_t>(rows * kCols);
  Shape b_shape = b_kind == Operand::kSame ? Shape{rows, kCols}
                  : b_kind == Operand::kRowVec ? Shape{kCols}
                                               : Shape{1};
  auto b_at = [b_kind](size_t i) -> size_t {
    return b_kind == Operand::kSame ? i : b_kind == Operand::kRowVec ? i % kCols : 0;
  };
  OracleCase c;
  c.inputs = {{{rows, kCols}, Spread(n, 21)},
              {b_shape, Spread(static_cast<size_t>(NumElements(b_shape)), 22)}};
  c.op = [op](const std::vector<Tensor>& t) { return op(t[0], t[1]); };
  c.forward = [=](const std::vector<Vec>& in) {
    Vec out(n);
    for (size_t i = 0; i < n; ++i) out[i] = f(in[0][i], in[1][b_at(i)]);
    return out;
  };
  c.backward = [=](const std::vector<Vec>& in, const Vec& out, const Vec& g,
                   std::vector<Vec>& grads) {
    for (size_t i = 0; i < n; ++i) grads[0][i] += g[i] * dfdx(in[0][i], in[1][b_at(i)], out[i]);
    for (size_t i = 0; i < n; ++i) {
      float contribution = g[i] * dfdy(in[0][i], in[1][b_at(i)], out[i]);
      grads[1][b_at(i)] += contribution;
    }
  };
  return c;
}

TEST(OpsOracleTest, BinaryOpsMatchSerialLoopsInEveryBroadcastMode) {
  auto one = [](float, float, float) { return 1.0f; };
  for (Operand kind : {Operand::kSame, Operand::kRowVec, Operand::kScalar}) {
    SCOPED_TRACE(static_cast<int>(kind));
    ExpectMatchesOracle(BinaryCase([](const Tensor& a, const Tensor& b) { return Add(a, b); },
                                   [](float x, float y) { return x + y; }, one, one, kind));
    ExpectMatchesOracle(BinaryCase(
        [](const Tensor& a, const Tensor& b) { return Sub(a, b); },
        [](float x, float y) { return x - y; }, one,
        [](float, float, float) { return -1.0f; }, kind));
    ExpectMatchesOracle(BinaryCase(
        [](const Tensor& a, const Tensor& b) { return Mul(a, b); },
        [](float x, float y) { return x * y; }, [](float, float y, float) { return y; },
        [](float x, float, float) { return x; }, kind));
    ExpectMatchesOracle(BinaryCase(
        [](const Tensor& a, const Tensor& b) { return Div(a, b); },
        [](float x, float y) { return x / y; },
        [](float, float y, float) { return 1.0f / y; },
        [](float x, float y, float) { return -x / (y * y); }, kind));
  }
}

TEST(OpsOracleTest, MulOfATensorWithItselfAccumulatesBothPartialsInOrder) {
  OracleCase c;
  size_t n = static_cast<size_t>(kRows * kCols);
  c.inputs = {{{kRows, kCols}, Spread(n, 31)}};
  c.op = [](const std::vector<Tensor>& t) { return Mul(t[0], t[0]); };
  c.forward = [n](const std::vector<Vec>& in) {
    Vec out(n);
    for (size_t i = 0; i < n; ++i) out[i] = in[0][i] * in[0][i];
    return out;
  };
  c.backward = [n](const std::vector<Vec>& in, const Vec&, const Vec& g,
                   std::vector<Vec>& grads) {
    for (size_t i = 0; i < n; ++i) grads[0][i] += g[i] * in[0][i];
    for (size_t i = 0; i < n; ++i) grads[0][i] += g[i] * in[0][i];
  };
  ExpectMatchesOracle(c);
}

TEST(OpsOracleTest, ReshapeAndSumBackwardMatchSerialLoops) {
  size_t n = static_cast<size_t>(kRows * kCols);
  OracleCase reshape;
  reshape.inputs = {{{kRows, kCols}, Spread(n, 41)}};
  reshape.op = [n](const std::vector<Tensor>& t) {
    return Reshape(t[0], {static_cast<int64_t>(n)});
  };
  reshape.forward = [](const std::vector<Vec>& in) { return in[0]; };
  reshape.backward = [n](const std::vector<Vec>&, const Vec&, const Vec& g,
                         std::vector<Vec>& grads) {
    for (size_t i = 0; i < n; ++i) grads[0][i] += g[i];
  };
  ExpectMatchesOracle(reshape);

  OracleCase sum;
  sum.inputs = {{{kRows, kCols}, Spread(n, 42)}};
  sum.op = [](const std::vector<Tensor>& t) { return Sum(t[0]); };
  sum.forward = [](const std::vector<Vec>& in) {
    double acc = 0.0;
    for (float v : in[0]) acc += v;
    return Vec{static_cast<float>(acc)};
  };
  sum.backward = [](const std::vector<Vec>&, const Vec&, const Vec& g,
                    std::vector<Vec>& grads) {
    for (float& gv : grads[0]) gv += g[0];
  };
  ExpectMatchesOracle(sum);
}

TEST(OpsOracleTest, RowOpsMatchSerialLoops) {
  const int64_t m = kRows, n = kCols;
  size_t size = static_cast<size_t>(m * n);
  auto row = [n](const Vec& v, int64_t i) { return v.data() + i * n; };

  OracleCase softmax;
  softmax.inputs = {{{m, n}, Moderate(size, 51)}};
  softmax.op = [](const std::vector<Tensor>& t) { return RowSoftmax(t[0]); };
  softmax.forward = [&](const std::vector<Vec>& in) {
    Vec out(size);
    for (int64_t i = 0; i < m; ++i) {
      const float* x = row(in[0], i);
      float* o = out.data() + i * n;
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < n; ++j) mx = std::max(mx, x[j]);
      double sum = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        o[j] = std::exp(x[j] - mx);
        sum += o[j];
      }
      float inv = static_cast<float>(1.0 / sum);
      for (int64_t j = 0; j < n; ++j) o[j] *= inv;
    }
    return out;
  };
  softmax.backward = [&](const std::vector<Vec>&, const Vec& out, const Vec& g,
                         std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      const float* y = row(out, i);
      const float* gi = row(g, i);
      float* ga = grads[0].data() + i * n;
      double dot = 0.0;
      for (int64_t j = 0; j < n; ++j) dot += static_cast<double>(gi[j]) * y[j];
      for (int64_t j = 0; j < n; ++j) ga[j] += (gi[j] - static_cast<float>(dot)) * y[j];
    }
  };
  ExpectMatchesOracle(softmax);

  OracleCase log_softmax;
  log_softmax.inputs = {{{m, n}, Moderate(size, 52)}};
  log_softmax.op = [](const std::vector<Tensor>& t) { return RowLogSoftmax(t[0]); };
  log_softmax.forward = [&](const std::vector<Vec>& in) {
    Vec out(size);
    for (int64_t i = 0; i < m; ++i) {
      const float* x = row(in[0], i);
      float mx = -std::numeric_limits<float>::infinity();
      for (int64_t j = 0; j < n; ++j) mx = std::max(mx, x[j]);
      double sum = 0.0;
      for (int64_t j = 0; j < n; ++j) sum += std::exp(static_cast<double>(x[j]) - mx);
      float lse = mx + static_cast<float>(std::log(sum));
      for (int64_t j = 0; j < n; ++j) out[static_cast<size_t>(i * n + j)] = x[j] - lse;
    }
    return out;
  };
  log_softmax.backward = [&](const std::vector<Vec>&, const Vec& out, const Vec& g,
                             std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      const float* y = row(out, i);
      const float* gi = row(g, i);
      float* ga = grads[0].data() + i * n;
      double gsum = 0.0;
      for (int64_t j = 0; j < n; ++j) gsum += gi[j];
      for (int64_t j = 0; j < n; ++j) ga[j] += gi[j] - static_cast<float>(gsum) * std::exp(y[j]);
    }
  };
  ExpectMatchesOracle(log_softmax);

  const float eps = 1e-8f;
  OracleCase normalize;
  Vec norm_in = Spread(size, 53);
  std::fill_n(norm_in.begin() + 3 * n, n, 0.0f);  // A zero row takes the eps branch.
  normalize.inputs = {{{m, n}, norm_in}};
  normalize.op = [](const std::vector<Tensor>& t) { return RowL2Normalize(t[0]); };
  auto norm_of = [&](const float* x) {
    double sq = 0.0;
    for (int64_t j = 0; j < n; ++j) sq += static_cast<double>(x[j]) * x[j];
    return std::max(static_cast<float>(std::sqrt(sq)), eps);
  };
  normalize.forward = [&](const std::vector<Vec>& in) {
    Vec out(size);
    for (int64_t i = 0; i < m; ++i) {
      const float* x = row(in[0], i);
      float inv = 1.0f / norm_of(x);
      for (int64_t j = 0; j < n; ++j) out[static_cast<size_t>(i * n + j)] = x[j] * inv;
    }
    return out;
  };
  normalize.backward = [&](const std::vector<Vec>& in, const Vec&, const Vec& g,
                           std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      const float* x = row(in[0], i);
      const float* gi = row(g, i);
      float* ga = grads[0].data() + i * n;
      float norm = norm_of(x);
      float inv = 1.0f / norm;
      if (norm <= eps) {
        for (int64_t j = 0; j < n; ++j) ga[j] += gi[j] * inv;
        continue;
      }
      double dot = 0.0;
      for (int64_t j = 0; j < n; ++j) dot += static_cast<double>(gi[j]) * x[j];
      float scale = static_cast<float>(dot) * inv * inv * inv;
      for (int64_t j = 0; j < n; ++j) ga[j] += gi[j] * inv - x[j] * scale;
    }
  };
  ExpectMatchesOracle(normalize);

  OracleCase dot_rows;
  dot_rows.inputs = {{{m, n}, Spread(size, 54)}, {{m, n}, Spread(size, 55)}};
  dot_rows.op = [](const std::vector<Tensor>& t) { return DotRows(t[0], t[1]); };
  dot_rows.forward = [&](const std::vector<Vec>& in) {
    Vec out(static_cast<size_t>(m));
    for (int64_t i = 0; i < m; ++i) {
      double acc = 0.0;
      for (int64_t j = 0; j < n; ++j) {
        acc += static_cast<double>(row(in[0], i)[j]) * row(in[1], i)[j];
      }
      out[static_cast<size_t>(i)] = static_cast<float>(acc);
    }
    return out;
  };
  dot_rows.backward = [&](const std::vector<Vec>& in, const Vec&, const Vec& g,
                          std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      float gi = g[static_cast<size_t>(i)];
      for (int64_t j = 0; j < n; ++j) {
        grads[0][static_cast<size_t>(i * n + j)] += gi * row(in[1], i)[j];
      }
      for (int64_t j = 0; j < n; ++j) {
        grads[1][static_cast<size_t>(i * n + j)] += gi * row(in[0], i)[j];
      }
    }
  };
  ExpectMatchesOracle(dot_rows);

  OracleCase scale_rows;
  scale_rows.inputs = {{{m, n}, Spread(size, 56)}, {{m}, Spread(static_cast<size_t>(m), 57)}};
  scale_rows.op = [](const std::vector<Tensor>& t) { return ScaleRows(t[0], t[1]); };
  scale_rows.forward = [&](const std::vector<Vec>& in) {
    Vec out(size);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < n; ++j) {
        out[static_cast<size_t>(i * n + j)] = row(in[0], i)[j] * in[1][static_cast<size_t>(i)];
      }
    }
    return out;
  };
  scale_rows.backward = [&](const std::vector<Vec>& in, const Vec&, const Vec& g,
                            std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      const float* gi = row(g, i);
      float s = in[1][static_cast<size_t>(i)];
      for (int64_t j = 0; j < n; ++j) grads[0][static_cast<size_t>(i * n + j)] += gi[j] * s;
      double acc = 0.0;
      for (int64_t j = 0; j < n; ++j) acc += static_cast<double>(gi[j]) * row(in[0], i)[j];
      grads[1][static_cast<size_t>(i)] += static_cast<float>(acc);
    }
  };
  ExpectMatchesOracle(scale_rows);
}

TEST(OpsOracleTest, ColsRangeAndConcatMatchSerialLoops) {
  const int64_t m = kRows, n = kCols;
  OracleCase cols;
  cols.inputs = {{{m, n}, Spread(static_cast<size_t>(m * n), 61)}};
  const int64_t col = 13, count = 29;
  cols.op = [](const std::vector<Tensor>& t) { return ColsRange(t[0], col, count); };
  cols.forward = [&](const std::vector<Vec>& in) {
    Vec out;
    for (int64_t i = 0; i < m; ++i) {
      out.insert(out.end(), in[0].begin() + i * n + col, in[0].begin() + i * n + col + count);
    }
    return out;
  };
  cols.backward = [&](const std::vector<Vec>&, const Vec&, const Vec& g,
                      std::vector<Vec>& grads) {
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < count; ++j) {
        grads[0][static_cast<size_t>(i * n + col + j)] += g[static_cast<size_t>(i * count + j)];
      }
    }
  };
  ExpectMatchesOracle(cols);

  // Parts {p0, p1, p0}: p0's gradient gets its two slices in part order.
  const std::vector<int64_t> widths = {17, 40};
  for (int axis : {0, 1}) {
    SCOPED_TRACE(axis);
    OracleCase concat;
    for (size_t p = 0; p < widths.size(); ++p) {
      Shape shape = axis == 1 ? Shape{m, widths[p]} : Shape{widths[p] * 10, n};
      concat.inputs.push_back({shape, Spread(static_cast<size_t>(NumElements(shape)), 62 + p)});
    }
    concat.op = [axis](const std::vector<Tensor>& t) { return Concat({t[0], t[1], t[0]}, axis); };
    const std::vector<size_t> part_of = {0, 1, 0};
    auto width = [&](size_t p) { return widths[part_of[p]]; };
    concat.forward = [&, axis](const std::vector<Vec>& in) {
      Vec out;
      if (axis == 0) {
        for (size_t p : part_of) out.insert(out.end(), in[p].begin(), in[p].end());
        return out;
      }
      for (int64_t i = 0; i < m; ++i) {
        for (size_t p = 0; p < part_of.size(); ++p) {
          const Vec& v = in[part_of[p]];
          out.insert(out.end(), v.begin() + i * width(p), v.begin() + (i + 1) * width(p));
        }
      }
      return out;
    };
    concat.backward = [&, axis](const std::vector<Vec>& in, const Vec&, const Vec& g,
                                std::vector<Vec>& grads) {
      size_t offset = 0;
      for (size_t p = 0; p < part_of.size(); ++p) {
        Vec& gp = grads[part_of[p]];
        if (axis == 0) {
          for (size_t i = 0; i < gp.size(); ++i) gp[i] += g[offset + i];
          offset += in[part_of[p]].size();
          continue;
        }
        int64_t total = 0;
        for (size_t q = 0; q < part_of.size(); ++q) total += width(q);
        for (int64_t i = 0; i < m; ++i) {
          for (int64_t j = 0; j < width(p); ++j) {
            gp[static_cast<size_t>(i * width(p) + j)] +=
                g[static_cast<size_t>(i * total) + offset + static_cast<size_t>(j)];
          }
        }
        offset += static_cast<size_t>(width(p));
      }
    };
    ExpectMatchesOracle(concat);
  }
}

// 3,000 vertices and ~17,000 edges whose destination groups cover every
// case: empty (v % 7 == 0), single-edge (v % 7 == 1), the same edge listed
// twice (v % 7 == 2), and a 2,000-edge hub at vertex 5. The edge order is
// shuffled, so a group's edges are scattered through the list.
struct OracleGraph {
  int64_t n = 3000;
  std::vector<int64_t> src, dst;
};

OracleGraph MakeOracleGraph() {
  OracleGraph g;
  Rng rng(71);
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t v = 0; v < g.n; ++v) {
    int64_t kind = v % 7;
    if (kind == 0) continue;
    int64_t degree = kind == 1 ? 1 : rng.UniformInt(2, 9);
    for (int64_t k = 0; k < degree; ++k) {
      int64_t s = rng.UniformInt(0, g.n - 1);
      edges.emplace_back(s, v);
      if (kind == 2) edges.emplace_back(s, v);
    }
  }
  for (int k = 0; k < 2000; ++k) edges.emplace_back(rng.UniformInt(0, g.n - 1), 5);
  rng.Shuffle(edges);
  for (const auto& [s, d] : edges) {
    g.src.push_back(s);
    g.dst.push_back(d);
  }
  return g;
}

TEST(OpsOracleTest, GroupByIndexIsAStableCsrOfTheIndex) {
  OracleGraph g = MakeOracleGraph();
  IndexGroupsPtr groups = GroupByIndex(g.dst, g.n);
  ASSERT_EQ(groups->num_rows, g.n);
  ASSERT_EQ(groups->size(), g.dst.size());
  ASSERT_EQ(groups->offsets.size(), static_cast<size_t>(g.n) + 1);
  EXPECT_EQ(groups->offsets.front(), 0);
  EXPECT_EQ(groups->offsets.back(), static_cast<int64_t>(g.dst.size()));
  for (int64_t v = 0; v < g.n; ++v) {
    std::vector<int64_t> expected;
    for (size_t e = 0; e < g.dst.size(); ++e) {
      if (g.dst[e] == v) expected.push_back(static_cast<int64_t>(e));
    }
    std::vector<int64_t> got(groups->order.begin() + groups->offsets[v],
                             groups->order.begin() + groups->offsets[v + 1]);
    ASSERT_EQ(got, expected) << "vertex " << v;
  }
  EXPECT_TRUE(GroupByIndex({}, 4)->order.empty());
}

TEST(OpsOracleTest, RowsMatchesSerialGatherAndScatter) {
  OracleGraph g = MakeOracleGraph();
  const int64_t d = 16;
  for (bool grouped : {false, true}) {
    SCOPED_TRACE(grouped);
    OracleCase c;
    c.inputs = {{{g.n, d}, Spread(static_cast<size_t>(g.n * d), 81)}};
    IndexGroupsPtr groups = GroupByIndex(g.src, g.n);
    c.op = [&, grouped](const std::vector<Tensor>& t) {
      return grouped ? GroupedRows(t[0], groups) : Rows(t[0], g.src);
    };
    c.forward = [&](const std::vector<Vec>& in) {
      Vec out;
      for (int64_t s : g.src) {
        out.insert(out.end(), in[0].begin() + s * d, in[0].begin() + (s + 1) * d);
      }
      return out;
    };
    c.backward = [&](const std::vector<Vec>&, const Vec&, const Vec& grad,
                     std::vector<Vec>& grads) {
      for (size_t r = 0; r < g.src.size(); ++r) {
        for (int64_t j = 0; j < d; ++j) {
          grads[0][static_cast<size_t>(g.src[r] * d + j)] += grad[r * d + static_cast<size_t>(j)];
        }
      }
    };
    ExpectMatchesOracle(c);
  }
}

TEST(OpsOracleTest, EdgeSoftmaxMatchesSerialLoops) {
  OracleGraph g = MakeOracleGraph();
  size_t e_count = g.dst.size();
  OracleCase c;
  // Scores 100 apart make a group's exponentials span far more than a
  // double's 53 bits, so the order of the group sums shows in the result.
  Rng rng(91);
  Vec scores(e_count);
  for (float& v : scores) v = static_cast<float>(rng.Uniform(-50.0, 50.0));
  c.inputs = {{{static_cast<int64_t>(e_count)}, scores}};
  c.op = [&](const std::vector<Tensor>& t) {
    return EdgeSoftmax(t[0], GroupByIndex(g.dst, g.n));
  };
  c.forward = [&](const std::vector<Vec>& in) {
    std::vector<float> max_per(static_cast<size_t>(g.n), -std::numeric_limits<float>::infinity());
    for (size_t e = 0; e < e_count; ++e) {
      size_t v = static_cast<size_t>(g.dst[e]);
      max_per[v] = std::max(max_per[v], in[0][e]);
    }
    std::vector<double> sum_per(static_cast<size_t>(g.n), 0.0);
    Vec out(e_count);
    for (size_t e = 0; e < e_count; ++e) {
      size_t v = static_cast<size_t>(g.dst[e]);
      float ex = std::exp(in[0][e] - max_per[v]);
      out[e] = ex;
      sum_per[v] += ex;
    }
    for (size_t e = 0; e < e_count; ++e) {
      size_t v = static_cast<size_t>(g.dst[e]);
      out[e] = sum_per[v] > 0 ? static_cast<float>(out[e] / sum_per[v]) : 0.0f;
    }
    return out;
  };
  c.backward = [&](const std::vector<Vec>&, const Vec& out, const Vec& grad,
                   std::vector<Vec>& grads) {
    std::vector<double> group_dot(static_cast<size_t>(g.n), 0.0);
    for (size_t e = 0; e < e_count; ++e) {
      group_dot[static_cast<size_t>(g.dst[e])] += static_cast<double>(grad[e]) * out[e];
    }
    for (size_t e = 0; e < e_count; ++e) {
      float dot = static_cast<float>(group_dot[static_cast<size_t>(g.dst[e])]);
      grads[0][e] += out[e] * (grad[e] - dot);
    }
  };
  ExpectMatchesOracle(c);
}

TEST(OpsOracleTest, ScatterAddRowsMatchesSerialLoops) {
  OracleGraph g = MakeOracleGraph();
  const int64_t d = 16;
  size_t e_count = g.dst.size();
  OracleCase c;
  c.inputs = {{{static_cast<int64_t>(e_count), d}, Spread(e_count * d, 101)}};
  c.op = [&](const std::vector<Tensor>& t) {
    return ScatterAddRows(t[0], GroupByIndex(g.dst, g.n));
  };
  c.forward = [&](const std::vector<Vec>& in) {
    Vec out(static_cast<size_t>(g.n * d), 0.0f);
    for (size_t e = 0; e < e_count; ++e) {
      for (int64_t j = 0; j < d; ++j) {
        out[static_cast<size_t>(g.dst[e] * d + j)] += in[0][e * d + static_cast<size_t>(j)];
      }
    }
    return out;
  };
  c.backward = [&](const std::vector<Vec>&, const Vec&, const Vec& grad,
                   std::vector<Vec>& grads) {
    for (size_t e = 0; e < e_count; ++e) {
      for (int64_t j = 0; j < d; ++j) {
        grads[0][e * d + static_cast<size_t>(j)] += grad[static_cast<size_t>(g.dst[e] * d + j)];
      }
    }
  };
  ExpectMatchesOracle(c);
}

// LeakyRelu(score_dst[dst[e]] + score_src[src[e]]), the fused edge score.
Vec EdgeScoresRef(const OracleGraph& g, const Vec& score_src, const Vec& score_dst,
                  float slope) {
  Vec out(g.src.size());
  for (size_t e = 0; e < out.size(); ++e) {
    float x = score_dst[static_cast<size_t>(g.dst[e])] + score_src[static_cast<size_t>(g.src[e])];
    out[e] = x > 0 ? x : slope * x;
  }
  return out;
}

TEST(OpsOracleTest, EdgeScoreKernelsMatchSerialLoops) {
  OracleGraph g = MakeOracleGraph();
  const float slope = 0.2f;
  OracleCase c;
  c.inputs = {{{g.n, 1}, Spread(static_cast<size_t>(g.n), 111)},
              {{g.n, 1}, Spread(static_cast<size_t>(g.n), 112)}};
  c.op = [&](const std::vector<Tensor>& t) {
    return FusedEdgeScoreActivate(t[0], t[1], GroupByIndex(g.src, g.n),
                                  GroupByIndex(g.dst, g.n), slope);
  };
  c.forward = [&](const std::vector<Vec>& in) { return EdgeScoresRef(g, in[0], in[1], slope); };
  c.backward = [&](const std::vector<Vec>& in, const Vec&, const Vec& grad,
                   std::vector<Vec>& grads) {
    auto chain = [&](size_t e) {
      float x = in[1][static_cast<size_t>(g.dst[e])] + in[0][static_cast<size_t>(g.src[e])];
      return grad[e] * (x > 0 ? 1.0f : slope);
    };
    for (size_t e = 0; e < g.src.size(); ++e) grads[0][static_cast<size_t>(g.src[e])] += chain(e);
    for (size_t e = 0; e < g.dst.size(); ++e) grads[1][static_cast<size_t>(g.dst[e])] += chain(e);
  };
  ExpectMatchesOracle(c);

  OracleCase inference = c;
  inference.backward = nullptr;
  inference.op = [&](const std::vector<Tensor>& t) {
    NoGradGuard no_grad;
    return FusedEdgeScores(t[0], t[1], g.src, g.dst, slope);
  };
  ExpectMatchesOracle(inference);
}

// out[dst[e]] += row(e) * scale[e] in ascending e, the float message first.
Vec ScaleScatterRef(const OracleGraph& g, int64_t d, const Vec& scale,
                    const std::function<const float*(size_t)>& row) {
  Vec out(static_cast<size_t>(g.n * d), 0.0f);
  for (size_t e = 0; e < g.dst.size(); ++e) {
    for (int64_t j = 0; j < d; ++j) {
      float message = row(e)[j] * scale[e];
      out[static_cast<size_t>(g.dst[e] * d + j)] += message;
    }
  }
  return out;
}

TEST(OpsOracleTest, ScaleScatterKernelsMatchSerialLoops) {
  OracleGraph g = MakeOracleGraph();
  const int64_t d = 16;
  size_t e_count = g.dst.size();
  OracleCase c;
  c.inputs = {{{static_cast<int64_t>(e_count), d}, Spread(e_count * d, 121)},
              {{static_cast<int64_t>(e_count)}, Spread(e_count, 122)}};
  c.op = [&](const std::vector<Tensor>& t) {
    return ScaleScatterRows(t[0], t[1], GroupByIndex(g.dst, g.n));
  };
  c.forward = [&](const std::vector<Vec>& in) {
    return ScaleScatterRef(g, d, in[1], [&](size_t e) { return in[0].data() + e * d; });
  };
  c.backward = [&](const std::vector<Vec>& in, const Vec&, const Vec& grad,
                   std::vector<Vec>& grads) {
    for (size_t e = 0; e < e_count; ++e) {
      const float* gr = grad.data() + g.dst[e] * d;
      float s = in[1][e];
      for (int64_t j = 0; j < d; ++j) grads[0][e * d + static_cast<size_t>(j)] += gr[j] * s;
      double acc = 0.0;
      for (int64_t j = 0; j < d; ++j) {
        acc += static_cast<double>(gr[j]) * in[0][e * d + static_cast<size_t>(j)];
      }
      grads[1][e] += static_cast<float>(acc);
    }
  };
  ExpectMatchesOracle(c);

  OracleCase gather;
  gather.inputs = {{{g.n, d}, Spread(static_cast<size_t>(g.n * d), 123)},
                   {{static_cast<int64_t>(e_count)}, Spread(e_count, 124)}};
  gather.op = [&](const std::vector<Tensor>& t) {
    NoGradGuard no_grad;
    return FusedGatherScaleScatter(t[0], g.src, GroupByIndex(g.dst, g.n), t[1]);
  };
  gather.forward = [&](const std::vector<Vec>& in) {
    return ScaleScatterRef(g, d, in[1], [&](size_t e) { return in[0].data() + g.src[e] * d; });
  };
  ExpectMatchesOracle(gather);
}

TEST(OpsOracleTest, LargeFillsAndZeroedGradsAreExact) {
  const size_t n = 300000;  // Several fill grains.
  for (size_t threads : {1, 4}) {
    ThreadPin pin(threads);
    Storage s = Storage::Uninitialized(n);
    s.Fill(2.5f);
    EXPECT_TRUE(SameBits(Vec(n, 2.5f), s));
    s.Fill(0.0f);
    EXPECT_TRUE(SameBits(Vec(n, 0.0f), s));
    {
      // Dirty a block of the size class EnsureGrad will draw from.
      Storage dirty = Storage::Uninitialized(n);
      dirty.Fill(-7.0f);
    }
    Tensor t = Tensor::Uninitialized({static_cast<int64_t>(n)}).RequiresGrad();
    EXPECT_TRUE(SameBits(Vec(n, 0.0f), t.grad()));
    t.mutable_grad().Fill(1.0f);
    t.ZeroGrad();
    EXPECT_TRUE(SameBits(Vec(n, 0.0f), t.grad()));
  }
}

// The scatter ops take their target index only as a GroupByIndex grouping,
// so GroupByIndex is where an out-of-range target is caught.
TEST(OpsDeathTest, ScatterIndicesOutsideTheTargetAreRejected) {
  EXPECT_DEATH(GroupByIndex({0, 3, 1}, 3), "index 3 at position 1 outside \\[0, 3\\)");
  EXPECT_DEATH(GroupByIndex({0, 1, -1}, 2), "outside");
  EXPECT_DEATH(Rows(Tensor::Ones({2, 2}).RequiresGrad(), {0, 2}), "outside");
  Tensor scores = Tensor::Ones({2, 1});
  NoGradGuard no_grad;
  EXPECT_DEATH(FusedEdgeScores(scores, scores, {0, 1}, {1, 2}), "edge 1");
  EXPECT_DEATH(FusedGatherScaleScatter(Tensor::Ones({2, 2}), {0, 4},
                                       GroupByIndex({1, 0}, 2), Tensor::Ones({2})),
               "source 4");
}

}  // namespace
}  // namespace sarn::tensor
