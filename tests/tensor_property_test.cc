// Property-style algebraic identities of the tensor ops over randomized
// shapes and values (TEST_P sweep).

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace sarn::tensor {
namespace {

struct ShapeCase {
  int64_t m;
  int64_t k;
  int64_t n;
  uint64_t seed;
};

class TensorPropertyTest : public testing::TestWithParam<ShapeCase> {
 protected:
  void ExpectNear(const Tensor& a, const Tensor& b, float tolerance = 1e-4f) {
    ASSERT_EQ(a.numel(), b.numel());
    for (int64_t i = 0; i < a.numel(); ++i) {
      float scale = std::max({1.0f, std::fabs(a.data()[static_cast<size_t>(i)]),
                              std::fabs(b.data()[static_cast<size_t>(i)])});
      ASSERT_NEAR(a.data()[static_cast<size_t>(i)], b.data()[static_cast<size_t>(i)],
                  tolerance * scale)
          << "index " << i;
    }
  }
};

TEST_P(TensorPropertyTest, AddCommutes) {
  ShapeCase c = GetParam();
  Rng rng(c.seed);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  Tensor b = Tensor::Randn({c.m, c.n}, rng);
  ExpectNear(Add(a, b), Add(b, a));
}

TEST_P(TensorPropertyTest, MatMulAssociative) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 1);
  Tensor a = Tensor::Randn({c.m, c.k}, rng);
  Tensor b = Tensor::Randn({c.k, c.n}, rng);
  Tensor d = Tensor::Randn({c.n, c.m}, rng);
  ExpectNear(MatMul(MatMul(a, b), d), MatMul(a, MatMul(b, d)), 1e-3f);
}

TEST_P(TensorPropertyTest, MatMulDistributesOverAdd) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 2);
  Tensor a = Tensor::Randn({c.m, c.k}, rng);
  Tensor b1 = Tensor::Randn({c.k, c.n}, rng);
  Tensor b2 = Tensor::Randn({c.k, c.n}, rng);
  ExpectNear(MatMul(a, Add(b1, b2)), Add(MatMul(a, b1), MatMul(a, b2)), 1e-3f);
}

TEST_P(TensorPropertyTest, TransposeIsInvolution) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 3);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  ExpectNear(Transpose(Transpose(a)), a, 0.0f);
}

TEST_P(TensorPropertyTest, TransposeOfProduct) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 4);
  Tensor a = Tensor::Randn({c.m, c.k}, rng);
  Tensor b = Tensor::Randn({c.k, c.n}, rng);
  ExpectNear(Transpose(MatMul(a, b)), MatMul(Transpose(b), Transpose(a)), 1e-3f);
}

TEST_P(TensorPropertyTest, SoftmaxShiftInvariant) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 5);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  ExpectNear(RowSoftmax(a), RowSoftmax(AddScalar(a, 7.5f)), 1e-4f);
}

TEST_P(TensorPropertyTest, LogSoftmaxExpIsSoftmax) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 6);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  ExpectNear(Exp(RowLogSoftmax(a)), RowSoftmax(a), 1e-4f);
}

TEST_P(TensorPropertyTest, RowsIdentityGather) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 7);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  std::vector<int64_t> identity(static_cast<size_t>(c.m));
  for (int64_t i = 0; i < c.m; ++i) identity[static_cast<size_t>(i)] = i;
  ExpectNear(Rows(a, identity), a, 0.0f);
}

TEST_P(TensorPropertyTest, ConcatThenSliceRoundTrip) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 8);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  Tensor b = Tensor::Randn({c.k, c.n}, rng);
  Tensor joined = Concat({a, b}, 0);
  std::vector<int64_t> a_rows(static_cast<size_t>(c.m));
  for (int64_t i = 0; i < c.m; ++i) a_rows[static_cast<size_t>(i)] = i;
  std::vector<int64_t> b_rows(static_cast<size_t>(c.k));
  for (int64_t i = 0; i < c.k; ++i) b_rows[static_cast<size_t>(i)] = c.m + i;
  ExpectNear(Rows(joined, a_rows), a, 0.0f);
  ExpectNear(Rows(joined, b_rows), b, 0.0f);
}

TEST_P(TensorPropertyTest, ScatterAddInvertsGatherSum) {
  // Sum over gathered rows == matmul with indicator, checked via ScatterAdd:
  // scatter(gather(a, idx)) sums each source row once per occurrence.
  ShapeCase c = GetParam();
  Rng rng(c.seed + 9);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  std::vector<int64_t> index;
  for (int64_t i = 0; i < c.m; ++i) {
    index.push_back(i);
    index.push_back(i);  // Each row twice.
  }
  Tensor gathered = Rows(a, index);
  Tensor scattered = ScatterAddRows(gathered, GroupByIndex(index, c.m));
  ExpectNear(scattered, MulScalar(a, 2.0f), 1e-4f);
}

TEST_P(TensorPropertyTest, RowL2NormalizeIsIdempotent) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 10);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  Tensor once = RowL2Normalize(a);
  ExpectNear(RowL2Normalize(once), once, 1e-4f);
}

TEST_P(TensorPropertyTest, DotRowsMatchesDiagonalOfProduct) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 11);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  Tensor b = Tensor::Randn({c.m, c.n}, rng);
  Tensor full = MatMul(a, Transpose(b));  // [m, m]
  Tensor diag = DotRows(a, b);
  for (int64_t i = 0; i < c.m; ++i) {
    ASSERT_NEAR(diag.at(i), full.at(i, i), 1e-3f);
  }
}

TEST_P(TensorPropertyTest, SumAxesAgreeWithTotal) {
  ShapeCase c = GetParam();
  Rng rng(c.seed + 12);
  Tensor a = Tensor::Randn({c.m, c.n}, rng);
  float total = Sum(a).item();
  float by_rows = Sum(SumAxis(a, 1)).item();
  float by_cols = Sum(SumAxis(a, 0)).item();
  EXPECT_NEAR(total, by_rows, 1e-3f * std::max(1.0f, std::fabs(total)));
  EXPECT_NEAR(total, by_cols, 1e-3f * std::max(1.0f, std::fabs(total)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, TensorPropertyTest,
                         testing::Values(ShapeCase{2, 3, 4, 11}, ShapeCase{1, 1, 1, 22},
                                         ShapeCase{7, 5, 3, 33}, ShapeCase{16, 8, 16, 44},
                                         ShapeCase{5, 13, 2, 55}),
                         [](const testing::TestParamInfo<ShapeCase>& info) {
                           return "m" + std::to_string(info.param.m) + "k" +
                                  std::to_string(info.param.k) + "n" +
                                  std::to_string(info.param.n);
                         });

}  // namespace
}  // namespace sarn::tensor
