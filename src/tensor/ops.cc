#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/parallel.h"
#include "tensor/matmul_kernels.h"

namespace sarn::tensor {
namespace {

using internal::TensorImpl;

// Row-major rank-2 addressing, shared by every op that walks rows. The stride
// arithmetic (`i * cols + j`, row base pointers) used to be hand-rolled in
// each backward lambda; it lives here exactly once. Sixteen bytes, cheap to
// capture by value.
struct RowMajor {
  int64_t rows = 0;
  int64_t cols = 0;

  size_t at(int64_t i, int64_t j) const { return static_cast<size_t>(i * cols + j); }
  size_t row_offset(int64_t i) const { return static_cast<size_t>(i * cols); }

  const float* row(const Storage& s, int64_t i) const { return s.data() + i * cols; }
  float* row(Storage& s, int64_t i) const { return s.data() + i * cols; }
};

RowMajor Layout(const Tensor& t) {
  SARN_CHECK_EQ(t.rank(), 2);
  return RowMajor{t.shape()[0], t.shape()[1]};
}

// Pool partitioning (DESIGN.md §7). Every loop below that runs on the
// kernel pool writes each output element from exactly one thread, and any
// element that receives several contributions receives them in the order the
// serial loop would, so results are bitwise identical at any thread count.
//
// Elements per pool chunk for streaming ops: enough float traffic to
// amortise a chunk's dispatch. MatMulRowGrain is the compute-bound
// counterpart.
constexpr size_t kElementGrain = 8192;

// Rows per pool chunk when each row costs `row_elements` element updates.
size_t RowGrain(int64_t row_elements) {
  return std::max<size_t>(
      1, kElementGrain / static_cast<size_t>(std::max<int64_t>(1, row_elements)));
}

// Runs body(begin, end) over a partition of [0, n) on the kernel pool.
// ParallelFor takes a std::function; handing it a closure of one reference
// keeps the callable in std::function's inline buffer, so an op call never
// allocates from the global heap.
template <typename Body>
void PoolFor(size_t n, size_t grain, const Body& body) {
  ParallelFor(n, [&body](size_t begin, size_t end) { body(begin, end); }, grain);
}

// f(i) for every element index i in [0, n), partitioned over the pool.
template <typename F>
void ForEachElement(size_t n, const F& f) {
  PoolFor(n, kElementGrain, [&f](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) f(i);
  });
}

// f(row) for every row in [0, rows), partitioned over the pool in chunks of
// RowGrain(row_elements) rows.
template <typename F>
void ForEachRow(int64_t rows, int64_t row_elements, const F& f) {
  PoolFor(static_cast<size_t>(rows), RowGrain(row_elements),
          [&f](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) f(static_cast<int64_t>(i));
          });
}

// The destination-grouped scatter: f(v, first, last) for every target row v,
// where [first, last) lists the positions e with index[e] == v in ascending
// order — the order of a serial loop over e. Each pool thread owns whole
// target rows. `row_elements` is the work of one (v, e) visit.
template <typename F>
void ForEachGroup(const IndexGroups& groups, int64_t row_elements, const F& f) {
  int64_t rows = groups.num_rows;
  int64_t mean_degree =
      rows > 0 ? (static_cast<int64_t>(groups.size()) + rows - 1) / rows : 1;
  const int64_t* offsets = groups.offsets.data();
  const int64_t* order = groups.order.data();
  size_t grain = RowGrain(row_elements * std::max<int64_t>(1, mean_degree));
  PoolFor(static_cast<size_t>(rows), grain, [&](size_t begin, size_t end) {
    for (size_t v = begin; v < end; ++v) {
      f(static_cast<int64_t>(v), order + offsets[v], order + offsets[v + 1]);
    }
  });
}

// How operand b aligns against operand a in a binary op.
enum class Broadcast {
  kSame,    // identical element counts and (logical) shapes
  kRowVec,  // a: [m, n], b: [n] or [1, n]
  kScalar,  // b: single element
};

bool IsRowVecOf(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2) return false;
  int64_t n = a.shape()[1];
  if (b.rank() == 1 && b.shape()[0] == n) return true;
  if (b.rank() == 2 && b.shape()[0] == 1 && b.shape()[1] == n) return true;
  return false;
}

Broadcast ResolveBroadcast(const Tensor& a, const Tensor& b) {
  if (a.numel() == b.numel() && a.numel() > 0 &&
      (a.shape() == b.shape() || a.rank() == 1 || b.rank() == 1)) {
    // Treat [n] and [1, n]/[n, 1] with equal numel as the same layout.
    if (a.shape() == b.shape() || std::min(a.rank(), b.rank()) <= 1) return Broadcast::kSame;
  }
  if (b.numel() == 1) return Broadcast::kScalar;
  if (IsRowVecOf(a, b)) return Broadcast::kRowVec;
  SARN_CHECK(false) << "incompatible shapes " << ShapeToString(a.shape()) << " vs "
                    << ShapeToString(b.shape());
  return Broadcast::kSame;  // Unreachable.
}

// Generic elementwise binary with the three broadcast modes. `fwd(x, y)` is
// the value, `dfdx(x, y, out)` / `dfdy(x, y, out)` the partials.
template <typename Fwd, typename DfDx, typename DfDy>
Tensor BinaryOp(const Tensor& a, const Tensor& b, Fwd fwd, DfDx dfdx, DfDy dfdy) {
  Broadcast mode = ResolveBroadcast(a, b);
  const float* av = a.data().data();
  const float* bv = b.data().data();
  size_t n_cols = (mode == Broadcast::kRowVec) ? static_cast<size_t>(a.shape()[1]) : 0;
  size_t n = a.data().size();
  Storage out = Storage::Uninitialized(n);
  float* od = out.data();
  PoolFor(n, kElementGrain, [&](size_t begin, size_t end) {
    switch (mode) {
      case Broadcast::kSame:
        for (size_t i = begin; i < end; ++i) od[i] = fwd(av[i], bv[i]);
        break;
      case Broadcast::kRowVec:
        for (size_t i = begin; i < end; ++i) od[i] = fwd(av[i], bv[i % n_cols]);
        break;
      case Broadcast::kScalar:
        for (size_t i = begin; i < end; ++i) od[i] = fwd(av[i], bv[0]);
        break;
    }
  });
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult(
      a.shape(), std::move(out), {a, b},
      [ai, bi, mode, n_cols, fwd, dfdx, dfdy](TensorImpl& o) {
        const float* g = o.grad.data();
        const float* x = ai->data.data();
        const float* y = bi->data.data();
        const float* out = o.data.data();
        size_t n = o.grad.size();
        auto b_index = [&](size_t i) -> size_t {
          switch (mode) {
            case Broadcast::kSame:
              return i;
            case Broadcast::kRowVec:
              return i % n_cols;
            case Broadcast::kScalar:
              return 0;
          }
          return 0;
        };
        if (ai->requires_grad) {
          ai->EnsureGrad();
          float* ga = ai->grad.data();
          ForEachElement(n, [&](size_t i) { ga[i] += g[i] * dfdx(x[i], y[b_index(i)], out[i]); });
        }
        if (!bi->requires_grad) return;
        bi->EnsureGrad();
        float* gb = bi->grad.data();
        auto contribution = [&](size_t i) -> float {
          return g[i] * dfdy(x[i], y[b_index(i)], out[i]);
        };
        switch (mode) {
          case Broadcast::kSame:
            ForEachElement(n, [&](size_t i) { gb[i] += contribution(i); });
            break;
          case Broadcast::kRowVec: {
            // A column reduction: each thread owns whole columns of gb and
            // adds their rows in ascending order, as the serial loop did.
            size_t rows = n / n_cols;
            PoolFor(n_cols, RowGrain(static_cast<int64_t>(rows)),
                    [&](size_t col_begin, size_t col_end) {
                      for (size_t r = 0; r < rows; ++r) {
                        for (size_t j = col_begin; j < col_end; ++j) {
                          gb[j] += contribution(r * n_cols + j);
                        }
                      }
                    });
            break;
          }
          case Broadcast::kScalar:
            // Every element accumulates into gb[0]: one serial chain.
            for (size_t i = 0; i < n; ++i) gb[0] += contribution(i);
            break;
        }
      });
}

// Generic elementwise unary. `dfd(x, out)` is the local derivative.
template <typename Fwd, typename Df>
Tensor UnaryOp(const Tensor& a, Fwd fwd, Df dfd) {
  const float* av = a.data().data();
  size_t n = a.data().size();
  Storage out = Storage::Uninitialized(n);
  float* od = out.data();
  ForEachElement(n, [&](size_t i) { od[i] = fwd(av[i]); });
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, dfd](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    float* ga = ai->grad.data();
    const float* g = o.grad.data();
    const float* x = ai->data.data();
    const float* y = o.data.data();
    ForEachElement(o.grad.size(), [&](size_t i) { ga[i] += g[i] * dfd(x[i], y[i]); });
  });
}

Tensor Reciprocal(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / x; },
      [](float, float out) { return -out * out; });
}

// Rows per parallel matmul chunk: >= ~64k multiply-adds each, rounded up to
// the register-tile height so only a chunk's last tile can be partial.
size_t MatMulRowGrain(int64_t reduce, int64_t cols) {
  size_t grain =
      std::max<size_t>(1, 65536 / static_cast<size_t>(std::max<int64_t>(1, reduce * cols)));
  size_t mr = static_cast<size_t>(kernels::kMr);
  return (grain + mr - 1) / mr * mr;
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  // Commutative: put the broadcast operand on the right.
  if (b.numel() > a.numel()) return Add(b, a);
  return BinaryOp(
      a, b, [](float x, float y) { return x + y; },
      [](float, float, float) { return 1.0f; }, [](float, float, float) { return 1.0f; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  if (a.numel() >= b.numel()) {
    return BinaryOp(
        a, b, [](float x, float y) { return x - y; },
        [](float, float, float) { return 1.0f; },
        [](float, float, float) { return -1.0f; });
  }
  return Add(Neg(b), a);
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  if (b.numel() > a.numel()) return Mul(b, a);
  return BinaryOp(
      a, b, [](float x, float y) { return x * y; },
      [](float, float y, float) { return y; }, [](float x, float, float) { return x; });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  if (a.numel() >= b.numel()) {
    return BinaryOp(
        a, b, [](float x, float y) { return x / y; },
        [](float, float y, float) { return 1.0f / y; },
        [](float x, float y, float) { return -x / (y * y); });
  }
  return Mul(Reciprocal(b), a);
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x + s; }, [](float, float) { return 1.0f; });
}

Tensor MulScalar(const Tensor& a, float s) {
  return UnaryOp(
      a, [s](float x) { return x * s; }, [s](float, float) { return s; });
}

Tensor Neg(const Tensor& a) { return MulScalar(a, -1.0f); }

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); }, [](float, float out) { return out; });
}

Tensor Log(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::log(x); }, [](float x, float) { return 1.0f / x; });
}

Tensor Sqrt(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::sqrt(x); },
      [](float, float out) { return out > 0 ? 0.5f / out : 0.0f; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; }, [](float x, float) { return 2.0f * x; });
}

Tensor Abs(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::fabs(x); },
      [](float x, float) { return x > 0 ? 1.0f : (x < 0 ? -1.0f : 0.0f); });
}

Tensor ClampMin(const Tensor& a, float lo) {
  return UnaryOp(
      a, [lo](float x) { return x < lo ? lo : x; },
      [lo](float x, float) { return x > lo ? 1.0f : 0.0f; });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0 ? x : 0.0f; },
      [](float x, float) { return x > 0 ? 1.0f : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return UnaryOp(
      a, [negative_slope](float x) { return x > 0 ? x : negative_slope * x; },
      [negative_slope](float x, float) { return x > 0 ? 1.0f : negative_slope; });
}

Tensor Elu(const Tensor& a, float alpha) {
  return UnaryOp(
      a, [alpha](float x) { return x > 0 ? x : alpha * (std::exp(x) - 1.0f); },
      [alpha](float x, float out) { return x > 0 ? 1.0f : out + alpha; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a,
      [](float x) {
        // Stable in both tails.
        if (x >= 0) {
          float z = std::exp(-x);
          return 1.0f / (1.0f + z);
        }
        float z = std::exp(x);
        return z / (1.0f + z);
      },
      [](float, float out) { return out * (1.0f - out); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float out) { return 1.0f - out * out; });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  SARN_CHECK_EQ(a.rank(), 2);
  SARN_CHECK_EQ(b.rank(), 2);
  int64_t m = a.shape()[0], k = a.shape()[1], k2 = b.shape()[0], n = b.shape()[1];
  SARN_CHECK_EQ(k, k2) << "MatMul " << ShapeToString(a.shape()) << " x "
                       << ShapeToString(b.shape());
  const float* ad = a.data().data();
  const float* bd = b.data().data();
  // The init kernels overwrite every element of their row range, so the
  // output can start uninitialized (no zero-fill pass).
  Storage out = Storage::Uninitialized(static_cast<size_t>(m * n));
  float* od = out.data();
  // The compiled AVX2 kernels run whenever the active SIMD tier is AVX2;
  // SARN_SIMD=scalar, simd::ForceTier or a -DSARN_NO_SIMD build select the
  // scalar blocked kernels instead. Both produce identical bits (DESIGN.md
  // §15). The choice is latched here on the calling thread, so the pool
  // workers running row ranges and the backward closure all agree.
  const bool compiled = kernels::MatMulCompiledAvailable();
  // Split so each chunk holds >= ~64k multiply-adds; chunks of kMr rows keep
  // the register tiles full except at a range boundary.
  size_t grain = MatMulRowGrain(k, n);
  PoolFor(static_cast<size_t>(m), grain, [&](size_t begin, size_t end) {
#if defined(SARN_HAVE_AVX2_KERNELS)
    if (compiled) {
      kernels::MatMulInitAvx2(ad, bd, od, static_cast<int64_t>(begin),
                              static_cast<int64_t>(end), k, n);
      return;
    }
#endif
    kernels::MatMulBlockedInit(ad, bd, od, static_cast<int64_t>(begin),
                               static_cast<int64_t>(end), k, n);
  });
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult({m, n}, std::move(out), {a, b},
                      [ai, bi, m, k, n, compiled](TensorImpl& o) {
    const float* g = o.grad.data();
    if (ai->requires_grad) {
      ai->EnsureGrad();
      float* ga = ai->grad.data();
      const float* bd = bi->data.data();
#if defined(SARN_HAVE_AVX2_KERNELS)
      if (compiled) {
        // Pre-transpose B so the compiled dA kernel's kk lanes load
        // contiguously — pure data movement, no float arithmetic.
        Storage bt = Storage::Uninitialized(static_cast<size_t>(k * n));
        float* btd = bt.data();
        for (int64_t kk = 0; kk < k; ++kk) {
          for (int64_t j = 0; j < n; ++j) btd[j * k + kk] = bd[kk * n + j];
        }
        PoolFor(static_cast<size_t>(m), MatMulRowGrain(k, n), [&](size_t begin, size_t end) {
          kernels::MatMulGradATAvx2(g, btd, ga, static_cast<int64_t>(begin),
                                    static_cast<int64_t>(end), k, n);
        });
      } else
#endif
      {
        // dA = G * B^T : [m,n] x [n,k]
        PoolFor(static_cast<size_t>(m), MatMulRowGrain(k, n), [&](size_t begin, size_t end) {
          kernels::MatMulGradABlocked(g, bd, ga, static_cast<int64_t>(begin),
                                      static_cast<int64_t>(end), k, n);
        });
      }
    }
    if (bi->requires_grad) {
      bi->EnsureGrad();
      float* gb = bi->grad.data();
      const float* ad = ai->data.data();
      // dB = A^T * G : [k,m] x [m,n]; parallel over k (rows of dB).
      PoolFor(static_cast<size_t>(k), MatMulRowGrain(m, n), [&](size_t begin, size_t end) {
#if defined(SARN_HAVE_AVX2_KERNELS)
        if (compiled) {
          kernels::MatMulGradBAvx2(ad, g, gb, static_cast<int64_t>(begin),
                                   static_cast<int64_t>(end), m, k, n);
          return;
        }
#endif
        kernels::MatMulGradBBlocked(ad, g, gb, static_cast<int64_t>(begin),
                                    static_cast<int64_t>(end), m, k, n);
      });
    }
  });
}

Tensor Transpose(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  for (int64_t i = 0; i < rm.rows; ++i) {
    for (int64_t j = 0; j < rm.cols; ++j) {
      out[static_cast<size_t>(j * rm.rows + i)] = a.data()[rm.at(i, j)];
    }
  }
  auto ai = a.impl();
  return MakeOpResult({rm.cols, rm.rows}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) {
        ai->grad[rm.at(i, j)] += o.grad[static_cast<size_t>(j * rm.rows + i)];
      }
    }
  });
}

Tensor Reshape(const Tensor& a, const Shape& shape) {
  SARN_CHECK_EQ(NumElements(shape), a.numel());
  auto ai = a.impl();
  // Zero-copy: the result aliases the input's buffer. Ops never mutate their
  // inputs, and gradients stay per-node, so this is semantics-preserving.
  return MakeOpResult(shape, a.data().Share(), {a}, [ai](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    float* ga = ai->grad.data();
    const float* g = o.grad.data();
    ForEachElement(o.grad.size(), [&](size_t i) { ga[i] += g[i]; });
  });
}

Tensor Sum(const Tensor& a) {
  double acc = 0.0;
  for (float v : a.data()) acc += v;
  Storage out = Storage::Uninitialized(1);
  out[0] = static_cast<float>(acc);
  auto ai = a.impl();
  return MakeOpResult({1}, std::move(out), {a}, [ai](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    float g = o.grad[0];
    float* ga = ai->grad.data();
    ForEachElement(ai->grad.size(), [&](size_t i) { ga[i] += g; });
  });
}

Tensor Mean(const Tensor& a) {
  SARN_CHECK_GT(a.numel(), 0);
  return MulScalar(Sum(a), 1.0f / static_cast<float>(a.numel()));
}

Tensor SumAxis(const Tensor& a, int axis) {
  SARN_CHECK(axis == 0 || axis == 1);
  RowMajor rm = Layout(a);
  auto ai = a.impl();
  if (axis == 0) {
    Storage out = Storage::Zeroed(static_cast<size_t>(rm.cols));
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) out[static_cast<size_t>(j)] += a.data()[rm.at(i, j)];
    }
    return MakeOpResult({rm.cols}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
      if (!ai->requires_grad) return;
      ai->EnsureGrad();
      for (int64_t i = 0; i < rm.rows; ++i) {
        for (int64_t j = 0; j < rm.cols; ++j) ai->grad[rm.at(i, j)] += o.grad[j];
      }
    });
  }
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    const float* row = rm.row(a.data(), i);
    double acc = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) acc += row[j];
    out[static_cast<size_t>(i)] = static_cast<float>(acc);
  }
  return MakeOpResult({rm.rows}, std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    for (int64_t i = 0; i < rm.rows; ++i) {
      for (int64_t j = 0; j < rm.cols; ++j) ai->grad[rm.at(i, j)] += o.grad[i];
    }
  });
}

Tensor MeanAxis(const Tensor& a, int axis) {
  int64_t count = axis == 0 ? a.shape()[0] : a.shape()[1];
  SARN_CHECK_GT(count, 0);
  return MulScalar(SumAxis(a, axis), 1.0f / static_cast<float>(count));
}

Tensor RowSoftmax(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < rm.cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) {
      orow[j] = std::exp(row[j] - mx);
      sum += orow[j];
    }
    float inv = static_cast<float>(1.0 / sum);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] *= inv;
  });
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
      const float* y = rm.row(o.data, i);
      const float* g = rm.row(o.grad, i);
      float* ga = rm.row(ai->grad, i);
      double dot = 0.0;
      for (int64_t j = 0; j < rm.cols; ++j) dot += static_cast<double>(g[j]) * y[j];
      for (int64_t j = 0; j < rm.cols; ++j) ga[j] += (g[j] - static_cast<float>(dot)) * y[j];
    });
  });
}

Tensor RowLogSoftmax(const Tensor& a) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    float mx = -std::numeric_limits<float>::infinity();
    for (int64_t j = 0; j < rm.cols; ++j) mx = std::max(mx, row[j]);
    double sum = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) sum += std::exp(static_cast<double>(row[j]) - mx);
    float lse = mx + static_cast<float>(std::log(sum));
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] - lse;
  });
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a}, [ai, rm](TensorImpl& o) {
    if (!ai->requires_grad) return;
    ai->EnsureGrad();
    ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
      const float* y = rm.row(o.data, i);
      const float* g = rm.row(o.grad, i);
      float* ga = rm.row(ai->grad, i);
      double gsum = 0.0;
      for (int64_t j = 0; j < rm.cols; ++j) gsum += g[j];
      for (int64_t j = 0; j < rm.cols; ++j) {
        ga[j] += g[j] - static_cast<float>(gsum) * std::exp(y[j]);
      }
    });
  });
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(a.data().size());
  Storage norms = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
    const float* row = rm.row(a.data(), i);
    double sq = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) sq += static_cast<double>(row[j]) * row[j];
    float norm = std::max(static_cast<float>(std::sqrt(sq)), eps);
    norms[static_cast<size_t>(i)] = norm;
    float inv = 1.0f / norm;
    float* orow = rm.row(out, i);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] * inv;
  });
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a},
                      [ai, rm, norms = std::move(norms), eps](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
                          const float* x = rm.row(ai->data, i);
                          const float* g = rm.row(o.grad, i);
                          float* ga = rm.row(ai->grad, i);
                          float norm = norms[static_cast<size_t>(i)];
                          float inv = 1.0f / norm;
                          if (norm <= eps) {
                            for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * inv;
                            return;
                          }
                          double dot = 0.0;
                          for (int64_t j = 0; j < rm.cols; ++j) {
                            dot += static_cast<double>(g[j]) * x[j];
                          }
                          float scale = static_cast<float>(dot) * inv * inv * inv;
                          for (int64_t j = 0; j < rm.cols; ++j) {
                            ga[j] += g[j] * inv - x[j] * scale;
                          }
                        });
                      });
}

Tensor DotRows(const Tensor& a, const Tensor& b) {
  SARN_CHECK(a.shape() == b.shape())
      << ShapeToString(a.shape()) << " vs " << ShapeToString(b.shape());
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
    const float* arow = rm.row(a.data(), i);
    const float* brow = rm.row(b.data(), i);
    double acc = 0.0;
    for (int64_t j = 0; j < rm.cols; ++j) {
      acc += static_cast<double>(arow[j]) * brow[j];
    }
    out[static_cast<size_t>(i)] = static_cast<float>(acc);
  });
  auto ai = a.impl();
  auto bi = b.impl();
  return MakeOpResult({rm.rows}, std::move(out), {a, b}, [ai, bi, rm](TensorImpl& o) {
    if (ai->requires_grad) ai->EnsureGrad();
    if (bi->requires_grad) bi->EnsureGrad();
    // Row i's two updates stay in the serial order (a, then b), which
    // matters when a and b are the same tensor.
    ForEachRow(rm.rows, 2 * rm.cols, [&](int64_t i) {
      float g = o.grad[static_cast<size_t>(i)];
      if (ai->requires_grad) {
        const float* brow = rm.row(bi->data, i);
        float* ga = rm.row(ai->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g * brow[j];
      }
      if (bi->requires_grad) {
        const float* arow = rm.row(ai->data, i);
        float* gb = rm.row(bi->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) gb[j] += g * arow[j];
      }
    });
  });
}

Tensor ScaleRows(const Tensor& a, const Tensor& scale) {
  RowMajor rm = Layout(a);
  SARN_CHECK_EQ(scale.numel(), rm.rows) << "ScaleRows " << ShapeToString(a.shape())
                                        << " by " << ShapeToString(scale.shape());
  Storage out = Storage::Uninitialized(a.data().size());
  ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
    float s = scale.data()[static_cast<size_t>(i)];
    const float* row = rm.row(a.data(), i);
    float* orow = rm.row(out, i);
    for (int64_t j = 0; j < rm.cols; ++j) orow[j] = row[j] * s;
  });
  auto ai = a.impl();
  auto si = scale.impl();
  return MakeOpResult(a.shape(), std::move(out), {a, scale}, [ai, si, rm](TensorImpl& o) {
    if (ai->requires_grad) ai->EnsureGrad();
    if (si->requires_grad) si->EnsureGrad();
    ForEachRow(rm.rows, 2 * rm.cols, [&](int64_t i) {
      const float* g = rm.row(o.grad, i);
      float s = si->data[static_cast<size_t>(i)];
      if (ai->requires_grad) {
        float* ga = rm.row(ai->grad, i);
        for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * s;
      }
      if (si->requires_grad) {
        const float* arow = rm.row(ai->data, i);
        double acc = 0.0;
        for (int64_t j = 0; j < rm.cols; ++j) acc += static_cast<double>(g[j]) * arow[j];
        si->grad[static_cast<size_t>(i)] += static_cast<float>(acc);
      }
    });
  });
}

namespace {

// out[r] = a[index[r]] for r in [0, count), row-partitioned.
Storage CopyRows(const Tensor& a, const int64_t* index, int64_t count) {
  RowMajor rm = Layout(a);
  Storage out = Storage::Uninitialized(static_cast<size_t>(count * rm.cols));
  ForEachRow(count, rm.cols, [&](int64_t r) {
    int64_t src = index[r];
    SARN_CHECK(src >= 0 && src < rm.rows) << "row index " << src;
    std::copy_n(rm.row(a.data(), src), rm.cols, out.data() + r * rm.cols);
  });
  return out;
}

}  // namespace

Tensor Rows(const Tensor& a, const std::vector<int64_t>& indices) {
  RowMajor rm = Layout(a);
  // Only the backward needs the grouping: build it when a tape node will be
  // recorded.
  if (GradModeEnabled() && a.requires_grad()) {
    return GroupedRows(a, GroupByIndex(indices, rm.rows));
  }
  int64_t m = static_cast<int64_t>(indices.size());
  return Tensor::FromStorage({m, rm.cols}, CopyRows(a, indices.data(), m));
}

Tensor GroupedRows(const Tensor& a, const IndexGroupsPtr& indices) {
  RowMajor rm = Layout(a);
  SARN_CHECK_EQ(indices->num_rows, rm.rows)
      << "Rows grouping of " << ShapeToString(a.shape());
  int64_t m = static_cast<int64_t>(indices->size());
  auto ai = a.impl();
  return MakeOpResult(
      {m, rm.cols}, CopyRows(a, indices->index.data(), m), {a},
      [ai, rm, groups = indices](TensorImpl& o) {
        if (!ai->requires_grad) return;
        ai->EnsureGrad();
        ForEachGroup(*groups, rm.cols, [&](int64_t v, const int64_t* first, const int64_t* last) {
          float* ga = rm.row(ai->grad, v);
          for (const int64_t* r = first; r != last; ++r) {
            const float* g = o.grad.data() + *r * rm.cols;
            for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j];
          }
        });
      });
}

Tensor TakePerRow(const Tensor& a, const std::vector<int64_t>& cols) {
  RowMajor rm = Layout(a);
  SARN_CHECK_EQ(static_cast<int64_t>(cols.size()), rm.rows);
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows));
  for (int64_t i = 0; i < rm.rows; ++i) {
    int64_t c = cols[static_cast<size_t>(i)];
    SARN_CHECK(c >= 0 && c < rm.cols) << "col index " << c;
    out[static_cast<size_t>(i)] = a.data()[rm.at(i, c)];
  }
  auto ai = a.impl();
  return MakeOpResult({rm.rows}, std::move(out), {a},
                      [ai, rm, idx = MakeIndexVec(cols)](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < idx.size(); ++i) {
                          ai->grad[rm.at(static_cast<int64_t>(i), idx[i])] += o.grad[i];
                        }
                      });
}

Tensor ColsRange(const Tensor& a, int64_t col, int64_t count) {
  RowMajor rm = Layout(a);
  SARN_CHECK(col >= 0 && count > 0 && col + count <= rm.cols)
      << "ColsRange [" << col << ", " << col + count << ") of " << ShapeToString(a.shape());
  Storage out = Storage::Uninitialized(static_cast<size_t>(rm.rows * count));
  ForEachRow(rm.rows, count, [&](int64_t i) {
    std::copy_n(rm.row(a.data(), i) + col, count, out.data() + i * count);
  });
  auto ai = a.impl();
  return MakeOpResult({rm.rows, count}, std::move(out), {a},
                      [ai, rm, col, count](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        ForEachRow(rm.rows, count, [&](int64_t i) {
                          const float* g = o.grad.data() + i * count;
                          float* ga = rm.row(ai->grad, i) + col;
                          for (int64_t j = 0; j < count; ++j) ga[j] += g[j];
                        });
                      });
}

Tensor Concat(const std::vector<Tensor>& parts, int axis) {
  SARN_CHECK(!parts.empty());
  SARN_CHECK(axis == 0 || axis == 1);
  for (const Tensor& p : parts) SARN_CHECK_EQ(p.rank(), 2);
  int64_t m = 0, n = 0;
  if (axis == 0) {
    n = parts[0].shape()[1];
    for (const Tensor& p : parts) {
      SARN_CHECK_EQ(p.shape()[1], n);
      m += p.shape()[0];
    }
  } else {
    m = parts[0].shape()[0];
    for (const Tensor& p : parts) {
      SARN_CHECK_EQ(p.shape()[0], m);
      n += p.shape()[1];
    }
  }
  RowMajor rm{m, n};
  Storage out = Storage::Uninitialized(static_cast<size_t>(m * n));
  if (axis == 0) {
    size_t offset = 0;
    for (const Tensor& p : parts) {
      std::copy(p.data().begin(), p.data().end(), out.begin() + offset);
      offset += p.data().size();
    }
  } else {
    ForEachRow(m, n, [&](int64_t i) {
      float* orow = rm.row(out, i);
      for (const Tensor& p : parts) {
        int64_t pn = p.shape()[1];
        orow = std::copy_n(p.data().data() + i * pn, pn, orow);
      }
    });
  }
  PoolVec<std::shared_ptr<TensorImpl>> impls;
  impls.reserve(parts.size());
  for (const Tensor& p : parts) impls.push_back(p.impl());
  return MakeOpResult(
      {m, n}, std::move(out), parts, [impls = std::move(impls), axis, rm](TensorImpl& o) {
        for (const auto& pi : impls) {
          if (pi->requires_grad) pi->EnsureGrad();
        }
        if (axis == 0) {
          size_t offset = 0;
          for (const auto& pi : impls) {
            if (pi->requires_grad) {
              float* gp = pi->grad.data();
              const float* g = o.grad.data() + offset;
              ForEachElement(pi->data.size(), [&](size_t i) { gp[i] += g[i]; });
            }
            offset += pi->data.size();
          }
          return;
        }
        // Parts in order within each row: an element shared by two parts
        // (the same tensor passed twice) gets their slices in part order.
        ForEachRow(rm.rows, rm.cols, [&](int64_t i) {
          const float* g = rm.row(o.grad, i);
          for (const auto& pi : impls) {
            int64_t pn = pi->shape[1];
            if (pi->requires_grad) {
              float* gp = pi->grad.data() + i * pn;
              for (int64_t j = 0; j < pn; ++j) gp[j] += g[j];
            }
            g += pn;
          }
        });
      });
}

Tensor Dropout(const Tensor& a, float p, Rng& rng) {
  SARN_CHECK(p >= 0.0f && p < 1.0f) << "p=" << p;
  if (p == 0.0f) return a;
  float keep = 1.0f - p;
  float scale = 1.0f / keep;
  Storage mask = Storage::Uninitialized(a.data().size());
  Storage out = Storage::Uninitialized(a.data().size());
  for (size_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng.Bernoulli(keep) ? scale : 0.0f;
    out[i] = a.data()[i] * mask[i];
  }
  auto ai = a.impl();
  return MakeOpResult(a.shape(), std::move(out), {a},
                      [ai, mask = std::move(mask)](TensorImpl& o) {
                        if (!ai->requires_grad) return;
                        ai->EnsureGrad();
                        for (size_t i = 0; i < o.grad.size(); ++i) {
                          ai->grad[i] += o.grad[i] * mask[i];
                        }
                      });
}

IndexGroupsPtr GroupByIndex(const std::vector<int64_t>& index, int64_t num_rows) {
  SARN_CHECK_GE(num_rows, 0);
  auto groups = std::allocate_shared<IndexGroups>(PoolAllocator<IndexGroups>());
  groups->num_rows = num_rows;
  groups->index.assign(index.begin(), index.end());
  IndexVec& offsets = groups->offsets;
  offsets.assign(static_cast<size_t>(num_rows) + 1, 0);
  for (size_t e = 0; e < index.size(); ++e) {
    int64_t v = index[e];
    SARN_CHECK(v >= 0 && v < num_rows)
        << "index " << v << " at position " << e << " outside [0, " << num_rows << ")";
    ++offsets[static_cast<size_t>(v) + 1];
  }
  for (size_t v = 1; v < offsets.size(); ++v) offsets[v] += offsets[v - 1];
  // Stable counting sort: placing positions in ascending e advances each
  // offsets[v] to the end of v's group; shifting right by one restores the
  // starts.
  groups->order.resize(index.size());
  for (size_t e = 0; e < index.size(); ++e) {
    groups->order[static_cast<size_t>(offsets[static_cast<size_t>(index[e])]++)] =
        static_cast<int64_t>(e);
  }
  for (size_t v = offsets.size() - 1; v > 0; --v) offsets[v] = offsets[v - 1];
  offsets[0] = 0;
  return groups;
}

Tensor EdgeSoftmax(const Tensor& scores, const std::vector<int64_t>& dst,
                   int64_t num_vertices) {
  return EdgeSoftmax(scores, GroupByIndex(dst, num_vertices));
}

Tensor EdgeSoftmax(const Tensor& scores, const IndexGroupsPtr& dst) {
  SARN_CHECK(scores.rank() == 1 || (scores.rank() == 2 && scores.shape()[1] == 1));
  int64_t e_count = scores.numel();
  SARN_CHECK_EQ(static_cast<int64_t>(dst->size()), e_count);
  const float* sv = scores.data().data();
  Storage out = Storage::Uninitialized(static_cast<size_t>(e_count));
  float* ov = out.data();
  ForEachGroup(*dst, 1, [&](int64_t, const int64_t* first, const int64_t* last) {
    float mx = -std::numeric_limits<float>::infinity();
    for (const int64_t* e = first; e != last; ++e) mx = std::max(mx, sv[*e]);
    double sum = 0.0;
    for (const int64_t* e = first; e != last; ++e) {
      float ex = std::exp(sv[*e] - mx);
      ov[*e] = ex;
      sum += ex;
    }
    for (const int64_t* e = first; e != last; ++e) {
      ov[*e] = sum > 0 ? static_cast<float>(ov[*e] / sum) : 0.0f;
    }
  });
  auto si = scores.impl();
  return MakeOpResult({e_count}, std::move(out), {scores}, [si, groups = dst](TensorImpl& o) {
    if (!si->requires_grad) return;
    si->EnsureGrad();
    // Grouped softmax Jacobian: ds_e = y_e * (g_e - sum_{e' in group} g_e' y_e').
    float* gs = si->grad.data();
    const float* g = o.grad.data();
    const float* y = o.data.data();
    ForEachGroup(*groups, 1, [&](int64_t, const int64_t* first, const int64_t* last) {
      double dot = 0.0;
      for (const int64_t* e = first; e != last; ++e) dot += static_cast<double>(g[*e]) * y[*e];
      for (const int64_t* e = first; e != last; ++e) {
        gs[*e] += y[*e] * (g[*e] - static_cast<float>(dot));
      }
    });
  });
}

Tensor ScatterAddRows(const Tensor& messages, const std::vector<int64_t>& dst,
                      int64_t num_vertices) {
  return ScatterAddRows(messages, GroupByIndex(dst, num_vertices));
}

Tensor ScatterAddRows(const Tensor& messages, const IndexGroupsPtr& dst) {
  RowMajor rm = Layout(messages);
  SARN_CHECK_EQ(static_cast<int64_t>(dst->size()), rm.rows);
  RowMajor orm{dst->num_rows, rm.cols};
  Storage out = Storage::Uninitialized(static_cast<size_t>(orm.rows * orm.cols));
  ForEachGroup(*dst, rm.cols, [&](int64_t v, const int64_t* first, const int64_t* last) {
    float* orow = orm.row(out, v);
    std::fill_n(orow, orm.cols, 0.0f);
    for (const int64_t* e = first; e != last; ++e) {
      const float* msg = rm.row(messages.data(), *e);
      for (int64_t j = 0; j < rm.cols; ++j) orow[j] += msg[j];
    }
  });
  auto mi = messages.impl();
  return MakeOpResult({orm.rows, orm.cols}, std::move(out), {messages},
                      [mi, rm, orm, groups = dst](TensorImpl& o) {
                        if (!mi->requires_grad) return;
                        mi->EnsureGrad();
                        const int64_t* idx = groups->index.data();
                        ForEachRow(rm.rows, rm.cols, [&](int64_t e) {
                          const float* g = orm.row(o.grad, idx[e]);
                          float* gm = rm.row(mi->grad, e);
                          for (int64_t j = 0; j < rm.cols; ++j) gm[j] += g[j];
                        });
                      });
}

namespace {

// LeakyRelu(score_dst[dst[e]] + score_src[src[e]]) for every edge e: the
// float order of Add(Rows(score_dst, dst), Rows(score_src, src)) followed
// by LeakyRelu. Each edge writes only out[e].
Storage EdgeScores(const Tensor& score_src, const Tensor& score_dst, const int64_t* src,
                   const int64_t* dst, int64_t e_count, float negative_slope) {
  const float* ss = score_src.data().data();
  const float* sd = score_dst.data().data();
  int64_t src_rows = score_src.numel();
  int64_t dst_rows = score_dst.numel();
  Storage out = Storage::Uninitialized(static_cast<size_t>(e_count));
  float* ov = out.data();
  ForEachElement(static_cast<size_t>(e_count), [&](size_t e) {
    int64_t s = src[e];
    int64_t d = dst[e];
    SARN_CHECK(s >= 0 && s < src_rows && d >= 0 && d < dst_rows)
        << "edge " << e << " (" << s << " -> " << d << ")";
    float x = sd[d] + ss[s];
    ov[e] = x > 0 ? x : negative_slope * x;
  });
  return out;
}

}  // namespace

Tensor FusedEdgeScores(const Tensor& score_src, const Tensor& score_dst,
                       const std::vector<int64_t>& src, const std::vector<int64_t>& dst,
                       float negative_slope) {
  SARN_CHECK(!GradModeEnabled()) << "FusedEdgeScores is inference-only";
  SARN_CHECK_EQ(src.size(), dst.size());
  int64_t e_count = static_cast<int64_t>(src.size());
  return Tensor::FromStorage(
      {e_count}, EdgeScores(score_src, score_dst, src.data(), dst.data(), e_count,
                            negative_slope));
}

Tensor FusedEdgeScoreActivate(const Tensor& score_src, const Tensor& score_dst,
                              const std::vector<int64_t>& src,
                              const std::vector<int64_t>& dst,
                              float negative_slope) {
  return FusedEdgeScoreActivate(score_src, score_dst, GroupByIndex(src, score_src.numel()),
                                GroupByIndex(dst, score_dst.numel()), negative_slope);
}

Tensor FusedEdgeScoreActivate(const Tensor& score_src, const Tensor& score_dst,
                              const IndexGroupsPtr& src, const IndexGroupsPtr& dst,
                              float negative_slope) {
  SARN_CHECK_EQ(src->size(), dst->size());
  SARN_CHECK_EQ(src->num_rows, score_src.numel());
  SARN_CHECK_EQ(dst->num_rows, score_dst.numel());
  int64_t e_count = static_cast<int64_t>(src->size());
  Storage out = EdgeScores(score_src, score_dst, src->index.data(), dst->index.data(),
                           e_count, negative_slope);
  auto ssi = score_src.impl();
  auto sdi = score_dst.impl();
  // Parent order {score_dst, score_src} mirrors Add(rows_dst, rows_src): the
  // backward DFS then visits the score_dst matmul subtree first, so wx
  // receives the two attention-gradient contributions in the unfused order
  // (score_src's closure runs before score_dst's).
  return MakeOpResult(
      {e_count}, std::move(out), {score_dst, score_src},
      [ssi, sdi, negative_slope, src_groups = src, dst_groups = dst](TensorImpl& o) {
        // Per edge: recompute the pre-activation x bitwise from the saved
        // inputs (LeakyRelu's derivative tests x), then scatter the chain
        // gradient g * lrelu'(x) exactly as the unfused Rows backwards do —
        // each target row adds its edges in ascending order. The unfused
        // graph updates score_src before score_dst; the two phases keep that
        // order, so even one tensor passed as both sides accumulates in the
        // unfused order.
        const int64_t* src_idx = src_groups->index.data();
        const int64_t* dst_idx = dst_groups->index.data();
        auto chain = [&](int64_t e) -> float {
          float x = sdi->data[static_cast<size_t>(dst_idx[e])] +
                    ssi->data[static_cast<size_t>(src_idx[e])];
          return o.grad[static_cast<size_t>(e)] * (x > 0 ? 1.0f : negative_slope);
        };
        auto scatter = [&](internal::TensorImpl& target, const IndexGroups& groups) {
          target.EnsureGrad();
          float* grad = target.grad.data();
          ForEachGroup(groups, 1, [&](int64_t v, const int64_t* first, const int64_t* last) {
            for (const int64_t* e = first; e != last; ++e) grad[v] += chain(*e);
          });
        };
        if (ssi->requires_grad) scatter(*ssi, *src_groups);
        if (sdi->requires_grad) scatter(*sdi, *dst_groups);
      });
}

Tensor ScaleScatterRows(const Tensor& rows, const Tensor& scale,
                        const std::vector<int64_t>& dst, int64_t num_vertices) {
  return ScaleScatterRows(rows, scale, GroupByIndex(dst, num_vertices));
}

namespace {

// out[v] = sum over e in v's group, ascending, of rows(e) * scale[e]: the
// scatter both ScaleScatterRows and FusedGatherScaleScatter run. `row_of(e)`
// yields the message row of edge e.
template <typename RowOf>
Storage ScaleScatter(const IndexGroups& dst, int64_t cols, const float* scale,
                     const RowOf& row_of) {
  RowMajor orm{dst.num_rows, cols};
  Storage out = Storage::Uninitialized(static_cast<size_t>(orm.rows * orm.cols));
  ForEachGroup(dst, cols, [&](int64_t v, const int64_t* first, const int64_t* last) {
    float* orow = orm.row(out, v);
    std::fill_n(orow, cols, 0.0f);
    for (const int64_t* e = first; e != last; ++e) {
      const float* row = row_of(*e);
      float s = scale[*e];
      for (int64_t j = 0; j < cols; ++j) {
        // Explicit float intermediate matches the rounding of the unfused
        // ScaleRows-then-ScatterAdd chain exactly.
        float message = row[j] * s;
        orow[j] += message;
      }
    }
  });
  return out;
}

}  // namespace

Tensor ScaleScatterRows(const Tensor& rows, const Tensor& scale,
                        const IndexGroupsPtr& dst) {
  RowMajor rm = Layout(rows);
  SARN_CHECK_EQ(scale.numel(), rm.rows);
  SARN_CHECK_EQ(static_cast<int64_t>(dst->size()), rm.rows);
  RowMajor orm{dst->num_rows, rm.cols};
  Storage out = ScaleScatter(*dst, rm.cols, scale.data().data(),
                             [&](int64_t e) { return rm.row(rows.data(), e); });
  auto ai = rows.impl();
  auto si = scale.impl();
  return MakeOpResult(
      {orm.rows, orm.cols}, std::move(out), {rows, scale},
      [ai, si, rm, orm, groups = dst](TensorImpl& o) {
        // The unfused pair first materialises messages.grad[e] =
        // out.grad[dst[e]] (single assignment into zeros), then ScaleRows
        // consumes it per edge. Reading out.grad[dst[e]] directly yields the
        // same values; every gradient target (rows.grad row e, scale.grad[e])
        // receives exactly one accumulation, so edges split freely.
        if (ai->requires_grad) ai->EnsureGrad();
        if (si->requires_grad) si->EnsureGrad();
        const int64_t* idx = groups->index.data();
        ForEachRow(rm.rows, 2 * rm.cols, [&](int64_t e) {
          const float* g = orm.row(o.grad, idx[e]);
          float s = si->data[static_cast<size_t>(e)];
          if (ai->requires_grad) {
            float* ga = rm.row(ai->grad, e);
            for (int64_t j = 0; j < rm.cols; ++j) ga[j] += g[j] * s;
          }
          if (si->requires_grad) {
            const float* arow = rm.row(ai->data, e);
            double acc = 0.0;
            for (int64_t j = 0; j < rm.cols; ++j) {
              acc += static_cast<double>(g[j]) * arow[j];
            }
            si->grad[static_cast<size_t>(e)] += static_cast<float>(acc);
          }
        });
      });
}

Tensor FusedGatherScaleScatter(const Tensor& wx, const std::vector<int64_t>& src,
                               const std::vector<int64_t>& dst, const Tensor& alpha,
                               int64_t num_vertices) {
  return FusedGatherScaleScatter(wx, src, GroupByIndex(dst, num_vertices), alpha);
}

Tensor FusedGatherScaleScatter(const Tensor& wx, const std::vector<int64_t>& src,
                               const IndexGroupsPtr& dst, const Tensor& alpha) {
  SARN_CHECK(!GradModeEnabled()) << "FusedGatherScaleScatter is inference-only";
  SARN_CHECK_EQ(src.size(), dst->size());
  SARN_CHECK_EQ(alpha.numel(), static_cast<int64_t>(src.size()));
  RowMajor rm = Layout(wx);
  Storage out = ScaleScatter(*dst, rm.cols, alpha.data().data(), [&](int64_t e) {
    int64_t s = src[static_cast<size_t>(e)];
    SARN_CHECK(s >= 0 && s < rm.rows) << "edge " << e << " source " << s;
    return rm.row(wx.data(), s);
  });
  return Tensor::FromStorage({dst->num_rows, rm.cols}, std::move(out));
}

}  // namespace sarn::tensor
