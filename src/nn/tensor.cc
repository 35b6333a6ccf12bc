#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/isa.h"
#include "common/logging.h"
#include "common/obs.h"
#include "common/threadpool.h"

/**
 * Vectorized exp/tanh from glibc's libmvec, used for the activation
 * forward sweeps on AVX2 machines. The 4-lane variants differ from
 * scalar libm by a few ulp, so the scalar tail of each sweep is only
 * ever the final size % 4 elements: chunk grains are 4-aligned and
 * chunks start at multiples of the grain, making every element's
 * lane-vs-tail membership — and therefore its exact value — identical
 * at any thread count.
 */
#if defined(HWPR_USE_MVEC) && defined(__x86_64__) && \
    defined(__GNUC__) && !defined(__clang__) && \
    defined(__GLIBC__) && __GLIBC_PREREQ(2, 35)
#define HWPR_HAVE_MVEC 1
#include <immintrin.h>
extern "C" {
__m256d _ZGVdN4v_exp(__m256d);
__m256d _ZGVdN4v_tanh(__m256d);
}
#endif

namespace hwpr::nn
{

namespace
{

/** Elementwise threshold / grain, mirroring Matrix::map. */
constexpr std::size_t kEltwiseParallel = std::size_t(1) << 15;

#if HWPR_HAVE_MVEC
__attribute__((target("avx2"))) void
tanhRangeAvx2(const double *in, double *out, std::size_t b,
              std::size_t e)
{
    std::size_t i = b;
    for (; i + 4 <= e; i += 4)
        _mm256_storeu_pd(out + i,
                         _ZGVdN4v_tanh(_mm256_loadu_pd(in + i)));
    for (; i < e; ++i)
        out[i] = std::tanh(in[i]);
}

__attribute__((target("avx2"))) void
sigmoidRangeAvx2(const double *in, double *out, std::size_t b,
                 std::size_t e)
{
    const __m256d one = _mm256_set1_pd(1.0);
    std::size_t i = b;
    for (; i + 4 <= e; i += 4) {
        const __m256d ex = _ZGVdN4v_exp(_mm256_sub_pd(
            _mm256_setzero_pd(), _mm256_loadu_pd(in + i)));
        _mm256_storeu_pd(out + i,
                         _mm256_div_pd(one, _mm256_add_pd(one, ex)));
    }
    for (; i < e; ++i)
        out[i] = 1.0 / (1.0 + std::exp(-in[i]));
}
#endif

bool
haveAvx2()
{
#if HWPR_HAVE_MVEC
    static const bool have = __builtin_cpu_supports("avx2");
    return have;
#else
    return false;
#endif
}

/**
 * Activation sweeps: libmvec 4-lane kernels on AVX2 hardware, the
 * scalar forms elsewhere, chunked like mapInto.
 */
void
tanhInto(const Matrix &src, Matrix &dst)
{
    const auto &in = src.raw();
    auto &out = dst.raw();
    auto range = [&](std::size_t b, std::size_t e) {
#if HWPR_HAVE_MVEC
        if (haveAvx2()) {
            tanhRangeAvx2(in.data(), out.data(), b, e);
            return;
        }
#endif
        for (std::size_t i = b; i < e; ++i)
            out[i] = std::tanh(in[i]);
    };
    if (in.size() < kEltwiseParallel) {
        range(0, in.size());
        return;
    }
    ExecContext::global().pool->parallelFor(
        0, in.size(), kEltwiseParallel / 4, range);
}

void
sigmoidInto(const Matrix &src, Matrix &dst)
{
    const auto &in = src.raw();
    auto &out = dst.raw();
    auto range = [&](std::size_t b, std::size_t e) {
#if HWPR_HAVE_MVEC
        if (haveAvx2()) {
            sigmoidRangeAvx2(in.data(), out.data(), b, e);
            return;
        }
#endif
        for (std::size_t i = b; i < e; ++i)
            out[i] = 1.0 / (1.0 + std::exp(-in[i]));
    };
    if (in.size() < kEltwiseParallel) {
        range(0, in.size());
        return;
    }
    ExecContext::global().pool->parallelFor(
        0, in.size(), kEltwiseParallel / 4, range);
}

void reluInto(const Matrix &src, Matrix &dst);

/**
 * @{
 * @name Elementwise op kernels
 *
 * Forward/backward sweeps of the cheap tensor ops, cloned
 * (common/isa.h) so AVX2 machines run them 4-wide. Each caller sweeps
 * serially or over 4-aligned chunks, so results are identical at
 * every thread count. The kernels fused ops share are in detail
 * (nn/tensor.h).
 */
HWPR_TARGET_CLONES void
subK(const double *a, const double *b, double *o, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        o[i] = a[i] - b[i];
}

HWPR_TARGET_CLONES void
scaleK(const double *a, double s, double *o, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        o[i] = a[i] * s;
}

HWPR_TARGET_CLONES void
reluK(const double *a, double *o, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        o[i] = a[i] > 0.0 ? a[i] : 0.0;
}

HWPR_TARGET_CLONES void
reluGradK(const double *x, const double *g, double *go, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        go[i] += x[i] > 0.0 ? g[i] : 0.0;
}

/** @} */

void
reluInto(const Matrix &src, Matrix &dst)
{
    const auto &in = src.raw();
    auto &out = dst.raw();
    if (in.size() < kEltwiseParallel) {
        reluK(in.data(), out.data(), in.size());
        return;
    }
    ExecContext::global().pool->parallelFor(
        0, in.size(), kEltwiseParallel / 4,
        [&](std::size_t b, std::size_t e) {
            reluK(in.data() + b, out.data() + b, e - b);
        });
}

} // namespace

namespace detail
{

void
tanhMap(const Matrix &src, Matrix &dst)
{
    tanhInto(src, dst);
}

void
sigmoidMap(const Matrix &src, Matrix &dst)
{
    sigmoidInto(src, dst);
}

void
reluMap(const Matrix &src, Matrix &dst)
{
    reluInto(src, dst);
}

HWPR_TARGET_CLONES void
addK(const double *a, const double *b, double *o, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        o[i] = a[i] + b[i];
}

HWPR_TARGET_CLONES void
mulK(const double *a, const double *b, double *o, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        o[i] = a[i] * b[i];
}

HWPR_TARGET_CLONES void
tanhGradK(const double *y, const double *g, double *go, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        go[i] += g[i] * (1.0 - y[i] * y[i]);
}

HWPR_TARGET_CLONES void
sigmoidGradK(const double *y, const double *g, double *go,
             std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        go[i] += g[i] * y[i] * (1.0 - y[i]);
}

HWPR_TARGET_CLONES void
accK(double *go, const double *g, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        go[i] += g[i];
}

} // namespace detail

// ---------------------------------------------------------------------
// TensorNode / Tensor
// ---------------------------------------------------------------------

void
TensorNode::ensureGrad()
{
    if (grad.rows() == value.rows() && grad.cols() == value.cols())
        return;
    grad = Matrix(value.rows(), value.cols());
}

Tensor
Tensor::param(Matrix m, std::string name)
{
    auto node = std::make_shared<TensorNode>();
    node->value = std::move(m);
    node->requiresGrad = true;
    node->name = std::move(name);
    node->ensureGrad();
    return Tensor(node);
}

Tensor
Tensor::constant(Matrix m, std::string name)
{
    auto node = std::make_shared<TensorNode>();
    node->value = std::move(m);
    node->requiresGrad = false;
    node->name = std::move(name);
    return Tensor(std::move(node));
}

void
Tensor::zeroGrad()
{
    if (node_) {
        node_->ensureGrad();
        node_->grad.fill(0.0);
    }
}

namespace
{

/** Create an op output node wired to its parents. */
Tensor
makeOp(Matrix value, std::vector<TensorNodePtr> parents,
       std::function<void(TensorNode &)> backward_fn,
       const char *name)
{
    auto node = std::make_shared<TensorNode>();
    node->value = std::move(value);
    node->parents = std::move(parents);
    node->name = name;
    for (const auto &p : node->parents) {
        if (p->requiresGrad) {
            node->requiresGrad = true;
            break;
        }
    }
    if (node->requiresGrad)
        node->backward = std::move(backward_fn);
    return Tensor(std::move(node));
}

} // namespace

void
backward(const Tensor &loss)
{
    HWPR_CHECK(loss.valid(), "backward() on an empty tensor");
    HWPR_CHECK(loss.rows() == 1 && loss.cols() == 1,
               "backward() requires a 1x1 scalar loss, got ",
               loss.rows(), "x", loss.cols());

    // Iterative post-order DFS to build a topological order. The
    // scratch vectors are thread_local and the visited set is a
    // per-node stamp, so steady-state backward() does not allocate.
    static thread_local std::uint64_t visit_epoch = 0;
    static thread_local std::vector<TensorNode *> topo;
    static thread_local std::vector<std::pair<TensorNode *, std::size_t>>
        stack;
    const std::uint64_t epoch = ++visit_epoch;
    topo.clear();
    stack.clear();
    stack.emplace_back(loss.node().get(), 0);
    loss.node()->visitMark = epoch;
    while (!stack.empty()) {
        auto &[node, next_child] = stack.back();
        if (next_child < node->parents.size()) {
            TensorNode *child = node->parents[next_child++].get();
            if (child->requiresGrad && child->visitMark != epoch) {
                child->visitMark = epoch;
                stack.emplace_back(child, 0);
            }
        } else {
            topo.push_back(node);
            stack.pop_back();
        }
    }

    for (TensorNode *node : topo)
        node->ensureGrad();
    loss.node()->grad(0, 0) = 1.0;

    // topo is post-order: parents before consumers; walk consumers
    // first so every node's grad is complete before it propagates.
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        if ((*it)->backward)
            (*it)->backward(**it);
    }
}

Tensor
add(const Tensor &a, const Tensor &b)
{
    const Matrix &av = a.value();
    const Matrix &bv = b.value();
    HWPR_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                "shape mismatch in add");
    Matrix out(av.rows(), av.cols());
    detail::addK(av.raw().data(), bv.raw().data(), out.raw().data(),
                 out.size());
    return makeOp(
        std::move(out), {a.node(), b.node()},
        [](TensorNode &self) {
            for (auto &p : self.parents) {
                if (p->requiresGrad) {
                    p->ensureGrad();
                    p->grad += self.grad;
                }
            }
        },
        "add");
}

Tensor
sub(const Tensor &a, const Tensor &b)
{
    const Matrix &av = a.value();
    const Matrix &bv = b.value();
    HWPR_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                "shape mismatch in sub");
    Matrix out(av.rows(), av.cols());
    subK(av.raw().data(), bv.raw().data(), out.raw().data(),
         out.size());
    return makeOp(
        std::move(out), {a.node(), b.node()},
        [](TensorNode &self) {
            auto &pa = self.parents[0];
            auto &pb = self.parents[1];
            if (pa->requiresGrad) {
                pa->ensureGrad();
                pa->grad += self.grad;
            }
            if (pb->requiresGrad) {
                pb->ensureGrad();
                pb->grad -= self.grad;
            }
        },
        "sub");
}

Tensor
mul(const Tensor &a, const Tensor &b)
{
    const Matrix &av = a.value();
    const Matrix &bv = b.value();
    HWPR_ASSERT(av.rows() == bv.rows() && av.cols() == bv.cols(),
                "shape mismatch in mul");
    Matrix out(av.rows(), av.cols());
    detail::mulK(av.raw().data(), bv.raw().data(), out.raw().data(),
                 out.size());
    return makeOp(
        std::move(out), {a.node(), b.node()},
        [](TensorNode &self) {
            auto &pa = self.parents[0];
            auto &pb = self.parents[1];
            if (pa->requiresGrad) {
                pa->ensureGrad();
                pa->grad.addHadamard(self.grad, pb->value);
            }
            if (pb->requiresGrad) {
                pb->ensureGrad();
                pb->grad.addHadamard(self.grad, pa->value);
            }
        },
        "mul");
}

Tensor
scale(const Tensor &a, double s)
{
    const Matrix &av = a.value();
    Matrix out(av.rows(), av.cols());
    scaleK(av.raw().data(), s, out.raw().data(), out.size());
    return makeOp(
        std::move(out), {a.node()},
        [s](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            p->grad.addScaled(self.grad, s);
        },
        "scale");
}

Tensor
matmul(const Tensor &a, const Tensor &b)
{
    Matrix out(a.rows(), b.cols());
    a.value().matmulInto(b.value(), out);
    return makeOp(
        std::move(out), {a.node(), b.node()},
        [](TensorNode &self) {
            auto &pa = self.parents[0];
            auto &pb = self.parents[1];
            if (pa->requiresGrad) {
                pa->ensureGrad();
                // dA += dC * B^T
                self.grad.matmulTransposedInto(pb->value, pa->grad,
                                               true);
            }
            if (pb->requiresGrad) {
                pb->ensureGrad();
                // dB += A^T * dC
                pa->value.transposedMatmulInto(self.grad, pb->grad,
                                               true);
            }
        },
        "matmul");
}

Tensor
addRowBroadcast(const Tensor &a, const Tensor &bias)
{
    const Matrix &av = a.value();
    const Matrix &rv = bias.value();
    HWPR_ASSERT(rv.rows() == 1 && rv.cols() == av.cols(),
                "broadcast row shape mismatch");
    Matrix out(av.rows(), av.cols());
    const std::size_t cols = av.cols();
    for (std::size_t i = 0; i < av.rows(); ++i)
        detail::addK(&av.raw()[i * cols], rv.raw().data(),
                     &out.raw()[i * cols], cols);
    return makeOp(
        std::move(out), {a.node(), bias.node()},
        [](TensorNode &self) {
            auto &pa = self.parents[0];
            auto &pb = self.parents[1];
            if (pa->requiresGrad) {
                pa->ensureGrad();
                pa->grad += self.grad;
            }
            if (pb->requiresGrad) {
                pb->ensureGrad();
                // Row-by-row accumulation keeps each bias element's
                // ascending-i summation chain.
                const std::size_t n = self.grad.cols();
                for (std::size_t i = 0; i < self.grad.rows(); ++i)
                    detail::accK(pb->grad.raw().data(),
                                 &self.grad.raw()[i * n], n);
            }
        },
        "bias");
}

Tensor
relu(const Tensor &a)
{
    Matrix out(a.rows(), a.cols());
    reluInto(a.value(), out);
    return makeOp(
        std::move(out), {a.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const auto &x = p->value.raw();
            const auto &g = self.grad.raw();
            auto &out = p->grad.raw();
            reluGradK(x.data(), g.data(), out.data(), out.size());
        },
        "relu");
}

Tensor
tanhT(const Tensor &a)
{
    Matrix out(a.rows(), a.cols());
    tanhInto(a.value(), out);
    return makeOp(
        std::move(out), {a.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const auto &y = self.value.raw();
            const auto &g = self.grad.raw();
            auto &out = p->grad.raw();
            detail::tanhGradK(y.data(), g.data(), out.data(), out.size());
        },
        "tanh");
}

Tensor
sigmoid(const Tensor &a)
{
    Matrix out(a.rows(), a.cols());
    sigmoidInto(a.value(), out);
    return makeOp(
        std::move(out), {a.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const auto &y = self.value.raw();
            const auto &g = self.grad.raw();
            auto &out = p->grad.raw();
            detail::sigmoidGradK(y.data(), g.data(), out.data(), out.size());
        },
        "sigmoid");
}

Tensor
concatCols(const Tensor &a, const Tensor &b)
{
    const Matrix &av = a.value();
    const Matrix &bv = b.value();
    HWPR_ASSERT(av.rows() == bv.rows(), "hconcat row mismatch");
    Matrix out(av.rows(), av.cols() + bv.cols());
    for (std::size_t i = 0; i < av.rows(); ++i) {
        double *dst = &out.raw()[i * out.cols()];
        std::memcpy(dst, &av.raw()[i * av.cols()],
                    av.cols() * sizeof(double));
        std::memcpy(dst + av.cols(), &bv.raw()[i * bv.cols()],
                    bv.cols() * sizeof(double));
    }
    return makeOp(
        std::move(out), {a.node(), b.node()},
        [](TensorNode &self) {
            auto &pa = self.parents[0];
            auto &pb = self.parents[1];
            const std::size_t ca = pa->value.cols();
            const std::size_t cb = pb->value.cols();
            const std::size_t n = ca + cb;
            for (std::size_t i = 0; i < self.value.rows(); ++i) {
                const double *g = &self.grad.raw()[i * n];
                if (pa->requiresGrad) {
                    pa->ensureGrad();
                    detail::accK(&pa->grad.raw()[i * ca], g, ca);
                }
                if (pb->requiresGrad) {
                    pb->ensureGrad();
                    detail::accK(&pb->grad.raw()[i * cb], g + ca, cb);
                }
            }
        },
        "concat");
}

Tensor
sliceCols(const Tensor &a, std::size_t begin, std::size_t end)
{
    HWPR_ASSERT(begin < end && end <= a.cols(),
                "sliceCols out of range");
    Matrix out(a.rows(), end - begin);
    const std::size_t w = end - begin;
    const std::size_t cols = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i)
        std::memcpy(&out.raw()[i * w],
                    &a.value().raw()[i * cols + begin],
                    w * sizeof(double));
    return makeOp(
        std::move(out), {a.node()},
        [begin, w](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const std::size_t cols = p->value.cols();
            for (std::size_t i = 0; i < self.value.rows(); ++i)
                detail::accK(&p->grad.raw()[i * cols + begin],
                             &self.grad.raw()[i * w], w);
        },
        "slice");
}

Tensor
gatherRows(const Tensor &table, const std::vector<std::size_t> &indices)
{
    Matrix out(indices.size(), table.cols());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        HWPR_ASSERT(indices[i] < table.rows(), "gather index OOB");
        for (std::size_t j = 0; j < table.cols(); ++j)
            out(i, j) = table.value()(indices[i], j);
    }
    // Indices live in the node's aux vector, keeping the
    // backward closure captureless (inline-stored, no allocation).
    Tensor t = makeOp(
        std::move(out), {table.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            for (std::size_t i = 0; i < self.aux.size(); ++i)
                for (std::size_t j = 0; j < self.value.cols(); ++j)
                    p->grad(self.aux[i], j) += self.grad(i, j);
        },
        "gather");
    t.node()->aux.assign(indices.begin(), indices.end());
    return t;
}

Tensor
meanAll(const Tensor &a)
{
    const double inv = 1.0 / double(a.value().size());
    Matrix out(1, 1);
    out(0, 0) = a.value().sum() * inv;
    return makeOp(
        std::move(out), {a.node()},
        [inv](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g = self.grad(0, 0) * inv;
            for (double &v : p->grad.raw())
                v += g;
        },
        "mean");
}

Tensor
sumAll(const Tensor &a)
{
    Matrix out(1, 1);
    out(0, 0) = a.value().sum();
    return makeOp(
        std::move(out), {a.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const double g = self.grad(0, 0);
            for (double &v : p->grad.raw())
                v += g;
        },
        "sum");
}

Tensor
dropout(const Tensor &a, double p, bool training, Rng &rng)
{
    if (!training || p <= 0.0)
        return a;
    HWPR_CHECK(p < 1.0, "dropout probability must be < 1");
    const double keep_scale = 1.0 / (1.0 - p);
    Matrix mask(a.rows(), a.cols());
    for (double &v : mask.raw())
        v = rng.bernoulli(p) ? 0.0 : keep_scale;
    Tensor mask_t = Tensor::constant(std::move(mask), "dropout_mask");
    return mul(a, mask_t);
}

Tensor
blockAdjacencyMatmul(const Tensor &h,
                     std::shared_ptr<const BlockAdjacency> blocks)
{
    HWPR_ASSERT(blocks && blocks->adj.size() == blocks->offsets.size(),
                "adjacency/offset count mismatch");
    Matrix out(h.rows(), h.cols());
    const std::size_t f = h.cols();
    for (std::size_t g = 0; g < blocks->adj.size(); ++g) {
        const Matrix &a = blocks->adj[g];
        const std::size_t v = a.rows();
        const std::size_t base = blocks->offsets[g];
        HWPR_ASSERT(base + v <= h.rows(), "block exceeds batch");
        for (std::size_t i = 0; i < v; ++i) {
            for (std::size_t k = 0; k < v; ++k) {
                const double w = a(i, k);
                if (w == 0.0)
                    continue;
                const double *src = &h.value().data()[(base + k) * f];
                double *dst = &out.data()[(base + i) * f];
                for (std::size_t j = 0; j < f; ++j)
                    dst[j] += w * src[j];
            }
        }
    }
    Tensor t = makeOp(
        std::move(out), {h.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            const std::size_t f = self.value.cols();
            // grad_in = A^T * grad_out per block.
            const BlockAdjacency &blocks = *self.blocks;
            for (std::size_t g = 0; g < blocks.adj.size(); ++g) {
                const Matrix &a = blocks.adj[g];
                const std::size_t v = a.rows();
                const std::size_t base = blocks.offsets[g];
                for (std::size_t i = 0; i < v; ++i) {
                    for (std::size_t k = 0; k < v; ++k) {
                        const double w = a(i, k);
                        if (w == 0.0)
                            continue;
                        const double *src =
                            &self.grad.data()[(base + i) * f];
                        double *dst = &p->grad.data()[(base + k) * f];
                        for (std::size_t j = 0; j < f; ++j)
                            dst[j] += w * src[j];
                    }
                }
            }
        },
        "block_adj");
    t.node()->blocks = std::move(blocks);
    return t;
}

Tensor
blockAdjacencyMatmul(const Tensor &h, const std::vector<Matrix> &adj,
                     const std::vector<std::size_t> &offsets)
{
    auto blocks = std::make_shared<BlockAdjacency>();
    blocks->adj = adj;
    blocks->offsets = offsets;
    return blockAdjacencyMatmul(h, std::move(blocks));
}

Tensor
gatherBlockRows(const Tensor &h, const std::vector<std::size_t> &offsets,
                const std::vector<std::size_t> &row_in_block)
{
    HWPR_ASSERT(offsets.size() == row_in_block.size(),
                "offset/row count mismatch");
    Matrix out(offsets.size(), h.cols());
    for (std::size_t g = 0; g < offsets.size(); ++g) {
        const std::size_t row = offsets[g] + row_in_block[g];
        HWPR_ASSERT(row < h.rows(), "block row OOB");
        for (std::size_t j = 0; j < h.cols(); ++j)
            out(g, j) = h.value()(row, j);
    }
    Tensor t = makeOp(
        std::move(out), {h.node()},
        [](TensorNode &self) {
            auto &p = self.parents[0];
            p->ensureGrad();
            for (std::size_t g = 0; g < self.aux.size(); ++g)
                for (std::size_t j = 0; j < self.value.cols(); ++j)
                    p->grad(self.aux[g], j) += self.grad(g, j);
        },
        "gather_block");
    t.node()->aux.resize(offsets.size());
    for (std::size_t g = 0; g < offsets.size(); ++g)
        t.node()->aux[g] = offsets[g] + row_in_block[g];
    return t;
}

} // namespace hwpr::nn
