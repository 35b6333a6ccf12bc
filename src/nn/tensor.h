/**
 * @file
 * Reverse-mode automatic differentiation over dense matrices.
 *
 * The engine is eager: each op computes its value immediately and
 * records a backward closure. Calling backward() on a scalar loss
 * topologically sorts the recorded graph and accumulates gradients
 * into every node with requiresGrad set. Parameter nodes are persistent
 * across iterations (layers hold them); intermediate nodes are freed
 * when the last Tensor handle to a graph goes out of scope.
 */

#ifndef HWPR_NN_TENSOR_H
#define HWPR_NN_TENSOR_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"

namespace hwpr::nn
{

class TensorNode;
using TensorNodePtr = std::shared_ptr<TensorNode>;

/** Per-graph normalized adjacency blocks (GCN batch structure). */
struct BlockAdjacency
{
    std::vector<Matrix> adj;
    std::vector<std::size_t> offsets;
};

/** One vertex in the autodiff graph. */
class TensorNode
{
  public:
    /** Forward value. */
    Matrix value;
    /** Accumulated gradient; allocated lazily to value's shape. */
    Matrix grad;
    /** Whether gradients should flow into (and through) this node. */
    bool requiresGrad = false;
    /** Inputs of the op that produced this node (empty for leaves). */
    std::vector<TensorNodePtr> parents;
    /** Pulls this->grad into the parents' grads. */
    std::function<void(TensorNode &)> backward;
    /** Debug label. */
    std::string name;
    /** Op-specific index payload (gather ops), so their backward
     *  closures stay captureless. */
    std::vector<std::size_t> aux;
    /** Block-adjacency payload of blockAdjacencyMatmul nodes. */
    std::shared_ptr<const BlockAdjacency> blocks;
    /** Visit stamp used by backward()'s allocation-free DFS. */
    std::uint64_t visitMark = 0;

    /** Ensure grad is allocated and zeroed to value's shape. */
    void ensureGrad();
};

namespace detail
{

/**
 * Activation sweeps shared by the tensor ops and the raw inference
 * paths (Mlp::predictBatch, LstmEncoder::encodeBatchInto). On AVX2
 * machines the tanh/sigmoid sweeps use libmvec's 4-lane kernels,
 * whose values differ from scalar libm by a few ulp — every caller
 * must go through these functions (over buffers with the same element
 * order) for the raw and autodiff paths to stay bit-identical.
 * @p src and @p dst may alias; shapes must match.
 */
void tanhMap(const Matrix &src, Matrix &dst);
void sigmoidMap(const Matrix &src, Matrix &dst);
void reluMap(const Matrix &src, Matrix &dst);

/**
 * @{
 * Elementwise kernels of the tensor ops, for fused ops (nn/lstm.cc)
 * that must round exactly like the ops they replace. The kernels are
 * cloned per ISA (common/isa.h) and a clone may contract multiply+add
 * into FMA, so a hand-written loop is not a substitute: call these.
 * Outputs may alias inputs elementwise.
 */
/** o = a + b (add, and each row of addRowBroadcast). */
void addK(const double *a, const double *b, double *o, std::size_t n);
/** o = a * b (mul). */
void mulK(const double *a, const double *b, double *o, std::size_t n);
/** go += g (sliceCols / concatCols / bias backward). */
void accK(double *go, const double *g, std::size_t n);
/** go += g * (1 - y * y), y = tanh output (tanhT backward). */
void tanhGradK(const double *y, const double *g, double *go,
               std::size_t n);
/** go += g * y * (1 - y), y = sigmoid output (sigmoid backward). */
void sigmoidGradK(const double *y, const double *g, double *go,
                  std::size_t n);
/** @} */

} // namespace detail

/**
 * Value-semantics handle to a TensorNode. All ops are free functions
 * (or static members) producing new Tensors.
 */
class Tensor
{
  public:
    Tensor() = default;
    explicit Tensor(TensorNodePtr node) : node_(std::move(node)) {}

    /** Trainable leaf: participates in backward and optimizer steps. */
    static Tensor param(Matrix m, std::string name = "");

    /** Non-trainable leaf (inputs, masks, targets). */
    static Tensor constant(Matrix m, std::string name = "");

    bool valid() const { return node_ != nullptr; }
    const Matrix &value() const { return node_->value; }
    Matrix &valueMut() { return node_->value; }
    const Matrix &grad() const { return node_->grad; }
    Matrix &gradMut() { return node_->grad; }
    bool requiresGrad() const { return node_->requiresGrad; }
    const std::string &name() const { return node_->name; }

    std::size_t rows() const { return node_->value.rows(); }
    std::size_t cols() const { return node_->value.cols(); }

    TensorNodePtr node() const { return node_; }

    /** Zero this node's gradient (params, between steps). */
    void zeroGrad();

  private:
    TensorNodePtr node_;
};

/**
 * Run reverse-mode accumulation from @p loss, which must be a 1x1
 * scalar. Seeds d(loss)/d(loss) = 1.
 */
void backward(const Tensor &loss);

/// @name Elementwise and structural ops
/// @{
Tensor add(const Tensor &a, const Tensor &b);
Tensor sub(const Tensor &a, const Tensor &b);
Tensor mul(const Tensor &a, const Tensor &b);
Tensor scale(const Tensor &a, double s);
Tensor matmul(const Tensor &a, const Tensor &b);
/** Add a (1 x cols) bias row to every row of @p a. */
Tensor addRowBroadcast(const Tensor &a, const Tensor &bias);
Tensor relu(const Tensor &a);
Tensor tanhT(const Tensor &a);
Tensor sigmoid(const Tensor &a);
/** Concatenate along columns (equal row counts). */
Tensor concatCols(const Tensor &a, const Tensor &b);
/** Columns [begin, end) of @p a. */
Tensor sliceCols(const Tensor &a, std::size_t begin, std::size_t end);
/** Gather rows of @p table by index (embedding lookup). */
Tensor gatherRows(const Tensor &table,
                  const std::vector<std::size_t> &indices);
/** Mean of all elements as a 1x1 scalar. */
Tensor meanAll(const Tensor &a);
/** Sum of all elements as a 1x1 scalar. */
Tensor sumAll(const Tensor &a);
/**
 * Inverted-scale dropout. When @p training is false this is the
 * identity; otherwise elements are zeroed with probability @p p and
 * survivors scaled by 1/(1-p).
 */
Tensor dropout(const Tensor &a, double p, bool training, Rng &rng);
/// @}

/// @name Block-graph ops for the GCN encoder
/// @{
/**
 * Multiply a vertically stacked batch of graphs by per-graph
 * (normalized) adjacency matrices. @p h is (sum_g V_g) x F; block g
 * spans rows [offsets[g], offsets[g] + adj[g].rows()).
 */
Tensor blockAdjacencyMatmul(const Tensor &h,
                            const std::vector<Matrix> &adj,
                            const std::vector<std::size_t> &offsets);
/**
 * Same, with caller-shared block structure: avoids copying the
 * adjacency matrices into the node (the fit-time encoding cache keeps
 * one BlockAdjacency per batch alive for the whole fit).
 */
Tensor blockAdjacencyMatmul(const Tensor &h,
                            std::shared_ptr<const BlockAdjacency> blocks);
/**
 * Extract one row per block (e.g. the global node of each graph),
 * producing a (num_blocks x F) matrix. Row g is
 * offsets[g] + row_in_block[g].
 */
Tensor gatherBlockRows(const Tensor &h,
                       const std::vector<std::size_t> &offsets,
                       const std::vector<std::size_t> &row_in_block);
/// @}

} // namespace hwpr::nn

#endif // HWPR_NN_TENSOR_H
