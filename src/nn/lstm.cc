#include "nn/lstm.h"

#include <cstring>
#include <memory>

#include "common/logging.h"

namespace hwpr::nn
{

namespace
{

/** One step's gate activations and state (batch x h each). */
struct StepState
{
    Matrix i, f, g, o, c, tc, h;
};

/** Everything lstmStack's backward reads. */
struct LstmTape
{
    std::size_t batch = 0;
    std::size_t steps = 0;
    /** Token of row b at step t: ids[t * batch + b]. */
    std::vector<std::size_t> ids;
    /** state[l][t]. */
    std::vector<std::vector<StepState>> state;
};

/**
 * Output panels of one step. fc and ig receive f ⊙ c_prev and i ⊙ g;
 * inference, which keeps no gates, aliases them to f and i, tc to g,
 * and c to c_prev.
 */
struct StepPanels
{
    Matrix &i, &f, &g, &o, &c, &tc, &h, &fc, &ig;
};

/**
 * One LSTM step in the composed graph's op order and rounding. On
 * entry @p z holds x_t * wx (batch x 4h); it is clobbered.
 * z = (x_t * wx + h_prev * wh) + b as two separately rounded products,
 * the add and the bias row; each gate is a contiguous (batch x h)
 * panel, like the sliceCols outputs the activation sweeps ran over;
 * c and h come from the mul/add kernels, never a fused loop.
 */
void
stepForward(const LstmLayer &lp, const Matrix &h_prev,
            const Matrix &c_prev, Matrix &z, Matrix &zh,
            const StepPanels &p)
{
    const std::size_t batch = h_prev.rows();
    const std::size_t h = h_prev.cols();
    const std::size_t n = batch * h;
    h_prev.matmulInto(lp.wh.value(), zh);
    detail::addK(z.data(), zh.data(), z.data(), z.size());
    for (std::size_t r = 0; r < batch; ++r) {
        double *zr = z.data() + r * 4 * h;
        detail::addK(zr, lp.b.value().data(), zr, 4 * h);
    }
    Matrix *gates[4] = {&p.i, &p.f, &p.g, &p.o};
    for (std::size_t r = 0; r < batch; ++r)
        for (std::size_t k = 0; k < 4; ++k)
            std::memcpy(gates[k]->data() + r * h,
                        z.data() + r * 4 * h + k * h,
                        h * sizeof(double));
    detail::sigmoidMap(p.i, p.i);
    detail::sigmoidMap(p.f, p.f);
    detail::tanhMap(p.g, p.g);
    detail::sigmoidMap(p.o, p.o);
    detail::mulK(p.f.data(), c_prev.data(), p.fc.data(), n);
    detail::mulK(p.i.data(), p.g.data(), p.ig.data(), n);
    detail::addK(p.fc.data(), p.ig.data(), p.c.data(), n);
    detail::tanhMap(p.c, p.tc);
    detail::mulK(p.o.data(), p.tc.data(), p.h.data(), n);
}

/** Rows [t * batch, (t + 1) * batch) of @p m into @p out. */
void
copyBlock(const Matrix &m, std::size_t t, Matrix &out)
{
    std::memcpy(out.data(), m.data() + t * out.size(),
                out.size() * sizeof(double));
}

/** Steps' hidden states stacked in ascending t: (T*batch x h). */
Matrix
stackHidden(const std::vector<StepState> &steps)
{
    const Matrix &first = steps.front().h;
    Matrix out(steps.size() * first.rows(), first.cols());
    for (std::size_t t = 0; t < steps.size(); ++t)
        std::memcpy(out.data() + t * first.size(), steps[t].h.data(),
                    first.size() * sizeof(double));
    return out;
}

/** Rows @p ids of @p table (the embedded inputs, stacked). */
Matrix
gatherTokens(const Matrix &table, const std::vector<std::size_t> &ids)
{
    Matrix out(ids.size(), table.cols());
    for (std::size_t r = 0; r < ids.size(); ++r)
        std::memcpy(out.data() + r * out.cols(),
                    table.data() + ids[r] * table.cols(),
                    table.cols() * sizeof(double));
    return out;
}

/** Zero @p m, for a gradient buffer the graph would start at +0. */
Matrix &
zeroed(Matrix &m)
{
    m.fill(0.0);
    return m;
}

/**
 * lstmStack's backward. Under nn::backward's reverse post-order the
 * composed graph finishes layer l before layer l-1. Inside a layer it
 * runs step T-1's nodes down to step 0's (each step: h, tanh(c), c,
 * i*g, g, i, f*c, f, o, then the bias, add and h*wh nodes), and only
 * then the x_t * wx nodes in ascending t. Every buffer the graph
 * would zero-initialize is zeroed here too, so sums onto it round
 * (and sign zeros) alike.
 */
void
backwardStack(const LstmTape &tape, TensorNode &self)
{
    const std::size_t batch = tape.batch;
    const std::size_t steps = tape.steps;
    const std::size_t h = self.value.cols();
    const std::size_t n = batch * h;
    const std::size_t layers = tape.state.size();
    // Parents: [embedding, wx0, wh0, b0, wx1, ...].
    TensorNode &embed = *self.parents[0];
    auto param = [&](std::size_t l, std::size_t k) -> TensorNode & {
        return *self.parents[1 + 3 * l + k];
    };
    // Gradient reaches layer l's states iff something at or below it
    // trains; the flags only grow with l.
    std::vector<bool> flows(layers);
    bool below = embed.requiresGrad;
    for (std::size_t l = 0; l < layers; ++l) {
        below = below || param(l, 0).requiresGrad ||
                param(l, 1).requiresGrad || param(l, 2).requiresGrad;
        flows[l] = below;
    }

    Matrix dZ(steps * batch, 4 * h);
    Matrix dz(batch, 4 * h), zeros(batch, h), dh(batch, h), dc(batch, h);
    Matrix d_o(batch, h), d_tc(batch, h), d_c(batch, h), d_i(batch, h),
        d_g(batch, h), d_f(batch, h), d_pre(batch, h);
    // Gradient into layer l's hidden states from layer l+1's inputs.
    Matrix d_above;
    for (std::size_t l = layers; l-- > 0 && flows[l];) {
        const std::vector<StepState> &st = tape.state[l];
        TensorNode &wx = param(l, 0), &wh = param(l, 1), &b = param(l, 2);
        const bool top = l + 1 == layers;
        if (top)
            dh = self.grad;
        else
            copyBlock(d_above, steps - 1, dh);
        dc.fill(0.0);
        // sliceCols backward: gate k's panel into columns [kh, (k+1)h).
        auto to_z = [&](std::size_t k) {
            for (std::size_t r = 0; r < batch; ++r)
                detail::accK(dz.data() + r * 4 * h + k * h,
                             d_pre.data() + r * h, h);
        };
        for (std::size_t t = steps; t-- > 0;) {
            const StepState &s = st[t];
            const Matrix &h_prev = t ? st[t - 1].h : zeros;
            const Matrix &c_prev = t ? st[t - 1].c : zeros;
            // h = o * tc; tc = tanh(c), whose gradient lands after the
            // f_{t+1} * dc term step t+1 left in dc.
            zeroed(d_o).addHadamard(dh, s.tc);
            zeroed(d_tc).addHadamard(dh, s.o);
            detail::tanhGradK(s.tc.data(), d_tc.data(), dc.data(), n);
            // c = fc + ig: both addends get 0 + dc.
            zeroed(d_c) += dc;
            // ig = i * g, g = tanh, i = sigmoid.
            zeroed(d_i).addHadamard(d_c, s.g);
            zeroed(d_g).addHadamard(d_c, s.i);
            dz.fill(0.0);
            detail::tanhGradK(s.g.data(), d_g.data(),
                              zeroed(d_pre).data(), n);
            to_z(2);
            detail::sigmoidGradK(s.i.data(), d_i.data(),
                                 zeroed(d_pre).data(), n);
            to_z(0);
            // fc = f * c_prev: c_prev is a constant at t = 0.
            zeroed(d_f).addHadamard(d_c, c_prev);
            if (t)
                zeroed(dc).addHadamard(d_c, s.f);
            detail::sigmoidGradK(s.f.data(), d_f.data(),
                                 zeroed(d_pre).data(), n);
            to_z(1);
            detail::sigmoidGradK(s.o.data(), d_o.data(),
                                 zeroed(d_pre).data(), n);
            to_z(3);
            // Bias row: rows in ascending order.
            if (b.requiresGrad)
                for (std::size_t r = 0; r < batch; ++r)
                    detail::accK(b.grad.data(), dz.data() + r * 4 * h,
                                 4 * h);
            // h_prev * wh: the state gradient first, then wh — against
            // the zero initial state too at t = 0.
            if (t) {
                if (top)
                    dh.fill(0.0);
                else
                    copyBlock(d_above, t - 1, dh);
                dz.matmulTransposedInto(wh.value, dh, true);
            }
            if (wh.requiresGrad)
                h_prev.transposedMatmulInto(dz, wh.grad, true);
            std::memcpy(dZ.data() + t * dz.size(), dz.data(),
                        dz.size() * sizeof(double));
        }

        // x_t * wx nodes, ascending t: one stacked GEMM continues each
        // gradient element's chain exactly as the per-step ones did.
        if (wx.requiresGrad) {
            const Matrix x = l ? stackHidden(tape.state[l - 1])
                               : gatherTokens(embed.value, tape.ids);
            x.transposedMatmulInto(dZ, wx.grad, true);
        }
        if (!(l ? flows[l - 1] : embed.requiresGrad))
            break;
        Matrix dx(steps * batch, wx.value.rows());
        dZ.matmulTransposedInto(wx.value, dx);
        if (l) {
            d_above = std::move(dx);
            continue;
        }
        // gatherRows backward, ascending t then row.
        const std::size_t e = dx.cols();
        for (std::size_t r = 0; r < dx.rows(); ++r) {
            double *dst = embed.grad.data() + tape.ids[r] * e;
            const double *src = dx.data() + r * e;
            for (std::size_t j = 0; j < e; ++j)
                dst[j] += src[j];
        }
    }
}

} // namespace

Tensor
lstmStack(const Tensor &embedding, const std::vector<LstmLayer> &layers,
          const std::vector<const std::vector<std::size_t> *> &sequences)
{
    HWPR_CHECK(!sequences.empty(), "empty LSTM batch");
    HWPR_CHECK(!layers.empty(), "LSTM without layers");
    const std::size_t batch = sequences.size();
    const std::size_t steps = sequences[0]->size();
    HWPR_CHECK(steps > 0, "LSTM batch of empty sequences");
    for (const auto *s : sequences)
        HWPR_CHECK(s->size() == steps,
                   "LSTM batch requires equal-length sequences");
    const std::size_t h = layers[0].wh.rows();

    auto tape = std::make_shared<LstmTape>();
    tape->batch = batch;
    tape->steps = steps;
    tape->ids.resize(steps * batch);
    for (std::size_t t = 0; t < steps; ++t)
        for (std::size_t b = 0; b < batch; ++b) {
            const std::size_t id = (*sequences[b])[t];
            HWPR_ASSERT(id < embedding.rows(), "token OOB");
            tape->ids[t * batch + b] = id;
        }

    Matrix z(batch, 4 * h), zh(batch, 4 * h), zeros(batch, h);
    Matrix fc(batch, h), ig(batch, h);
    tape->state.resize(layers.size());
    for (std::size_t l = 0; l < layers.size(); ++l) {
        const LstmLayer &lp = layers[l];
        // Input products for every step at once: rows of
        // embedding * wx0 in layer 0, one stacked GEMM above it.
        const Matrix proj =
            l ? stackHidden(tape->state[l - 1]).matmul(lp.wx.value())
              : embedding.value().matmul(lp.wx.value());
        std::vector<StepState> &st = tape->state[l];
        st.resize(steps);
        for (std::size_t t = 0; t < steps; ++t) {
            StepState &s = st[t];
            for (Matrix *m : {&s.i, &s.f, &s.g, &s.o, &s.c, &s.tc, &s.h})
                *m = Matrix(batch, h);
            for (std::size_t b = 0; b < batch; ++b) {
                const std::size_t row =
                    l ? t * batch + b : tape->ids[t * batch + b];
                std::memcpy(z.data() + b * 4 * h,
                            proj.data() + row * 4 * h,
                            4 * h * sizeof(double));
            }
            stepForward(lp, t ? st[t - 1].h : zeros,
                        t ? st[t - 1].c : zeros, z, zh,
                        {s.i, s.f, s.g, s.o, s.c, s.tc, s.h, fc, ig});
        }
    }

    auto node = std::make_shared<TensorNode>();
    node->value = tape->state.back().back().h;
    node->name = "lstm";
    node->parents.push_back(embedding.node());
    for (const LstmLayer &lp : layers)
        for (const Tensor *p : {&lp.wx, &lp.wh, &lp.b})
            node->parents.push_back(p->node());
    for (const auto &p : node->parents)
        node->requiresGrad = node->requiresGrad || p->requiresGrad;
    if (node->requiresGrad)
        node->backward = [tape](TensorNode &self) {
            backwardStack(*tape, self);
        };
    return Tensor(std::move(node));
}

LstmEncoder::LstmEncoder(const LstmConfig &cfg, Rng &rng) : cfg_(cfg)
{
    HWPR_CHECK(cfg.vocab > 0 && cfg.hidden > 0 && cfg.layers > 0,
               "invalid LSTM configuration");
    embedding_ = Tensor::param(
        Matrix::xavier(cfg.vocab, cfg.embedDim, rng), "lstm.embed");
    std::size_t in = cfg.embedDim;
    for (std::size_t l = 0; l < cfg.layers; ++l) {
        LstmLayer lp;
        lp.wx = Tensor::param(Matrix::xavier(in, 4 * cfg.hidden, rng),
                              "lstm.wx" + std::to_string(l));
        lp.wh = Tensor::param(
            Matrix::xavier(cfg.hidden, 4 * cfg.hidden, rng),
            "lstm.wh" + std::to_string(l));
        // Forget-gate bias initialized to 1 (standard trick) so early
        // training does not erase the cell state.
        Matrix bias(1, 4 * cfg.hidden);
        for (std::size_t j = cfg.hidden; j < 2 * cfg.hidden; ++j)
            bias(0, j) = 1.0;
        lp.b = Tensor::param(std::move(bias),
                             "lstm.b" + std::to_string(l));
        layerParams_.push_back(lp);
        in = cfg.hidden;
    }
}

Tensor
LstmEncoder::forward(
    const std::vector<std::vector<std::size_t>> &sequences) const
{
    std::vector<const std::vector<std::size_t> *> ptrs;
    ptrs.reserve(sequences.size());
    for (const auto &s : sequences)
        ptrs.push_back(&s);
    return forward(ptrs);
}

Tensor
LstmEncoder::forward(
    const std::vector<const std::vector<std::size_t> *> &sequences)
    const
{
    return lstmStack(embedding_, layerParams_, sequences);
}

const Matrix &
LstmEncoder::encodeBatchInto(
    const std::vector<std::vector<std::size_t>> &sequences,
    PredictScratch &scratch) const
{
    HWPR_CHECK(!sequences.empty(), "empty LSTM batch");
    const std::size_t batch = sequences.size();
    const std::size_t steps = sequences[0].size();
    for (const auto &s : sequences)
        HWPR_CHECK(s.size() == steps,
                   "LSTM batch requires equal-length sequences");
    const std::size_t h = cfg_.hidden;

    // Layer 0's input products are rows of the (vocab x 4h) table
    // embedding * wx0, as in lstmStack: row id of it is the same
    // ascending-k chain as the product of a gathered row id. The
    // table is vocab rows of products per call where the per-step
    // products were steps x batch rows.
    Matrix &table = scratch.acquire(cfg_.vocab, 4 * h);
    embedding_.value().matmulInto(layerParams_[0].wx.value(), table);
    // One hidden-state snapshot per step: layer l reads snapshot t (the
    // layer below's h_t) into its input product before the step
    // overwrites it with its own h_t, so all layers share the same
    // `steps` buffers.
    std::vector<Matrix *> snap(steps);
    for (std::size_t t = 0; t < steps; ++t)
        snap[t] = &scratch.acquire(batch, h);

    Matrix &z = scratch.acquire(batch, 4 * h);
    Matrix &zh = scratch.acquire(batch, 4 * h);
    Matrix &zeros = scratch.acquire(batch, h, true);
    Matrix &c = scratch.acquire(batch, h);
    Matrix &i_g = scratch.acquire(batch, h);
    Matrix &f_g = scratch.acquire(batch, h);
    Matrix &g_g = scratch.acquire(batch, h);
    Matrix &o_g = scratch.acquire(batch, h);

    for (std::size_t l = 0; l < layerParams_.size(); ++l) {
        const LstmLayer &lp = layerParams_[l];
        c.fill(0.0);
        for (std::size_t t = 0; t < steps; ++t) {
            if (l)
                snap[t]->matmulInto(lp.wx.value(), z);
            else
                for (std::size_t b = 0; b < batch; ++b) {
                    const std::size_t id = sequences[b][t];
                    HWPR_ASSERT(id < cfg_.vocab, "token OOB");
                    std::memcpy(z.data() + b * 4 * h,
                                table.data() + id * 4 * h,
                                4 * h * sizeof(double));
                }
            stepForward(lp, t ? *snap[t - 1] : zeros, c, z, zh,
                        {i_g, f_g, g_g, o_g, c, g_g, *snap[t], f_g,
                         i_g});
        }
    }
    return *snap[steps - 1];
}

std::vector<Tensor>
LstmEncoder::params() const
{
    std::vector<Tensor> out = {embedding_};
    for (const auto &lp : layerParams_) {
        out.push_back(lp.wx);
        out.push_back(lp.wh);
        out.push_back(lp.b);
    }
    return out;
}

} // namespace hwpr::nn
