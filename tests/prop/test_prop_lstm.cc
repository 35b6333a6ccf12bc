/**
 * @file
 * Differential property tests for the fused LSTM op (nn::lstmStack):
 * its output and every gradient must equal, bit for bit (memcmp, so
 * the sign of zero counts), those of the composed autodiff graph it
 * replaced — embedding gather, then per layer and step
 * z = add(matmul(x_t, wx), matmul(h, wh)) plus the bias row, four
 * sliceCols gate panels through sigmoid/tanh,
 * c = add(mul(f, c), mul(i, g)) and h = mul(o, tanhT(c)), from zero
 * h and c. That graph is built here, from the same parameters, as the
 * oracle.
 *
 * Cases draw vocab, embedding and hidden sizes (225 and other
 * non-multiples of 4 included), 1-3 layers, 1-24 steps and 1-140 rows,
 * so recurrent products pass the 65,536 multiply-add pool fan-out.
 * Parameters carry exact +0/-0 entries, gradients start from a
 * nonzero prior with signed zeros, random parameters are frozen, the
 * embedding table is sometimes a non-leaf (its gradient is the input
 * sequence's, scattered), and some losses read two forward passes.
 * Every case runs at 1 and 4 threads, which must also agree, and the
 * inference path (encodeBatchInto) must match the op's value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/matrix.h"
#include "common/prop.h"
#include "common/threadpool.h"
#include "nn/lstm.h"
#include "nn/scratch.h"
#include "nn/tensor.h"

using namespace hwpr;
using namespace hwpr::nn;

namespace
{

struct LstmCase
{
    std::size_t vocab = 1, embed = 1, hidden = 1, layers = 1;
    std::size_t steps = 1, batch = 1, batch2 = 0; // batch2 > 0: two passes
    bool leafEmbedding = true;
    std::uint64_t seed = 0;
};

std::string
showCase(const LstmCase &c)
{
    std::ostringstream out;
    out << "{vocab " << c.vocab << ", embed " << c.embed << ", hidden "
        << c.hidden << ", layers " << c.layers << ", steps " << c.steps
        << ", batch " << c.batch << ", batch2 " << c.batch2
        << (c.leafEmbedding ? ", leaf" : ", non-leaf")
        << " embedding, seed " << c.seed << "}";
    return out.str();
}

/** Multiply-adds of one forward pass (input + recurrent products). */
std::size_t
forwardMacs(const LstmCase &c)
{
    const std::size_t rows = c.steps * (c.batch + c.batch2);
    return rows * 4 * c.hidden *
           (c.embed + (c.layers - 1) * c.hidden + c.layers * c.hidden);
}

prop::Gen<LstmCase>
caseGen()
{
    prop::Gen<LstmCase> g;
    g.sample = [](Rng &rng) {
        LstmCase c;
        c.vocab = 1 + rng.index(24);
        c.embed = 1 + rng.index(40);
        const double roll = rng.uniform();
        c.hidden = roll < 0.15   ? 225
                   : roll < 0.25 ? 233 + rng.index(8)
                                 : 1 + rng.index(72);
        c.layers = 1 + rng.index(3);
        c.steps = 1 + rng.index(24);
        c.batch = 1 + rng.index(140);
        c.batch2 = rng.bernoulli(0.3) ? 1 + rng.index(140) : 0;
        c.leafEmbedding = rng.bernoulli(0.7);
        c.seed = rng.engine()();
        // Bound each case's work: shorter sequences first, then fewer
        // layers and rows.
        constexpr std::size_t kBudget = std::size_t(3) << 24;
        while (forwardMacs(c) > kBudget) {
            if (c.steps > 2)
                c.steps /= 2;
            else if (c.layers > 1)
                --c.layers;
            else if (c.batch > 1 || c.batch2 > 1) {
                c.batch = std::max<std::size_t>(1, c.batch / 2);
                c.batch2 /= 2;
            } else
                break;
        }
        return c;
    };
    g.shrink = [](const LstmCase &c) {
        std::vector<LstmCase> out;
        auto with = [&](auto edit) {
            LstmCase d = c;
            edit(d);
            out.push_back(d);
        };
        if (c.batch2)
            with([](LstmCase &d) { d.batch2 = 0; });
        if (c.layers > 1)
            with([](LstmCase &d) { --d.layers; });
        if (c.steps > 1)
            with([](LstmCase &d) { d.steps = (d.steps + 1) / 2; });
        if (c.batch > 1)
            with([](LstmCase &d) { d.batch = (d.batch + 1) / 2; });
        if (c.hidden > 1)
            with([](LstmCase &d) { d.hidden = (d.hidden + 1) / 2; });
        if (c.embed > 1)
            with([](LstmCase &d) { d.embed = (d.embed + 1) / 2; });
        if (!c.leafEmbedding)
            with([](LstmCase &d) { d.leafEmbedding = true; });
        return out;
    };
    return g;
}

/** The composed graph lstmStack replaced, op for op. */
Tensor
composedLstm(const Tensor &embedding, const std::vector<LstmLayer> &layers,
             const std::vector<std::vector<std::size_t>> &seqs)
{
    const std::size_t batch = seqs.size();
    const std::size_t steps = seqs[0].size();
    const std::size_t h = layers[0].wh.rows();
    std::vector<Tensor> inputs(steps);
    std::vector<std::size_t> ids(batch);
    for (std::size_t t = 0; t < steps; ++t) {
        for (std::size_t b = 0; b < batch; ++b)
            ids[b] = seqs[b][t];
        inputs[t] = gatherRows(embedding, ids);
    }
    for (const LstmLayer &lp : layers) {
        Tensor h_t = Tensor::constant(Matrix(batch, h), "h0");
        Tensor c_t = Tensor::constant(Matrix(batch, h), "c0");
        for (std::size_t t = 0; t < steps; ++t) {
            Tensor z = addRowBroadcast(
                add(matmul(inputs[t], lp.wx), matmul(h_t, lp.wh)),
                lp.b);
            Tensor i_g = sigmoid(sliceCols(z, 0, h));
            Tensor f_g = sigmoid(sliceCols(z, h, 2 * h));
            Tensor g_g = tanhT(sliceCols(z, 2 * h, 3 * h));
            Tensor o_g = sigmoid(sliceCols(z, 3 * h, 4 * h));
            c_t = add(mul(f_g, c_t), mul(i_g, g_g));
            h_t = mul(o_g, tanhT(c_t));
            inputs[t] = h_t;
        }
    }
    return inputs[steps - 1];
}

/** A value mix with exact zeros of both signs. */
double
drawValue(Rng &rng, double scale)
{
    const double roll = rng.uniform();
    if (roll < 0.05)
        return 0.0;
    if (roll < 0.1)
        return -0.0;
    return rng.normal(0.0, scale);
}

std::vector<std::vector<std::size_t>>
drawSequences(Rng &rng, std::size_t batch, std::size_t steps,
              std::size_t vocab)
{
    std::vector<std::vector<std::size_t>> seqs(
        batch, std::vector<std::size_t>(steps));
    for (auto &s : seqs)
        for (auto &tok : s)
            tok = rng.index(vocab);
    return seqs;
}

/** Everything one run produces, for bitwise comparison. */
struct RunResult
{
    std::vector<Matrix> outputs;
    std::vector<Matrix> grads; ///< every parameter, then the table's
};

bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
                0);
}

std::optional<std::string>
compare(const RunResult &want, const RunResult &got, const char *what)
{
    for (std::size_t p = 0; p < want.outputs.size(); ++p)
        if (!sameBits(want.outputs[p], got.outputs[p]))
            return std::string(what) + ": output of pass " +
                   std::to_string(p) + " differs";
    for (std::size_t k = 0; k < want.grads.size(); ++k)
        if (!sameBits(want.grads[k], got.grads[k]))
            return std::string(what) + ": gradient " +
                   std::to_string(k) + " differs";
    return std::nullopt;
}

/** Model, data and gradient priors of one case. */
class Fixture
{
  public:
    explicit Fixture(const LstmCase &c) : case_(c)
    {
        Rng rng(c.seed);
        LstmConfig cfg;
        cfg.vocab = c.vocab;
        cfg.embedDim = c.embed;
        cfg.hidden = c.hidden;
        cfg.layers = c.layers;
        encoder_.emplace(cfg, rng);
        params_ = encoder_->params();
        for (Tensor &p : params_)
            for (double &v : p.valueMut().raw())
                if (rng.uniform() < 0.1)
                    v = drawValue(rng, 0.0);
        for (std::size_t l = 0; l < c.layers; ++l)
            layers_.push_back(
                {params_[1 + 3 * l], params_[2 + 3 * l], params_[3 + 3 * l]});
        for (Tensor &p : params_) {
            Matrix prior(p.rows(), p.cols());
            for (double &v : prior.raw())
                v = drawValue(rng, 1.0);
            priors_.push_back(std::move(prior));
            if (rng.bernoulli(0.25))
                p.node()->requiresGrad = false;
        }
        seqs_.push_back(drawSequences(rng, c.batch, c.steps, c.vocab));
        if (c.batch2)
            seqs_.push_back(
                drawSequences(rng, c.batch2, c.steps, c.vocab));
        for (const auto &s : seqs_) {
            Matrix w(s.size(), c.hidden);
            for (double &v : w.raw())
                v = drawValue(rng, 1.0);
            weights_.push_back(std::move(w));
        }
    }

    const LstmEncoder &encoder() const { return *encoder_; }
    const std::vector<std::vector<std::size_t>> &
    sequences(std::size_t pass) const
    {
        return seqs_[pass];
    }

    /**
     * Reset every parameter gradient to its prior, run the passes
     * through @p fused or the composed graph, back-propagate
     * sum(out * w) over all passes and collect the results.
     */
    RunResult
    run(bool fused)
    {
        for (std::size_t k = 0; k < params_.size(); ++k)
            params_[k].gradMut() = priors_[k];
        // A non-leaf table: tanh of the embedding parameter, rebuilt
        // per run so its gradient starts from zero each time.
        Tensor table = params_[0];
        if (!case_.leafEmbedding)
            table = tanhT(params_[0]);
        RunResult res;
        Tensor loss;
        for (std::size_t p = 0; p < seqs_.size(); ++p) {
            std::vector<const std::vector<std::size_t> *> ptrs;
            for (const auto &s : seqs_[p])
                ptrs.push_back(&s);
            const Tensor out = fused ? lstmStack(table, layers_, ptrs)
                                     : composedLstm(table, layers_,
                                                    seqs_[p]);
            res.outputs.push_back(out.value());
            const Tensor term = sumAll(
                mul(out, Tensor::constant(weights_[p], "w")));
            loss = loss.valid() ? add(loss, term) : term;
        }
        if (loss.requiresGrad())
            backward(loss);
        for (const Tensor &p : params_)
            res.grads.push_back(p.grad());
        if (!case_.leafEmbedding)
            res.grads.push_back(table.grad());
        return res;
    }

  private:
    LstmCase case_;
    std::optional<LstmEncoder> encoder_;
    std::vector<Tensor> params_;
    std::vector<LstmLayer> layers_;
    std::vector<Matrix> priors_;
    std::vector<std::vector<std::vector<std::size_t>>> seqs_;
    std::vector<Matrix> weights_;
};

} // namespace

TEST(PropLstm, FusedOpMatchesComposedGraphBitForBit)
{
    const std::size_t before = ExecContext::global().threads();
    const auto r = prop::forAll<LstmCase>(
        prop::Config::fromEnv(0x157A11ED, 30), caseGen(), showCase,
        [](const LstmCase &c) -> std::optional<std::string> {
            Fixture fx(c);
            std::optional<RunResult> serial;
            for (std::size_t threads : {1u, 4u}) {
                ExecContext::setGlobalThreads(threads);
                const RunResult oracle = fx.run(false);
                const RunResult fused = fx.run(true);
                const std::string at =
                    " at " + std::to_string(threads) + " threads";
                if (auto err = compare(oracle, fused,
                                       ("fused vs composed" + at).c_str()))
                    return err;
                if (serial) {
                    if (auto err = compare(*serial, fused,
                                           ("thread variance" + at).c_str()))
                        return err;
                } else {
                    serial = fused;
                }
                // The inference path runs the same step routine.
                PredictScratch scratch;
                if (c.leafEmbedding &&
                    !sameBits(fx.encoder().encodeBatchInto(
                                  fx.sequences(0), scratch),
                              fused.outputs[0]))
                    return "encodeBatchInto differs from the op" + at;
            }
            return std::nullopt;
        });
    ExecContext::setGlobalThreads(before);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropLstm, PaperSizedStackMatchesComposedGraph)
{
    // The paper's latency branch: 225 hidden units, two layers, the
    // NAS-Bench-201 token vocabulary and a full training batch, at
    // 1 and 4 threads.
    LstmCase c;
    c.vocab = 20;
    c.embed = 32;
    c.hidden = 225;
    c.layers = 2;
    c.steps = 3;
    c.batch = 128;
    c.seed = 0x225;
    const std::size_t before = ExecContext::global().threads();
    Fixture fx(c);
    for (std::size_t threads : {1u, 4u}) {
        ExecContext::setGlobalThreads(threads);
        const auto err =
            compare(fx.run(false), fx.run(true), "paper-sized stack");
        EXPECT_FALSE(err) << *err << " at " << threads << " threads";
    }
    ExecContext::setGlobalThreads(before);
}
