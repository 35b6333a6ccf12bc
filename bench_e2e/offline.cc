/**
 * @file
 * The three offline workloads: pipeline, search and screen.
 */

#include <cmath>
#include <cstring>
#include <memory>

#include "bench_common.h"
#include "baselines/brpnas.h"
#include "baselines/gates.h"
#include "baselines/lut.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "core/dominance.h"
#include "core/hwprnas.h"
#include "core/scalable.h"
#include "nasbench/dataset.h"
#include "pareto/pareto.h"
#include "search/moea.h"
#include "search/report.h"
#include "workloads.h"

namespace hwpr::e2e
{

namespace
{

constexpr auto kDataset = nasbench::DatasetId::Cifar10;
constexpr auto kPlatform = hw::PlatformId::EdgeGpu;

/** search::Evaluator decorator that spans every call into the
 *  surrogate, so MOEA selection time is the search span's self time. */
class TimedEvaluator : public search::Evaluator
{
  public:
    TimedEvaluator(search::Evaluator &inner, const char *eval_span)
        : inner_(inner), evalSpan_(eval_span)
    {}

    search::EvalKind kind() const override { return inner_.kind(); }
    std::string name() const override { return inner_.name(); }
    std::size_t numObjectives() const override
    {
        return inner_.numObjectives();
    }
    double simulatedCostSeconds(std::size_t batch) const override
    {
        return inner_.simulatedCostSeconds(batch);
    }
    bool hasPredictedDominance() const override
    {
        return inner_.hasPredictedDominance();
    }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        Span s(evalSpan_);
        return inner_.evaluate(archs);
    }

    std::vector<double> predictedDominanceCounts(
        const std::vector<nasbench::Architecture> &archs) override
    {
        Span s("core.dominance_counts");
        return inner_.predictedDominanceCounts(archs);
    }

  private:
    search::Evaluator &inner_;
    const char *evalSpan_;
};

/**
 * True objectives of @p archs, labelled on the shared pool with one
 * oracle per chunk (an oracle's record cache is not thread-safe). On
 * the reference machine single-threaded work runs at one of two
 * speeds, 1.5x apart, for seconds at a time, so labelling set-up
 * fixtures on one thread made setup_s swing between processes.
 */
std::vector<pareto::Point>
labelObjectives(const std::vector<nasbench::Architecture> &archs)
{
    Span s("nasbench.label");
    std::vector<pareto::Point> out(archs.size());
    ExecContext::global().pool->parallelFor(
        0, archs.size(), 64, [&](std::size_t begin, std::size_t end) {
            nasbench::Oracle oracle(kDataset);
            for (std::size_t i = begin; i < end; ++i)
                out[i] = search::trueObjectives(oracle.record(archs[i]),
                                                kPlatform);
        });
    return out;
}

/** benchx::buildReferenceCloud's cloud, labelled on the pool: the
 *  normalising true front and the hypervolume reference point (nadir
 *  + 5%) of @p n random union architectures. */
benchx::ReferenceCloud
hvReference(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    const auto domain = search::SearchDomain::unionBenchmarks();
    std::vector<nasbench::Architecture> archs;
    for (std::size_t i = 0; i < n; ++i)
        archs.push_back(domain.sample(rng));
    benchx::ReferenceCloud cloud;
    cloud.objectives = labelObjectives(archs);
    Span s("pareto.front");
    for (std::size_t idx : pareto::nonDominatedIndices(cloud.objectives))
        cloud.trueFront.push_back(cloud.objectives[idx]);
    cloud.refPoint = pareto::nadirReference(cloud.objectives, 0.05);
    return cloud;
}

core::TrainConfig
fitConfig(std::size_t epochs)
{
    core::TrainConfig tc;
    tc.epochs = epochs;
    tc.patience = epochs; // no early stop: every fit does equal work
    tc.learningRate = 3e-3; // short fits: a raised rate still learns
    tc.combinerEpochs = 2;
    return tc;
}

} // namespace

nasbench::SampledDataset
label(const nasbench::Oracle &oracle, std::size_t total,
      std::uint64_t seed)
{
    Span s("nasbench.label");
    Rng rng(seed);
    return nasbench::SampledDataset::sample(
        {&nasbench::nasBench201(), &nasbench::fbnet()}, oracle, total,
        total * 7 / 10, total * 2 / 10, rng);
}

core::SurrogateDataset
surrogateData(const nasbench::SampledDataset &data)
{
    core::SurrogateDataset ds;
    ds.train = data.select(data.trainIdx);
    ds.val = data.select(data.valIdx);
    ds.platform = kPlatform;
    return ds;
}

std::unique_ptr<core::Surrogate>
fitFamily(const std::string &family, const core::SurrogateDataset &ds,
          std::size_t epochs, std::uint64_t seed)
{
    Span s("core.fit");
    const core::TrainConfig tc = fitConfig(epochs);
    core::PredictorTrainConfig pc;
    pc.epochs = epochs;
    pc.patience = epochs;
    pc.lr = 1.5e-3;
    if (family == "hwprnas") {
        auto m = std::make_unique<core::HwPrNas>(core::HwPrNasConfig{},
                                                 kDataset, seed);
        m->train(ds.train, ds.val, ds.platform, tc);
        return m;
    }
    if (family == "scalable") {
        auto m = std::make_unique<core::ScalableHwPrNas>(
            core::ScalableConfig{}, kDataset, seed);
        m->train(ds.train, ds.val, ds.platform, tc);
        return m;
    }
    if (family == "brpnas") {
        auto m = std::make_unique<baselines::BrpNas>(
            core::EncoderConfig::fast(), kDataset, seed);
        m->train(ds.train, ds.val, ds.platform, pc);
        return m;
    }
    if (family == "gates") {
        auto m = std::make_unique<baselines::Gates>(
            core::EncoderConfig::fast(), kDataset, seed);
        m->train(ds.train, ds.val, ds.platform, pc);
        return m;
    }
    if (family == "lut") {
        auto m = std::make_unique<baselines::LatencyLut>(kDataset,
                                                         ds.platform);
        ExecContext ctx = ExecContext::global().withSeed(seed);
        m->fit(ds, ctx);
        return m;
    }
    core::DominanceConfig dc;
    dc.encoder.gcnHidden = 16;
    dc.encoder.lstmHidden = 16;
    dc.encoder.embedDim = 8;
    dc.headHidden = {32, 16};
    dc.referenceSize = 32;
    dc.maxPairsPerEpoch = 2000;
    auto m = std::make_unique<core::DominanceSurrogate>(dc, kDataset, seed);
    core::TrainConfig dt = tc;
    dt.batchSize = 64;
    m->train(ds.train, ds.val, ds.platform, dt);
    return m;
}

std::unique_ptr<core::Surrogate>
loadChecked(const std::string &path)
{
    Span s("core.checkpoint_load");
    auto m = core::loadSurrogate(path);
    HWPR_CHECK(m != nullptr, "cannot reload checkpoint '", path, "'");
    return m;
}

void
saveChecked(const core::Surrogate &m, const std::string &path)
{
    Span s("core.checkpoint_save");
    HWPR_CHECK(m.save(path), "cannot write checkpoint '", path, "'");
}

namespace
{

/** What beginOp() noted when an operation started. */
struct OpStart
{
    bool traced;
    double t0;
};

/**
 * Operation 0 is an untimed warm-up (first-touch allocation, lazy
 * freezes); timing starts with operation 1. A traced run traces the
 * odd operations and leaves the even ones untraced, as the baseline
 * of the overhead estimate.
 */
OpStart
beginOp(const RunConfig &cfg, std::size_t k)
{
    const bool on = cfg.trace && k % 2 == 1;
    Tracer::instance().setEnabled(on);
    resetPeakHeap();
    return {on, nowSec()};
}

void
endOp(RunResult &r, const RunConfig &cfg, std::size_t k,
      const OpStart &start)
{
    const double sec = nowSec() - start.t0;
    if (k == 0)
        return;
    r.opSec.push_back(sec);
    r.opHeapMb.push_back(peakHeapMb());
    if (cfg.trace)
        (start.traced ? r.tracedOpSec : r.untracedOpSec).push_back(sec);
}

bool
finitePoints(const std::vector<pareto::Point> &pts)
{
    for (const auto &p : pts)
        for (double v : p)
            if (!std::isfinite(v))
                return false;
    return true;
}

} // namespace

// ---------------------------------------------------------------------
// pipeline: label -> fit -> rank-only MOEA -> fp64 re-score -> oracle
// front -> hypervolume, the paper's whole flow once per operation.
// ---------------------------------------------------------------------

RunResult
runPipeline(const RunConfig &cfg)
{
    const std::size_t samples = cfg.smoke ? 120 : 300;
    const std::size_t epochs = cfg.smoke ? 2 : 6;
    const std::size_t heldout = cfg.smoke ? 200 : 1000;
    const std::size_t cloud = cfg.smoke ? 500 : 4000;
    search::MoeaConfig mc;
    mc.populationSize = cfg.smoke ? 24 : 100;
    mc.maxGenerations = cfg.smoke ? 5 : 40;
    mc.simulatedBudgetSeconds = 0.0;
    const auto domain = search::SearchDomain::unionBenchmarks();

    struct State
    {
        std::vector<nasbench::Architecture> heldout;
        std::vector<double> heldoutRank;
        benchx::ReferenceCloud hv;
    };
    const auto make = [&] {
        auto s = std::make_unique<State>();
        s->hv = hvReference(cloud, subSeed(cfg.seed, 2));
        s->heldout = FreshArchs(subSeed(cfg.seed, 1)).take(heldout);
        const auto objs = labelObjectives(s->heldout);
        Span front("pareto.front");
        for (int rank : pareto::paretoRanks(objs))
            s->heldoutRank.push_back(-double(rank)); // higher = better
        return s;
    };
    // This set-up is short (about 0.2 s) and partly single-threaded,
    // and such work on the reference machine runs at one of two speeds
    // for seconds at a time. Set-ups taken back to back mostly met one
    // speed (setup_s spread 16-35% over ten runs; 5-7% this way), so
    // three happen first and one more after every operation.
    RunResult r;
    const auto st = setUp<State>(r, cfg, "setup.pipeline", make, 0.0);

    std::vector<double> taus, hvs;
    double deadline = 0.0;
    for (std::size_t k = 0; k < 2 || nowSec() < deadline; ++k) {
        if (k == 1)
            deadline = nowSec() + cfg.seconds;
        const OpStart start = beginOp(cfg, k);
        std::unique_ptr<core::Surrogate> model;
        search::SearchResult result;
        search::FrontReport front;
        double hv = 0.0;
        {
            Span root("op.pipeline", k);
            nasbench::Oracle oracle(kDataset);
            const auto data =
                label(oracle, samples, subSeed(cfg.seed, 100 + k));
            model = fitFamily("hwprnas", surrogateData(data), epochs,
                              subSeed(cfg.seed, 200 + k));
            core::SurrogateEvaluator fast(*model);
            fast.setRankOnly(true);
            TimedEvaluator timed(fast, "core.eval.hwprnas");
            Rng rng(subSeed(cfg.seed, 300 + k));
            {
                Span s("search.moea.hwprnas");
                result = search::Moea(mc).run(domain, timed, rng);
            }
            {
                Span s("search.rescore");
                core::SurrogateEvaluator fp64(*model);
                fp64.setRankOnly(false);
                search::rescoreFitness(result, fp64);
            }
            {
                Span s("nasbench.measure_front");
                front = search::measureFront(result, oracle, kPlatform);
            }
            {
                Span s("pareto.hypervolume");
                hv = pareto::normalizedHypervolume(front.front,
                                                   st->hv.trueFront,
                                                   st->hv.refPoint);
            }
        }
        endOp(r, cfg, k, start);
        Tracer::instance().setEnabled(false);

        r.attempted += 6; // label, fit, search, re-score, front, HV
        if (result.population.size() != mc.populationSize ||
            !finitePoints(result.fitness))
            r.fail("pipeline " + std::to_string(k) +
                   ": bad final population");
        if (front.front.empty() || !(hv > 0.0 && hv <= 1.5))
            r.fail("pipeline " + std::to_string(k) + ": front HV " +
                   std::to_string(hv));
        core::BatchPlan plan;
        const Matrix &scores = model->predictBatch(st->heldout, plan);
        std::vector<double> col(scores.rows());
        for (std::size_t i = 0; i < col.size(); ++i)
            col[i] = scores(i, 0);
        const double tau = kendallTau(col, st->heldoutRank);
        if (!std::isfinite(tau))
            r.fail("pipeline " + std::to_string(k) + ": rank tau " +
                   std::to_string(tau));
        taus.push_back(tau);
        hvs.push_back(hv);
        if (k == 0)
            r.fingerprints["pipeline"] = fingerprint(result.population);
        if (k > 0 && !cfg.smoke)
            timedSetUp(r, cfg, "setup.pipeline", make);
    }
    Tracer::instance().setEnabled(false);

    const Quantiles q = quantiles(r.opSec);
    r.workload["pipeline_s"] = {q.p50, "s"};
    // Quality of the first pipeline only: later ones exist only when
    // time allows, and equal seeds must give equal values.
    r.workload["rank_tau"] = {taus.front(), "tau"};
    r.workload["pipeline_hv"] = {hvs.front(), "ratio"};
    return r;
}

// ---------------------------------------------------------------------
// search: HW-PR-NAS top-k, BRP-NAS NSGA-II and dominance selection
// from the same initial population, each ending with fp64 re-score,
// oracle front and normalised hypervolume (paper Fig. 7).
// ---------------------------------------------------------------------

RunResult
runSearch(const RunConfig &cfg)
{
    const std::size_t samples = cfg.smoke ? 120 : 300;
    const std::size_t epochs = 2;
    const std::size_t cloud = cfg.smoke ? 500 : 4000;
    /** Rounds whose quality and fingerprints are reported. */
    const std::size_t fixedRounds = cfg.smoke ? 1 : 4;
    search::MoeaConfig base;
    base.populationSize = cfg.smoke ? 24 : 100;
    base.maxGenerations = cfg.smoke ? 5 : 30;
    base.simulatedBudgetSeconds = 0.0;
    const auto domain = search::SearchDomain::unionBenchmarks();

    struct Method
    {
        const char *family;
        const char *evalSpan;
        const char *searchSpan;
    };
    static const Method kMethods[] = {
        {"hwprnas", "core.eval.hwprnas", "search.moea.hwprnas"},
        {"brpnas", "core.eval.brpnas", "search.moea.brpnas"},
        {"dominance", "core.eval.dominance", "search.moea.dominance"},
    };

    struct State
    {
        benchx::ReferenceCloud hv;
    };
    // The surrogates are trained from one fixed seed, not the run's: how
    // fast a HW-PR-NAS search converges, and so how often its rank cache
    // hits, depends on the trained model (0.24 s or 0.36 s per search
    // between run seeds). Every run searches the same landscape; the
    // run seed picks the rounds' initial populations and mutations.
    constexpr std::uint64_t kModelSeed = 1;
    RunResult r;
    const auto st = setUp<State>(r, cfg, "setup.search", [&] {
        auto s = std::make_unique<State>();
        nasbench::Oracle oracle(kDataset);
        const auto data = label(oracle, samples, subSeed(kModelSeed, 1));
        const auto ds = surrogateData(data);
        for (const Method &m : kMethods)
            saveChecked(*fitFamily(m.family, ds, epochs,
                                   subSeed(kModelSeed, 10)),
                        cfg.outDir + "/search_" + m.family + ".ckpt");
        s->hv = hvReference(cloud, subSeed(cfg.seed, 2));
        return s;
    });

    std::map<std::string, std::vector<double>> perFamily;
    std::vector<double> hvs;
    double deadline = 0.0;
    for (std::size_t k = 0;
         k < std::max<std::size_t>(2, fixedRounds) || nowSec() < deadline;
         ++k) {
        if (k == 1)
            deadline = nowSec() + cfg.seconds;
        const OpStart start = beginOp(cfg, k);
        std::vector<std::string> problems;
        {
            Span root("op.search", k);
            for (const Method &m : kMethods) {
                const double f0 = nowSec();
                const auto model = loadChecked(
                    cfg.outDir + "/search_" + m.family + ".ckpt");
                core::SurrogateEvaluator fast(*model);
                fast.setRankOnly(true);
                TimedEvaluator timed(fast, m.evalSpan);
                search::MoeaConfig mc = base;
                mc.dominanceSelection =
                    std::strcmp(m.family, "dominance") == 0;
                // Same engine seed for every method: one initial
                // population per round.
                Rng rng(subSeed(cfg.seed, 1000 + k));
                search::SearchResult result;
                {
                    Span s(m.searchSpan);
                    result = search::Moea(mc).run(domain, timed, rng);
                }
                {
                    Span s("search.rescore");
                    core::SurrogateEvaluator fp64(*model);
                    fp64.setRankOnly(false);
                    search::rescoreFitness(result, fp64);
                }
                nasbench::Oracle oracle(kDataset);
                search::FrontReport front;
                {
                    Span s("nasbench.measure_front");
                    front =
                        search::measureFront(result, oracle, kPlatform);
                }
                double hv = 0.0;
                {
                    Span s("pareto.hypervolume");
                    hv = pareto::normalizedHypervolume(
                        front.front, st->hv.trueFront, st->hv.refPoint);
                }
                if (k > 0)
                    perFamily[m.family].push_back(nowSec() - f0);

                if (result.population.size() != mc.populationSize ||
                    !finitePoints(result.fitness) ||
                    front.front.empty() || !(hv > 0.0 && hv <= 1.5))
                    problems.push_back(std::string(m.family) +
                                       " round " + std::to_string(k) +
                                       ": bad front (hv " +
                                       std::to_string(hv) + ")");
                if (k < fixedRounds) {
                    hvs.push_back(hv);
                    r.fingerprints[std::string("search.") + m.family] +=
                        fingerprint(result.population);
                }
            }
        }
        endOp(r, cfg, k, start);
        r.attempted += std::size(kMethods);
        for (const auto &p : problems)
            r.fail(p);
    }
    Tracer::instance().setEnabled(false);

    for (const auto &[family, times] : perFamily)
        r.workload["search_s." + family] = {quantiles(times).p50, "s"};
    r.workload["front_hv"] = {mean(hvs), "ratio"};
    return r;
}

// ---------------------------------------------------------------------
// screen: every family scores a stream of never-repeated architectures
// at batch 256, through predictBatch and then rankBatch.
// ---------------------------------------------------------------------

RunResult
runScreen(const RunConfig &cfg)
{
    const std::size_t samples = cfg.smoke ? 120 : 300;
    // Two epochs leave HW-PR-NAS scores so compressed that its int8
    // rank path fell to tau 0.96 on some seeds; three keep every
    // family above the 0.98 gate.
    const std::size_t epochs = 3;
    const std::size_t batch = cfg.smoke ? 64 : 256;
    static const char *const kFamilies[] = {
        "hwprnas", "scalable", "brpnas", "gates", "lut", "dominance"};
    static const char *const kPredictSpan[] = {
        "core.predict.hwprnas", "core.predict.scalable",
        "core.predict.brpnas",  "core.predict.gates",
        "core.predict.lut",     "core.predict.dominance"};
    static const char *const kRankSpan[] = {
        "core.rank.hwprnas", "core.rank.scalable", "core.rank.brpnas",
        "core.rank.gates",   "core.rank.lut",      "core.rank.dominance"};
    constexpr std::size_t kN = std::size(kFamilies);

    FreshArchs stream(subSeed(cfg.seed, 3));
    const auto ckpt = [&](std::size_t f) {
        return cfg.outDir + "/screen_" + kFamilies[f] + ".ckpt";
    };
    // Freeze the rank path before anything is timed (lazy set-up
    // belongs to set-up), always on the same architectures, which are
    // never screened.
    const auto warmArchs = FreshArchs(subSeed(cfg.seed, 9)).take(16);
    stream.exclude(warmArchs);
    const auto warm = [&](core::Surrogate &m) {
        Span s("core.warm");
        core::BatchPlan plan;
        m.predictBatch(warmArchs, plan);
        m.rankBatch(warmArchs, plan);
    };

    struct State
    {
        std::unique_ptr<core::Surrogate> models[kN];
    };
    RunResult r;
    auto st = setUp<State>(r, cfg, "setup.screen", [&] {
        auto s = std::make_unique<State>();
        nasbench::Oracle oracle(kDataset);
        const auto data = label(oracle, samples, subSeed(cfg.seed, 1));
        const auto ds = surrogateData(data);
        for (std::size_t f = 0; f < kN; ++f) {
            s->models[f] = fitFamily(kFamilies[f], ds, epochs,
                                     subSeed(cfg.seed, 20 + f));
            saveChecked(*s->models[f], ckpt(f));
            warm(*s->models[f]);
        }
        return s;
    });

    std::vector<double> predictSec[kN], rankSec[kN];
    // (fp64, rank) column pairs of the first kTauRows rows per family
    // for the tau check; bounded, so memory does not grow with speed.
    constexpr std::size_t kTauRows = 4096;
    std::vector<std::vector<double>> fp64Col[kN], rankCol[kN];
    double deadline = 0.0;
    for (std::size_t k = 0; k < 2 || nowSec() < deadline; ++k) {
        if (k == 1)
            deadline = nowSec() + cfg.seconds;
        // Every batch meets cold models, plans and rank caches,
        // rebuilt untimed. Both keep memory per distinct architecture
        // or batch shape (tens of kB), so reusing them would make
        // memory, and with it peak_rss_mb, grow with loop speed.
        if (k > 0)
            for (std::size_t f = 0; f < kN; ++f) {
                st->models[f] = loadChecked(ckpt(f));
                warm(*st->models[f]);
            }
        core::BatchPlan predictPlan[kN], rankPlan[kN];
        const auto archs = stream.take(batch);
        // Outputs live in their plans until that plan's next call.
        const Matrix *pred[kN], *rank[kN];
        const OpStart start = beginOp(cfg, k);
        {
            Span root("op.screen", k);
            for (std::size_t f = 0; f < kN; ++f) {
                const double a = nowSec();
                {
                    Span s(kPredictSpan[f]);
                    pred[f] = &st->models[f]->predictBatch(
                        archs, predictPlan[f]);
                }
                const double b = nowSec();
                {
                    Span s(kRankSpan[f]);
                    rank[f] =
                        &st->models[f]->rankBatch(archs, rankPlan[f]);
                }
                if (k > 0) {
                    predictSec[f].push_back(b - a);
                    rankSec[f].push_back(nowSec() - b);
                }
            }
        }
        endOp(r, cfg, k, start);
        Tracer::instance().setEnabled(false);

        // Batched rows must equal single-architecture answers bit for
        // bit; one sampled row per family per batch.
        const std::size_t row = (k * 37) % batch;
        for (std::size_t f = 0; f < kN; ++f) {
            r.attempted += 2;
            const Matrix &p = *pred[f];
            const Matrix &q = *rank[f];
            core::BatchPlan singlePlan;
            const Matrix &one = st->models[f]->predictBatch(
                std::span(archs).subspan(row, 1), singlePlan);
            if (p.rows() != batch || q.rows() != batch ||
                q.cols() != p.cols() || one.cols() != p.cols() ||
                std::memcmp(one.data(), p.data() + row * p.cols(),
                            sizeof(double) * p.cols()) != 0)
                r.fail(std::string(kFamilies[f]) + " batch " +
                       std::to_string(k) +
                       ": batched row differs from single-arch answer");
            fp64Col[f].resize(p.cols());
            rankCol[f].resize(p.cols());
            for (std::size_t c = 0; c < p.cols(); ++c)
                for (std::size_t i = 0;
                     i < batch && fp64Col[f][c].size() < kTauRows; ++i) {
                    fp64Col[f][c].push_back(p(i, c));
                    rankCol[f][c].push_back(q(i, c));
                }
        }
    }
    Tracer::instance().setEnabled(false);

    double predictTotal = 0.0, rankTotal = 0.0;
    for (std::size_t f = 0; f < kN; ++f) {
        const double p = quantiles(predictSec[f]).p50;
        const double q = quantiles(rankSec[f]).p50;
        predictTotal += p;
        rankTotal += q;
        r.layer[std::string("core.predict_us_per_arch.") + kFamilies[f]] =
            p * 1e6 / double(batch);
        r.layer[std::string("core.rank_us_per_arch.") + kFamilies[f]] =
            q * 1e6 / double(batch);
        for (std::size_t c = 0; c < fp64Col[f].size(); ++c) {
            const double tau = kendallTau(fp64Col[f][c], rankCol[f][c]);
            if (!(tau >= 0.98))
                r.fail(std::string(kFamilies[f]) +
                       ": rank-vs-predict tau " + std::to_string(tau) +
                       " < 0.98 (column " + std::to_string(c) + ")");
        }
    }
    // One batch through all six families, per path.
    r.workload["screen_predict_archs_per_s"] = {
        double(batch) / predictTotal, "1/s"};
    r.workload["screen_rank_archs_per_s"] = {double(batch) / rankTotal,
                                             "1/s"};
    return r;
}

} // namespace hwpr::e2e
