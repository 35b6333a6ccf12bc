#include "search/moea.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <numeric>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/obs.h"
#include "common/serialize.h"
#include "nasbench/space.h"
#include "pareto/pareto.h"

namespace hwpr::search
{

namespace
{

// Algorithm 1's operator rates (Sec. IV-C1).
/** Probability that an offspring is mutated at all. */
constexpr double kMutationRate = 0.9;
/** Per-gene resampling probability of crossover and mutation. */
constexpr double kPerGeneMutationRate = 0.15;
/** Probability that an offspring is a crossover child. */
constexpr double kCrossoverProb = 0.9;
/** Candidates per parent tournament. */
constexpr std::size_t kTournamentSize = 2;

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/**
 * NSGA-II survival: fill by non-dominated rank, break the last front
 * by crowding distance.
 */
std::vector<std::size_t>
nsga2Select(const std::vector<pareto::Point> &fitness, std::size_t keep)
{
    const auto fronts = pareto::paretoFronts(fitness);
    std::vector<std::size_t> survivors;
    for (const auto &front : fronts) {
        if (survivors.size() + front.size() <= keep) {
            survivors.insert(survivors.end(), front.begin(),
                             front.end());
            if (survivors.size() == keep)
                break;
            continue;
        }
        // Partial front: keep the least crowded members.
        std::vector<pareto::Point> pts;
        pts.reserve(front.size());
        for (std::size_t i : front)
            pts.push_back(fitness[i]);
        const auto crowd = pareto::crowdingDistance(pts);
        std::vector<std::size_t> order(front.size());
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return crowd[a] > crowd[b];
                  });
        for (std::size_t k = 0;
             k < order.size() && survivors.size() < keep; ++k)
            survivors.push_back(front[order[k]]);
        break;
    }
    return survivors;
}

/**
 * Current front hypervolume for a generation span's attribute. Only
 * meaningful for vector fitness; scalar (ParetoScore) runs return 0.
 * Callers gate this on obs::tracingEnabled() — it is pure extra
 * computation (no RNG, no state) and must stay off the disabled path.
 */
double
traceHypervolume(const std::vector<pareto::Point> &fit, EvalKind kind)
{
    if (kind != EvalKind::ObjectiveVector || fit.empty())
        return 0.0;
    return pareto::hypervolume(fit,
                               pareto::nadirReference(fit, 0.1));
}

/**
 * Classification-wise survival (MoeaConfig::dominanceSelection):
 * top-k by predicted dominance count, ties broken by scalar fitness
 * (a Pareto score — higher is better — since only score-kind
 * dominance evaluators reach this path), then by index, so the
 * ordering is deterministic for any count/fitness pattern.
 */
std::vector<std::size_t>
dominanceCountSelect(const std::vector<double> &counts,
                     const std::vector<pareto::Point> &fitness,
                     std::size_t keep)
{
    std::vector<std::size_t> order(counts.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (counts[a] != counts[b])
                      return counts[a] > counts[b];
                  if (fitness[a][0] != fitness[b][0])
                      return fitness[a][0] > fitness[b][0];
                  return a < b;
              });
    order.resize(std::min(keep, order.size()));
    return order;
}

/** Top-k by scalar Pareto score (descending). */
std::vector<std::size_t>
scoreSelect(const std::vector<pareto::Point> &fitness, std::size_t keep)
{
    std::vector<std::size_t> order(fitness.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return fitness[a][0] > fitness[b][0];
              });
    order.resize(std::min(keep, order.size()));
    return order;
}

} // namespace

std::vector<std::size_t>
Moea::select(const std::vector<pareto::Point> &fitness, EvalKind kind,
             std::size_t keep) const
{
    return kind == EvalKind::ParetoScore ? scoreSelect(fitness, keep)
                                         : nsga2Select(fitness, keep);
}

SearchResult
Moea::run(const SearchDomain &domain, Evaluator &evaluator,
          Rng &rng) const
{
    return run(domain, evaluator, rng, CheckpointOptions{});
}

SearchResult
Moea::run(const SearchDomain &domain, Evaluator &evaluator, Rng &rng,
          const CheckpointOptions &ckpt) const
{
    const double t0 = nowSeconds();
    SearchResult result;
    const std::size_t n = cfg_.populationSize;
    HWPR_CHECK(n >= 2, "population size must be at least 2");
    HWPR_SPAN("moea.run",
              {{"population", double(n)},
               {"max_generations", double(cfg_.maxGenerations)}});

    // Budget gate, checked BEFORE every charge so the accounted cost
    // never exceeds the budget (shared semantics with RandomSearch;
    // holds exactly for cost models that are pure in the batch
    // size).
    auto wouldExceed = [&](std::size_t batch) {
        return cfg_.simulatedBudgetSeconds > 0.0 &&
               result.stats.simulatedSeconds +
                       evaluator.simulatedCostSeconds(batch) >
                   cfg_.simulatedBudgetSeconds;
    };

    std::vector<nasbench::Architecture> pop;
    std::vector<pareto::Point> fit;
    if (ckpt.resume) {
        // Continue exactly where the snapshot stopped: restore the
        // population, accounting and RNG engine, and skip the initial
        // sampling. The budget flag is recomputed below, so resuming
        // a budget-stopped run under a larger budget makes progress.
        HWPR_CHECK(ckpt.resume->populationSize == n &&
                       ckpt.resume->population.size() == n,
                   "checkpoint population size does not match the "
                   "search configuration");
        HWPR_CHECK(rng.restoreState(ckpt.resume->rngState),
                   "corrupt RNG state in search checkpoint");
        pop = ckpt.resume->population;
        fit = ckpt.resume->fitness;
        result.stats = ckpt.resume->stats;
        result.stats.stoppedByBudget = false;
    } else {
        // A budget below the initial-population cost returns an empty
        // budget-stopped result instead of overshooting (no
        // checkpoint is written — an empty population would not
        // satisfy the resume size check).
        if (wouldExceed(n)) {
            result.stats.stoppedByBudget = true;
            result.stats.wallSeconds = nowSeconds() - t0;
            lastStats_ = result.stats;
            return result;
        }
        // Initial population P_0, evaluated with the plugged
        // evaluator. Populations are always handed to evaluate()
        // whole so batched surrogates (core::SurrogateEvaluator)
        // amortize encoding and fan the forward pass out over the
        // shared thread pool.
        pop.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            pop.push_back(domain.sample(rng));
        fit = evaluator.evaluate(pop);
        result.stats.evaluations += pop.size();
        result.stats.simulatedSeconds +=
            evaluator.simulatedCostSeconds(pop.size());
    }
    const double wall0 = result.stats.wallSeconds;

    auto writeCheckpoint = [&]() {
        if (ckpt.dir.empty())
            return;
        MoeaCheckpoint ck;
        ck.populationSize = n;
        ck.stats = result.stats;
        ck.stats.wallSeconds = wall0 + nowSeconds() - t0;
        ck.rngState = rng.saveState();
        ck.population = pop;
        ck.fitness = fit;
        if (!saveMoeaCheckpoint(ckpt.dir + "/moea.ckpt", ck))
            warn("failed to write search checkpoint to ", ckpt.dir);
    };
    // Each state is written once: a restored one is on disk already.
    if (!ckpt.resume)
        writeCheckpoint();

    // Tournament parent selection. For vector evaluators the
    // tournament compares Pareto ranks (recomputed per generation);
    // for score evaluators it compares predicted scores directly.
    std::vector<int> ranks;
    auto better = [&](std::size_t a, std::size_t b) {
        if (evaluator.kind() == EvalKind::ParetoScore)
            return fit[a][0] > fit[b][0];
        return ranks[a] < ranks[b];
    };
    auto tournament = [&]() {
        std::size_t best = rng.index(pop.size());
        for (std::size_t k = 1; k < kTournamentSize; ++k) {
            const std::size_t cand = rng.index(pop.size());
            if (better(cand, best))
                best = cand;
        }
        return best;
    };

    for (std::size_t gen = result.stats.generations;
         gen < cfg_.maxGenerations; ++gen) {
        // Stop before a generation whose offspring batch the budget
        // cannot fund; the charged total never passes the budget.
        if (wouldExceed(n)) {
            result.stats.stoppedByBudget = true;
            break;
        }
        obs::Span gen_span("moea.generation",
                           {{"gen", double(gen)}});
        if (evaluator.kind() == EvalKind::ObjectiveVector)
            ranks = pareto::paretoRanks(fit);

        // Offspring Q_t via crossover + mutation.
        std::vector<nasbench::Architecture> offspring;
        offspring.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t pa = tournament();
            const std::size_t pb = tournament();
            nasbench::Architecture child =
                rng.uniform() < kCrossoverProb
                    ? domain.crossover(pop[pa], pop[pb],
                                       kPerGeneMutationRate, rng)
                    : pop[pa];
            if (rng.uniform() < kMutationRate)
                child = domain.mutate(child, kPerGeneMutationRate, rng);
            offspring.push_back(std::move(child));
        }

        std::vector<pareto::Point> off_fit =
            evaluator.evaluate(offspring);
        result.stats.evaluations += offspring.size();
        result.stats.simulatedSeconds +=
            evaluator.simulatedCostSeconds(offspring.size());

        // Merge P_t and Q_t (dropping duplicate genomes — elitist
        // selection over a deterministic surrogate would otherwise
        // collapse the population onto copies of one architecture),
        // then elitist survival selection.
        std::vector<nasbench::Architecture> merged;
        std::vector<pareto::Point> merged_fit;
        {
            std::unordered_set<nasbench::Architecture,
                               nasbench::ArchHash>
                seen;
            auto push = [&](const nasbench::Architecture &a,
                            const pareto::Point &f) {
                if (seen.insert(a).second) {
                    merged.push_back(a);
                    merged_fit.push_back(f);
                }
            };
            for (std::size_t i = 0; i < pop.size(); ++i)
                push(pop[i], fit[i]);
            for (std::size_t i = 0; i < offspring.size(); ++i)
                push(offspring[i], off_fit[i]);
        }

        // Environmental selection: classification-wise (predicted
        // dominance counts) when configured and the evaluator has a
        // pairwise head; elitist fitness selection otherwise.
        std::vector<std::size_t> survivors;
        if (cfg_.dominanceSelection &&
            evaluator.hasPredictedDominance()) {
            const std::vector<double> counts =
                evaluator.predictedDominanceCounts(merged);
            HWPR_CHECK(counts.size() == merged.size(),
                       "predicted dominance counts do not cover the "
                       "merged population");
            survivors = dominanceCountSelect(counts, merged_fit, n);
        } else {
            survivors = select(merged_fit, evaluator.kind(), n);
        }
        std::vector<nasbench::Architecture> next_pop;
        std::vector<pareto::Point> next_fit;
        next_pop.reserve(n);
        next_fit.reserve(n);
        for (std::size_t idx : survivors) {
            next_pop.push_back(merged[idx]);
            next_fit.push_back(merged_fit[idx]);
        }
        // Deduplication can leave fewer than n unique survivors once
        // the search converges; pad by cycling through the survivors
        // in selection order (fittest first, then the rest) so the
        // population (and offspring budget) stays constant.
        while (next_pop.size() < n && !next_pop.empty()) {
            const std::size_t src =
                next_pop.size() % survivors.size();
            next_pop.push_back(next_pop[src]);
            next_fit.push_back(next_fit[src]);
        }
        pop = std::move(next_pop);
        fit = std::move(next_fit);
        ++result.stats.generations;
        gen_span.arg("evals", double(result.stats.evaluations));
        if (obs::tracingEnabled())
            gen_span.arg("hypervolume",
                         traceHypervolume(fit, evaluator.kind()));
        writeCheckpoint();
    }
    // A budget stop changes only the stop flag of the last state.
    if (result.stats.stoppedByBudget)
        writeCheckpoint();

    result.population = std::move(pop);
    result.fitness = std::move(fit);
    result.stats.wallSeconds = wall0 + nowSeconds() - t0;
    if (obs::metricsEnabled()) {
        auto &reg = obs::Registry::global();
        reg.counter("moea.evaluations")
            .add(result.stats.evaluations);
        reg.counter("moea.generations")
            .add(result.stats.generations);
        reg.gauge("moea.wall_seconds").set(result.stats.wallSeconds);
    }
    lastStats_ = result.stats;
    return result;
}

bool
saveMoeaCheckpoint(const std::string &path, const MoeaCheckpoint &ck)
{
    return atomicSave(path, [&ck](BinaryWriter &w) {
        writeHeader(w, "moea-checkpoint", 1);
        w.writeU64(ck.populationSize);
        w.writeDouble(ck.stats.wallSeconds);
        w.writeDouble(ck.stats.simulatedSeconds);
        w.writeU64(ck.stats.evaluations);
        w.writeU64(ck.stats.generations);
        w.writeU64(ck.stats.stoppedByBudget ? 1 : 0);
        w.writeString(ck.rngState);
        w.writeU64(ck.population.size());
        for (const auto &arch : ck.population) {
            w.writeU64(std::uint64_t(arch.space));
            w.writeU64(arch.genome.size());
            for (int g : arch.genome)
                w.writeI64(g);
        }
        w.writeU64(ck.fitness.size());
        for (const auto &p : ck.fitness)
            w.writeDoubles(p);
    });
}

bool
loadMoeaCheckpoint(const std::string &path, MoeaCheckpoint &ck)
{
    std::string body;
    if (!readVerified(path, body))
        return false;
    std::istringstream in(body, std::ios::binary);
    BinaryReader r(in);
    if (readHeader(r, "moea-checkpoint") != 1)
        return false;

    MoeaCheckpoint out;
    out.populationSize = std::size_t(r.readU64());
    out.stats.wallSeconds = r.readDouble();
    out.stats.simulatedSeconds = r.readDouble();
    out.stats.evaluations = std::size_t(r.readU64());
    out.stats.generations = std::size_t(r.readU64());
    out.stats.stoppedByBudget = r.readU64() != 0;
    out.rngState = r.readString();

    const std::uint64_t pop_count = r.readU64();
    constexpr std::uint64_t kMaxPopulation = 1ull << 20;
    if (!r.ok() || pop_count > kMaxPopulation)
        return false;
    out.population.reserve(pop_count);
    for (std::uint64_t i = 0; i < pop_count; ++i) {
        const std::uint64_t space_raw = r.readU64();
        const std::uint64_t len = r.readU64();
        if (!r.ok() ||
            space_raw > std::uint64_t(nasbench::SpaceId::FBNet))
            return false;
        const auto space_id = nasbench::SpaceId(space_raw);
        const auto &space = nasbench::spaceFor(space_id);
        if (len != space.genomeLength())
            return false;
        nasbench::Architecture arch;
        arch.space = space_id;
        arch.genome.reserve(len);
        for (std::uint64_t pos = 0; pos < len; ++pos) {
            const std::int64_t g = r.readI64();
            if (!r.ok() || g < 0 ||
                std::uint64_t(g) >= space.numOptions(pos))
                return false;
            arch.genome.push_back(int(g));
        }
        out.population.push_back(std::move(arch));
    }

    const std::uint64_t fit_count = r.readU64();
    if (!r.ok() || fit_count != pop_count)
        return false;
    out.fitness.reserve(fit_count);
    for (std::uint64_t i = 0; i < fit_count; ++i) {
        pareto::Point p = r.readDoubles();
        if (!r.ok() || p.empty() || p.size() > 64)
            return false;
        out.fitness.push_back(std::move(p));
    }

    // The engine state must parse, or resume would silently restart
    // the random sequence.
    Rng probe(0);
    if (!probe.restoreState(out.rngState))
        return false;

    ck = std::move(out);
    return true;
}

SearchResult
RandomSearch::run(const SearchDomain &domain, Evaluator &evaluator,
                  Rng &rng) const
{
    const double t0 = nowSeconds();
    SearchResult result;
    HWPR_SPAN("search.random.run", {{"budget", double(cfg_.budget)}});

    std::vector<nasbench::Architecture> sampled;
    sampled.reserve(cfg_.budget);
    double simulated = 0.0;
    for (std::size_t i = 0; i < cfg_.budget; ++i) {
        if (cfg_.simulatedBudgetSeconds > 0.0 &&
            simulated + evaluator.simulatedCostSeconds(1) >
                cfg_.simulatedBudgetSeconds) {
            result.stats.stoppedByBudget = true;
            break;
        }
        sampled.push_back(domain.sample(rng));
        simulated += evaluator.simulatedCostSeconds(1);
    }
    if (sampled.empty()) {
        // The simulated budget cannot even cover one evaluation.
        // Return an empty result — flagged as budget-stopped — rather
        // than aborting: sweep drivers iterate over budget grids and
        // must be able to skip the degenerate points.
        result.stats.stoppedByBudget = true;
        result.stats.wallSeconds = nowSeconds() - t0;
        lastStats_ = result.stats;
        return result;
    }

    std::vector<pareto::Point> fit = evaluator.evaluate(sampled);
    result.stats.evaluations = sampled.size();
    result.stats.simulatedSeconds = simulated;

    const std::size_t keep = std::min(cfg_.keep, sampled.size());
    const auto survivors =
        evaluator.kind() == EvalKind::ParetoScore
            ? scoreSelect(fit, keep)
            : nsga2Select(fit, keep);
    for (std::size_t idx : survivors) {
        result.population.push_back(sampled[idx]);
        result.fitness.push_back(fit[idx]);
    }
    result.stats.wallSeconds = nowSeconds() - t0;
    if (obs::metricsEnabled())
        obs::Registry::global()
            .counter("search.random.evaluations")
            .add(result.stats.evaluations);
    lastStats_ = result.stats;
    return result;
}

} // namespace hwpr::search
