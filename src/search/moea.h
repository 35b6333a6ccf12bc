/**
 * @file
 * Multi-objective evolutionary search (paper Algorithm 1) and random
 * search, both parameterized by an Evaluator.
 *
 * The MOEA follows the paper's configuration: tournament parent
 * selection, uniform crossover + point mutation (rate 0.9), merge of
 * parents and offspring, and elitist survival selection — NSGA-II
 * rank + crowding for vector evaluators, top-k by predicted Pareto
 * score for HW-PR-NAS. The final Pareto front size k equals the
 * population size.
 */

#ifndef HWPR_SEARCH_MOEA_H
#define HWPR_SEARCH_MOEA_H

#include <cstddef>
#include <string>
#include <vector>

#include "search/domain.h"
#include "search/evaluator.h"

namespace hwpr::search
{

/** Accounting of a finished search run. */
struct SearchStats
{
    /** Actual wall-clock of the search loop, seconds. */
    double wallSeconds = 0.0;
    /** Simulated testbed cost charged by the evaluator, seconds. */
    double simulatedSeconds = 0.0;
    /** Number of architecture evaluations requested. */
    std::size_t evaluations = 0;
    /** Generations completed. */
    std::size_t generations = 0;
    /**
     * True when the simulated budget — not the evaluation/generation
     * cap — stopped the search. Shared semantics across RandomSearch
     * and Moea: both drivers check the budget before charging, so a
     * budget-stopped run never accounts more simulated cost than the
     * budget (a budget below even the first charge yields an empty,
     * budget-stopped result), and the flag is false when the run
     * completed its cap within budget.
     */
    bool stoppedByBudget = false;
};

/** Final population of a search run with its fitness values. */
struct SearchResult
{
    std::vector<nasbench::Architecture> population;
    /** Evaluator outputs for the population (objectives or scores). */
    std::vector<pareto::Point> fitness;
    SearchStats stats;
};

/**
 * Generation-level snapshot of an in-progress MOEA run: everything
 * needed to continue the search exactly where it stopped. Resuming
 * from the checkpoint written at the end of generation k reproduces
 * the uninterrupted same-seed run bit for bit — each generation is a
 * pure function of (population, fitness, stats, RNG engine state),
 * and the Rng helpers construct their distributions fresh per call,
 * so the engine state alone pins the remaining random sequence.
 */
struct MoeaCheckpoint
{
    /** Config echo; resume rejects a mismatched population size. */
    std::size_t populationSize = 0;
    SearchStats stats;
    /** Textual std::mt19937_64 state (Rng::saveState). */
    std::string rngState;
    std::vector<nasbench::Architecture> population;
    std::vector<pareto::Point> fitness;
};

/**
 * Atomically write a search checkpoint (kind "moea-checkpoint") with
 * a CRC32 footer. Returns false when the write fails; any previous
 * checkpoint at @p path survives intact in that case.
 */
bool saveMoeaCheckpoint(const std::string &path,
                        const MoeaCheckpoint &ck);

/**
 * Load and verify a checkpoint written by saveMoeaCheckpoint.
 * Returns false — leaving @p ck untouched — on any corruption:
 * CRC/footer mismatch, wrong kind, out-of-range genomes, fitness or
 * RNG state that does not parse.
 */
bool loadMoeaCheckpoint(const std::string &path, MoeaCheckpoint &ck);

/** Crash-safety knobs for Moea::run. */
struct CheckpointOptions
{
    /** Directory receiving "moea.ckpt" after the initial population,
     *  every generation and the final state; empty disables
     *  checkpointing. Must already exist. */
    std::string dir;
    /** Resume from this snapshot instead of sampling a fresh
     *  population; nullptr starts from scratch. */
    const MoeaCheckpoint *resume = nullptr;
};

/**
 * MOEA configuration (paper defaults, Sec. IV-C1). The operator rates
 * are Algorithm 1 constants (moea.cc).
 */
struct MoeaConfig
{
    std::size_t populationSize = 150;
    std::size_t maxGenerations = 250;
    /** Simulated testbed budget (paper: 24 h); 0 disables. */
    double simulatedBudgetSeconds = 24.0 * 3600.0;
    /**
     * Classification-wise environmental selection (Ma et al.'s
     * Pareto-wise ranking classifier): survivors of the merged
     * parent+offspring population are the top-k by *predicted
     * dominance count* — how many other members the evaluator's
     * pairwise head predicts each one dominates — with ties broken by
     * fitness, then index. Requires an evaluator whose
     * hasPredictedDominance() is true; otherwise the flag is ignored
     * and the fitness-based rule applies. Tournament parent selection
     * and checkpointed fitness stay score-based either way, and any
     * *reported* front must still be re-scored in fp64
     * (search::rescoreFitness).
     */
    bool dominanceSelection = false;
};

/** Multi-objective evolutionary algorithm (Algorithm 1). */
class Moea
{
  public:
    explicit Moea(const MoeaConfig &cfg) : cfg_(cfg) {}

    /** Run the search. */
    SearchResult run(const SearchDomain &domain, Evaluator &evaluator,
                     Rng &rng) const;

    /**
     * Run with crash-safe checkpointing and/or resume. With a
     * checkpoint directory set, the search state lands on disk after
     * the initial evaluation and after every generation, so a killed
     * process can continue from the last completed generation; with
     * @p ckpt.resume set, the run picks up from that snapshot (the
     * evaluator and config must match the original run for the
     * trajectory to be reproduced).
     */
    SearchResult run(const SearchDomain &domain, Evaluator &evaluator,
                     Rng &rng, const CheckpointOptions &ckpt) const;

    const MoeaConfig &config() const { return cfg_; }

    /**
     * Accounting of the most recent run() on this instance (a copy of
     * the returned result's stats, kept for callers that only hold
     * the searcher). Zeros before the first run.
     */
    const SearchStats &searchStats() const { return lastStats_; }

  private:
    /**
     * Elitist survival selection over merged parents + offspring;
     * returns indices of the survivors (population-size many).
     */
    std::vector<std::size_t>
    select(const std::vector<pareto::Point> &fitness, EvalKind kind,
           std::size_t keep) const;

    MoeaConfig cfg_;
    /** run() is const (it only reads config); stats are bookkeeping. */
    mutable SearchStats lastStats_;
};

/** Random-search configuration. */
struct RandomSearchConfig
{
    /** Architectures to sample and evaluate. */
    std::size_t budget = 1000;
    /** Survivors kept for the final front (paper: population size). */
    std::size_t keep = 150;
    /** Simulated testbed budget; 0 disables. */
    double simulatedBudgetSeconds = 24.0 * 3600.0;
};

/** Random search with the same elitist final selection. */
class RandomSearch
{
  public:
    explicit RandomSearch(const RandomSearchConfig &cfg) : cfg_(cfg) {}

    SearchResult run(const SearchDomain &domain, Evaluator &evaluator,
                     Rng &rng) const;

    /** Accounting of the most recent run() (see Moea::searchStats). */
    const SearchStats &searchStats() const { return lastStats_; }

  private:
    RandomSearchConfig cfg_;
    mutable SearchStats lastStats_;
};

} // namespace hwpr::search

#endif // HWPR_SEARCH_MOEA_H
