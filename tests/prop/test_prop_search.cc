/**
 * @file
 * Property tests for the shared search-budget contract across both
 * drivers (RandomSearch, Moea): the budget is checked before every
 * charge, so the accounted simulated cost never exceeds the budget;
 * stoppedByBudget is set iff the budget (not the cap) ended the run;
 * a budget below even the first charge yields an empty budget-stopped
 * result; and same-seed runs are bit-identical.
 *
 * These properties are what flushed out the Moea post-charge budget
 * test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.h"
#include "search/moea.h"

using namespace hwpr;
using namespace hwpr::search;

namespace
{

/** Cost per evaluation; powers of two keep the accounting exact. */
constexpr double kCost = 8.0;

/** Deterministic two-objective evaluator with a pure batch cost. */
class ToyEvaluator : public Evaluator
{
  public:
    EvalKind kind() const override
    {
        return EvalKind::ObjectiveVector;
    }
    std::string name() const override { return "toy"; }
    std::size_t numObjectives() const override { return 2; }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        std::vector<pareto::Point> out;
        out.reserve(archs.size());
        for (const auto &a : archs) {
            double sum = 0.0, alt = 0.0;
            for (std::size_t i = 0; i < a.genome.size(); ++i) {
                sum += double(a.genome[i]);
                alt += (i % 2 ? -1.0 : 1.0) * double(a.genome[i]);
            }
            out.push_back({sum, alt});
        }
        return out;
    }

    double
    simulatedCostSeconds(std::size_t batch) const override
    {
        return kCost * double(batch);
    }
};

struct Scenario
{
    int driver = 0; // 0 random, 1 moea
    int pop = 2;
    int cap = 1;          // evals / generations
    int budget_units = 0; // budget = units * kCost / 2 (0 = disabled)
    std::uint64_t seed = 1;
};

prop::Gen<Scenario>
scenarioGen()
{
    prop::Gen<Scenario> g;
    g.sample = [](Rng &rng) {
        Scenario s;
        s.driver = rng.intIn(0, 1);
        s.pop = rng.intIn(2, 5);
        s.cap = rng.intIn(1, s.driver == 1 ? 5 : 16);
        s.budget_units = rng.intIn(0, 40);
        s.seed = std::uint64_t(rng.intIn(1, 1 << 20));
        return s;
    };
    g.shrink = [](const Scenario &s) {
        std::vector<Scenario> out;
        auto push = [&out](Scenario c) { out.push_back(c); };
        if (s.budget_units > 0) {
            Scenario c = s;
            c.budget_units = 0;
            push(c);
        }
        if (s.cap > 1) {
            Scenario c = s;
            c.cap = 1;
            push(c);
        }
        if (s.pop > 2) {
            Scenario c = s;
            c.pop = 2;
            push(c);
        }
        return out;
    };
    return g;
}

std::string
showScenario(const Scenario &s)
{
    std::ostringstream msg;
    msg << "driver=" << s.driver << " pop=" << s.pop
        << " cap=" << s.cap << " budget=" << s.budget_units * kCost / 2
        << " seed=" << s.seed;
    return msg.str();
}

struct RunOutcome
{
    SearchResult result;
    std::size_t cap_count = 0;  // cap in driver-native units
    std::size_t seed_batch = 1; // size of the first charge
    std::size_t step_batch = 1; // size of every later charge
    bool cap_reached = false;
};

RunOutcome
runScenario(const Scenario &s)
{
    const SearchDomain domain = SearchDomain::unionBenchmarks();
    ToyEvaluator eval;
    Rng rng(s.seed);
    const double budget = s.budget_units * kCost / 2.0;

    RunOutcome out;
    if (s.driver == 0) {
        RandomSearchConfig cfg;
        cfg.budget = std::size_t(s.cap);
        cfg.keep = std::size_t(s.pop);
        cfg.simulatedBudgetSeconds = budget;
        out.result = RandomSearch(cfg).run(domain, eval, rng);
        out.cap_count = cfg.budget;
        out.cap_reached = out.result.stats.evaluations == cfg.budget;
    } else {
        MoeaConfig cfg;
        cfg.populationSize = std::size_t(s.pop);
        cfg.maxGenerations = std::size_t(s.cap);
        cfg.simulatedBudgetSeconds = budget;
        out.result = Moea(cfg).run(domain, eval, rng);
        out.cap_count = cfg.maxGenerations;
        out.seed_batch = cfg.populationSize;
        out.step_batch = cfg.populationSize;
        out.cap_reached =
            out.result.stats.generations == cfg.maxGenerations;
    }
    return out;
}

} // namespace

TEST(PropSearch, BudgetContractHoldsAcrossAllDrivers)
{
    const auto r = prop::forAll<Scenario>(
        prop::Config::fromEnv(0x5EA4C401, 600), scenarioGen(),
        showScenario,
        [](const Scenario &s) -> std::optional<std::string> {
            const double budget = s.budget_units * kCost / 2.0;
            const RunOutcome run = runScenario(s);
            const SearchStats &st = run.result.stats;

            // Charged cost is exactly cost-per-eval * evaluations and
            // never exceeds an enabled budget.
            if (st.simulatedSeconds !=
                kCost * double(st.evaluations))
                return "simulatedSeconds does not equal evaluations "
                       "times the unit cost";
            if (budget > 0.0 && st.simulatedSeconds > budget)
                return "charged past the simulated budget";

            if (st.stoppedByBudget) {
                if (budget <= 0.0)
                    return "stoppedByBudget with the budget disabled";
                // The budget could not fund the next charge.
                const std::size_t next = st.evaluations == 0
                                             ? run.seed_batch
                                             : run.step_batch;
                if (st.simulatedSeconds + kCost * double(next) <=
                    budget)
                    return "stopped although the next charge was "
                           "affordable";
                if (st.evaluations == 0 &&
                    !run.result.population.empty())
                    return "empty-budget run returned a population";
            } else {
                if (!run.cap_reached)
                    return "run neither budget-stopped nor completed "
                           "its cap";
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropSearch, SameSeedRunsAreBitIdentical)
{
    const auto r = prop::forAll<Scenario>(
        prop::Config::fromEnv(0x5EA4C402, 300), scenarioGen(),
        showScenario,
        [](const Scenario &s) -> std::optional<std::string> {
            const RunOutcome a = runScenario(s);
            const RunOutcome b = runScenario(s);
            const SearchStats &sa = a.result.stats;
            const SearchStats &sb = b.result.stats;
            if (sa.evaluations != sb.evaluations ||
                sa.generations != sb.generations ||
                sa.simulatedSeconds != sb.simulatedSeconds ||
                sa.stoppedByBudget != sb.stoppedByBudget)
                return "same-seed stats diverged";
            if (a.result.fitness != b.result.fitness)
                return "same-seed fitness diverged";
            if (a.result.population.size() !=
                b.result.population.size())
                return "same-seed population size diverged";
            for (std::size_t i = 0; i < a.result.population.size();
                 ++i) {
                if (a.result.population[i].space !=
                        b.result.population[i].space ||
                    a.result.population[i].genome !=
                        b.result.population[i].genome)
                    return "same-seed population diverged";
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
