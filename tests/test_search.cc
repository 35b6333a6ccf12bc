/**
 * @file
 * Search-algorithm tests: domain genetic operators over the union
 * space, MOEA convergence (hypervolume improves over random), score
 * vs vector selection semantics, budget accounting, and front
 * measurement.
 */

#include <gtest/gtest.h>

#include "pareto/pareto.h"
#include "search/domain.h"
#include "search/moea.h"
#include "search/report.h"

using namespace hwpr;
using namespace hwpr::search;

namespace
{

/** Cheap objective evaluator used to test the search machinery:
 *  objective 1 = number of conv3x3 genes (negated), objective 2 =
 *  number of non-zero genes — a toy trade-off with a known optimum. */
class ToyEvaluator : public Evaluator
{
  public:
    EvalKind kind() const override { return EvalKind::ObjectiveVector; }
    std::string name() const override { return "toy"; }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        std::vector<pareto::Point> out;
        for (const auto &a : archs) {
            double convs = 0.0, active = 0.0;
            for (int g : a.genome) {
                if (g == 3)
                    convs += 1.0;
                if (g != 0)
                    active += 1.0;
            }
            out.push_back({-convs, active});
        }
        return out;
    }

    double
    simulatedCostSeconds(std::size_t batch) const override
    {
        return double(batch) * costPerEval;
    }

    double costPerEval = 0.0;
};

/** Toy Pareto-score evaluator: score = number of conv3x3 genes, so
 *  the optimum is the all-conv cell. */
class ToyScoreEvaluator : public Evaluator
{
  public:
    EvalKind kind() const override { return EvalKind::ParetoScore; }
    std::string name() const override { return "toy-score"; }
    std::size_t numObjectives() const override { return 1; }

    std::vector<pareto::Point>
    evaluate(const std::vector<nasbench::Architecture> &archs) override
    {
        std::vector<pareto::Point> out;
        for (const auto &a : archs) {
            double convs = 0.0;
            for (int g : a.genome)
                if (g == 3)
                    convs += 1.0;
            out.push_back({convs});
        }
        return out;
    }
};

} // namespace

TEST(Domain, SingleSpaceSampling)
{
    const auto domain = SearchDomain::single(nasbench::nasBench201());
    Rng rng(1);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(domain.sample(rng).space,
                  nasbench::SpaceId::NasBench201);
}

TEST(Domain, UnionSamplesBothSpaces)
{
    const auto domain = SearchDomain::unionBenchmarks();
    Rng rng(2);
    int nb = 0, fb = 0;
    for (int i = 0; i < 100; ++i) {
        const auto a = domain.sample(rng);
        (a.space == nasbench::SpaceId::NasBench201 ? nb : fb)++;
    }
    EXPECT_GT(nb, 20);
    EXPECT_GT(fb, 20);
}

TEST(Domain, CrossSpaceCrossoverFallsBackToMutation)
{
    const auto domain = SearchDomain::unionBenchmarks();
    Rng rng(3);
    nasbench::Architecture a = nasbench::nasBench201().sample(rng);
    nasbench::Architecture b = nasbench::fbnet().sample(rng);
    const auto child = domain.crossover(a, b, 0.2, rng);
    EXPECT_TRUE(child.space == a.space || child.space == b.space);
    nasbench::spaceFor(child.space).checkArch(child);
}

TEST(TrueEvaluatorTest, ObjectivesMatchOracle)
{
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    TrueEvaluator eval(oracle, hw::PlatformId::Pixel3);
    Rng rng(4);
    const auto a = nasbench::nasBench201().sample(rng);
    const auto pts = eval.evaluate({a});
    ASSERT_EQ(pts.size(), 1u);
    EXPECT_DOUBLE_EQ(pts[0][0], 100.0 - oracle.accuracy(a));
    EXPECT_DOUBLE_EQ(pts[0][1],
                     oracle.latencyMs(a, hw::PlatformId::Pixel3));
}

TEST(TrueEvaluatorTest, EnergyObjectiveOptional)
{
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    TrueEvaluator eval(oracle, hw::PlatformId::EdgeGpu, true);
    EXPECT_EQ(eval.numObjectives(), 3u);
    Rng rng(5);
    const auto pts =
        eval.evaluate({nasbench::nasBench201().sample(rng)});
    EXPECT_EQ(pts[0].size(), 3u);
}

TEST(Moea, ImprovesOverRandomOnToyProblem)
{
    const auto domain = SearchDomain::single(nasbench::nasBench201());
    ToyEvaluator toy;

    MoeaConfig mc;
    mc.populationSize = 30;
    mc.maxGenerations = 20;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(6);
    const auto moea_result = Moea(mc).run(domain, toy, rng);

    RandomSearchConfig rc;
    rc.budget = 30; // same population, no evolution
    rc.keep = 30;
    rc.simulatedBudgetSeconds = 0.0;
    Rng rng2(6);
    const auto random_result =
        RandomSearch(rc).run(domain, toy, rng2);

    const pareto::Point ref = {1.0, 7.0};
    const double hv_moea =
        pareto::hypervolume(moea_result.fitness, ref);
    const double hv_rand =
        pareto::hypervolume(random_result.fitness, ref);
    EXPECT_GT(hv_moea, hv_rand);
    // The optimum (-6 convs, 6 active) must be found by the MOEA.
    bool found_all_conv = false;
    for (const auto &f : moea_result.fitness)
        if (f[0] == -6.0)
            found_all_conv = true;
    EXPECT_TRUE(found_all_conv);
}

TEST(Moea, ScoreModeKeepsTopScores)
{
    const auto domain = SearchDomain::single(nasbench::nasBench201());
    ToyScoreEvaluator eval;
    MoeaConfig mc;
    mc.populationSize = 24;
    mc.maxGenerations = 15;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(7);
    const auto result = Moea(mc).run(domain, eval, rng);
    // Elitist top-k: the best individual must be all-conv (score 6).
    double best = 0.0;
    for (const auto &f : result.fitness)
        best = std::max(best, f[0]);
    EXPECT_DOUBLE_EQ(best, 6.0);
}

TEST(Moea, PopulationSizePreserved)
{
    const auto domain = SearchDomain::unionBenchmarks();
    ToyEvaluator toy;
    MoeaConfig mc;
    mc.populationSize = 17;
    mc.maxGenerations = 3;
    mc.simulatedBudgetSeconds = 0.0;
    Rng rng(8);
    const auto result = Moea(mc).run(domain, toy, rng);
    EXPECT_EQ(result.population.size(), 17u);
    EXPECT_EQ(result.fitness.size(), 17u);
    EXPECT_EQ(result.stats.generations, 3u);
    EXPECT_EQ(result.stats.evaluations, 17u * 4u); // init + 3 gens
}

TEST(Moea, SimulatedBudgetStopsSearch)
{
    const auto domain = SearchDomain::single(nasbench::nasBench201());
    ToyEvaluator toy;
    toy.costPerEval = 100.0;
    MoeaConfig mc;
    mc.populationSize = 10;
    mc.maxGenerations = 100;
    mc.simulatedBudgetSeconds = 2500.0; // init + 1 generation fit
    Rng rng(9);
    const auto result = Moea(mc).run(domain, toy, rng);
    EXPECT_TRUE(result.stats.stoppedByBudget);
    EXPECT_LT(result.stats.generations, 100u);
    // Budget is checked before each generation's charge: the search
    // never accounts past it (init 1000s + one 1000s generation fit;
    // a second generation would have overshot).
    EXPECT_LE(result.stats.simulatedSeconds, 2500.0);
    EXPECT_DOUBLE_EQ(result.stats.simulatedSeconds, 2000.0);
    EXPECT_EQ(result.stats.generations, 1u);
}

TEST(Moea, BudgetBelowInitialPopulationReturnsEmpty)
{
    const auto domain = SearchDomain::single(nasbench::nasBench201());
    ToyEvaluator toy;
    toy.costPerEval = 100.0;
    MoeaConfig mc;
    mc.populationSize = 10;
    mc.maxGenerations = 100;
    mc.simulatedBudgetSeconds = 500.0; // init alone would cost 1000
    Rng rng(9);
    const auto result = Moea(mc).run(domain, toy, rng);
    EXPECT_TRUE(result.stats.stoppedByBudget);
    EXPECT_TRUE(result.population.empty());
    EXPECT_EQ(result.stats.evaluations, 0u);
    EXPECT_DOUBLE_EQ(result.stats.simulatedSeconds, 0.0);
}

TEST(RandomSearchTest, BudgetRespected)
{
    const auto domain = SearchDomain::single(nasbench::fbnet());
    ToyEvaluator toy;
    RandomSearchConfig rc;
    rc.budget = 100;
    rc.keep = 25;
    rc.simulatedBudgetSeconds = 0.0;
    Rng rng(10);
    const auto result = RandomSearch(rc).run(domain, toy, rng);
    EXPECT_EQ(result.stats.evaluations, 100u);
    EXPECT_EQ(result.population.size(), 25u);
}

TEST(Report, FrontIsNonDominatedSubset)
{
    nasbench::Oracle oracle(nasbench::DatasetId::Cifar10);
    TrueEvaluator eval(oracle, hw::PlatformId::EdgeGpu);
    const auto domain = SearchDomain::unionBenchmarks();
    RandomSearchConfig rc;
    rc.budget = 60;
    rc.keep = 60;
    rc.simulatedBudgetSeconds = 0.0;
    Rng rng(11);
    const auto result = RandomSearch(rc).run(domain, eval, rng);
    const auto report =
        measureFront(result, oracle, hw::PlatformId::EdgeGpu);
    ASSERT_FALSE(report.front.empty());
    EXPECT_EQ(report.objectives.size(), result.population.size());
    // No front member dominates another.
    for (const auto &a : report.front)
        for (const auto &b : report.front)
            if (&a != &b)
                EXPECT_FALSE(pareto::dominates(a, b));
    // Every non-front member is dominated by some front member.
    for (std::size_t i = 0; i < report.objectives.size(); ++i) {
        const bool on_front =
            std::find(report.frontIdx.begin(), report.frontIdx.end(),
                      i) != report.frontIdx.end();
        if (on_front)
            continue;
        bool dominated = false;
        for (const auto &f : report.front)
            if (pareto::dominates(f, report.objectives[i]))
                dominated = true;
        EXPECT_TRUE(dominated);
    }
}
