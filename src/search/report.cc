#include "search/report.h"

#include "pareto/pareto.h"

namespace hwpr::search
{

FrontReport
measureFront(const SearchResult &result, const nasbench::Oracle &oracle,
             hw::PlatformId platform, bool include_energy)
{
    FrontReport report;
    report.objectives.reserve(result.population.size());
    for (const auto &arch : result.population)
        report.objectives.push_back(trueObjectives(
            oracle.record(arch), platform, include_energy));

    report.frontIdx = pareto::nonDominatedIndices(report.objectives);
    for (std::size_t idx : report.frontIdx) {
        report.front.push_back(report.objectives[idx]);
        report.frontArchs.push_back(result.population[idx]);
    }
    return report;
}

void
rescoreFitness(SearchResult &result, Evaluator &eval)
{
    if (result.population.empty())
        return;
    result.fitness = eval.evaluate(result.population);
}

} // namespace hwpr::search
