/**
 * @file
 * Post-search measurement: take a search result (selected by true or
 * surrogate fitness), measure its population on the oracle, and
 * extract the *true* Pareto front — the quantity every figure and
 * table of the paper's evaluation reports.
 */

#ifndef HWPR_SEARCH_REPORT_H
#define HWPR_SEARCH_REPORT_H

#include <vector>

#include "search/evaluator.h"
#include "search/moea.h"

namespace hwpr::search
{

/** Measured outcome of one search run. */
struct FrontReport
{
    /** True objective vectors of the whole final population. */
    std::vector<pareto::Point> objectives;
    /** Indices (into the population) of the true Pareto front. */
    std::vector<std::size_t> frontIdx;
    /** True objective vectors of the front only. */
    std::vector<pareto::Point> front;
    /** Architectures on the front. */
    std::vector<nasbench::Architecture> frontArchs;
};

/**
 * Measure a search result on the oracle and extract the true front.
 */
FrontReport measureFront(const SearchResult &result,
                         const nasbench::Oracle &oracle,
                         hw::PlatformId platform,
                         bool include_energy = false);

/**
 * Re-evaluate the final population with @p eval, replacing
 * result.fitness in place.
 */
void rescoreFitness(SearchResult &result, Evaluator &eval);

} // namespace hwpr::search

#endif // HWPR_SEARCH_REPORT_H
