/**
 * @file
 * Multi-objective primitives: Pareto dominance (paper Eqs. 1-3),
 * non-dominated sorting (lexicographic sort plus ENS-BS front
 * assignment) producing the Pareto ranks F1..FK the surrogate is
 * trained to preserve, crowding distances, and exact hypervolume
 * computation in two and three dimensions (the paper's quality
 * indicator, computed against the furthest point from the front as
 * in pymoo usage).
 *
 * Convention: ALL objectives are minimized. Callers convert
 * maximization objectives (accuracy) by negation or (100 - acc).
 */

#ifndef HWPR_PARETO_PARETO_H
#define HWPR_PARETO_PARETO_H

#include <cstddef>
#include <vector>

namespace hwpr::pareto
{

/** One solution's objective vector (minimization). */
using Point = std::vector<double>;

/**
 * Pareto dominance: a dominates b iff a is no worse in every
 * objective and strictly better in at least one.
 */
bool dominates(const Point &a, const Point &b);

/**
 * Non-dominated sort. Returns 1-based Pareto ranks: rank 1 is the
 * non-dominated front F1, rank 2 the front after removing F1 (Eqs.
 * 1-3 of the paper), and so on.
 *
 * Sorts the points lexicographically (identical points by index), so
 * every dominator precedes the points it dominates, then places each
 * point in the first front holding no dominator of it, found by
 * binary search over the fronts (ENS-BS, Zhang et al., IEEE TEVC
 * 2015). With one or two objectives only a front's newest member can
 * dominate, so the sort is O(n log n), the Kung-Luccio-Preparata
 * bound; with m >= 3 each probe scans the front, O(m n^2) worst case.
 * Identical points share a front. Every point must have the same
 * objective count (asserted).
 *
 * Points with any NaN objective (a misbehaving surrogate) are
 * excluded from the sort and assigned one shared rank strictly worse
 * than every finite point, so they can never displace real solutions
 * from the elitist fronts. Infinities and signed zeros order as IEEE
 * comparisons do (-0 == +0).
 */
std::vector<int> paretoRanks(const std::vector<Point> &points);

/** Group point indices by rank: fronts()[0] is F1, etc. */
std::vector<std::vector<std::size_t>>
paretoFronts(const std::vector<Point> &points);

/** Indices of the non-dominated (rank-1) points. */
std::vector<std::size_t>
nonDominatedIndices(const std::vector<Point> &points);

/**
 * NSGA-II crowding distance of each point within one front (larger is
 * less crowded; boundary points get +infinity). Keys sort with NaN
 * last; an objective whose span is NaN or infinite adds nothing to
 * interior points, so no distance is ever NaN.
 */
std::vector<double> crowdingDistance(const std::vector<Point> &front);

/**
 * Exact hypervolume dominated by @p points with respect to reference
 * point @p ref (minimization: a point contributes iff every objective
 * is finite and <= ref). Points with NaN or infinite objectives are
 * surrogate failures and contribute nothing — a -inf objective would
 * otherwise claim infinite volume (or NaN against a zero-width box in
 * the WFG recursion). A non-finite reference point fails loudly.
 * Dedicated sweep algorithms for 2 and 3 objectives; the recursive
 * WFG algorithm for higher dimensions.
 */
double hypervolume(const std::vector<Point> &points, const Point &ref);

/**
 * Exact hypervolume via the WFG inclusion-exclusion recursion
 * (exponential worst case; fine for the front sizes NAS produces).
 * Works for any dimension >= 1; used as the general fallback and as
 * an independent oracle for testing the sweep implementations.
 */
double hypervolumeWfg(const std::vector<Point> &points,
                      const Point &ref);

/**
 * The paper's reference-point convention: the furthest point from the
 * Pareto front, i.e. the componentwise worst (nadir) over all points,
 * optionally inflated by @p margin of the objective span.
 */
Point nadirReference(const std::vector<Point> &points,
                     double margin = 0.0);

/**
 * Hypervolume of @p approx normalized by the hypervolume of
 * @p true_front, both against the same reference point.
 */
double normalizedHypervolume(const std::vector<Point> &approx,
                             const std::vector<Point> &true_front,
                             const Point &ref);

} // namespace hwpr::pareto

#endif // HWPR_PARETO_PARETO_H
