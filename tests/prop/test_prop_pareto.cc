/**
 * @file
 * Differential property tests for non-dominated sorting: the
 * sort-based ENS-BS ranks in src/pareto vs two independent oracles.
 * A brute-force "peel the non-dominated set" oracle covers thousands
 * of small tie-heavy point sets, including NaN-poisoned ones (a
 * misbehaving surrogate's output); Deb's O(m n^2) fast non-dominated
 * sort covers large sets (up to 3,000 points, 1-4 objectives) with
 * grids, whole duplicated points, NaN, +-Inf and +-0. Also checks the
 * structural invariants tying paretoRanks, paretoFronts and
 * nonDominatedIndices together.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/prop.h"
#include "pareto/pareto.h"
#include "prop_gens.h"

using namespace hwpr;
using proptest::showPoints;

namespace
{

/** Independent dominance check (minimization), by the definition. */
bool
bruteDominates(const pareto::Point &a, const pareto::Point &b)
{
    bool strictly = false;
    for (std::size_t d = 0; d < a.size(); ++d) {
        if (a[d] > b[d])
            return false;
        if (a[d] < b[d])
            strictly = true;
    }
    return strictly;
}

bool
hasNan(const pareto::Point &p)
{
    for (double v : p)
        if (std::isnan(v))
            return true;
    return false;
}

/**
 * Oracle ranks by repeated peeling: rank 1 is the set of valid points
 * dominated by no other remaining valid point; remove it and repeat.
 * NaN-carrying points are excluded and share the rank right after the
 * last finite front (rank 1 when no point is finite), mirroring the
 * documented contract of paretoRanks().
 */
std::vector<int>
bruteRanks(const std::vector<pareto::Point> &points)
{
    const std::size_t n = points.size();
    std::vector<int> ranks(n, 0);
    std::vector<bool> assigned(n, false);
    std::size_t num_valid = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (hasNan(points[i]))
            assigned[i] = true; // excluded from peeling
        else
            ++num_valid;
    }

    int rank = 0;
    std::size_t remaining = num_valid;
    while (remaining > 0) {
        ++rank;
        std::vector<std::size_t> front;
        for (std::size_t i = 0; i < n; ++i) {
            if (assigned[i])
                continue;
            bool dominated = false;
            for (std::size_t j = 0; j < n && !dominated; ++j)
                if (j != i && !assigned[j] &&
                    bruteDominates(points[j], points[i]))
                    dominated = true;
            if (!dominated)
                front.push_back(i);
        }
        for (std::size_t i : front) {
            ranks[i] = rank;
            assigned[i] = true;
        }
        remaining -= front.size();
    }

    if (num_valid < n) {
        const int worst = num_valid == 0 ? 1 : rank + 1;
        for (std::size_t i = 0; i < n; ++i)
            if (hasNan(points[i]))
                ranks[i] = worst;
    }
    return ranks;
}

/**
 * Deb's fast non-dominated sort (NSGA-II): for each point the set it
 * dominates and the count of points dominating it, then peel fronts
 * by decrementing counts. O(m n^2) time and up to O(n^2) memory; the
 * oracle for large point sets, where the brute-force peel is too
 * slow. Same NaN convention as paretoRanks().
 */
std::vector<int>
debRanks(const std::vector<pareto::Point> &points)
{
    const std::size_t n = points.size();
    std::vector<int> ranks(n, 0);
    std::vector<bool> invalid(n);
    for (std::size_t i = 0; i < n; ++i)
        invalid[i] = hasNan(points[i]);

    std::vector<std::vector<std::size_t>> dominated(n);
    std::vector<int> dom_count(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (invalid[i])
            continue;
        for (std::size_t j = i + 1; j < n; ++j) {
            if (invalid[j])
                continue;
            if (bruteDominates(points[i], points[j])) {
                dominated[i].push_back(j);
                ++dom_count[j];
            } else if (bruteDominates(points[j], points[i])) {
                dominated[j].push_back(i);
                ++dom_count[i];
            }
        }
    }

    std::vector<std::size_t> current;
    for (std::size_t i = 0; i < n; ++i) {
        if (!invalid[i] && dom_count[i] == 0) {
            ranks[i] = 1;
            current.push_back(i);
        }
    }
    int rank = 1;
    while (!current.empty()) {
        std::vector<std::size_t> next;
        for (std::size_t i : current) {
            for (std::size_t j : dominated[i]) {
                if (--dom_count[j] == 0) {
                    ranks[j] = rank + 1;
                    next.push_back(j);
                }
            }
        }
        ++rank;
        current = std::move(next);
    }

    // The loop leaves rank at the last finite front + 1 (1 when no
    // point is finite): the shared NaN rank.
    for (std::size_t i = 0; i < n; ++i)
        if (invalid[i])
            ranks[i] = rank;
    return ranks;
}

std::optional<std::string>
compareRanks(const std::vector<pareto::Point> &pts,
             const std::vector<int> &oracle)
{
    const std::vector<int> fast = pareto::paretoRanks(pts);
    if (fast != oracle) {
        std::ostringstream msg;
        msg << "fast ranks " << prop::show(fast) << " != oracle "
            << prop::show(oracle);
        return msg.str();
    }
    return std::nullopt;
}

std::optional<std::string>
checkAgainstOracle(const std::vector<pareto::Point> &pts)
{
    return compareRanks(pts, bruteRanks(pts));
}

std::optional<std::string>
checkAgainstDeb(const std::vector<pareto::Point> &pts)
{
    return compareRanks(pts, debRanks(pts));
}

/**
 * Point clouds of [minPoints, maxPoints] points with 1-4 objectives,
 * in one of four styles per case: continuous uniform values, an
 * integer grid (2 to 21 levels, tie-heavy), copies of a small pool
 * of points (whole duplicated points), or grid values with NaN,
 * +-Inf and +-0 injected. Shrinking is pointSet's: drop points, then
 * simplify coordinates (specials stay special).
 */
prop::Gen<std::vector<pareto::Point>>
cloudGen(std::size_t min_points, std::size_t max_points)
{
    prop::PointSetSpec shrink_spec;
    shrink_spec.value = prop::anyDouble();
    prop::Gen<std::vector<pareto::Point>> g;
    g.sample = [min_points, max_points](Rng &rng) {
        const std::size_t m = 1 + rng.index(4);
        const std::size_t n =
            min_points + rng.index(max_points - min_points + 1);
        const int levels = rng.intIn(2, 21);
        const auto grid = [&] { return double(rng.intIn(0, levels - 1)); };
        const double inf = std::numeric_limits<double>::infinity();
        std::vector<pareto::Point> pts(n, pareto::Point(m));
        switch (rng.intIn(0, 3)) {
        case 0:
            for (auto &p : pts)
                for (double &v : p)
                    v = rng.uniform();
            break;
        case 1:
            for (auto &p : pts)
                for (double &v : p)
                    v = grid();
            break;
        case 2: {
            std::vector<pareto::Point> pool(1 + rng.index(n / 4 + 1),
                                            pareto::Point(m));
            for (auto &p : pool)
                for (double &v : p)
                    v = rng.bernoulli(0.5) ? grid() : rng.uniform();
            for (auto &p : pts)
                p = pool[rng.index(pool.size())];
            break;
        }
        default: {
            const double special_prob = rng.uniform(0.01, 0.2);
            const double specials[] = {
                std::numeric_limits<double>::quiet_NaN(), inf, -inf,
                0.0, -0.0};
            for (auto &p : pts)
                for (double &v : p)
                    v = rng.uniform() < special_prob
                            ? specials[rng.index(5)]
                            : grid();
            break;
        }
        }
        return pts;
    };
    g.shrink = prop::pointSet(shrink_spec).shrink;
    return g;
}

} // namespace

TEST(PropPareto, RanksMatchBruteForcePeel)
{
    // Tie-heavy finite grids: duplicated coordinates (and whole
    // duplicated points) are the hard cases for dominance code.
    prop::PointSetSpec spec;
    spec.maxPoints = 24;
    spec.value = prop::gridDouble(0, 5);
    const auto r = prop::forAll<std::vector<std::vector<double>>>(
        prop::Config::fromEnv(0x9A7E70, 1200), prop::pointSet(spec),
        showPoints, checkAgainstOracle);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPareto, RanksMatchBruteForceWithSpecials)
{
    // Same oracle with NaN / +-Inf injected: NaN points must share
    // the worst rank, infinities order normally.
    prop::PointSetSpec spec;
    spec.maxPoints = 16;
    spec.value = prop::anyDouble(0.15);
    const auto r = prop::forAll<std::vector<std::vector<double>>>(
        prop::Config::fromEnv(0x9A7E71, 1200), prop::pointSet(spec),
        showPoints, checkAgainstOracle);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPareto, RanksMatchDebSortLargeN)
{
    // A dozen clouds near the size of the 4,000-point reference
    // cloud: the regime where the two-objective path must be
    // O(n log n) and the m >= 3 scan must still find every dominator.
    const auto r = prop::forAll<std::vector<pareto::Point>>(
        prop::Config::fromEnv(0x9A7E74, 12), cloudGen(1000, 3000),
        showPoints, checkAgainstDeb);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPareto, RanksMatchDebSortSmallN)
{
    const auto r = prop::forAll<std::vector<pareto::Point>>(
        prop::Config::fromEnv(0x9A7E75, 300), cloudGen(0, 300),
        showPoints, checkAgainstDeb);
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPareto, FrontsPartitionAndAgreeWithRanks)
{
    prop::PointSetSpec spec;
    spec.maxPoints = 20;
    spec.value = prop::gridDouble(0, 4);
    const auto r = prop::forAll<std::vector<std::vector<double>>>(
        prop::Config::fromEnv(0x9A7E72, 1000), prop::pointSet(spec),
        showPoints,
        [](const std::vector<pareto::Point> &pts)
            -> std::optional<std::string> {
            const auto ranks = pareto::paretoRanks(pts);
            const auto fronts = pareto::paretoFronts(pts);
            std::vector<bool> seen(pts.size(), false);
            for (std::size_t f = 0; f < fronts.size(); ++f) {
                for (std::size_t i : fronts[f]) {
                    if (i >= pts.size())
                        return "front index out of range";
                    if (seen[i])
                        return "point assigned to two fronts";
                    seen[i] = true;
                    if (ranks[i] != int(f) + 1)
                        return "front membership disagrees with rank";
                }
            }
            for (std::size_t i = 0; i < pts.size(); ++i)
                if (!seen[i])
                    return "point missing from every front";

            const auto nd = pareto::nonDominatedIndices(pts);
            std::size_t rank1 = 0;
            for (int rk : ranks)
                if (rk == 1)
                    ++rank1;
            if (nd.size() != rank1)
                return "nonDominatedIndices size != rank-1 count";
            for (std::size_t i : nd)
                if (ranks[i] != 1)
                    return "nonDominatedIndices returned a rank>1 point";
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}

TEST(PropPareto, Rank1IsExactlyTheNonDominatedSet)
{
    prop::PointSetSpec spec;
    spec.minPoints = 1;
    spec.maxPoints = 20;
    spec.value = prop::gridDouble(0, 5);
    const auto r = prop::forAll<std::vector<std::vector<double>>>(
        prop::Config::fromEnv(0x9A7E73, 1000), prop::pointSet(spec),
        showPoints,
        [](const std::vector<pareto::Point> &pts)
            -> std::optional<std::string> {
            const auto ranks = pareto::paretoRanks(pts);
            for (std::size_t i = 0; i < pts.size(); ++i) {
                bool dominated = false;
                for (std::size_t j = 0; j < pts.size() && !dominated;
                     ++j)
                    if (j != i && bruteDominates(pts[j], pts[i]))
                        dominated = true;
                if ((ranks[i] == 1) == dominated)
                    return "rank-1 membership disagrees with "
                           "dominance definition";
            }
            return std::nullopt;
        });
    EXPECT_TRUE(r.ok) << r.message;
}
