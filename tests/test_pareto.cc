/**
 * @file
 * Tests for the Pareto library: dominance semantics, the Eqs. 1-3
 * invariants of non-dominated sorting (property-checked on random
 * point clouds), crowding distance, and hypervolume (known values,
 * monotonicity, normalization).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "pareto/pareto.h"

using namespace hwpr;
using pareto::Point;

TEST(Dominance, Basic)
{
    EXPECT_TRUE(pareto::dominates({1, 1}, {2, 2}));
    EXPECT_TRUE(pareto::dominates({1, 2}, {1, 3}));
    EXPECT_FALSE(pareto::dominates({1, 2}, {2, 1}));
    EXPECT_FALSE(pareto::dominates({1, 1}, {1, 1}));
}

TEST(Dominance, Irreflexive)
{
    const Point p = {3.0, 4.0, 5.0};
    EXPECT_FALSE(pareto::dominates(p, p));
}

TEST(Dominance, Asymmetric)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        Point a = {rng.uniform(), rng.uniform()};
        Point b = {rng.uniform(), rng.uniform()};
        EXPECT_FALSE(pareto::dominates(a, b) &&
                     pareto::dominates(b, a));
    }
}

TEST(ParetoRanks, SimpleFronts)
{
    // (1,1) dominates everything; (2,2) dominates (3,3).
    const std::vector<Point> pts = {{3, 3}, {1, 1}, {2, 2}};
    const auto ranks = pareto::paretoRanks(pts);
    EXPECT_EQ(ranks[1], 1);
    EXPECT_EQ(ranks[2], 2);
    EXPECT_EQ(ranks[0], 3);
}

TEST(ParetoRanks, IncomparableShareFrontOne)
{
    const std::vector<Point> pts = {{1, 4}, {2, 3}, {3, 2}, {4, 1}};
    for (int r : pareto::paretoRanks(pts))
        EXPECT_EQ(r, 1);
}

TEST(ParetoRanks, EmptyInput)
{
    EXPECT_TRUE(pareto::paretoRanks({}).empty());
}

TEST(ParetoRanks, NanPointsGetWorstRank)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // Without the NaN guard, dominates() is false both ways for the
    // NaN point, so it would sit undominated in front 1.
    const std::vector<Point> pts = {
        {3, 3}, {nan, 1}, {1, 1}, {2, nan}};
    const auto ranks = pareto::paretoRanks(pts);
    EXPECT_EQ(ranks[2], 1);
    EXPECT_EQ(ranks[0], 2);
    // Both NaN points share a rank strictly worse than every finite
    // point.
    EXPECT_EQ(ranks[1], 3);
    EXPECT_EQ(ranks[3], 3);
}

TEST(ParetoRanks, AllNanShareRankOne)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Point> pts = {{nan, 1}, {1, nan}};
    for (int r : pareto::paretoRanks(pts))
        EXPECT_EQ(r, 1);
}

TEST(ParetoRanks, NanPointsNeverNonDominated)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::vector<Point> pts = {{nan, 0}, {5, 5}};
    const auto front = pareto::nonDominatedIndices(pts);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0], 1u);
}

TEST(ParetoRanks, ObjectiveCountMismatchIsFatal)
{
    // Checked once before sorting, so the lexicographic comparator
    // never reads past the end of a shorter point.
    EXPECT_DEATH(pareto::paretoRanks({{1.0, 2.0}, {0.5}, {3.0, 1.0}}),
                 "objective count mismatch");
}

/**
 * Property test over random clouds: the three conditions the paper
 * states for the Pareto-rank sorting (Eqs. 1-3).
 */
class NdsPropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(NdsPropertyTest, PaperEquationsHold)
{
    Rng rng(GetParam());
    const std::size_t n = 40;
    std::vector<Point> pts(n);
    for (auto &p : pts)
        p = {std::floor(rng.uniform(0, 10)),
             std::floor(rng.uniform(0, 10))};

    const auto fronts = pareto::paretoFronts(pts);

    // Eq. 1: within one front, no point dominates another.
    for (const auto &front : fronts) {
        for (std::size_t a : front)
            for (std::size_t b : front)
                if (a != b)
                    EXPECT_FALSE(pareto::dominates(pts[a], pts[b]));
    }
    for (std::size_t k = 0; k + 1 < fronts.size(); ++k) {
        for (std::size_t i : fronts[k + 1]) {
            bool dominated_by_front_k = false;
            for (std::size_t j : fronts[k]) {
                // Eq. 2: a rank-(k+1) point never dominates a rank-k
                // point.
                EXPECT_FALSE(pareto::dominates(pts[i], pts[j]));
                if (pareto::dominates(pts[j], pts[i]))
                    dominated_by_front_k = true;
            }
            // Eq. 3: it is dominated by at least one rank-k point.
            EXPECT_TRUE(dominated_by_front_k);
        }
    }

    // Fronts partition the set.
    std::size_t covered = 0;
    for (const auto &front : fronts)
        covered += front.size();
    EXPECT_EQ(covered, n);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NdsPropertyTest,
                         ::testing::Range(0, 15));

TEST(Crowding, BoundaryPointsInfinite)
{
    const std::vector<Point> front = {{1, 4}, {2, 3}, {3, 2}, {4, 1}};
    const auto d = pareto::crowdingDistance(front);
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(d[0], inf);
    EXPECT_EQ(d[3], inf);
    EXPECT_GT(d[1], 0.0);
    EXPECT_TRUE(std::isfinite(d[1]));
}

TEST(Crowding, DenserPointLowerDistance)
{
    // Middle point at index 1 is crowded between 0 and 2.
    const std::vector<Point> front = {
        {0, 10}, {1, 9}, {1.2, 8.8}, {10, 0}};
    const auto d = pareto::crowdingDistance(front);
    EXPECT_LT(d[2], d[1] + 1e12); // both finite
    EXPECT_TRUE(std::isfinite(d[1]));
    EXPECT_TRUE(std::isfinite(d[2]));
}

TEST(Crowding, InfiniteObjectiveGivesNoNan)
{
    // An infinite span would turn every interior gap into
    // (inf - x) / inf = NaN, and nsga2Select sorts by these.
    const double inf = std::numeric_limits<double>::infinity();
    const auto d =
        pareto::crowdingDistance({{0, inf}, {1, 5}, {2, 3}, {inf, 0}});
    const std::vector<double> expected = {inf, 0.0, 0.0, inf};
    EXPECT_EQ(d, expected);

    const auto neg = pareto::crowdingDistance(
        {{-inf, 4}, {1, 3}, {2, 2}, {3, 1}, {4, -inf}});
    for (double v : neg)
        EXPECT_FALSE(std::isnan(v));
    EXPECT_EQ(neg.front(), inf);
    EXPECT_EQ(neg.back(), inf);
}

TEST(Crowding, NanObjectiveGivesNoNan)
{
    // NaN points share the worst front; when that front is cut they
    // reach crowdingDistance together with finite points.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<Point> front = {
        {3, 1}, {nan, 2}, {1, 3}, {2, nan}, {0, 4}, {nan, nan}};
    const auto d = pareto::crowdingDistance(front);
    for (double v : d)
        EXPECT_FALSE(std::isnan(v));
    // Finite keys sort first, so the smallest value of each
    // objective is a boundary point.
    EXPECT_EQ(d[4], inf);
    EXPECT_EQ(d[0], inf);
}

TEST(Hypervolume, KnownRectangles2D)
{
    // Single point (1,1) vs ref (3,3): area 2x2 = 4.
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{1, 1}}, {3, 3}), 4.0);
    // Two staircase points.
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 2}, {2, 1}}, {3, 3}),
        2.0 + 2.0 - 1.0);
    // Dominated point adds nothing.
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1}, {2, 2}}, {3, 3}), 4.0);
    // Point beyond the reference contributes nothing.
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{4, 4}}, {3, 3}), 0.0);
}

TEST(Hypervolume, Known3D)
{
    // Single point (1,1,1) vs ref (2,2,2): volume 1.
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{1, 1, 1}}, {2, 2, 2}), 1.0);
    // Two disjoint-ish boxes.
    const double hv = pareto::hypervolume({{0, 1, 1}, {1, 0, 1}},
                                          {2, 2, 2});
    // Union of two 2x1x1... computed by inclusion-exclusion:
    // box1 = (2-0)(2-1)(2-1) = 2, box2 = 2, overlap = (2-1)^2*(2-1)=1.
    EXPECT_DOUBLE_EQ(hv, 3.0);
}

class HvMonotonicityTest : public ::testing::TestWithParam<int>
{
};

TEST_P(HvMonotonicityTest, AddingPointsNeverDecreasesHv)
{
    Rng rng(GetParam() + 100);
    const Point ref = {10, 10};
    std::vector<Point> pts;
    double prev = 0.0;
    for (int i = 0; i < 30; ++i) {
        pts.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
        const double hv = pareto::hypervolume(pts, ref);
        EXPECT_GE(hv, prev - 1e-12);
        prev = hv;
    }
    // HV is bounded by the reference box.
    EXPECT_LE(prev, 100.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HvMonotonicityTest,
                         ::testing::Range(0, 8));

TEST(Hypervolume, DominatedSubsetHasSmallerOrEqualHv)
{
    Rng rng(9);
    std::vector<Point> pts;
    for (int i = 0; i < 50; ++i)
        pts.push_back({rng.uniform(0, 5), rng.uniform(0, 5)});
    const Point ref = pareto::nadirReference(pts, 0.1);
    std::vector<Point> front;
    for (std::size_t i : pareto::nonDominatedIndices(pts))
        front.push_back(pts[i]);
    // The front alone carries the entire hypervolume.
    EXPECT_NEAR(pareto::hypervolume(front, ref),
                pareto::hypervolume(pts, ref), 1e-9);
}

TEST(Hypervolume, NormalizedAtMostOneForSubsets)
{
    Rng rng(10);
    std::vector<Point> pts;
    for (int i = 0; i < 60; ++i)
        pts.push_back({rng.uniform(0, 5), rng.uniform(0, 5)});
    std::vector<Point> true_front;
    for (std::size_t i : pareto::nonDominatedIndices(pts))
        true_front.push_back(pts[i]);
    // Any subset of the cloud is dominated by the true front.
    std::vector<Point> approx(pts.begin(), pts.begin() + 20);
    const Point ref = pareto::nadirReference(pts, 0.1);
    const double nhv =
        pareto::normalizedHypervolume(approx, true_front, ref);
    EXPECT_GE(nhv, 0.0);
    EXPECT_LE(nhv, 1.0 + 1e-12);
}

TEST(NadirReference, ComponentwiseWorst)
{
    const std::vector<Point> pts = {{1, 5}, {4, 2}};
    const Point nadir = pareto::nadirReference(pts);
    EXPECT_DOUBLE_EQ(nadir[0], 4.0);
    EXPECT_DOUBLE_EQ(nadir[1], 5.0);
    const Point inflated = pareto::nadirReference(pts, 0.5);
    EXPECT_GT(inflated[0], 4.0);
}

TEST(HypervolumeWfg, MatchesSweepIn2D)
{
    Rng rng(50);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Point> pts;
        for (int i = 0; i < 12; ++i)
            pts.push_back({rng.uniform(0, 5), rng.uniform(0, 5)});
        const Point ref = {5.5, 5.5};
        EXPECT_NEAR(pareto::hypervolumeWfg(pts, ref),
                    pareto::hypervolume(pts, ref), 1e-9);
    }
}

TEST(HypervolumeWfg, MatchesSweepIn3D)
{
    Rng rng(51);
    for (int trial = 0; trial < 6; ++trial) {
        std::vector<Point> pts;
        for (int i = 0; i < 10; ++i)
            pts.push_back({rng.uniform(0, 3), rng.uniform(0, 3),
                           rng.uniform(0, 3)});
        const Point ref = {3.2, 3.2, 3.2};
        EXPECT_NEAR(pareto::hypervolumeWfg(pts, ref),
                    pareto::hypervolume(pts, ref), 1e-9);
    }
}

TEST(HypervolumeWfg, FourObjectivesKnownBox)
{
    // Single point in 4-D: the box volume.
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1, 1}},
                            {3, 2, 4, 1.5}),
        2.0 * 1.0 * 3.0 * 0.5);
    // Two identical points count once.
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1, 1}, {1, 1, 1, 1}},
                            {2, 2, 2, 2}),
        1.0);
}

TEST(Hypervolume, NanPointsContributeNothing)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    // 2-D sweep, 3-D sweep and the WFG recursion (4-D) must all drop
    // NaN points at the clipping step instead of absorbing NaN into
    // the accumulation.
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1}, {nan, 0}}, {3, 3}), 4.0);
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1}, {0, nan, 0}}, {2, 2, 2}), 1.0);
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1, 1}, {nan, 0, 0, 0}},
                            {2, 2, 2, 2}),
        1.0);
    // A cloud of only NaN points has zero hypervolume.
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{nan, nan}}, {3, 3}), 0.0);
}

TEST(Hypervolume, InfinitePointsContributeNothing)
{
    // Regression found by the property suite: a -inf objective used
    // to claim infinite volume in the sweeps, and NaN (inf * 0
    // against a zero-width box) in the WFG recursion. Non-finite
    // objectives are surrogate failures and must contribute nothing.
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DOUBLE_EQ(pareto::hypervolumeWfg({{-inf, 10.0}}, {1, 10}),
                     0.0);
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{1, 1}, {-inf, 0}}, {3, 3}),
                     4.0);
    EXPECT_DOUBLE_EQ(pareto::hypervolumeWfg({{1, 1}, {-inf, 0}}, {3, 3}),
                     4.0);
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1}, {-inf, 0, 0}}, {2, 2, 2}), 1.0);
    EXPECT_DOUBLE_EQ(
        pareto::hypervolume({{1, 1, 1, 1}, {0, -inf, 0, 0}},
                            {2, 2, 2, 2}),
        1.0);
    // +inf objectives simply fail the <= ref clip.
    EXPECT_DOUBLE_EQ(pareto::hypervolume({{inf, 0}}, {3, 3}), 0.0);
}

TEST(Hypervolume, NonFiniteReferenceIsRejected)
{
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(pareto::hypervolume({{1.0, 1.0}}, {inf, 3.0}),
                 "non-finite hypervolume reference");
}

TEST(HypervolumeWfg, FourObjectivesInclusionExclusion)
{
    // Two boxes overlapping in 4-D, checked by hand:
    // a = (0,1,1,1), b = (1,0,1,1), ref = (2,2,2,2).
    // vol(a) = 2*1*1*1 = 2, vol(b) = 2, overlap = 1*1*1*1 = 1.
    const double hv = pareto::hypervolume(
        {{0, 1, 1, 1}, {1, 0, 1, 1}}, {2, 2, 2, 2});
    EXPECT_DOUBLE_EQ(hv, 3.0);
}
