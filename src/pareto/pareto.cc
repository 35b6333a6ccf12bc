#include "pareto/pareto.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/logging.h"

namespace hwpr::pareto
{

bool
dominates(const Point &a, const Point &b)
{
    HWPR_ASSERT(a.size() == b.size(), "objective count mismatch");
    bool strictly_better = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] > b[i])
            return false;
        if (a[i] < b[i])
            strictly_better = true;
    }
    return strictly_better;
}

std::vector<int>
paretoRanks(const std::vector<Point> &points)
{
    const std::size_t n = points.size();
    std::vector<int> ranks(n, 0);
    if (n == 0)
        return ranks;
    const std::size_t m = points[0].size();
    for (const Point &p : points)
        HWPR_ASSERT(p.size() == m, "objective count mismatch");

    // NaN objectives make dominates() return false both ways, which
    // would hand a broken surrogate output rank 1 and poison elitist
    // selection. Exclude such points from the sort entirely and
    // assign them a rank strictly worse than every finite point.
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        if (std::none_of(points[i].begin(), points[i].end(),
                         [](double v) { return std::isnan(v); }))
            order.push_back(i);

    // Lexicographic order, identical points by index. A dominator is
    // no worse in every objective and better in one, so it sorts
    // first: each point's dominators all precede it.
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const Point &pa = points[a];
                  const Point &pb = points[b];
                  for (std::size_t d = 0; d < m; ++d) {
                      if (pa[d] < pb[d])
                          return true;
                      if (pb[d] < pa[d])
                          return false;
                  }
                  return a < b;
              });

    // ENS-BS (Zhang et al., IEEE TEVC 2015): put each point into the
    // first front with no member dominating it. Every member of front
    // k > 1 is dominated by a member of front k - 1, so by
    // transitivity a dominator in front k implies one in every
    // earlier front, and the first free front is found by binary
    // search. With at most two objectives the last one never rises
    // along a front in this order, so the newest member is the only
    // candidate dominator and the sort is O(n log n); with three or
    // more the members are scanned newest first.
    std::vector<std::vector<std::size_t>> fronts;
    const auto frontDominates = [&](const std::vector<std::size_t> &front,
                                    const Point &p) {
        if (m <= 2)
            return dominates(points[front.back()], p);
        return std::any_of(front.rbegin(), front.rend(),
                           [&](std::size_t q) {
                               return dominates(points[q], p);
                           });
    };
    for (std::size_t i : order) {
        std::size_t lo = 0, hi = fronts.size();
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (frontDominates(fronts[mid], points[i]))
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == fronts.size())
            fronts.emplace_back();
        fronts[lo].push_back(i);
        ranks[i] = int(lo) + 1;
    }

    // All NaN points share one rank after the last finite front (1
    // when no point is finite).
    const int worst = int(fronts.size()) + 1;
    for (int &r : ranks)
        if (r == 0)
            r = worst;
    return ranks;
}

std::vector<std::vector<std::size_t>>
paretoFronts(const std::vector<Point> &points)
{
    const std::vector<int> ranks = paretoRanks(points);
    int max_rank = 0;
    for (int r : ranks)
        max_rank = std::max(max_rank, r);
    std::vector<std::vector<std::size_t>> fronts(max_rank);
    for (std::size_t i = 0; i < ranks.size(); ++i)
        fronts[ranks[i] - 1].push_back(i);
    return fronts;
}

std::vector<std::size_t>
nonDominatedIndices(const std::vector<Point> &points)
{
    const std::vector<int> ranks = paretoRanks(points);
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < ranks.size(); ++i)
        if (ranks[i] == 1)
            out.push_back(i);
    return out;
}

std::vector<double>
crowdingDistance(const std::vector<Point> &front)
{
    const std::size_t n = front.size();
    std::vector<double> dist(n, 0.0);
    if (n == 0)
        return dist;
    const std::size_t m = front[0].size();
    const double inf = std::numeric_limits<double>::infinity();
    if (n <= 2) {
        std::fill(dist.begin(), dist.end(), inf);
        return dist;
    }
    std::vector<std::size_t> order(n);
    for (std::size_t obj = 0; obj < m; ++obj) {
        // NaN keys sort last, which keeps the comparator a strict
        // weak ordering (a cut worst front holds the NaN points).
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      const double x = front[a][obj];
                      const double y = front[b][obj];
                      return x < y || (!std::isnan(x) && std::isnan(y));
                  });
        const double span =
            front[order[n - 1]][obj] - front[order[0]][obj];
        dist[order[0]] = inf;
        dist[order[n - 1]] = inf;
        // A NaN or infinite span would make the gaps NaN: such an
        // objective adds nothing to the interior points.
        if (!(std::isfinite(span) && span > 0.0))
            continue;
        for (std::size_t k = 1; k + 1 < n; ++k) {
            dist[order[k]] += (front[order[k + 1]][obj] -
                               front[order[k - 1]][obj]) /
                              span;
        }
    }
    return dist;
}

namespace
{

/**
 * Shared contribution filter for every hypervolume algorithm: a point
 * counts iff all its objectives are finite and weakly dominate the
 * reference. Non-finite objectives are surrogate failures — NaN fails
 * every comparison (the positive-form `<=` test rejects it), and a
 * -inf objective would claim an infinite (or, against a zero-width
 * box, NaN via inf*0 in the WFG recursion) volume.
 */
bool
contributes(const Point &p, const Point &ref)
{
    for (std::size_t d = 0; d < ref.size(); ++d)
        if (!(std::isfinite(p[d]) && p[d] <= ref[d]))
            return false;
    return true;
}

/**
 * 2-D hypervolume for minimization: points clipped to those weakly
 * dominating the reference, swept in ascending x.
 */
double
hypervolume2D(std::vector<Point> pts, const Point &ref)
{
    std::vector<Point> valid;
    for (auto &p : pts)
        if (contributes(p, ref))
            valid.push_back(std::move(p));
    if (valid.empty())
        return 0.0;
    std::sort(valid.begin(), valid.end(), [](const Point &a,
                                             const Point &b) {
        if (a[0] != b[0])
            return a[0] < b[0];
        return a[1] < b[1];
    });
    double hv = 0.0;
    double prev_y = ref[1];
    for (const auto &p : valid) {
        if (p[1] < prev_y) {
            hv += (ref[0] - p[0]) * (prev_y - p[1]);
            prev_y = p[1];
        }
    }
    return hv;
}

/**
 * 3-D hypervolume by sweeping the third objective: between
 * consecutive z-levels the dominated area is the 2-D hypervolume of
 * all points with z no worse than the level.
 */
double
hypervolume3D(std::vector<Point> pts, const Point &ref)
{
    std::vector<Point> valid;
    for (auto &p : pts)
        if (contributes(p, ref))
            valid.push_back(std::move(p));
    if (valid.empty())
        return 0.0;
    std::sort(valid.begin(), valid.end(), [](const Point &a,
                                             const Point &b) {
        return a[2] < b[2];
    });
    double hv = 0.0;
    std::vector<Point> active; // (x, y) of points with z <= level
    for (std::size_t i = 0; i < valid.size(); ++i) {
        active.push_back({valid[i][0], valid[i][1]});
        const double z_lo = valid[i][2];
        const double z_hi =
            i + 1 < valid.size() ? valid[i + 1][2] : ref[2];
        if (z_hi > z_lo)
            hv += hypervolume2D(active, {ref[0], ref[1]}) *
                  (z_hi - z_lo);
    }
    return hv;
}

/**
 * WFG recursion: hv(S) = sum over s in S of exclusive contribution
 * of s given the points after it, where the exclusive volume is the
 * box of s minus the hypervolume of the remaining points clipped
 * ("limited") to s's box.
 */
double
wfgRecurse(std::vector<Point> pts, const Point &ref)
{
    if (pts.empty())
        return 0.0;
    // Keep only the non-dominated subset (cheap pruning).
    std::vector<Point> front;
    for (std::size_t i : nonDominatedIndices(pts))
        front.push_back(pts[i]);

    double hv = 0.0;
    for (std::size_t i = 0; i < front.size(); ++i) {
        const Point &s = front[i];
        double box = 1.0;
        for (std::size_t d = 0; d < ref.size(); ++d)
            box *= ref[d] - s[d];
        // Limit the remaining points to s's dominated box.
        std::vector<Point> limited;
        for (std::size_t j = i + 1; j < front.size(); ++j) {
            Point q = front[j];
            for (std::size_t d = 0; d < q.size(); ++d)
                q[d] = std::max(q[d], s[d]);
            limited.push_back(std::move(q));
        }
        hv += box - wfgRecurse(std::move(limited), ref);
    }
    return hv;
}

} // namespace

double
hypervolumeWfg(const std::vector<Point> &points, const Point &ref)
{
    std::vector<Point> valid;
    for (const auto &p : points) {
        HWPR_CHECK(p.size() == ref.size(),
                   "point/reference dim mismatch");
        if (contributes(p, ref))
            valid.push_back(p);
    }
    return wfgRecurse(std::move(valid), ref);
}

double
hypervolume(const std::vector<Point> &points, const Point &ref)
{
    if (points.empty())
        return 0.0;
    const std::size_t m = ref.size();
    for (double v : ref)
        HWPR_CHECK(std::isfinite(v),
                   "non-finite hypervolume reference point");
    for (const auto &p : points)
        HWPR_CHECK(p.size() == m, "point/reference dim mismatch");
    // Points carrying NaN or infinite objectives contribute nothing:
    // all three algorithms clip through contributes(), the single
    // non-finite gate. (A -inf objective that slipped through would
    // yield an infinite sweep volume — or NaN via inf*0 against a
    // zero-width box in the WFG recursion.)
    if (m == 2)
        return hypervolume2D(points, ref);
    if (m == 3)
        return hypervolume3D(points, ref);
    return hypervolumeWfg(points, ref);
}

Point
nadirReference(const std::vector<Point> &points, double margin)
{
    HWPR_CHECK(!points.empty(), "nadir of an empty set");
    const std::size_t m = points[0].size();
    Point nadir(m, -1e300), ideal(m, 1e300);
    for (const auto &p : points) {
        for (std::size_t i = 0; i < m; ++i) {
            nadir[i] = std::max(nadir[i], p[i]);
            ideal[i] = std::min(ideal[i], p[i]);
        }
    }
    for (std::size_t i = 0; i < m; ++i)
        nadir[i] += margin * std::max(1e-12, nadir[i] - ideal[i]);
    return nadir;
}

double
normalizedHypervolume(const std::vector<Point> &approx,
                      const std::vector<Point> &true_front,
                      const Point &ref)
{
    const double denom = hypervolume(true_front, ref);
    if (denom <= 0.0)
        return 0.0;
    return hypervolume(approx, ref) / denom;
}

} // namespace hwpr::pareto
