#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "arch/arch_spec.hpp"
#include "common/rng.hpp"
#include "cosa/formulation.hpp"
#include "cosa/scheduler.hpp"
#include "problem/workloads.hpp"
#include "solver/basis_lu.hpp"
#include "solver/simplex.hpp"

namespace cosa::solver {
namespace {

using Entry = BasisLu::Entry;

/** Dense Gaussian-elimination solve of A x = b (test oracle). */
std::vector<double>
denseSolve(int m, const std::vector<std::vector<Entry>>& cols,
           std::vector<double> b)
{
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    for (int j = 0; j < m; ++j) {
        for (const Entry& e : cols[static_cast<std::size_t>(j)])
            a[static_cast<std::size_t>(e.index) * m + j] = e.value;
    }
    for (int col = 0; col < m; ++col) {
        int piv = col;
        for (int i = col + 1; i < m; ++i) {
            if (std::abs(a[static_cast<std::size_t>(i) * m + col]) >
                std::abs(a[static_cast<std::size_t>(piv) * m + col]))
                piv = i;
        }
        for (int k = 0; k < m; ++k)
            std::swap(a[static_cast<std::size_t>(piv) * m + k],
                      a[static_cast<std::size_t>(col) * m + k]);
        std::swap(b[static_cast<std::size_t>(piv)],
                  b[static_cast<std::size_t>(col)]);
        const double inv = 1.0 / a[static_cast<std::size_t>(col) * m + col];
        for (int i = col + 1; i < m; ++i) {
            const double f =
                a[static_cast<std::size_t>(i) * m + col] * inv;
            if (f == 0.0)
                continue;
            for (int k = col; k < m; ++k)
                a[static_cast<std::size_t>(i) * m + k] -=
                    f * a[static_cast<std::size_t>(col) * m + k];
            b[static_cast<std::size_t>(i)] -=
                f * b[static_cast<std::size_t>(col)];
        }
    }
    std::vector<double> x(static_cast<std::size_t>(m), 0.0);
    for (int i = m - 1; i >= 0; --i) {
        double acc = b[static_cast<std::size_t>(i)];
        for (int k = i + 1; k < m; ++k)
            acc -= a[static_cast<std::size_t>(i) * m + k] *
                   x[static_cast<std::size_t>(k)];
        x[static_cast<std::size_t>(i)] =
            acc / a[static_cast<std::size_t>(i) * m + i];
    }
    return x;
}

/** Random sparse columns with a guaranteed-strong diagonal. */
std::vector<std::vector<Entry>>
randomBasis(Rng& rng, int m, double density)
{
    std::vector<std::vector<Entry>> cols(static_cast<std::size_t>(m));
    for (int j = 0; j < m; ++j) {
        for (int i = 0; i < m; ++i) {
            if (i == j) {
                cols[static_cast<std::size_t>(j)].push_back(
                    {i, 2.0 + 4.0 * rng.nextDouble()});
            } else if (rng.nextDouble() < density) {
                cols[static_cast<std::size_t>(j)].push_back(
                    {i, rng.nextDouble() * 2.0 - 1.0});
            }
        }
    }
    return cols;
}

TEST(BasisLu, FtranBtranMatchDenseSolves)
{
    Rng rng(7);
    for (int m : {1, 2, 5, 17, 60}) {
        const auto cols = randomBasis(rng, m, 0.15);
        BasisLu lu;
        ASSERT_TRUE(lu.factorize(m, cols)) << "m=" << m;

        std::vector<double> v(static_cast<std::size_t>(m));
        for (double& x : v)
            x = rng.nextDouble() * 10.0 - 5.0;

        std::vector<double> x = v;
        lu.ftran(x.data());
        const auto x_ref = denseSolve(m, cols, v);
        for (int i = 0; i < m; ++i)
            EXPECT_NEAR(x[i], x_ref[i], 1e-9) << "ftran m=" << m;

        // btran solves the transposed system: build B^T columns.
        std::vector<std::vector<Entry>> tcols(static_cast<std::size_t>(m));
        for (int j = 0; j < m; ++j) {
            for (const Entry& e : cols[static_cast<std::size_t>(j)])
                tcols[static_cast<std::size_t>(e.index)].push_back(
                    {j, e.value});
        }
        std::vector<double> y = v;
        lu.btran(y.data());
        const auto y_ref = denseSolve(m, tcols, v);
        for (int i = 0; i < m; ++i)
            EXPECT_NEAR(y[i], y_ref[i], 1e-9) << "btran m=" << m;
    }
}

TEST(BasisLu, EtaUpdatesMatchFreshFactorization)
{
    Rng rng(11);
    const int m = 40;
    auto cols = randomBasis(rng, m, 0.2);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, cols));

    // Replace 12 basis columns one by one through Forrest–Tomlin
    // updates.
    for (int round = 0; round < 12; ++round) {
        const int p = static_cast<int>(rng.nextDouble() * m) % m;
        std::vector<Entry> newcol;
        for (int i = 0; i < m; ++i) {
            if (i == p)
                newcol.push_back({i, 3.0 + rng.nextDouble()});
            else if (rng.nextDouble() < 0.2)
                newcol.push_back({i, rng.nextDouble() * 2.0 - 1.0});
        }
        // w = B^-1 a_new, exactly what the simplex ratio test computes.
        std::vector<double> w(static_cast<std::size_t>(m), 0.0);
        for (const Entry& e : newcol)
            w[e.index] = e.value;
        lu.ftranEntering(w.data());
        ASSERT_GT(std::abs(w[p]), 1e-8);
        lu.update(p, w.data());
        cols[static_cast<std::size_t>(p)] = newcol;
    }
    EXPECT_EQ(lu.stats().eta_updates, 12);

    std::vector<double> v(static_cast<std::size_t>(m));
    for (double& x : v)
        x = rng.nextDouble() * 4.0 - 2.0;
    std::vector<double> via_etas = v;
    lu.ftran(via_etas.data());

    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(m, cols));
    std::vector<double> via_fresh = v;
    fresh.ftran(via_fresh.data());
    for (int i = 0; i < m; ++i)
        EXPECT_NEAR(via_etas[i], via_fresh[i], 1e-8);
}

TEST(BasisLu, GrowthToleranceTriggersRefactorization)
{
    // Identity basis, then an update whose new U diagonal is tiny
    // against the spike: on the identity FTRAN(a) = a = w, and the new
    // diagonal is w_p, so |w_p| / ||w||_inf = 1e-9 < kUpdateStabilityTol.
    // The update is absorbed but the representation must request a
    // refactorization at the next loop boundary.
    const int m = 4;
    std::vector<std::vector<Entry>> cols(m);
    for (int j = 0; j < m; ++j)
        cols[static_cast<std::size_t>(j)].push_back({j, 1.0});
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, cols));
    EXPECT_FALSE(lu.needsRefactorization());

    std::vector<double> w = {1e-3, 1e6, 0.0, 0.0};
    lu.ftranEntering(w.data());
    lu.update(0, w.data());
    EXPECT_TRUE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 1);

    // Refactorizing (here: back to the identity) clears the request.
    ASSERT_TRUE(lu.factorize(m, cols));
    EXPECT_FALSE(lu.needsRefactorization());

    // A well-conditioned update does not trip it.
    std::vector<double> ok = {2.0, 1.0, 0.0, -1.0};
    lu.ftranEntering(ok.data());
    lu.update(0, ok.data());
    EXPECT_FALSE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 1);
}

TEST(BasisLu, EtaFillBoundTriggersRefactorization)
{
    // Dense entering columns on a small identity basis: the nonzeros
    // their spikes add to U quickly exceed the growth bound. Each
    // column goes through the entering FTRAN first, so w = B^-1 a.
    const int m = 6;
    std::vector<std::vector<Entry>> cols(m);
    for (int j = 0; j < m; ++j)
        cols[static_cast<std::size_t>(j)].push_back({j, 1.0});
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, cols));
    int updates = 0;
    while (!lu.needsRefactorization() && updates < 1000) {
        std::vector<double> w(static_cast<std::size_t>(m), 0.5);
        w[static_cast<std::size_t>(updates % m)] = 2.0;
        lu.ftranEntering(w.data());
        lu.update(updates % m, w.data());
        ++updates;
    }
    EXPECT_TRUE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 0);
    EXPECT_GE(lu.stats().fill_refactor_requests, 1);
    EXPECT_LT(updates, 1000);
}

TEST(BasisLu, SingularBasisRejected)
{
    // Structurally singular: an empty column.
    {
        std::vector<std::vector<Entry>> cols(3);
        cols[0] = {{0, 1.0}};
        cols[2] = {{2, 1.0}};
        BasisLu lu;
        EXPECT_FALSE(lu.factorize(3, cols));
        EXPECT_FALSE(lu.factorized());
    }
    // Numerically singular: two identical columns.
    {
        std::vector<std::vector<Entry>> cols(3);
        cols[0] = {{0, 1.0}, {1, 2.0}};
        cols[1] = {{0, 1.0}, {1, 2.0}};
        cols[2] = {{2, 1.0}};
        BasisLu lu;
        EXPECT_FALSE(lu.factorize(3, cols));
    }
}

/** What the naive pivot-rule oracle saw on one basis. */
struct OracleRun
{
    std::vector<std::int32_t> rows, cols; //!< pivot (row, column) per step
    bool ok = false;                      //!< every step found a pivot
    int fills = 0;                        //!< fill-in entries created
    int cancels = 0;                      //!< entries dropped by kDropTol
    int guarded = 0;                      //!< entries skipped by the guard
    int fill_singletons = 0;   //!< row-singleton pivots in filled columns
    int cancel_singletons = 0; //!< row-singleton pivots on cancelled rows
};

/**
 * Naive statement of BasisLu's documented pivot rule: a dense copy of
 * the active submatrix, row and column counts recounted every step, and
 * the first minimum of (r-1)(c-1) in column-then-row order among
 * entries that clear max(kSingularTol, kMarkowitzThreshold * column
 * max). An active empty column is structurally singular. Elimination
 * uses the factorization's arithmetic and drop rules, so the active
 * values (and with them the guard) agree bit for bit.
 */
OracleRun
naiveMarkowitz(int m, const std::vector<std::vector<Entry>>& cols)
{
    const auto at = [m](int i, int j) {
        return static_cast<std::size_t>(i) * m + j;
    };
    std::vector<double> a(static_cast<std::size_t>(m) * m, 0.0);
    std::vector<char> nz(a.size(), 0), done(static_cast<std::size_t>(m), 0);
    std::vector<char> filled(done), cancelled(done);
    for (int j = 0; j < m; ++j) {
        for (const Entry& e : cols[static_cast<std::size_t>(j)]) {
            a[at(e.index, j)] = e.value;
            nz[at(e.index, j)] = 1;
        }
    }
    OracleRun run;
    for (int k = 0; k < m; ++k) {
        std::vector<std::int64_t> rc(static_cast<std::size_t>(m), 0),
            cc(static_cast<std::size_t>(m), 0);
        for (int i = 0; i < m; ++i)
            for (int j = 0; j < m; ++j)
                if (nz[at(i, j)])
                    ++rc[static_cast<std::size_t>(i)],
                        ++cc[static_cast<std::size_t>(j)];
        int pr = -1, pc = -1;
        std::int64_t best = -1;
        for (int j = 0; j < m && best != 0; ++j) {
            if (done[static_cast<std::size_t>(j)])
                continue;
            if (cc[static_cast<std::size_t>(j)] == 0)
                return run; // structurally singular
            double colmax = 0.0;
            for (int i = 0; i < m; ++i)
                colmax = std::max(colmax, std::abs(a[at(i, j)]));
            const double guard = std::max(
                BasisLu::kSingularTol, BasisLu::kMarkowitzThreshold * colmax);
            for (int i = 0; i < m && best != 0; ++i) {
                if (!nz[at(i, j)])
                    continue;
                if (std::abs(a[at(i, j)]) < guard) {
                    ++run.guarded;
                    continue;
                }
                const std::int64_t cost =
                    (rc[static_cast<std::size_t>(i)] - 1) *
                    (cc[static_cast<std::size_t>(j)] - 1);
                if (best < 0 || cost < best)
                    best = cost, pr = i, pc = j;
            }
        }
        if (pr < 0)
            return run; // numerically singular
        run.rows.push_back(pr);
        run.cols.push_back(pc);
        if (rc[static_cast<std::size_t>(pr)] == 1 &&
            cc[static_cast<std::size_t>(pc)] > 1) {
            run.fill_singletons += filled[static_cast<std::size_t>(pc)];
            run.cancel_singletons += cancelled[static_cast<std::size_t>(pr)];
        }
        const double inv_pivot = 1.0 / a[at(pr, pc)];
        for (int j = 0; j < m; ++j) {
            if (j == pc || !nz[at(pr, j)])
                continue;
            const double urj = a[at(pr, j)];
            for (int i = 0; i < m; ++i) {
                if (i == pr || !nz[at(i, pc)])
                    continue;
                const double mult = a[at(i, pc)] * inv_pivot;
                if (!nz[at(i, j)]) {
                    const double fill = -urj * mult;
                    if (std::abs(fill) >
                        BasisLu::kDropTol * std::abs(urj * mult)) {
                        a[at(i, j)] = fill, nz[at(i, j)] = 1;
                        ++run.fills, filled[static_cast<std::size_t>(j)] = 1;
                    }
                    continue;
                }
                const double delta = urj * mult;
                const double updated = a[at(i, j)] - delta;
                if (std::abs(updated) >
                    BasisLu::kDropTol *
                        (std::abs(a[at(i, j)]) + std::abs(delta))) {
                    a[at(i, j)] = updated;
                } else {
                    a[at(i, j)] = 0.0, nz[at(i, j)] = 0;
                    ++run.cancels, cancelled[static_cast<std::size_t>(i)] = 1;
                }
            }
            a[at(pr, j)] = 0.0, nz[at(pr, j)] = 0;
        }
        for (int i = 0; i < m; ++i)
            a[at(i, pc)] = 0.0, nz[at(i, pc)] = 0;
        done[static_cast<std::size_t>(pc)] = 1;
    }
    run.ok = true;
    return run;
}

/**
 * A CoSA-shaped basis: three quarters unit columns (slacks and signed
 * artificials on distinct rows), the rest short structural columns over
 * CoSA's small coefficient alphabet. Structural columns share rows, so
 * elimination creates fill-in; some copy part of an earlier column, so
 * updates cancel exactly and rows lose entries to kDropTol; some carry
 * an entry below the 5% guard next to a large one.
 */
std::vector<std::vector<Entry>>
cosaShapedBasis(Rng& rng, int m)
{
    static const double kAlphabet[] = {1.0, -1.0, 2.0, 0.5, 3.0, -2.0, 4.0};
    std::vector<int> rows(static_cast<std::size_t>(m));
    for (int i = 0; i < m; ++i)
        rows[static_cast<std::size_t>(i)] = i;
    rng.shuffle(rows);
    const int units = (3 * m + 3) / 4;
    std::vector<std::vector<Entry>> cols;
    for (int u = 0; u < units; ++u)
        cols.push_back({{rows[static_cast<std::size_t>(u)],
                         rng.nextDouble() < 0.5 ? 1.0 : -1.0}});
    const auto pick = [&](const double* alphabet, std::size_t n) {
        return alphabet[rng.nextBelow(n)];
    };
    std::vector<Entry> prev;
    for (int s = units; s < m; ++s) {
        std::vector<Entry> col;
        auto put = [&col](int row, double value) {
            for (const Entry& e : col)
                if (e.index == row)
                    return;
            col.push_back({row, value});
        };
        put(rows[static_cast<std::size_t>(s)], pick(kAlphabet, 7));
        if (!prev.empty() && rng.nextDouble() < 0.4) {
            for (const Entry& e : prev)
                if (rng.nextDouble() < 0.7)
                    put(e.index, e.value);
        }
        const int extra = 2 + static_cast<int>(rng.nextBelow(3));
        for (int t = 0; t < extra; ++t) {
            // Mostly rows no unit column covers, so columns interact.
            const auto uncovered = static_cast<std::uint64_t>(m - units);
            const int r =
                rng.nextDouble() < 0.85
                    ? rows[static_cast<std::size_t>(units) +
                           rng.nextBelow(uncovered)]
                    : static_cast<int>(
                          rng.nextBelow(static_cast<std::uint64_t>(m)));
            put(r, rng.nextDouble() < 0.15 ? 1e-3 : pick(kAlphabet, 7));
        }
        std::sort(col.begin(), col.end(), [](const Entry& x, const Entry& y) {
            return x.index < y.index;
        });
        prev = col;
        cols.push_back(std::move(col));
    }
    rng.shuffle(cols);
    return cols;
}

/** BasisLu picks exactly the naive rule's pivots, in order, on seeded
 *  CoSA-shaped bases (plus one structurally singular one), and fails
 *  exactly where the rule runs out of pivots. */
TEST(BasisLu, PivotOrderMatchesNaiveMarkowitzRule)
{
    Rng rng(41);
    OracleRun total;
    int completed = 0;
    std::vector<std::pair<int, std::vector<std::vector<Entry>>>> bases;
    for (int m : {4, 9, 16, 28, 40, 57, 80}) {
        for (int rep = 0; rep < 16; ++rep)
            bases.emplace_back(m, cosaShapedBasis(rng, m));
    }
    // Structurally singular: a unit column repeated over another
    // column leaves a row no column can pivot on.
    auto singular = cosaShapedBasis(rng, 24);
    const auto unit = std::find_if(singular.begin(), singular.end(),
                                   [](const auto& c) { return c.size() == 1; });
    const auto structural =
        std::find_if(singular.begin(), singular.end(),
                     [](const auto& c) { return c.size() > 1; });
    ASSERT_TRUE(unit != singular.end() && structural != singular.end());
    *structural = *unit;
    bases.emplace_back(24, singular);

    for (std::size_t b = 0; b < bases.size(); ++b) {
        const auto& [m, cols] = bases[b];
        const OracleRun oracle = naiveMarkowitz(m, cols);
        BasisLu lu;
        const bool ok = lu.factorize(m, cols);
        ASSERT_EQ(ok, oracle.ok) << "basis " << b << " m=" << m;
        // Steps past a failure hold -1 on both sides.
        std::vector<std::int32_t> rows = oracle.rows, pcols = oracle.cols;
        rows.resize(static_cast<std::size_t>(m), -1);
        pcols.resize(static_cast<std::size_t>(m), -1);
        EXPECT_EQ(lu.pivotRows(), rows) << "basis " << b << " m=" << m;
        EXPECT_EQ(lu.pivotCols(), pcols) << "basis " << b << " m=" << m;
        completed += oracle.ok;
        total.fills += oracle.fills;
        total.cancels += oracle.cancels;
        total.guarded += oracle.guarded;
        total.fill_singletons += oracle.fill_singletons;
        total.cancel_singletons += oracle.cancel_singletons;
    }
    EXPECT_FALSE(naiveMarkowitz(24, singular).ok);
    // The inputs must exercise every path of the rule.
    EXPECT_GT(completed, static_cast<int>(bases.size()) / 2);
    EXPECT_GT(total.fills, 0);
    EXPECT_GT(total.cancels, 0);
    EXPECT_GT(total.guarded, 0);
    EXPECT_GT(total.fill_singletons, 0);
    EXPECT_GT(total.cancel_singletons, 0);
}

/** FTRAN and BTRAN of @p lu against a fresh factorization of @p cols,
 *  on two seeded right-hand sides. */
void
expectSolvesMatchFresh(Rng& rng, BasisLu& lu, int m,
                       const std::vector<std::vector<Entry>>& cols,
                       const std::string& where)
{
    BasisLu fresh;
    ASSERT_TRUE(fresh.factorize(m, cols)) << where;
    for (int rep = 0; rep < 2; ++rep) {
        std::vector<double> v(static_cast<std::size_t>(m));
        for (double& x : v)
            x = rng.nextDouble() < 0.3 ? rng.nextDouble() * 4.0 - 2.0 : 0.0;
        std::vector<double> a = v, b = v;
        lu.ftran(a.data());
        fresh.ftran(b.data());
        for (int i = 0; i < m; ++i)
            ASSERT_NEAR(a[static_cast<std::size_t>(i)],
                        b[static_cast<std::size_t>(i)], 1e-9)
                << where << " ftran row " << i;
        a = v;
        b = v;
        lu.btran(a.data());
        fresh.btran(b.data());
        for (int i = 0; i < m; ++i)
            ASSERT_NEAR(a[static_cast<std::size_t>(i)],
                        b[static_cast<std::size_t>(i)], 1e-9)
                << where << " btran row " << i;
    }
}

/**
 * Forrest–Tomlin oracle: on seeded CoSA-shaped bases, long sequences
 * of column replacements (up to the update-count backstop) keep FTRAN
 * and BTRAN equal to a fresh factorization of the current basis after
 * every update. Entering columns are CoSA-shaped too; half the updates
 * take the leaving row from btranLeaving(), as the dual simplex does,
 * and half eliminate it themselves, as the primal simplex does.
 */
TEST(BasisLu, ForrestTomlinUpdatesMatchFreshFactorization)
{
    Rng rng(97);
    int updates = 0, via_btran = 0, factorizations = 0;
    for (int m : {6, 17, 40, 64}) {
        auto cols = cosaShapedBasis(rng, m);
        BasisLu lu;
        if (!lu.factorize(m, cols))
            continue; // a singular draw
        ++factorizations;
        expectSolvesMatchFresh(rng, lu, m, cols, "fresh m=" + std::to_string(m));
        // Candidate entering columns: unit columns and short structural
        // columns drawn from further CoSA-shaped bases.
        const auto pool_a = cosaShapedBasis(rng, m);
        const auto pool_b = cosaShapedBasis(rng, m);
        int done = 0;
        for (int attempt = 0; done < BasisLu::kMaxUpdates && attempt < 20000;
             ++attempt) {
            const auto& pool = attempt % 2 == 0 ? pool_a : pool_b;
            const std::vector<Entry>& a = pool[static_cast<std::size_t>(
                rng.nextBelow(static_cast<std::uint64_t>(m)))];
            const int p =
                static_cast<int>(rng.nextBelow(static_cast<std::uint64_t>(m)));
            std::vector<double> w(static_cast<std::size_t>(m), 0.0);
            for (const Entry& e : a)
                w[static_cast<std::size_t>(e.index)] = e.value;
            lu.ftranEntering(w.data());
            double wmax = 0.0;
            for (double x : w)
                wmax = std::max(wmax, std::abs(x));
            // The simplex only pivots on well-sized elements.
            if (std::abs(w[static_cast<std::size_t>(p)]) < 0.1 * wmax)
                continue;
            if (rng.nextDouble() < 0.5) {
                std::vector<double> rho(static_cast<std::size_t>(m));
                lu.btranLeaving(p, rho.data());
                std::vector<double> unit(static_cast<std::size_t>(m), 0.0);
                unit[static_cast<std::size_t>(p)] = 1.0;
                lu.btran(unit.data());
                EXPECT_EQ(rho, unit) << "btranLeaving is btran(e_p)";
                ++via_btran;
            }
            lu.update(p, w.data());
            cols[static_cast<std::size_t>(p)] = a;
            ++done;
            ++updates;
            expectSolvesMatchFresh(rng, lu, m, cols,
                                   "m=" + std::to_string(m) + " update " +
                                       std::to_string(done));
            if (testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_EQ(done, BasisLu::kMaxUpdates) << "m=" << m;
        // The backstop (or an earlier trigger) has fired, once.
        EXPECT_TRUE(lu.needsRefactorization()) << "m=" << m;
    }
    EXPECT_EQ(factorizations, 4);
    EXPECT_GT(via_btran, updates / 3);
    EXPECT_LT(via_btran, 2 * updates / 3);
}

/** A replacement whose entering column is nearly the column of another
 *  basis position makes the new U diagonal tiny against the spike: the
 *  update is absorbed, counted as unstable, and requests a
 *  refactorization, once. */
TEST(BasisLu, NearSingularReplacementRequestsRefactorization)
{
    Rng rng(5);
    const int m = 24;
    auto cols = cosaShapedBasis(rng, m);
    BasisLu lu;
    ASSERT_TRUE(lu.factorize(m, cols));
    // a = column q + 1e-9 * column p: w = B^-1 a = e_q + 1e-9 e_p.
    const int p = 3, q = 11;
    std::vector<double> w(static_cast<std::size_t>(m), 0.0);
    for (const Entry& e : cols[static_cast<std::size_t>(q)])
        w[static_cast<std::size_t>(e.index)] += e.value;
    for (const Entry& e : cols[static_cast<std::size_t>(p)])
        w[static_cast<std::size_t>(e.index)] += 1e-9 * e.value;
    lu.ftranEntering(w.data());
    EXPECT_NEAR(w[static_cast<std::size_t>(p)], 1e-9, 1e-12);
    EXPECT_FALSE(lu.needsRefactorization());
    lu.update(p, w.data());
    EXPECT_TRUE(lu.needsRefactorization());
    EXPECT_EQ(lu.stats().unstable_updates, 1);
    EXPECT_EQ(lu.stats().fill_refactor_requests, 0);
    EXPECT_EQ(lu.stats().count_refactor_requests, 0);
    // A further update while the request is pending is not a new one
    // (here position 0 is replaced by its own column: w = e_0).
    std::vector<double> ok(static_cast<std::size_t>(m), 0.0);
    for (const Entry& e : cols[0])
        ok[static_cast<std::size_t>(e.index)] = e.value;
    lu.ftranEntering(ok.data());
    lu.update(0, ok.data());
    EXPECT_EQ(lu.stats().unstable_updates, 1);
    // A singular basis fails to factorize and is counted as such.
    cols[static_cast<std::size_t>(p)] = cols[static_cast<std::size_t>(q)];
    EXPECT_FALSE(lu.factorize(m, cols));
    EXPECT_EQ(lu.stats().singular_factorizations, 1);
}

/**
 * Refactorization cadence regression: a CoSA MIP on a ResNet-50 layer
 * at the default work budget refactorizes at most once every four
 * branch-and-bound nodes, not per node.
 */
TEST(BasisLu, CosaMipRefactorizesRarelyPerNode)
{
    cosa::CosaFormulation formulation(LayerSpec::fromLabel("1_56_64_64_1"),
                                      ArchSpec::simbaBaseline(),
                                      cosa::CosaConfig{});
    MipResult mip;
    ASSERT_TRUE(formulation.solve(&mip).has_value());
    ASSERT_GT(mip.nodes, 1000);
    EXPECT_LE(static_cast<double>(mip.basis.factorizations) /
                  static_cast<double>(mip.nodes),
              0.25)
        << mip.basis.factorizations << " factorizations over " << mip.nodes
        << " nodes";
}

/** A tiny LP whose loaded warm basis is singular (duplicate variable
 *  basic in two rows) must be rejected as Numerical, not crash. */
TEST(BasisLu, SimplexRejectsSingularWarmBasis)
{
    for (const BasisMode mode : {BasisMode::Dense, BasisMode::Lu}) {
        LpProblem lp;
        lp.num_rows = 2;
        lp.num_structural = 2;
        lp.matrix = SparseMatrix(
            2, 2, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 2.0}});
        lp.rhs = {4.0, 6.0};
        lp.senses = {Sense::LessEqual, Sense::LessEqual};
        lp.obj = {-1.0, -1.0};
        lp.lb = {0.0, 0.0};
        lp.ub = {10.0, 10.0};

        Simplex splx(lp, mode);
        ASSERT_EQ(splx.solvePrimal(), LpStatus::Optimal);
        Basis bad = splx.saveBasis();
        // Corrupt the snapshot: the same column basic in every row.
        for (auto& b : bad.basic)
            b = bad.basic[0];
        Simplex warm(lp, mode);
        EXPECT_EQ(warm.solveDual(bad), LpStatus::Numerical)
            << "mode=" << static_cast<int>(mode);
    }
}

/**
 * Beale's classic cycling LP: Dantzig pricing stalls at a degenerate
 * vertex until the Bland fallback engages. Both basis representations
 * must walk the identical pivot sequence through the stall, the
 * fallback and the finish.
 */
TEST(BasisLu, BlandFallbackPivotSequenceEquality)
{
    LpProblem lp;
    lp.num_rows = 3;
    lp.num_structural = 4;
    lp.matrix = SparseMatrix(3, 4,
                             {{0, 0, 0.25},
                              {0, 1, -60.0},
                              {0, 2, -0.04},
                              {0, 3, 9.0},
                              {1, 0, 0.5},
                              {1, 1, -90.0},
                              {1, 2, -0.02},
                              {1, 3, 3.0},
                              {2, 2, 1.0}});
    lp.rhs = {0.0, 0.0, 1.0};
    lp.senses = {Sense::LessEqual, Sense::LessEqual, Sense::LessEqual};
    lp.obj = {-0.75, 150.0, -0.02, 6.0};
    lp.lb = {0.0, 0.0, 0.0, 0.0};
    lp.ub = {1e6, 1e6, 1e6, 1e6};

    Simplex dense(lp, BasisMode::Dense);
    Simplex sparse(lp, BasisMode::Lu);
    ASSERT_EQ(dense.solvePrimal(), LpStatus::Optimal);
    ASSERT_EQ(sparse.solvePrimal(), LpStatus::Optimal);
    EXPECT_NEAR(dense.objective(), -0.05, 1e-9);
    EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-9);
    EXPECT_EQ(sparse.iterations(), dense.iterations());
    EXPECT_EQ(sparse.blandActivations(), dense.blandActivations());
}

/** Mirror MipSolver::buildLp without presolve: raw standard form. */
LpProblem
standardForm(const Model& model)
{
    LpProblem lp;
    lp.num_rows = model.numConstrs();
    lp.num_structural = model.numVars();
    std::vector<Triplet> triplets;
    for (int r = 0; r < lp.num_rows; ++r) {
        for (const auto& [col, coef] : model.rowTerms(r))
            triplets.push_back({r, col, coef});
        lp.rhs.push_back(model.rowRhs(r));
        lp.senses.push_back(model.rowSense(r));
    }
    lp.matrix = SparseMatrix(lp.num_rows, lp.num_structural, triplets);
    for (int j = 0; j < lp.num_structural; ++j) {
        lp.obj.push_back(model.objCoef(Var{j}));
        lp.lb.push_back(model.lowerBound(Var{j}));
        lp.ub.push_back(model.upperBound(Var{j}));
    }
    return lp;
}

/**
 * The tentpole acceptance claim: on every unique ResNet-50 layer and
 * two architectures, LU mode performs the dense-inverse reference's
 * exact pivot sequence and lands on its objective. (The sibling
 * sparse-equivalence suite ties the same sequence back to the seed
 * dense tableau, so all three representations agree.)
 */
TEST(BasisLu, DenseVsLuPivotSequenceEqualOnResNet50)
{
    const Workload net = workloads::resNet50();
    const ArchSpec archs[2] = {ArchSpec::simbaBaseline(),
                               ArchSpec::simba8x8()};
    int compared = 0;
    for (const ArchSpec& arch : archs) {
        for (const LayerSpec& layer : net.layers) {
            cosa::CosaFormulation formulation(layer, arch,
                                              cosa::CosaConfig{});
            const LpProblem lp = standardForm(formulation.model());
            Simplex dense(lp, BasisMode::Dense);
            Simplex sparse(lp, BasisMode::Lu);
            const LpStatus d_st = dense.solvePrimal();
            const LpStatus s_st = sparse.solvePrimal();
            ASSERT_EQ(d_st, LpStatus::Optimal)
                << layer.name << " on " << arch.name;
            ASSERT_EQ(s_st, LpStatus::Optimal)
                << layer.name << " on " << arch.name;
            EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-6)
                << layer.name << " on " << arch.name;
            EXPECT_EQ(sparse.iterations(), dense.iterations())
                << layer.name << " on " << arch.name
                << ": pivot sequences diverged";
            // LU mode must actually be living off eta updates, not
            // silently refactorizing every pivot.
            EXPECT_GT(sparse.basisStats().eta_updates, 0) << layer.name;
            ++compared;
        }
    }
    EXPECT_EQ(compared, 46);
}

/**
 * The schedule-cache contract behind MipParams::basis_mode not keying
 * the cache: full branch-and-bound CoSA solves return bit-identical
 * schedules and search statistics in both modes, including under a
 * deterministic work budget (identical budget cutoff points require
 * the identical pivot sequence).
 */
TEST(BasisLu, CosaMipSolvesIdenticalAcrossBasisModes)
{
    const char* labels[] = {"3_14_256_256_2", "1_1_64_32_1",
                            "1_1_2048_1000_1"};
    const ArchSpec arch = ArchSpec::simbaBaseline();
    for (const char* label : labels) {
        const LayerSpec layer = LayerSpec::fromLabel(label);
        cosa::SearchResult results[2];
        for (int i = 0; i < 2; ++i) {
            cosa::CosaConfig config;
            config.mip.work_limit = 4000;
            config.mip.basis_mode =
                i == 0 ? BasisMode::Dense : BasisMode::Lu;
            results[i] = cosa::CosaScheduler(config).schedule(layer, arch);
            ASSERT_TRUE(results[i].found) << label;
        }
        EXPECT_EQ(results[0].eval.cycles, results[1].eval.cycles) << label;
        EXPECT_EQ(results[0].mapping, results[1].mapping) << label;
        EXPECT_EQ(results[0].stats.mip_nodes, results[1].stats.mip_nodes)
            << label;
        EXPECT_EQ(results[0].stats.lp_iterations,
                  results[1].stats.lp_iterations)
            << label;
    }
}

/** Dual warm re-solves (the branch-and-bound workhorse) walk the same
 *  pivots in both modes across randomized bound changes. */
TEST(BasisLu, DualWarmStartsEqualAcrossBasisModes)
{
    Rng rng(23);
    const Workload net = workloads::resNet50();
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const LayerSpec& layer = net.layers[4];
    cosa::CosaFormulation formulation(layer, arch, cosa::CosaConfig{});
    const LpProblem lp = standardForm(formulation.model());

    Simplex dense(lp, BasisMode::Dense);
    Simplex sparse(lp, BasisMode::Lu);
    ASSERT_EQ(dense.solvePrimal(), LpStatus::Optimal);
    ASSERT_EQ(sparse.solvePrimal(), LpStatus::Optimal);
    const Basis dense_basis = dense.saveBasis();
    const Basis sparse_basis = sparse.saveBasis();

    for (int round = 0; round < 8; ++round) {
        // Branch-like bound change: fix a random structural column
        // near its relaxation value.
        const int j = static_cast<int>(rng.nextDouble() * lp.num_structural) %
                      lp.num_structural;
        const double fix =
            std::floor(std::max(0.0, dense.varLb(j)) + 0.5);
        dense.setVarBounds(j, fix, fix);
        sparse.setVarBounds(j, fix, fix);
        const LpStatus d_st = dense.solveDual(dense_basis);
        const LpStatus s_st = sparse.solveDual(sparse_basis);
        EXPECT_EQ(d_st, s_st) << "round " << round;
        if (d_st == LpStatus::Optimal && s_st == LpStatus::Optimal) {
            EXPECT_NEAR(sparse.objective(), dense.objective(), 1e-6)
                << "round " << round;
        }
        EXPECT_EQ(sparse.iterations(), dense.iterations())
            << "round " << round << ": dual pivot sequences diverged";
    }
}

/**
 * Copy semantics of the LU basis: a Simplex copied partway through its
 * eta file, as MipSolver copies `base` for warm starts and RINS rounds,
 * re-solves exactly like the original: same status and iteration count,
 * bit-equal objective and solution. The copy owns its factors and eta
 * file; factorization scratch does not carry over, so the original
 * re-solving (and refactorizing) first changes nothing for the copy.
 */
TEST(BasisLu, SimplexCopyResolvesLikeTheOriginal)
{
    const Workload net = workloads::resNet50();
    cosa::CosaFormulation formulation(net.layers[4], ArchSpec::simbaBaseline(),
                                      cosa::CosaConfig{});
    const LpProblem lp = standardForm(formulation.model());
    Simplex dive(lp, BasisMode::Lu);
    ASSERT_EQ(dive.solvePrimal(), LpStatus::Optimal);

    Rng rng(5);
    int steps = 0, mid_file_copies = 0, refactorized_originals = 0;
    BasisLu::Stats before = dive.basisStats();
    for (int step = 0; step < 16; ++step) {
        // Etas absorbed since the last copy with no factorization in
        // between: this copy takes a non-empty eta file.
        const BasisLu::Stats at_copy = dive.basisStats();
        mid_file_copies += at_copy.factorizations == before.factorizations &&
                           at_copy.eta_updates > before.eta_updates;
        before = at_copy;
        Simplex copy = dive;

        // Branch down on a fractional column (scan from a random start).
        const std::vector<double> x = dive.solution();
        int j = -1;
        const int start = static_cast<int>(
            rng.nextBelow(static_cast<std::uint64_t>(lp.num_structural)));
        for (int t = 0; t < lp.num_structural && j < 0; ++t) {
            const int c = (start + t) % lp.num_structural;
            if (x[c] - std::floor(x[c]) > 1e-6)
                j = c;
        }
        if (j < 0)
            break; // integral: the dive is over
        // Down branch first; an infeasible one flips to the up branch
        // and re-solves warm, as the tree search does for siblings.
        const double lb = dive.varLb(j), ub = dive.varUb(j);
        LpStatus st = LpStatus::Infeasible;
        for (const auto& [lo, hi] : {std::pair{lb, std::floor(x[j])},
                                     std::pair{std::ceil(x[j]), ub}}) {
            if (st == LpStatus::Optimal)
                break;
            dive.setVarBounds(j, lo, hi);
            copy.setVarBounds(j, lo, hi);
            st = dive.solveDualFromCurrent();
            refactorized_originals +=
                dive.basisStats().factorizations > at_copy.factorizations;
            ASSERT_EQ(copy.solveDualFromCurrent(), st) << "step " << step;
            EXPECT_EQ(copy.iterations(), dive.iterations()) << "step " << step;
            EXPECT_EQ(copy.basisStats().factorizations,
                      dive.basisStats().factorizations)
                << "step " << step;
        }
        if (st != LpStatus::Optimal)
            break;
        EXPECT_EQ(copy.objective(), dive.objective()) << "step " << step;
        EXPECT_EQ(copy.solution(), dive.solution()) << "step " << step;
        ++steps;
    }
    EXPECT_GT(steps, 4);
    EXPECT_GT(mid_file_copies, 0);
    EXPECT_GT(refactorized_originals, 0);
}

} // namespace
} // namespace cosa::solver
