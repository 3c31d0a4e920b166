#pragma once

/**
 * @file
 * Sparse LU representation of the simplex basis with Forrest–Tomlin
 * updates — the replacement for the explicit dense basis inverse.
 *
 * The basis matrix B (one column per basic variable) is factorized as
 *     P B Q = L U
 * where P/Q are row/column permutations chosen by Markowitz ordering
 * (minimum fill estimate under a threshold-pivoting stability guard),
 * L is unit lower triangular and U upper triangular, both stored
 * sparse. Each elimination step k pairs a row of B with a basis
 * position; U's rows and columns are indexed by step.
 *
 * A simplex pivot replaces one basis column. Rather than refactorizing,
 * the replacement is absorbed by a Forrest–Tomlin update of U: the
 * entering column's spike L^-1 a_q (recorded by ftranEntering(), the
 * FTRAN the ratio test needs anyway) replaces U's column for the
 * leaving step, that step moves to the end of U's triangular order,
 * and its row is eliminated against the rows now after it. The
 * elimination multipliers form one row eta R_t, so after K updates
 *     B^-1 = Q U^-1 R_K ... R_1 L^-1 P,
 * with U the updated triangle. The multipliers follow from U^-T e_k,
 * which the dual simplex's BTRAN of the leaving row computes anyway
 * (btranLeaving() records it); without that record the update
 * eliminates the row itself. FTRAN and BTRAN are an L solve, the R
 * etas (one sparse dot product or scatter each) and a U solve over the
 * order array. An update adds the spike's few nonzeros to U, not a
 * dense column of B^-1 a_q, so the factors stay close to fresh ones.
 *
 * Refactorization is requested by the representation, not on a fixed
 * pivot cadence, for one of three reasons: an update whose new diagonal
 * is tiny against its spike (stability), the U + R nonzeros outgrowing
 * the fresh factors (fill), or the update-count backstop. The simplex
 * loops poll needsRefactorization() at iteration boundaries. Stats
 * counts each request once, under its first reason, and counts failed
 * factorizations as a fourth.
 *
 * Factorization cost. Most basis columns are unit slack or artificial
 * columns, so most elimination steps have a zero-cost Markowitz pivot.
 * A bitset of candidate columns (marked when elimination rewrites a
 * column or one of its rows drops to a single entry) finds the first
 * such pivot without rescanning unchanged columns; only a nucleus with
 * no zero-cost pivot pays the full scan. The pivot order is exactly
 * the full scan's. The active submatrix, all elimination scratch and
 * the update scratch live in a workspace owned by the BasisLu and
 * reused across factorizations; copies of a BasisLu copy the factors
 * and the R etas, not the workspace. See docs/solver-numerics.md for
 * the policy, the tolerance table and the update's storage.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "solver/sparse_matrix.hpp"

namespace cosa::solver {

/** Which representation of B^-1 a Simplex instance maintains. */
enum class BasisMode : std::uint8_t {
    Dense, //!< explicit dense inverse (the historical reference path)
    Lu,    //!< sparse LU factors + Forrest–Tomlin updates
};

/**
 * Process-wide default basis mode: BasisMode::Lu, overridable with the
 * environment variable COSA_BASIS_MODE=dense|lu (read once). The
 * override exists for CI matrix legs and numerics triage — both modes
 * produce identical pivot sequences by contract, so flipping it must
 * not change any result, only the cost of obtaining it.
 */
BasisMode defaultBasisMode();

/** Sparse LU factors of a basis matrix, kept current by Forrest–Tomlin
 *  updates. */
class BasisLu
{
  public:
    using Entry = SparseMatrix::Entry; //!< (index, value) coefficient

    /** Lifetime counters (survive refactorizations). Every
     *  refactorization request is counted once, under the first of
     *  unstable, fill and count that raised it. */
    struct Stats
    {
        std::int64_t factorizations = 0; //!< fresh LU factorizations
        std::int64_t eta_updates = 0;    //!< Forrest–Tomlin updates absorbed
        /** Requests from an update whose new U diagonal failed the
         *  stability tolerance. */
        std::int64_t unstable_updates = 0;
        /** Requests from U + R nonzeros outgrowing the growth bound. */
        std::int64_t fill_refactor_requests = 0;
        /** Requests from the update-count backstop. */
        std::int64_t count_refactor_requests = 0;
        /** factorize() calls that found the basis singular. */
        std::int64_t singular_factorizations = 0;

        /** Accumulate another snapshot (stat roll-ups across solves). */
        void
        add(const Stats& other)
        {
            factorizations += other.factorizations;
            eta_updates += other.eta_updates;
            unstable_updates += other.unstable_updates;
            fill_refactor_requests += other.fill_refactor_requests;
            count_refactor_requests += other.count_refactor_requests;
            singular_factorizations += other.singular_factorizations;
        }

        /** Counter advance since @p entry. Simplex copies inherit their
         *  source's counters, so per-clone work is exit minus the
         *  snapshot taken at copy time. */
        Stats
        since(const Stats& entry) const
        {
            Stats d;
            d.factorizations = factorizations - entry.factorizations;
            d.eta_updates = eta_updates - entry.eta_updates;
            d.unstable_updates = unstable_updates - entry.unstable_updates;
            d.fill_refactor_requests =
                fill_refactor_requests - entry.fill_refactor_requests;
            d.count_refactor_requests =
                count_refactor_requests - entry.count_refactor_requests;
            d.singular_factorizations =
                singular_factorizations - entry.singular_factorizations;
            return d;
        }
    };

    /** Start loading a basis for factorize(): follow with one
     *  addColumn() per basis position, in position order. */
    void beginBasis();

    /** Append the next basis column (row indices ascending). It is
     *  copied into the factorization workspace. */
    void addColumn(std::span<const Entry> col);

    /**
     * Factorize the m x m basis loaded since beginBasis() (m columns
     * over rows 0..m-1). Drops every update. Returns false when the
     * basis is singular (an active column runs empty, or no pivot
     * above kSingularTol survives); the factors are then unusable
     * until the next successful factorize().
     */
    bool factorize();

    /** Load @p cols (column j at basis position j) and factorize. */
    bool factorize(int m, const std::vector<std::vector<Entry>>& cols);

    /** True when factorize() has succeeded at least once. */
    bool factorized() const { return factorized_; }

    /** In place x := B^-1 x (dense length-m vector). */
    void ftran(double* x) const;

    /**
     * ftran() of an entering column a_q that also records its spike
     * (the vector the U solve starts from) for the update() replacing
     * a basis column with a_q. Only the latest call's spike is kept,
     * and update() or factorize() consumes it.
     */
    void ftranEntering(double* x);

    /** In place y := B^-T y (dense length-m vector). */
    void btran(double* y) const;

    /**
     * y := B^-T e_p, row p of B^-1 (dense, length m), that also
     * records what an update() replacing basis position p needs to
     * eliminate the leaving row. The record is kept until the next
     * btranLeaving(), update() or factorize(); without it, update()
     * eliminates the row itself.
     */
    void btranLeaving(int p, double* y);

    /**
     * Absorb a pivot that replaces basis position @p p with the column
     * of the last ftranEntering() call, whose result is @p w = B^-1 a_q
     * (dense, length m; w[p] is the pivot element, nonzero by the
     * caller's ratio test). Always succeeds, but requests a
     * refactorization when the new U diagonal is below
     * kUpdateStabilityTol times the spike's largest entry, or when
     * it disagrees with w[p] times the old diagonal (their ratio is
     * w[p] in exact arithmetic) by more than kUpdateStabilityTol
     * relative; the U + R growth bound and the update-count backstop
     * request one too.
     */
    void update(int p, const double* w);

    /** True when a refactorization has been requested since the last
     *  factorize(). Polled by the simplex loops at iteration
     *  boundaries. */
    bool needsRefactorization() const
    {
        return factorized_ && refactor_requested_;
    }

    const Stats& stats() const { return stats_; }

    /** Pivot order of the last factorize(): step k eliminated row
     *  pivotRows()[k] with basis column pivotCols()[k]. Steps a failed
     *  factorization never reached hold -1. */
    const std::vector<std::int32_t>& pivotRows() const { return prow_; }
    const std::vector<std::int32_t>& pivotCols() const { return pcol_; }

    /** Threshold-pivoting guard: a Markowitz pivot must be at least
     *  this fraction of its column's largest active entry. */
    static constexpr double kMarkowitzThreshold = 0.05;
    /** Absolute pivot floor; below it a basis is declared singular
     *  (matches the dense path's Gauss-Jordan tolerance). */
    static constexpr double kSingularTol = 1e-11;
    /** Update stability tolerance: a new U diagonal below this
     *  fraction of its spike's largest entry, or off its exact value
     *  by more than this relative error, requests a refactorization. */
    static constexpr double kUpdateStabilityTol = 1e-7;
    /** Elimination entries whose updated magnitude falls below this
     *  fraction of the update's operand magnitudes are dropped as
     *  cancellation noise. */
    static constexpr double kDropTol = 1e-13;
    /** Backstop on the updates absorbed between factorizations. */
    static constexpr int kMaxUpdates = 150;

  private:
    /** Growth bound: once the U + R nonzeros added by updates exceed
     *  it, the next loop boundary refactorizes. */
    std::int64_t growthBound() const
    {
        const std::int64_t by_size = 4 * static_cast<std::int64_t>(m_);
        const std::int64_t by_fill = 2 * factor_nnz_;
        return by_size > by_fill ? by_size : by_fill;
    }

    /** An entering column's spike: value is dense by step, and steps
     *  lists every step where it may be nonzero (some twice). */
    struct Spike
    {
        std::vector<double> value;
        std::vector<std::int32_t> steps;
    };

    /** ftran(), recording the spike into @p spike when non-null. */
    void solve(double* x, Spike* spike) const;

    /** btran(), starting the U^T solve at position @p first (y is
     *  zero at every earlier position) and recording its nonzeros,
     *  (step, value) in position order, into @p leaving when non-null. */
    void solveTransposed(double* y, int first,
                         std::vector<Entry>* leaving) const;

    /** Sparse lines of T (U's rows, or its column pattern): line k is
     *  pool[beg[k], beg[k] + len[k]) with room for cap[k] entries. A
     *  line outgrowing its room moves to the end of the pool. */
    template <typename T>
    struct Lines
    {
        std::vector<T> pool;
        std::vector<std::int64_t> beg;
        std::vector<std::int32_t> len, cap;

        Lines() = default;
        /** A copy packs the lines tightly, leaving moved lines' old
         *  room behind. */
        Lines(const Lines& other);
        Lines& operator=(const Lines& other);
        Lines(Lines&&) = default;
        Lines& operator=(Lines&&) = default;

        std::span<const T>
        operator[](std::int32_t k) const
        {
            const auto uk = static_cast<std::size_t>(k);
            return {pool.data() + beg[uk], static_cast<std::size_t>(len[uk])};
        }
        /** Append @p e to line @p k. */
        void append(std::int32_t k, T e);
        /** Remove line @p k's entry with index @p index (the last entry
         *  takes its place). */
        void remove(std::int32_t k, std::int32_t index);
    };

    /**
     * Factorization and update scratch, reused by every factorize() and
     * update() so neither allocates once warm. A copy of a BasisLu
     * starts with an empty workspace (a Simplex clone owns its factors,
     * not its parent's scratch) and builds its own on first use.
     */
    struct Workspace
    {
        Workspace() = default;
        Workspace(const Workspace&) {}
        Workspace& operator=(const Workspace&) { return *this; }

        /** Active submatrix, column-major with rows ascending: column j
         *  is pool[beg[j], beg[j] + len[j]) with room for cap[j]
         *  entries. A column outgrowing its room moves to the end. */
        std::vector<Entry> pool;
        std::vector<std::int64_t> beg;
        std::vector<std::int32_t> len, cap;
        std::vector<std::int32_t> row_count; //!< live entries per row
        /** Per row, a list of the columns that (may) hold an entry of
         *  it: row_head[i] -> node_next -> ... -> -1, node_col the
         *  column. Fill-in prepends; cancellations leave stale ids. */
        std::vector<std::int32_t> row_head, node_col, node_next;
        /** Bit j set: column j is not yet pivoted. */
        std::vector<std::uint64_t> active;
        /** Bit j set: active column j may hold a zero-cost pivot. */
        std::vector<std::uint64_t> candidate;
        std::vector<Entry> mult;   //!< (row, multiplier) of the pivot column
        std::vector<Entry> newcol; //!< merge scratch for column updates
        std::vector<std::int32_t> prow_cols; //!< pivot row's columns

        Spike spike; //!< of the last ftranEntering()
        bool spike_valid = false;
        /** Dense by step, all zero between updates: the leaving row
         *  during its elimination. */
        std::vector<double> row;
        std::vector<std::int64_t> heap; //!< the leaving row's queue
        /** U^-T e_kp of the last btranLeaving(), for basis position
         *  leaving_pos (-1: none). */
        std::vector<Entry> leaving;
        int leaving_pos = -1;
    };

    int m_ = 0;
    bool factorized_ = false;
    bool refactor_requested_ = false;

    // P B Q = L U by elimination step k = 0..m-1.
    std::vector<std::int32_t> prow_; //!< pivot row (original id) of step k
    std::vector<std::int32_t> pcol_; //!< pivot column (basis position)
    std::vector<std::int32_t> step_of_col_; //!< inverse of pcol_
    /** L stored by elimination step: l_start_[k]..l_start_[k+1] are the
     *  (original row, multiplier) entries of L's column k. */
    std::vector<std::int64_t> l_start_;
    std::vector<Entry> l_entries_;
    /** U's off-diagonal entries by row, (column step, value), right of
     *  the diagonal in order_; u_cols_ holds the row steps of each
     *  column, for removing a leaving column or row. */
    std::vector<double> u_diag_;
    Lines<Entry> u_rows_;
    Lines<std::int32_t> u_cols_;
    /** U is triangular in this step order: order_[i] is the step at
     *  position i, pos_ its inverse. Updates move steps to the end. */
    std::vector<std::int32_t> order_, pos_;
    /** R etas, oldest first: eta t replaces z[r_step_[t]] by
     *  z[r_step_[t]] - sum of value * z[step] over r_entries_[
     *  r_start_[t], r_start_[t + 1]). */
    std::vector<std::int64_t> r_start_;
    std::vector<std::int32_t> r_step_;
    std::vector<Entry> r_entries_;
    std::int64_t factor_nnz_ = 0; //!< nnz(L) + nnz(U) + m when fresh
    std::int64_t growth_ = 0;     //!< U + R nonzeros added since then
    int num_updates_ = 0;         //!< updates since the last factorize()

    mutable std::vector<double> work_; //!< length-m solve scratch
    Workspace ws_;

    Stats stats_;
};

} // namespace cosa::solver
