#pragma once

/**
 * @file
 * Sparse LU representation of the simplex basis with product-form
 * (eta) updates — the replacement for the explicit dense basis inverse.
 *
 * The basis matrix B (one column per basic variable) is held as
 *     P B Q = L U
 * where P/Q are row/column permutations chosen by Markowitz ordering
 * (minimum fill estimate under a threshold-pivoting stability guard),
 * L is unit lower triangular and U upper triangular, both stored
 * sparse. FTRAN (x = B^-1 v) and BTRAN (y = B^-T v) are two triangular
 * solves each: the L solves skip zero multipliers, the U solves visit
 * every step, so a solve costs O(m + nnz(LU) + nnz(etas)).
 *
 * A simplex pivot replaces one basis column. Rather than refactorizing,
 * the replacement is absorbed as a product-form eta matrix: with
 * w = B^-1 a_q (the ftran'd entering column, already computed for the
 * ratio test) and p the leaving basis position,
 *     B' = B E,   E = I + (w - e_p) e_p',
 * so B'^-1 = E^-1 B^-1 and E^-1 costs O(nnz(w)) to apply. The eta file
 * is flat: one entries array, with a start, a pivot position and an
 * inverse pivot per eta. Every FTRAN/BTRAN streams through it, and
 * refactorization folds it back into fresh L U factors.
 *
 * Refactorization is *stability-triggered*, not on a fixed pivot
 * cadence: an update whose eta pivot |w_p| is small against ||w||_inf
 * (growth beyond kEtaStabilityTol) flags the representation, and the
 * eta file is also bounded by fill (total eta nonzeros against the
 * factor nonzeros) and by a hard count backstop. The simplex loops poll
 * needsRefactorization() at iteration boundaries.
 *
 * Factorization cost. Most basis columns are unit slack or artificial
 * columns, so most elimination steps have a zero-cost Markowitz pivot.
 * A bitset of candidate columns (marked when elimination rewrites a
 * column or one of its rows drops to a single entry) finds the first
 * such pivot without rescanning unchanged columns; only a nucleus with
 * no zero-cost pivot pays the full scan. The pivot order is exactly
 * the full scan's. The active submatrix and all elimination scratch
 * live in a workspace owned by the BasisLu and reused across
 * factorizations; copies of a BasisLu do not inherit it. See
 * docs/solver-numerics.md for the policy, the tolerance table and why
 * these shortcuts leave every result bit-identical.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "solver/sparse_matrix.hpp"

namespace cosa::solver {

/** Which representation of B^-1 a Simplex instance maintains. */
enum class BasisMode : std::uint8_t {
    Dense, //!< explicit dense inverse (the historical reference path)
    Lu,    //!< sparse LU factors + product-form eta updates
};

/**
 * Process-wide default basis mode: BasisMode::Lu, overridable with the
 * environment variable COSA_BASIS_MODE=dense|lu (read once). The
 * override exists for CI matrix legs and numerics triage — both modes
 * produce identical pivot sequences by contract, so flipping it must
 * not change any result, only the cost of obtaining it.
 */
BasisMode defaultBasisMode();

/** Sparse LU factors of a basis matrix plus the eta file on top. */
class BasisLu
{
  public:
    using Entry = SparseMatrix::Entry; //!< (index, value) coefficient

    /** Lifetime counters (survive refactorizations). */
    struct Stats
    {
        std::int64_t factorizations = 0;   //!< fresh LU factorizations
        std::int64_t eta_updates = 0;      //!< product-form updates absorbed
        /** Updates whose eta pivot failed the growth tolerance; each
         *  requests a refactorization at the next loop boundary. */
        std::int64_t unstable_updates = 0;
        /** Refactorization requests from the eta-file fill bound. */
        std::int64_t fill_refactor_requests = 0;

        /** Accumulate another snapshot (stat roll-ups across solves). */
        void
        add(const Stats& other)
        {
            factorizations += other.factorizations;
            eta_updates += other.eta_updates;
            unstable_updates += other.unstable_updates;
            fill_refactor_requests += other.fill_refactor_requests;
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
     * over rows 0..m-1). Resets the eta file. Returns false when the
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

    /** In place y := B^-T y (dense length-m vector). */
    void btran(double* y) const;

    /**
     * Absorb a pivot that replaces basis position @p p, where @p w is
     * the ftran'd entering column B^-1 a_q (dense, length m; w[p] is
     * the pivot element, guaranteed nonzero by the caller's ratio
     * test). Always succeeds — the eta is exact regardless of
     * magnitude — but flags a stability refactorization request when
     * |w[p]| < kEtaStabilityTol * ||w||_inf, since applying such an eta
     * amplifies error by ||w||_inf / |w[p]|.
     */
    void update(int p, const double* w);

    /**
     * True when the eta file should be folded into fresh factors: a
     * preceding update tripped the growth tolerance, the accumulated
     * eta fill exceeds the factor fill, or the hard count backstop is
     * reached. Polled by the simplex loops at iteration boundaries.
     */
    bool needsRefactorization() const;

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
    /** Eta growth tolerance: |w_p| / ||w||_inf below this requests a
     *  refactorization. */
    static constexpr double kEtaStabilityTol = 1e-7;
    /** Elimination entries whose updated magnitude falls below this
     *  fraction of the update's operand magnitudes are dropped as
     *  cancellation noise. */
    static constexpr double kDropTol = 1e-13;
    /** Hard backstop on the eta count regardless of fill. */
    static constexpr int kMaxEtas = 240;

  private:
    /** Eta-file fill bound: once the accumulated eta nonzeros exceed
     *  it, the next loop boundary refactorizes. */
    std::int64_t fillBound() const
    {
        const std::int64_t by_size = 4 * static_cast<std::int64_t>(m_);
        const std::int64_t by_fill = 2 * factor_nnz_;
        return by_size > by_fill ? by_size : by_fill;
    }

    /** Eta nonzeros: the off-pivot entries plus one pivot per eta. */
    std::int64_t etaNnz() const
    {
        return static_cast<std::int64_t>(eta_entries_.size() +
                                         eta_pos_.size());
    }

    /**
     * Factorization scratch, reused by every factorize() so a warm
     * refactorization allocates nothing. A copy of a BasisLu starts
     * with an empty workspace (a Simplex clone owns its factors and
     * eta file, not its parent's scratch) and builds its own on first
     * use.
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
        std::vector<std::int32_t> prow_cols;   //!< pivot row's columns
        std::vector<std::int32_t> col_to_step; //!< U column remap
    };

    int m_ = 0;
    bool factorized_ = false;
    bool unstable_ = false;

    // P B Q = L U in pivot-step order k = 0..m-1.
    std::vector<std::int32_t> prow_; //!< pivot row (original id) of step k
    std::vector<std::int32_t> pcol_; //!< pivot column (basis position)
    /** L stored by elimination step: l_start_[k]..l_start_[k+1] are the
     *  (original row, multiplier) entries of L's column k. */
    std::vector<std::int64_t> l_start_;
    std::vector<Entry> l_entries_;
    /** U stored by pivot row: u_start_[k]..u_start_[k+1] are the
     *  (step index, value) entries right of the diagonal. */
    std::vector<double> u_diag_;
    std::vector<std::int64_t> u_start_;
    std::vector<Entry> u_entries_;

    /** Eta file: eta t replaced basis position eta_pos_[t]; its
     *  off-pivot entries (i, w[i]) are eta_entries_[eta_start_[t],
     *  eta_start_[t + 1]). */
    std::vector<std::int64_t> eta_start_;
    std::vector<std::int32_t> eta_pos_;
    std::vector<double> eta_inv_pivot_; //!< 1 / w[p] per eta
    std::vector<Entry> eta_entries_;
    std::int64_t factor_nnz_ = 0;

    mutable std::vector<double> work_; //!< length-m solve scratch
    Workspace ws_;

    Stats stats_;
};

} // namespace cosa::solver
