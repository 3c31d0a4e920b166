#include "solver/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"

namespace cosa::solver {

namespace {

// Bitsets over basis positions, 64 columns per word.
void
fillBits(std::vector<std::uint64_t>& bits, int n)
{
    const auto un = static_cast<std::size_t>(n);
    bits.assign((un + 63) / 64, ~std::uint64_t{0});
    if (un % 64 != 0)
        bits.back() = (std::uint64_t{1} << (un % 64)) - 1;
}

bool
testBit(const std::vector<std::uint64_t>& bits, int j)
{
    return (bits[static_cast<std::size_t>(j) / 64] >> (j % 64)) & 1;
}

void
setBit(std::vector<std::uint64_t>& bits, int j)
{
    bits[static_cast<std::size_t>(j) / 64] |= std::uint64_t{1} << (j % 64);
}

void
clearBit(std::vector<std::uint64_t>& bits, int j)
{
    bits[static_cast<std::size_t>(j) / 64] &= ~(std::uint64_t{1} << (j % 64));
}

/** Lowest set bit at or after @p from, or -1. */
int
nextBit(const std::vector<std::uint64_t>& bits, int from)
{
    std::size_t w = static_cast<std::size_t>(from) / 64;
    if (w >= bits.size())
        return -1;
    std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from % 64));
    while (word == 0) {
        if (++w == bits.size())
            return -1;
        word = bits[w];
    }
    return static_cast<int>(w * 64) + std::countr_zero(word);
}

/** Threshold-pivoting guard of an active column: its eligible pivots
 *  are at least this large. */
double
pivotGuard(std::span<const SparseMatrix::Entry> col)
{
    double colmax = 0.0;
    for (const SparseMatrix::Entry& e : col)
        colmax = std::max(colmax, std::abs(e.value));
    return std::max(BasisLu::kSingularTol,
                    BasisLu::kMarkowitzThreshold * colmax);
}

} // namespace

BasisMode
defaultBasisMode()
{
    static const BasisMode mode = [] {
        const char* env = std::getenv("COSA_BASIS_MODE");
        if (env != nullptr && std::strcmp(env, "dense") == 0)
            return BasisMode::Dense;
        if (env != nullptr && env[0] != '\0' &&
            std::strcmp(env, "lu") != 0) {
            warn("COSA_BASIS_MODE=\"", env,
                 "\" is not dense|lu; using lu");
        }
        return BasisMode::Lu;
    }();
    return mode;
}

void
BasisLu::beginBasis()
{
    ws_.pool.clear();
    ws_.beg.clear();
    ws_.len.clear();
    ws_.cap.clear();
}

void
BasisLu::addColumn(std::span<const Entry> col)
{
    const auto n = static_cast<std::int32_t>(col.size());
    ws_.beg.push_back(static_cast<std::int64_t>(ws_.pool.size()));
    ws_.len.push_back(n);
    ws_.cap.push_back(n);
    ws_.pool.insert(ws_.pool.end(), col.begin(), col.end());
}

bool
BasisLu::factorize(int m, const std::vector<std::vector<Entry>>& cols)
{
    COSA_ASSERT(static_cast<int>(cols.size()) == m,
                "basis has ", cols.size(), " columns for ", m, " rows");
    beginBasis();
    for (const auto& col : cols)
        addColumn(col);
    return factorize();
}

bool
BasisLu::factorize()
{
    Workspace& ws = ws_;
    const int m = static_cast<int>(ws.len.size());
    const auto um = static_cast<std::size_t>(m);
    m_ = m;
    factorized_ = false;
    unstable_ = false;
    eta_start_.assign(1, 0);
    eta_pos_.clear();
    eta_inv_pivot_.clear();
    eta_entries_.clear();
    prow_.assign(um, -1);
    pcol_.assign(um, -1);
    l_start_.assign(1, 0);
    l_entries_.clear();
    u_diag_.assign(um, 0.0);
    u_start_.assign(1, 0);
    u_entries_.clear();
    work_.assign(um, 0.0);

    // The workspace holds the loaded basis as the active submatrix,
    // physically maintained (eliminated entries are removed, fill-in is
    // inserted) so column lengths double as live Markowitz column
    // counts.
    ws.row_count.assign(um, 0);
    ws.row_head.assign(um, -1);
    ws.node_col.clear();
    ws.node_next.clear();
    const auto addToRow = [&ws](std::int32_t row, std::int32_t col) {
        ws.node_col.push_back(col);
        ws.node_next.push_back(ws.row_head[static_cast<std::size_t>(row)]);
        ws.row_head[static_cast<std::size_t>(row)] =
            static_cast<std::int32_t>(ws.node_col.size()) - 1;
    };
    const auto column = [&ws](int j) {
        const auto uj = static_cast<std::size_t>(j);
        return std::span<Entry>(ws.pool.data() + ws.beg[uj],
                                static_cast<std::size_t>(ws.len[uj]));
    };
    for (int j = 0; j < m; ++j) {
        for (const Entry& e : column(j)) {
            ++ws.row_count[static_cast<std::size_t>(e.index)];
            addToRow(e.index, j);
        }
    }
    // Every column starts active and as a zero-cost candidate.
    fillBits(ws.active, m);
    fillBits(ws.candidate, m);
    // A row down to one entry gives that entry's column a zero-cost
    // pivot: mark every active column on the row's list.
    const auto markRow = [&ws](std::int32_t row) {
        for (std::int32_t n = ws.row_head[static_cast<std::size_t>(row)];
             n >= 0; n = ws.node_next[static_cast<std::size_t>(n)]) {
            const std::int32_t j = ws.node_col[static_cast<std::size_t>(n)];
            if (testBit(ws.active, j))
                setBit(ws.candidate, j);
        }
    };

    // U rows are recorded with basis-position column ids during the
    // elimination and remapped to step indices once the column
    // permutation is complete.
    for (int k = 0; k < m; ++k) {
        // Markowitz pivot search: minimize (r-1)(c-1) over active
        // entries whose magnitude clears the threshold-pivoting guard,
        // deterministically (first minimum in column-then-row order).
        // A zero-cost entry ends that scan, so the first one in scan
        // order is the pivot. Only candidate columns can hold one; a
        // rejected candidate is unmarked until elimination touches it.
        int pr = -1, pc = -1;
        double pivot_value = 0.0;
        for (int j = nextBit(ws.candidate, 0); j >= 0 && pc < 0;
             j = nextBit(ws.candidate, j + 1)) {
            const auto span = column(j);
            if (span.empty())
                return false; // structurally singular
            const double guard = pivotGuard(span);
            for (const Entry& e : span) {
                if (std::abs(e.value) >= guard &&
                    (span.size() == 1 ||
                     ws.row_count[static_cast<std::size_t>(e.index)] == 1)) {
                    pr = e.index;
                    pc = j;
                    pivot_value = e.value;
                    break;
                }
            }
            if (pc < 0)
                clearBit(ws.candidate, j);
        }
        // The nucleus: no zero-cost pivot anywhere, so scan the active
        // columns for the first minimum. Every eligible entry now has
        // r >= 2, so a column with c - 1 >= the best cost so far cannot
        // beat it and is skipped.
        std::int64_t best_cost = -1;
        for (int j = pc < 0 ? nextBit(ws.active, 0) : -1; j >= 0;
             j = nextBit(ws.active, j + 1)) {
            const auto span = column(j);
            const std::int64_t cfactor =
                static_cast<std::int64_t>(span.size()) - 1;
            if (best_cost >= 0 && cfactor >= best_cost)
                continue;
            const double guard = pivotGuard(span);
            for (const Entry& e : span) {
                if (std::abs(e.value) < guard)
                    continue;
                const std::int64_t cost =
                    (ws.row_count[static_cast<std::size_t>(e.index)] - 1) *
                    cfactor;
                if (best_cost < 0 || cost < best_cost) {
                    best_cost = cost;
                    pr = e.index;
                    pc = j;
                    pivot_value = e.value;
                }
            }
        }
        if (pr < 0)
            return false; // numerically singular
        prow_[static_cast<std::size_t>(k)] = pr;
        pcol_[static_cast<std::size_t>(k)] = pc;
        u_diag_[static_cast<std::size_t>(k)] = pivot_value;
        clearBit(ws.active, pc);
        clearBit(ws.candidate, pc);

        // L column k: multipliers of the rows eliminated at this step.
        ws.mult.clear();
        const double inv_pivot = 1.0 / pivot_value;
        for (const Entry& e : column(pc)) {
            if (--ws.row_count[static_cast<std::size_t>(e.index)] == 1 &&
                e.index != pr)
                markRow(e.index);
            if (e.index != pr)
                ws.mult.push_back({e.index, e.value * inv_pivot});
        }
        l_entries_.insert(l_entries_.end(), ws.mult.begin(), ws.mult.end());
        l_start_.push_back(static_cast<std::int64_t>(l_entries_.size()));
        ws.len[static_cast<std::size_t>(pc)] = 0;

        // Walk the pivot row's pattern once: each live entry (pr, j)
        // becomes a U entry and drives the rank-one update of column j.
        ws.prow_cols.clear();
        for (std::int32_t n = ws.row_head[static_cast<std::size_t>(pr)];
             n >= 0; n = ws.node_next[static_cast<std::size_t>(n)])
            ws.prow_cols.push_back(ws.node_col[static_cast<std::size_t>(n)]);
        std::sort(ws.prow_cols.begin(), ws.prow_cols.end());
        ws.prow_cols.erase(
            std::unique(ws.prow_cols.begin(), ws.prow_cols.end()),
            ws.prow_cols.end());
        for (std::int32_t j : ws.prow_cols) {
            if (!testBit(ws.active, j))
                continue;
            const auto uj = static_cast<std::size_t>(j);
            const auto old = column(j);
            const auto it = std::lower_bound(
                old.begin(), old.end(), pr,
                [](const Entry& e, int r) { return e.index < r; });
            if (it == old.end() || it->index != pr)
                continue; // cancelled earlier; stale pattern id
            const double urj = it->value;
            u_entries_.push_back({j, urj});
            setBit(ws.candidate, j);
            if (ws.mult.empty()) {
                // A singleton pivot column: only the pivot row's entry
                // leaves column j.
                std::copy(it + 1, old.end(), it);
                --ws.len[uj];
                continue;
            }

            // Column update: a[:,j] -= urj * mult[:], dropping the
            // pivot row's entry and cancellation noise, inserting
            // fill-in. Both inputs are row-sorted: one merge pass.
            std::vector<Entry>& newcol = ws.newcol;
            const std::vector<Entry>& mult = ws.mult;
            newcol.clear();
            std::size_t a = 0, b = 0;
            while (a < old.size() || b < mult.size()) {
                if (b == mult.size() ||
                    (a < old.size() && old[a].index < mult[b].index)) {
                    if (old[a].index != pr)
                        newcol.push_back(old[a]);
                    ++a;
                } else if (a == old.size() ||
                           mult[b].index < old[a].index) {
                    const double fill = -urj * mult[b].value;
                    if (std::abs(fill) >
                        kDropTol * std::abs(urj * mult[b].value)) {
                        newcol.push_back({mult[b].index, fill});
                        ++ws.row_count[static_cast<std::size_t>(
                            mult[b].index)];
                        addToRow(mult[b].index, j);
                    }
                    ++b;
                } else {
                    const double delta = urj * mult[b].value;
                    const double updated = old[a].value - delta;
                    if (std::abs(updated) >
                        kDropTol *
                            (std::abs(old[a].value) + std::abs(delta))) {
                        newcol.push_back({old[a].index, updated});
                    } else if (--ws.row_count[static_cast<std::size_t>(
                                   old[a].index)] == 1) {
                        markRow(old[a].index);
                    }
                    ++a;
                    ++b;
                }
            }
            // Write the column back in place, or move it to the end of
            // the pool with room to grow when it outgrew its slot.
            const auto n = static_cast<std::int32_t>(newcol.size());
            if (n > ws.cap[uj]) {
                ws.beg[uj] = static_cast<std::int64_t>(ws.pool.size());
                ws.cap[uj] = n + n / 2 + 2;
                ws.pool.resize(ws.pool.size() +
                               static_cast<std::size_t>(ws.cap[uj]));
            }
            std::copy(newcol.begin(), newcol.end(),
                      ws.pool.begin() + ws.beg[uj]);
            ws.len[uj] = n;
        }
        u_start_.push_back(static_cast<std::int64_t>(u_entries_.size()));
    }

    // Remap U column ids (basis positions) to elimination steps.
    ws.col_to_step.resize(um);
    for (int k = 0; k < m; ++k)
        ws.col_to_step[static_cast<std::size_t>(
            pcol_[static_cast<std::size_t>(k)])] = k;
    for (Entry& e : u_entries_)
        e.index = ws.col_to_step[static_cast<std::size_t>(e.index)];

    factor_nnz_ = static_cast<std::int64_t>(l_entries_.size() +
                                            u_entries_.size()) +
                  m;
    factorized_ = true;
    ++stats_.factorizations;
    return true;
}

void
BasisLu::ftran(double* x) const
{
    COSA_ASSERT(factorized_, "ftran before a successful factorization");
    // Forward solve L z = P x, accumulating in the original row space:
    // after step k, x[prow_k] holds z_k.
    for (int k = 0; k < m_; ++k) {
        const double zk = x[prow_[static_cast<std::size_t>(k)]];
        if (zk != 0.0) {
            const std::int64_t b = l_start_[static_cast<std::size_t>(k)];
            const std::int64_t e =
                l_start_[static_cast<std::size_t>(k) + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& le = l_entries_[static_cast<std::size_t>(t)];
                x[le.index] -= le.value * zk;
            }
        }
    }
    // Back substitution U s = z in step space.
    for (int k = m_ - 1; k >= 0; --k) {
        double acc = x[prow_[static_cast<std::size_t>(k)]];
        const std::int64_t b = u_start_[static_cast<std::size_t>(k)];
        const std::int64_t e = u_start_[static_cast<std::size_t>(k) + 1];
        for (std::int64_t t = b; t < e; ++t) {
            const Entry& ue = u_entries_[static_cast<std::size_t>(t)];
            acc -= ue.value * work_[static_cast<std::size_t>(ue.index)];
        }
        work_[static_cast<std::size_t>(k)] =
            acc / u_diag_[static_cast<std::size_t>(k)];
    }
    // Scatter s back to basis positions: x = Q s.
    for (int k = 0; k < m_; ++k)
        x[pcol_[static_cast<std::size_t>(k)]] =
            work_[static_cast<std::size_t>(k)];
    // Stream the eta file: B^-1 = E_K^-1 ... E_1^-1 (LU)^-1.
    for (std::size_t t = 0; t < eta_pos_.size(); ++t) {
        const std::int32_t p = eta_pos_[t];
        const double xp = x[p] * eta_inv_pivot_[t];
        x[p] = xp;
        if (xp != 0.0) {
            for (std::int64_t i = eta_start_[t]; i < eta_start_[t + 1]; ++i) {
                const Entry& e = eta_entries_[static_cast<std::size_t>(i)];
                x[e.index] -= e.value * xp;
            }
        }
    }
}

void
BasisLu::btran(double* y) const
{
    COSA_ASSERT(factorized_, "btran before a successful factorization");
    // Transposed etas, newest first: B^-T = (LU)^-T E_1^-T ... E_K^-T.
    for (std::size_t t = eta_pos_.size(); t-- > 0;) {
        const std::int32_t p = eta_pos_[t];
        double acc = y[p];
        for (std::int64_t i = eta_start_[t]; i < eta_start_[t + 1]; ++i) {
            const Entry& e = eta_entries_[static_cast<std::size_t>(i)];
            acc -= e.value * y[e.index];
        }
        y[p] = acc * eta_inv_pivot_[t];
    }
    // Gather into step space (transpose of ftran's final scatter).
    for (int k = 0; k < m_; ++k)
        work_[static_cast<std::size_t>(k)] =
            y[pcol_[static_cast<std::size_t>(k)]];
    // Forward solve U^T s = w in step space.
    for (int k = 0; k < m_; ++k) {
        const double sk = work_[static_cast<std::size_t>(k)] /
                          u_diag_[static_cast<std::size_t>(k)];
        work_[static_cast<std::size_t>(k)] = sk;
        if (sk != 0.0) {
            const std::int64_t b = u_start_[static_cast<std::size_t>(k)];
            const std::int64_t e =
                u_start_[static_cast<std::size_t>(k) + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& ue = u_entries_[static_cast<std::size_t>(t)];
                work_[static_cast<std::size_t>(ue.index)] -=
                    ue.value * sk;
            }
        }
    }
    // Back solve L^T y' = s into the original row space: L's column k
    // only references rows eliminated later, so descending steps have
    // their dependencies already final.
    for (int k = m_ - 1; k >= 0; --k) {
        double acc = work_[static_cast<std::size_t>(k)];
        const std::int64_t b = l_start_[static_cast<std::size_t>(k)];
        const std::int64_t e = l_start_[static_cast<std::size_t>(k) + 1];
        for (std::int64_t t = b; t < e; ++t) {
            const Entry& le = l_entries_[static_cast<std::size_t>(t)];
            acc -= le.value * y[le.index];
        }
        y[prow_[static_cast<std::size_t>(k)]] = acc;
    }
}

void
BasisLu::update(int p, const double* w)
{
    COSA_ASSERT(factorized_, "eta update before a factorization");
    // One pass over w gathers both the off-pivot entries and ||w||_inf.
    const std::int64_t nnz_before = etaNnz();
    double max_abs = 0.0;
    for (int i = 0; i < m_; ++i) {
        max_abs = std::max(max_abs, std::abs(w[i]));
        if (i != p && w[i] != 0.0)
            eta_entries_.push_back({i, w[i]});
    }
    const std::size_t num_etas = eta_pos_.size();
    eta_start_.push_back(static_cast<std::int64_t>(eta_entries_.size()));
    eta_pos_.push_back(static_cast<std::int32_t>(p));
    eta_inv_pivot_.push_back(1.0 / w[p]);
    ++stats_.eta_updates;
    if (std::abs(w[p]) < kEtaStabilityTol * max_abs) {
        unstable_ = true;
        ++stats_.unstable_updates;
    } else if (!unstable_ && num_etas + 1 < kMaxEtas &&
               etaNnz() > fillBound() && nnz_before <= fillBound()) {
        ++stats_.fill_refactor_requests; // first crossing of the bound
    }
}

bool
BasisLu::needsRefactorization() const
{
    if (!factorized_)
        return false;
    return unstable_ ||
           static_cast<std::int64_t>(eta_pos_.size()) >= kMaxEtas ||
           etaNnz() > fillBound();
}

} // namespace cosa::solver
