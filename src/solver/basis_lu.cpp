#include "solver/basis_lu.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>

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

/** The index an entry of a Lines pool carries. */
std::int32_t
indexOf(const SparseMatrix::Entry& e)
{
    return e.index;
}

std::int32_t
indexOf(std::int32_t index)
{
    return index;
}

} // namespace

template <typename T>
BasisLu::Lines<T>::Lines(const Lines& other)
    : beg(other.beg.size()), len(other.len), cap(other.len)
{
    std::int64_t live = 0;
    for (const std::int32_t n : len)
        live += n;
    pool.reserve(static_cast<std::size_t>(live));
    for (std::size_t k = 0; k < len.size(); ++k) {
        beg[k] = static_cast<std::int64_t>(pool.size());
        const auto from = other.pool.begin() + other.beg[k];
        pool.insert(pool.end(), from, from + len[k]);
    }
}

template <typename T>
BasisLu::Lines<T>&
BasisLu::Lines<T>::operator=(const Lines& other)
{
    if (this != &other)
        *this = Lines(other);
    return *this;
}

template <typename T>
void
BasisLu::Lines<T>::append(std::int32_t k, T e)
{
    const auto uk = static_cast<std::size_t>(k);
    if (len[uk] == cap[uk]) {
        const std::int32_t room = len[uk] + len[uk] / 2 + 4;
        if (beg[uk] + cap[uk] == static_cast<std::int64_t>(pool.size())) {
            // The last line grows in place.
            pool.resize(pool.size() +
                        static_cast<std::size_t>(room - cap[uk]));
        } else {
            const auto at = static_cast<std::int64_t>(pool.size());
            pool.resize(pool.size() + static_cast<std::size_t>(room));
            std::copy_n(pool.begin() + beg[uk], len[uk], pool.begin() + at);
            beg[uk] = at;
        }
        cap[uk] = room;
    }
    pool[static_cast<std::size_t>(beg[uk] + len[uk]++)] = e;
}

template <typename T>
void
BasisLu::Lines<T>::remove(std::int32_t k, std::int32_t index)
{
    const auto uk = static_cast<std::size_t>(k);
    T* first = pool.data() + beg[uk];
    T* last = first + len[uk] - 1;
    T* it = first;
    while (indexOf(*it) != index)
        ++it;
    *it = *last;
    --len[uk];
}

// Copies of a BasisLu (in other translation units) copy both kinds.
template struct BasisLu::Lines<BasisLu::Entry>;
template struct BasisLu::Lines<std::int32_t>;

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
    refactor_requested_ = false;
    ws.spike_valid = false;
    r_start_.assign(1, 0);
    r_step_.clear();
    r_entries_.clear();
    ws.leaving_pos = -1;
    growth_ = 0;
    num_updates_ = 0;
    prow_.assign(um, -1);
    pcol_.assign(um, -1);
    l_start_.assign(1, 0);
    l_entries_.clear();
    u_diag_.assign(um, 0.0);
    u_rows_.pool.clear();
    u_rows_.beg.assign(um, 0);
    u_rows_.len.assign(um, 0);
    work_.assign(um, 0.0);
    const auto singular = [this] {
        ++stats_.singular_factorizations;
        return false;
    };

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
                return singular(); // structurally singular
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
            return singular(); // numerically singular
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
        u_rows_.beg[static_cast<std::size_t>(k)] =
            static_cast<std::int64_t>(u_rows_.pool.size());
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
            u_rows_.pool.push_back({j, urj});
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
        u_rows_.len[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(
            static_cast<std::int64_t>(u_rows_.pool.size()) -
            u_rows_.beg[static_cast<std::size_t>(k)]);
    }

    // Remap U column ids (basis positions) to elimination steps, then
    // copy U column-wise.
    step_of_col_.resize(um);
    for (int k = 0; k < m; ++k)
        step_of_col_[static_cast<std::size_t>(
            pcol_[static_cast<std::size_t>(k)])] = k;
    u_rows_.cap = u_rows_.len;
    u_cols_.len.assign(um, 0);
    for (Entry& e : u_rows_.pool) {
        e.index = step_of_col_[static_cast<std::size_t>(e.index)];
        ++u_cols_.len[static_cast<std::size_t>(e.index)];
    }
    u_cols_.beg.resize(um);
    std::int64_t at = 0;
    for (std::size_t k = 0; k < um; ++k) {
        u_cols_.beg[k] = at;
        at += u_cols_.len[k];
    }
    u_cols_.cap = u_cols_.len;
    u_cols_.pool.resize(static_cast<std::size_t>(at));
    std::fill(u_cols_.len.begin(), u_cols_.len.end(), 0);
    for (int k = 0; k < m; ++k) {
        for (const Entry& e : u_rows_[k])
            u_cols_.pool[static_cast<std::size_t>(
                u_cols_.beg[static_cast<std::size_t>(e.index)] +
                u_cols_.len[static_cast<std::size_t>(e.index)]++)] = k;
    }
    order_.resize(um);
    pos_.resize(um);
    for (int k = 0; k < m; ++k) {
        order_[static_cast<std::size_t>(k)] = k;
        pos_[static_cast<std::size_t>(k)] = k;
    }

    factor_nnz_ =
        static_cast<std::int64_t>(l_entries_.size() + u_rows_.pool.size()) +
        m;
    factorized_ = true;
    ++stats_.factorizations;
    return true;
}

void
BasisLu::ftran(double* x) const
{
    solve(x, nullptr);
}

void
BasisLu::ftranEntering(double* x)
{
    ws_.spike.value.resize(static_cast<std::size_t>(m_));
    ws_.spike.steps.clear();
    solve(x, &ws_.spike);
    ws_.spike_valid = true;
}

void
BasisLu::solve(double* x, Spike* spike) const
{
    COSA_ASSERT(factorized_, "ftran before a successful factorization");
    // Forward solve L z = P x in the original row space. Step k's value
    // x[prow_k] is final once the earlier steps are applied, so z is
    // gathered into step space on the way.
    for (int k = 0; k < m_; ++k) {
        const double zk = x[prow_[static_cast<std::size_t>(k)]];
        work_[static_cast<std::size_t>(k)] = zk;
        if (zk != 0.0) {
            if (spike != nullptr)
                spike->steps.push_back(k);
            const std::int64_t b = l_start_[static_cast<std::size_t>(k)];
            const std::int64_t e =
                l_start_[static_cast<std::size_t>(k) + 1];
            for (std::int64_t t = b; t < e; ++t) {
                const Entry& le = l_entries_[static_cast<std::size_t>(t)];
                x[le.index] -= le.value * zk;
            }
        }
    }
    // The R etas, oldest first.
    for (std::size_t t = 0; t < r_step_.size(); ++t) {
        double acc = work_[static_cast<std::size_t>(r_step_[t])];
        for (std::int64_t i = r_start_[t]; i < r_start_[t + 1]; ++i) {
            const Entry& re = r_entries_[static_cast<std::size_t>(i)];
            acc -= re.value * work_[static_cast<std::size_t>(re.index)];
        }
        work_[static_cast<std::size_t>(r_step_[t])] = acc;
        if (spike != nullptr && acc != 0.0)
            spike->steps.push_back(r_step_[t]);
    }
    // z is now the spike an update would insert as a U column.
    if (spike != nullptr)
        std::copy_n(work_.begin(), m_, spike->value.begin());
    // Back substitution U s = z by rows, last position first; s_k
    // goes straight back to its basis position (x = Q s).
    for (int i = m_ - 1; i >= 0; --i) {
        const auto k = static_cast<std::size_t>(order_[static_cast<std::size_t>(i)]);
        double acc = work_[k];
        for (const Entry& ue : u_rows_[static_cast<std::int32_t>(k)])
            acc -= ue.value * work_[static_cast<std::size_t>(ue.index)];
        acc /= u_diag_[k];
        work_[k] = acc;
        x[pcol_[k]] = acc;
    }
}

void
BasisLu::btran(double* y) const
{
    solveTransposed(y, 0, nullptr);
}

void
BasisLu::btranLeaving(int p, double* y)
{
    COSA_ASSERT(factorized_, "btran before a successful factorization");
    std::fill_n(y, m_, 0.0);
    y[p] = 1.0;
    ws_.leaving.clear();
    solveTransposed(
        y, pos_[static_cast<std::size_t>(step_of_col_[static_cast<std::size_t>(p)])],
        &ws_.leaving);
    ws_.leaving_pos = p;
}

void
BasisLu::solveTransposed(double* y, int first,
                         std::vector<Entry>* leaving) const
{
    COSA_ASSERT(factorized_, "btran before a successful factorization");
    // Forward solve U^T s = Q^T y in step space, first position first:
    // work_ accumulates the earlier rows' contributions, and s_k is
    // final at its position. Positions before @p first are zero in y
    // and so in s.
    std::fill_n(work_.begin(), m_, 0.0);
    for (int i = first; i < m_; ++i) {
        const std::int32_t k = order_[static_cast<std::size_t>(i)];
        const auto uk = static_cast<std::size_t>(k);
        const double v = y[pcol_[uk]] - work_[uk];
        if (v == 0.0) {
            work_[uk] = 0.0;
            continue;
        }
        const double sk = v / u_diag_[uk];
        work_[uk] = sk;
        if (leaving != nullptr)
            leaving->push_back({k, sk});
        for (const Entry& ue : u_rows_[k])
            work_[static_cast<std::size_t>(ue.index)] += ue.value * sk;
    }
    // Transposed R etas, newest first.
    for (std::size_t t = r_step_.size(); t-- > 0;) {
        const double sp = work_[static_cast<std::size_t>(r_step_[t])];
        if (sp == 0.0)
            continue;
        for (std::int64_t i = r_start_[t]; i < r_start_[t + 1]; ++i) {
            const Entry& re = r_entries_[static_cast<std::size_t>(i)];
            work_[static_cast<std::size_t>(re.index)] -= re.value * sp;
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
    COSA_ASSERT(factorized_, "basis update before a factorization");
    COSA_ASSERT(ws_.spike_valid,
                "basis update without an entering-column ftranEntering()");
    Workspace& ws = ws_;
    ws.spike_valid = false;
    const bool have_leaving = ws.leaving_pos == p;
    ws.leaving_pos = -1;
    const auto um = static_cast<std::size_t>(m_);
    if (ws.row.size() != um)
        ws.row.assign(um, 0.0);
    const std::int32_t kp = step_of_col_[static_cast<std::size_t>(p)];
    const auto ukp = static_cast<std::size_t>(kp);
    const double old_diag = u_diag_[ukp];
    std::vector<double>& spike = ws.spike.value;
    std::vector<double>& row = ws.row;

    // Step kp moves to the last position, so its row must be eliminated
    // against the rows after its old position: row kp - sum r_j row j
    // must vanish off column kp. The multipliers form the R eta.
    const auto r_begin = r_entries_.size();
    double diag = 0.0;
    if (have_leaving) {
        // From v = U^-T e_kp, which btranLeaving() recorded (v_kp comes
        // first): v'U = e_kp' gives r_j = -v_j / v_kp, and the new
        // diagonal is spike_kp - sum r_j spike_j.
        COSA_ASSERT(ws.leaving.front().index == kp, "stale leaving row");
        const double vkp = ws.leaving.front().value;
        diag = spike[ukp];
        for (std::size_t t = 1; t < ws.leaving.size(); ++t) {
            const Entry& ve = ws.leaving[t];
            const double rj = -ve.value / vkp;
            r_entries_.push_back({ve.index, rj});
            diag -= rj * spike[static_cast<std::size_t>(ve.index)];
        }
    }

    // U loses column kp and row kp (into the elimination scratch when
    // the R eta is still to be found).
    for (const std::int32_t j : u_cols_[kp])
        u_rows_.remove(j, kp);
    for (const Entry& ue : u_rows_[kp]) {
        u_cols_.remove(ue.index, kp);
        if (!have_leaving)
            row[static_cast<std::size_t>(ue.index)] = ue.value;
    }
    growth_ -= u_cols_.len[ukp] + u_rows_.len[ukp];
    u_cols_.len[ukp] = 0;

    // The spike becomes column kp; its own entry seeds the diagonal.
    // Reading a value zeroes it, so a step listed twice counts once.
    double spike_max = 0.0;
    for (const std::int32_t j : ws.spike.steps) {
        double& v = spike[static_cast<std::size_t>(j)];
        if (v == 0.0)
            continue;
        spike_max = std::max(spike_max, std::abs(v));
        if (j != kp) {
            u_rows_.append(j, {kp, v});
            u_cols_.append(kp, j);
            ++growth_;
        } else if (!have_leaving) {
            row[ukp] = v;
        }
        v = 0.0;
    }

    if (!have_leaving) {
        // Eliminate row kp nonzero by nonzero in position order (a
        // min-heap of position << 32 | step), dropping cancellation
        // noise as factorize() does; the remainder in column kp is the
        // new diagonal. An entry that cancels to zero and fills in
        // again is queued twice, and its second pop finds it zero.
        std::vector<std::int64_t>& heap = ws.heap;
        const auto key = [this](std::int32_t j) {
            return (static_cast<std::int64_t>(
                        pos_[static_cast<std::size_t>(j)])
                    << 32) |
                   j;
        };
        const auto later = std::greater<std::int64_t>();
        heap.clear();
        for (const Entry& ue : u_rows_[kp])
            heap.push_back(key(ue.index));
        std::make_heap(heap.begin(), heap.end(), later);
        while (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), later);
            const auto j =
                static_cast<std::int32_t>(heap.back() & 0xffffffff);
            heap.pop_back();
            const auto uj = static_cast<std::size_t>(j);
            const double v = row[uj];
            if (v == 0.0)
                continue;
            row[uj] = 0.0;
            const double rj = v / u_diag_[uj];
            r_entries_.push_back({j, rj});
            for (const Entry& ue : u_rows_[j]) {
                double& rt = row[static_cast<std::size_t>(ue.index)];
                if (rt == 0.0 && ue.index != kp) {
                    heap.push_back(key(ue.index));
                    std::push_heap(heap.begin(), heap.end(), later);
                }
                const double delta = rj * ue.value;
                const double updated = rt - delta;
                rt = std::abs(updated) >
                             kDropTol * (std::abs(rt) + std::abs(delta))
                         ? updated
                         : 0.0;
            }
        }
        diag = row[ukp];
        row[ukp] = 0.0;
    }
    u_rows_.len[ukp] = 0;

    const std::int32_t from = pos_[ukp];
    std::copy(order_.begin() + from + 1, order_.end(),
              order_.begin() + from);
    order_[um - 1] = kp;
    for (std::int32_t& q : pos_)
        q -= q > from ? 1 : 0;
    pos_[ukp] = m_ - 1;
    u_diag_[ukp] = diag;
    if (r_entries_.size() > r_begin) {
        r_step_.push_back(kp);
        r_start_.push_back(static_cast<std::int64_t>(r_entries_.size()));
        growth_ += static_cast<std::int64_t>(r_entries_.size() - r_begin);
    }
    ++stats_.eta_updates;
    ++num_updates_;

    // In exact arithmetic diag = w[p] * old_diag (the determinant of B
    // changes by the factor w[p]).
    const double expected = w[p] * old_diag;
    std::int64_t* reason = nullptr;
    if (!(std::abs(diag) >= kUpdateStabilityTol * spike_max) ||
        !(std::abs(diag - expected) <=
          kUpdateStabilityTol * std::abs(expected)))
        reason = &stats_.unstable_updates;
    else if (growth_ > growthBound())
        reason = &stats_.fill_refactor_requests;
    else if (num_updates_ >= kMaxUpdates)
        reason = &stats_.count_refactor_requests;
    if (reason != nullptr && !refactor_requested_) {
        refactor_requested_ = true;
        ++*reason;
    }
}

} // namespace cosa::solver
