#pragma once

/**
 * @file
 * The CoSA scheduler: wraps the MIP formulation behind the same
 * interface as the search baselines. One formulation build + one solve
 * produces the schedule (the paper's "one-shot" property); samples = 1
 * and valid_evaluated = 1 in the Table VI statistics.
 */

#include <array>
#include <vector>

#include "common/metrics.hpp"
#include "cosa/formulation.hpp"
#include "mapper/mapper.hpp"

namespace cosa {

/** Constrained-optimization scheduler (the paper's contribution). */
class CosaScheduler
{
  public:
    /**
     * @param objective metric used to pick among the solver's feasible
     *        schedules (MIP incumbents, greedy floor, warm hints) — the
     *        MIP's own proxy objective is configured via @p config.
     */
    explicit CosaScheduler(
        CosaConfig config = {},
        SearchObjective objective = SearchObjective::Latency);

    /** Solve the MIP once and evaluate the extracted schedule. */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch) const;

    /**
     * Solve with cross-layer warm-start hints: schedules of *similar*
     * layers (e.g. the cache's nearest canonical neighbor on an arch
     * sweep). Each hint is re-encoded against this layer's factor pool
     * (surplus primes park at DRAM), validated against the layer's true
     * capacity/spatial constraints, and installed as an extra MIP start
     * alongside the greedy schedule; the solver's feasibility check
     * decides acceptance (reported in SearchStats::warm_start_hits).
     * Valid hints also compete directly in the final schedule pick, so
     * effort spent on a neighboring layer is never wasted.
     */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch,
                          const std::vector<Mapping>& warm_hints) const;

    /** Same solve, with the candidate pick and the reported metrics
     *  coming from @p evaluator (see Evaluator). */
    SearchResult schedule(const LayerSpec& layer, const ArchSpec& arch,
                          const std::vector<Mapping>& warm_hints,
                          const Evaluator& evaluator) const;

    const CosaConfig& config() const { return config_; }

  private:
    CosaConfig config_;
    SearchObjective objective_;
};

/**
 * Process-wide counters of basis refactorization requests by reason,
 * `cosa_solver_lu_refactor_requests_by_reason_total{reason=...}`, in
 * the order unstable, fill, count, singular (BasisLu::Stats). Every
 * CoSA solve adds its split here: SearchStats carries only two request
 * fields (unstable, and fill + count).
 */
std::array<metrics::Counter*, 4> luRefactorReasonCounters();

} // namespace cosa
