/**
 * @file
 * Table VI reproduction: time-to-solution comparison. Average runtime,
 * samples drawn and valid schedules evaluated per layer for CoSA,
 * Random (5x) and Timeloop-Hybrid search over a representative layer
 * set (paper: 4.2s / 4.6s / 379.9s per layer; 1 / 20K / 67M samples;
 * 1 / 5 / 16K+ evaluations). Runs through the engine with dedup and
 * caching OFF: this bench measures per-layer solve cost, so every
 * instance must pay its real solve.
 *
 * Solver-core mode:
 *   bench_tab06_time_to_solution --solver-json [path] [--compare-basis]
 * runs CoSA alone over the 23 unique ResNet-50 layers, one engine
 * query per layer so each solve can warm-start from the nearest
 * previously solved shape, and writes machine-readable per-layer
 * records (solve time, LP iterations, branch-and-bound nodes,
 * warm-start hits, schedule metrics) plus the geomean solve time to
 * @p path (default BENCH_solver.json). This is the solver's perf
 * trajectory file: commit-over-commit comparisons diff its geomean at
 * a fixed work budget.
 *
 * --compare-basis re-runs the sweep with the dense-inverse basis
 * (MipParams::basis_mode) on a fresh engine and appends its geomean,
 * iteration and node totals plus the LU speedup — the two runs must
 * perform identical pivot sequences, so the ratio isolates the
 * representation's cost. When their iteration or node totals differ
 * the bench exits 1.
 *
 * --metrics-out / --trace-out (see docs/observability.md) dump the
 * process metric registry and Chrome trace at exit.
 */

#include <array>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench_util.hpp"
#include "common/telemetry.hpp"
#include "cosa/scheduler.hpp"

namespace {

using namespace cosa;

struct SweepTotals
{
    double geomean = 0.0;
    double total_time = 0.0;
    std::int64_t nodes = 0, iters = 0, warm_hits = 0;
    int solved = 0;
    // Solver-phase and basis-work totals (the PR 6 stats-silo fix:
    // BasisLu::Stats and the MIP phase timings flow through
    // SearchStats into this report).
    double presolve_time = 0.0, root_lp_time = 0.0, tree_time = 0.0;
    std::int64_t lu_factorizations = 0, lu_eta_updates = 0;
    std::int64_t lu_refactor_requests = 0;
    /** Requests by reason: unstable, fill, count, singular. */
    std::array<std::int64_t, 4> lu_reasons{};
};

/** The luRefactorReasonCounters() values, in their order. */
std::array<std::int64_t, 4>
readReasonCounters()
{
    std::array<std::int64_t, 4> values{};
    const auto counters = luRefactorReasonCounters();
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = counters[i]->value();
    return values;
}

/** JSON object {"unstable": .., "fill": .., "count": .., "singular": ..}. */
std::string
reasonsJson(const std::array<std::int64_t, 4>& r)
{
    return "{\"unstable\": " + std::to_string(r[0]) +
           ", \"fill\": " + std::to_string(r[1]) +
           ", \"count\": " + std::to_string(r[2]) +
           ", \"singular\": " + std::to_string(r[3]) + "}";
}

/** One sequential CoSA sweep over the unique ResNet-50 layers. When
 *  @p out is non-null, per-layer JSON records are streamed to it. */
SweepTotals
runSolverSweep(solver::BasisMode basis_mode, SearchObjective objective,
               std::ofstream* out)
{
    const ArchSpec arch = ArchSpec::simbaBaseline();
    const Workload net = workloads::resNet50();

    EngineConfig config =
        bench::defaultEngineConfig(SchedulerKind::Cosa, objective);
    config.num_threads = 1; // sequential: times must be contention-free
    config.cosa.mip.basis_mode = basis_mode;
    const SchedulingEngine engine(config);

    SweepTotals totals;
    double log_sum = 0.0;
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
        const LayerSpec& layer = net.layers[l];
        // One query per layer: later layers see the earlier schedules
        // in the cache and warm-start from their nearest neighbor. The
        // sweep is sequential, so the by-reason counters advance by this
        // layer's solve alone.
        const auto reasons_before = readReasonCounters();
        const SearchResult result = engine.scheduleLayer(layer, arch);
        const SearchStats& st = result.stats;
        std::array<std::int64_t, 4> reasons = readReasonCounters();
        for (std::size_t i = 0; i < reasons.size(); ++i) {
            reasons[i] -= reasons_before[i];
            totals.lu_reasons[i] += reasons[i];
        }

        if (out != nullptr) {
            *out << "    {\"layer\": \"" << layer.name << "\""
                 << ", \"found\": " << (result.found ? "true" : "false")
                 << ", \"solve_time_sec\": " << st.search_time_sec
                 << ", \"lp_iterations\": " << st.lp_iterations
                 << ", \"mip_nodes\": " << st.mip_nodes
                 << ", \"warm_hint_installed\": " << st.warm_starts_installed
                 << ", \"warm_start_hits\": " << st.warm_start_hits
                 << ", \"presolve_sec\": " << st.presolve_time_sec
                 << ", \"root_lp_sec\": " << st.root_lp_time_sec
                 << ", \"tree_sec\": " << st.tree_time_sec
                 << ", \"lu_factorizations\": " << st.lu_factorizations
                 << ", \"lu_eta_updates\": " << st.lu_eta_updates
                 << ", \"lu_refactor_requests\": "
                 << (st.lu_unstable_updates + st.lu_fill_refactor_requests)
                 << ", \"lu_refactor_reasons\": " << reasonsJson(reasons)
                 << ", \"cycles\": " << result.eval.cycles
                 << ", \"energy_pj\": " << result.eval.energy_pj << "}"
                 << (l + 1 < net.layers.size() ? "," : "") << "\n";
        }

        log_sum += std::log(std::max(st.search_time_sec, 1e-9));
        totals.total_time += st.search_time_sec;
        totals.nodes += st.mip_nodes;
        totals.iters += st.lp_iterations;
        totals.warm_hits += st.warm_start_hits;
        totals.solved += result.found ? 1 : 0;
        totals.presolve_time += st.presolve_time_sec;
        totals.root_lp_time += st.root_lp_time_sec;
        totals.tree_time += st.tree_time_sec;
        totals.lu_factorizations += st.lu_factorizations;
        totals.lu_eta_updates += st.lu_eta_updates;
        totals.lu_refactor_requests +=
            st.lu_unstable_updates + st.lu_fill_refactor_requests;
    }
    totals.geomean =
        std::exp(log_sum / static_cast<double>(net.layers.size()));
    return totals;
}

int
solverJsonMode(const std::string& path, SearchObjective objective,
               bool compare_basis)
{
    const Workload net = workloads::resNet50();
    const EngineConfig config =
        bench::defaultEngineConfig(SchedulerKind::Cosa, objective);

    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        return 1;
    }
    out.precision(17);
    out << "{\n  \"bench\": \"tab06_solver_core\",\n";
    out << "  \"arch\": \"" << ArchSpec::simbaBaseline().name << "\",\n";
    out << "  \"work_limit\": " << config.cosa.mip.work_limit << ",\n";
    out << "  \"presolve\": " << (config.cosa.mip.presolve ? "true" : "false")
        << ",\n";
    out << "  \"basis_mode\": \""
        << (config.cosa.mip.basis_mode == solver::BasisMode::Lu ? "lu"
                                                                : "dense")
        << "\",\n";
    out << "  \"layers\": [\n";

    const SweepTotals totals =
        runSolverSweep(config.cosa.mip.basis_mode, objective, &out);
    out << "  ],\n";
    out << "  \"num_layers\": " << net.layers.size() << ",\n";
    out << "  \"num_found\": " << totals.solved << ",\n";
    out << "  \"geomean_solve_time_sec\": " << totals.geomean << ",\n";
    out << "  \"total_solve_time_sec\": " << totals.total_time << ",\n";
    out << "  \"total_lp_iterations\": " << totals.iters << ",\n";
    out << "  \"total_mip_nodes\": " << totals.nodes << ",\n";
    out << "  \"total_presolve_time_sec\": " << totals.presolve_time
        << ",\n";
    out << "  \"total_root_lp_time_sec\": " << totals.root_lp_time << ",\n";
    out << "  \"total_tree_time_sec\": " << totals.tree_time << ",\n";
    out << "  \"total_lu_factorizations\": " << totals.lu_factorizations
        << ",\n";
    out << "  \"total_lu_eta_updates\": " << totals.lu_eta_updates << ",\n";
    out << "  \"total_lu_refactor_requests\": "
        << totals.lu_refactor_requests << ",\n";
    out << "  \"total_lu_refactor_reasons\": "
        << reasonsJson(totals.lu_reasons) << ",\n";
    out << "  \"total_warm_start_hits\": " << totals.warm_hits;

    if (compare_basis &&
        config.cosa.mip.basis_mode != solver::BasisMode::Lu) {
        // Dense-vs-dense would record a meaningless ~1.0 "speedup".
        std::cerr << "--compare-basis skipped: primary sweep already "
                     "runs the dense basis (COSA_BASIS_MODE)\n";
        compare_basis = false;
    }
    if (compare_basis) {
        // Same sweep, dense-inverse basis, fresh engine and cache. The
        // pivot sequences are identical by contract (same nodes, same
        // iterations), so the time ratio is pure representation cost.
        const SweepTotals dense =
            runSolverSweep(solver::BasisMode::Dense, objective, nullptr);
        out << ",\n  \"dense_geomean_solve_time_sec\": " << dense.geomean
            << ",\n  \"dense_total_solve_time_sec\": " << dense.total_time
            << ",\n  \"dense_total_lp_iterations\": " << dense.iters
            << ",\n  \"dense_total_mip_nodes\": " << dense.nodes
            << ",\n  \"lu_speedup_geomean\": "
            << (totals.geomean > 0.0 ? dense.geomean / totals.geomean : 0.0);
        if (dense.iters != totals.iters || dense.nodes != totals.nodes) {
            out << "\n}\n";
            std::cerr << "error: dense/lu sweeps diverged (nodes "
                      << dense.nodes << " vs " << totals.nodes
                      << ", iters " << dense.iters << " vs " << totals.iters
                      << "): the basis modes broke the pivot-sequence "
                         "contract\n";
            return 1;
        }
        std::cout << "basis comparison: dense geomean "
                  << TextTable::fmt(dense.geomean, 3) << "s/layer vs lu "
                  << TextTable::fmt(totals.geomean, 3) << "s/layer ("
                  << TextTable::fmt(dense.geomean /
                                        std::max(totals.geomean, 1e-12),
                                    2)
                  << "x)\n";
    }
    out << "\n}\n";

    std::cout << "solver core over " << net.layers.size()
              << " unique ResNet-50 layers: geomean "
              << TextTable::fmt(totals.geomean, 3) << "s/layer, total "
              << TextTable::fmt(totals.total_time, 1) << "s, "
              << totals.nodes << " nodes, " << totals.warm_hits
              << " warm-start hits -> " << path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace cosa;
    SearchObjective objective = SearchObjective::Latency;
    bool solver_json = false;
    bool compare_basis = false;
    std::string solver_json_path = "BENCH_solver.json";
    for (int a = 1; a < argc; ++a) {
        if (parseObjectiveFlag(argc, argv, &a, &objective))
            continue;
        if (parseTelemetryFlag(argc, argv, &a))
            continue;
        if (std::strcmp(argv[a], "--solver-json") == 0) {
            solver_json = true;
            if (a + 1 < argc && std::strncmp(argv[a + 1], "--", 2) != 0)
                solver_json_path = argv[++a];
        }
        if (std::strcmp(argv[a], "--compare-basis") == 0)
            compare_basis = true;
    }
    if (solver_json)
        return solverJsonMode(solver_json_path, objective, compare_basis);

    const ArchSpec arch = ArchSpec::simbaBaseline();

    Workload layers;
    layers.name = "TableVI-subset";
    for (const Workload& suite : workloads::allSuites()) {
        const auto subset = bench::layersOf(suite);
        // A representative subset keeps this bench minutes-scale.
        for (std::size_t i = 0; i < subset.size();
             i += bench::quickMode() ? 3 : 2)
            layers.layers.push_back(subset[i]);
    }

    const SchedulerKind kinds[3] = {SchedulerKind::Cosa,
                                    SchedulerKind::Random,
                                    SchedulerKind::Hybrid};
    NetworkResult results[3];
    for (int s = 0; s < 3; ++s) {
        EngineConfig config = bench::defaultEngineConfig(kinds[s], objective);
        config.deduplicate = false; // every instance pays its solve
        config.use_cache = false;
        config.num_threads = 1; // sequential: times must be contention-free
        const SchedulingEngine engine(config);
        results[s] = engine.scheduleNetwork(layers, arch);
    }

    TextTable table("Table VI: time-to-solution over " +
                    std::to_string(layers.layers.size()) + " layers");
    table.setHeader({"", "CoSA", "Random(5x)", "TimeloopHybrid"});
    auto avg = [&](int s, auto field) {
        const auto solved = std::max<std::int64_t>(results[s].num_solved, 1);
        return field(results[s].search) / static_cast<double>(solved);
    };
    auto row = [&](const char* label, auto field, int precision) {
        table.addRow({label, TextTable::fmt(avg(0, field), precision),
                      TextTable::fmt(avg(1, field), precision),
                      TextTable::fmt(avg(2, field), precision)});
    };
    row("Avg. runtime / layer [s]",
        [](const SearchStats& s) { return s.search_time_sec; }, 2);
    row("Avg. samples / layer",
        [](const SearchStats& s) { return static_cast<double>(s.samples); },
        0);
    row("Avg. evaluations / layer",
        [](const SearchStats& s) {
            return static_cast<double>(s.valid_evaluated);
        },
        0);
    table.print(std::cout);
    std::cout << "(paper: 4.2s/4.6s/379.9s; 1/20K/67M samples; "
                 "1/5/16K+ evaluations)\n";
    return 0;
}
