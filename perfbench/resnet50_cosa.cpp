/**
 * @file
 * Workload resnet50-cosa: the paper's use case. One client, closed
 * loop, submits the full 53-layer ResNet-50 as a CoSA job at the
 * default work budget to a SchedulerService on a private cache, and
 * waits for it, network after network until the run's time is spent.
 * The solver dominates; server and cachestore do no work here.
 */

#include <set>

#include "bench.hpp"

namespace perfbench {

using namespace cosa;

namespace {

ScheduleRequest
networkRequest()
{
    ScheduleRequest request;
    request.workloads = {workloads::resNet50Full()};
    request.arch = ArchSpec::simbaBaseline();
    request.scheduler = SchedulerKind::Cosa;
    request.tag = "resnet50-cosa";
    return request;
}

} // namespace

void
runResnet50Cosa(const Options& opts, Report& report)
{
    // Set-up, timed from process start by measureSetup(): bring the
    // service up and build the query.
    if (!opts.setup_only)
        report.set("setup_s", measureSetup(opts, {}, report), "s");
    ServiceConfig config;
    config.num_threads = kWidth;
    SchedulerService service(config);
    const ScheduleRequest request = networkRequest();
    if (opts.setup_only) {
        signalReady();
        return;
    }

    SolveSpans solve_spans;
    std::vector<double> untraced, traced;
    std::vector<NetworkResult> first;
    std::string first_bytes;
    double busy = 0.0;
    const double start = nowSec();
    for (int n = 0; n < 3 || nowSec() - start < opts.seconds; ++n) {
        // Traced runs alternate untraced and traced networks, so the
        // tracing overhead is measured under the same conditions.
        const bool tracing = opts.trace && n % 2 == 1;
        SpanLog::get().setEnabled(tracing);
        report.attempt();
        std::vector<NetworkResult> results;
        double elapsed = 0.0;
        {
            Span root("bench", "network");
            SubmitResult submitted =
                service.submit(request, solve_spans.callback());
            if (!submitted) {
                report.fail("network job rejected");
                continue;
            }
            results = submitted.job().wait();
            elapsed = root.elapsed();
        }
        SpanLog::get().setEnabled(false);
        (tracing ? traced : untraced).push_back(elapsed);
        if (results.size() != 1) {
            report.wrong("network job returned no result");
            continue;
        }
        solve_spans.addSpans(results[0]);
        checkNetwork(results[0], report);
        busy += results[0].search.search_time_sec;
        const std::string bytes = resultBytes(results);
        if (first.empty()) {
            first = results;
            first_bytes = bytes;
        } else if (bytes != first_bytes) {
            report.wrong("network " + std::to_string(n) +
                         ": schedule bytes differ from the first network's");
        }
    }
    const double wall = nowSec() - start;
    if (first.empty())
        return;
    const NetworkResult& net = first[0];

    std::vector<double> all = untraced;
    all.insert(all.end(), traced.begin(), traced.end());
    report.set("net_solve_s", median(untraced), "s");
    report.set("req_p50_ms", median(untraced) * 1e3, "ms");
    report.set("req_p99_ms", percentile(untraced, 0.99) * 1e3, "ms");
    report.set("max_rps", static_cast<double>(all.size()) / wall, "1/s");
    report.set("sched_cycles", net.total_cycles, "cycles");
    report.set("sched_energy_uj", net.total_energy_pj * 1e-6, "uJ");
    report.detail("networks", static_cast<double>(all.size()));
    report.detail("layers_per_network", static_cast<double>(net.num_layers));
    report.detail("unique_per_network", static_cast<double>(net.num_unique));
    report.detail("lp_iterations_per_network",
                  static_cast<double>(net.search.lp_iterations));
    report.detail("nodes_per_network",
                  static_cast<double>(net.search.mip_nodes));

    if (!opts.trace)
        return;

    report.set("bench.trace_overhead_pct",
               (median(traced) / median(untraced) - 1.0) * 100.0, "pct");
    reportEngine(service.stats(), busy, wall, report);
    report.set("mapper.samples", static_cast<double>(net.search.samples),
               "count");
    report.set("mapper.valid_ratio",
               static_cast<double>(net.search.valid_evaluated) /
                   std::max<double>(1.0, static_cast<double>(net.search.samples)),
               "ratio");
    SpanLog::get().setEnabled(true);
    measureCodec({"{\"workloads\":[\"resnet50full\"],\"arch\":\"simba\","
                  "\"scheduler\":\"cosa\"}"},
                 {first}, report);

    // Attribution over the network's unique shapes, with the same
    // default CoSA configuration the service used.
    std::vector<CosaProblem> problems;
    std::set<std::string> seen;
    for (const LayerSpec& layer : request.workloads[0].layers) {
        if (seen.insert(layer.canonicalKey()).second)
            problems.push_back({layer, request.arch, request.cosa});
    }
    attributeCosa(problems, report);
    SpanLog::get().setEnabled(false);
    // The attribution pass repeats the service's solves outside it, so
    // its counters must match the service's (determinism cross-check).
    report.detail("attribution_matches_service",
                  report.get("solver.lp_iterations") ==
                              static_cast<double>(net.search.lp_iterations) &&
                          report.get("solver.nodes") ==
                              static_cast<double>(net.search.mip_nodes)
                      ? "true"
                      : "false");
    foldTrace(opts, "network", report);
}

} // namespace perfbench
