/**
 * @file
 * The repository benchmark's command:
 *
 *   cosa_perfbench --workload <resnet50-cosa|cosad-random|sweep-store>
 *                  --seed <n> --seconds <s> --trace <0|1>
 *
 * Runs one workload, checks its outputs, prints a descriptor line
 * (machine, seed, sample counts) and, as the last line, the result
 * object: {"correct", "attempted", "failed", "metrics"}. --trace 0
 * reports the end-to-end metrics, --trace 1 the per-layer ones. Exits
 * non-zero when any output is wrong. See README.md.
 *
 * The run times its own set-up by spawning itself with
 * --setup-only 1 (and, for sweep-store, --store-dir <dir>): the child
 * does the workload's set-up, prints "ready" and exits.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "build_info.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

struct MetricSpec
{
    const char* name;
    const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},         {"net_solve_s", "s"},
    {"req_p50_ms", "ms"},     {"req_p99_ms", "ms"},
    {"max_rps", "1/s"},       {"sched_cycles", "cycles"},
    {"sched_energy_uj", "uJ"}, {"success_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"solver.solve_s", "s"},
    {"solver.presolve_s", "s"},
    {"solver.root_lp_s", "s"},
    {"solver.tree_s", "s"},
    {"solver.lp_iterations", "count"},
    {"solver.nodes", "count"},
    {"solver.lu_factorizations", "count"},
    {"solver.lu_refactor_per_node", "ratio"},
    {"solver.optimal_layers", "count"},
    {"solver.gap_geomean", "ratio"},
    {"cosa.build_ms", "ms"},
    {"cosa.model_rows", "count"},
    {"cosa.model_cols", "count"},
    {"cosa.schedule_s", "s"},
    {"engine.worker_util", "ratio"},
    {"engine.queue_wait_ms_mean.interactive", "ms"},
    {"engine.queue_wait_ms_mean.normal", "ms"},
    {"engine.queue_wait_ms_mean.batch", "ms"},
    {"engine.queue_wait_ms_max.interactive", "ms"},
    {"engine.queue_wait_ms_max.normal", "ms"},
    {"engine.queue_wait_ms_max.batch", "ms"},
    {"engine.executor_steals", "count"},
    {"server.submit_rtt_p50_ms", "ms"},
    {"server.submit_rtt_p99_ms", "ms"},
    {"server.result_wait_p50_ms", "ms"},
    {"server.http_parse_us", "us"},
    {"server.json_parse_us", "us"},
    {"server.wire_decode_us", "us"},
    {"server.wire_encode_us", "us"},
    {"server.response_bytes", "bytes"},
    {"server.rejected_429", "count"},
    {"mapper.samples", "count"},
    {"mapper.valid_ratio", "ratio"},
    {"model.eval_us", "us"},
    {"cachestore.open_s", "s"},
    {"cachestore.lookup_p50_us", "us"},
    {"cachestore.lookup_p99_us", "us"},
    {"cachestore.nn_p50_us", "us"},
    {"cachestore.nn_p99_us", "us"},
    {"cachestore.insert_p50_us", "us"},
    {"cachestore.insert_p99_us", "us"},
    {"cachestore.hit_ratio", "ratio"},
    {"cachestore.warm_hits", "count"},
    {"cachestore.log_bytes", "bytes"},
    {"cachestore.compactions", "count"},
    {"bench.trace_coverage", "ratio"},
    {"bench.trace_overhead_pct", "pct"},
    {"bench.gen_late_p99_ms", "ms"},
};

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "cosa_perfbench: " << why
              << "\nusage: cosa_perfbench --workload "
                 "<resnet50-cosa|cosad-random|sweep-store> --seed <n> "
                 "--seconds <s> --trace <0|1>\n";
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options opts;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++a];
        char* end = nullptr;
        if (flag == "--workload") {
            opts.workload = value;
        } else if (flag == "--seed") {
            opts.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("bad --seed " + value);
        } else if (flag == "--seconds") {
            opts.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opts.seconds > 0.0))
                usage("bad --seconds " + value);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("bad --trace " + value);
            opts.trace = value == "1";
        } else if (flag == "--out-dir") {
            opts.out_dir = value;
        } else if (flag == "--setup-only") {
            opts.setup_only = value == "1";
        } else if (flag == "--store-dir") {
            opts.store_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (opts.workload.empty())
        usage("--workload is required");
    return opts;
}

std::string
number(double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

/** {"name": {"value": v, "unit": u}, ...} for one metric list; fails
 *  the run when an end-to-end metric was never measured. */
template <std::size_t N>
std::string
metricsJson(const MetricSpec (&specs)[N], const Report& report,
            bool require_all, bool* missing)
{
    std::string out = "{";
    for (std::size_t i = 0; i < N; ++i) {
        bool found = false;
        double value = 0.0;
        for (const Report::Metric& metric : report.metrics()) {
            if (metric.name == specs[i].name) {
                found = true;
                value = metric.value;
            }
        }
        if (!found && require_all) {
            std::cerr << "cosa_perfbench: metric " << specs[i].name
                      << " was not measured\n";
            *missing = true;
        }
        out += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
               "\": {\"value\": " + number(value) + ", \"unit\": \"" +
               specs[i].unit + "\"}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opts = parseArgs(argc, argv);
    perfbench::nowSec(); // start the clock at process start

    Report report;
    if (opts.workload == "resnet50-cosa")
        perfbench::runResnet50Cosa(opts, report);
    else if (opts.workload == "cosad-random")
        perfbench::runCosadRandom(opts, report);
    else if (opts.workload == "sweep-store")
        perfbench::runSweepStore(opts, report);
    else
        usage("unknown workload " + opts.workload);
    if (opts.setup_only)
        return report.failed() == 0 ? 0 : 1;

    if (report.attempted() < 1) {
        std::cerr << "cosa_perfbench: no operation was attempted\n";
        return 1;
    }
    report.set("success_ratio",
               static_cast<double>(report.attempted() - report.failed()) /
                   static_cast<double>(report.attempted()),
               "ratio");
    report.set("peak_rss_mb", perfbench::peakRssMb(), "MB");

    std::string details;
    for (const auto& [key, value] : report.details())
        details += ", \"" + key + "\": " + value;
    std::cout << "{\"perfbench\": {\"workload\": \"" << opts.workload
              << "\", \"seed\": " << opts.seed
              << ", \"seconds\": " << number(opts.seconds)
              << ", \"trace\": " << (opts.trace ? 1 : 0)
              << ", \"machine\": {\"nproc\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": \"g++ " << __VERSION__
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"git_sha\": \"" << PERFBENCH_GIT_SHA
              << "\", \"src_digest\": \"" << PERFBENCH_SRC_DIGEST
              << "\"}, \"attempted\": " << report.attempted()
              << ", \"failed\": " << report.failed()
              << ", \"wrong_outputs\": " << report.wrongOutputs() << details
              << "}}\n";

    bool missing = false;
    const std::string metrics =
        opts.trace ? metricsJson(kPerLayer, report, false, &missing)
                   : metricsJson(kEndToEnd, report, true, &missing);
    const bool correct = report.wrongOutputs() == 0 && !missing;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << report.attempted()
              << ", \"failed\": " << report.failed()
              << ", \"metrics\": " << metrics << "}" << std::endl;
    return correct ? 0 : 1;
}
