#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string_view>
#include <thread>

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "common/json.hpp"
#include "cosa/scheduler.hpp"
#include "server/http.hpp"
#include "server/wire.hpp"

namespace perfbench {

using namespace cosa;

double
nowSec()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point base = Clock::now();
    return std::chrono::duration<double>(Clock::now() - base).count();
}

double
percentile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const auto index = static_cast<std::size_t>(std::clamp(
        rank - 1.0, 0.0, static_cast<double>(values.size() - 1)));
    return values[index];
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

void
signalReady()
{
    std::cout << "ready" << std::endl;
}

namespace {

/** Spawn one set-up probe; seconds until it reported ready, or a
 *  negative value when it failed. */
double
spawnProbe(std::vector<char*>& argv)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return -1.0;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    pid_t pid = -1;
    const double t0 = nowSec();
    const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions,
                                    nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(fds[1]);
    std::string said;
    double ready = -1.0;
    while (spawned == 0) {
        char buffer[64];
        const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        said.append(buffer, static_cast<std::size_t>(n));
        if (said.find("ready\n") != std::string::npos) {
            ready = nowSec() - t0;
            break;
        }
    }
    ::close(fds[0]);
    int status = 0;
    const bool exited = spawned == 0 && ::waitpid(pid, &status, 0) == pid &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return exited ? ready : -1.0;
}

} // namespace

double
measureSetup(const Options& opts, const std::vector<std::string>& extra_args,
             Report& report)
{
    std::vector<std::string> args = {"cosa_perfbench", "--workload",
                                     opts.workload, "--out-dir",
                                     opts.out_dir, "--setup-only", "1"};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& arg : args)
        argv.push_back(arg.data());
    argv.push_back(nullptr);

    std::vector<double> best_of_group;
    for (int group = 0; group < kSetupGroups; ++group) {
        double best = 0.0;
        for (int probe = 0; probe < kSetupProbesPerGroup; ++probe) {
            const double ready = spawnProbe(argv);
            if (ready < 0.0) {
                report.fail("set-up probe did not get ready");
                return -1.0;
            }
            best = probe == 0 ? ready : std::min(best, ready);
        }
        best_of_group.push_back(best);
    }
    report.detail("setup_probes",
                  static_cast<double>(kSetupGroups * kSetupProbesPerGroup));
    return median(best_of_group);
}

// --- Report ---------------------------------------------------------------

void
Report::set(const std::string& name, double value, const std::string& unit)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (Metric& metric : metrics_) {
        if (metric.name == name) {
            metric.value = value;
            metric.unit = unit;
            return;
        }
    }
    metrics_.push_back({name, value, unit});
}

double
Report::get(const std::string& name, double fallback) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Metric& metric : metrics_) {
        if (metric.name == name)
            return metric.value;
    }
    return fallback;
}

void
Report::detail(const std::string& key, const std::string& json_value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    details_.emplace_back(key, json_value);
}

void
Report::detail(const std::string& key, double value)
{
    char text[64];
    std::snprintf(text, sizeof(text), "%.17g", value);
    detail(key, std::string(text));
}

void
Report::attempt(std::int64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
}

void
Report::note(const char* kind, const std::string& why)
{
    // Caller holds mutex_. The first few reasons are enough to debug.
    if (notes_++ < 20)
        std::cerr << "perfbench: " << kind << ": " << why << "\n";
}

void
Report::fail(const std::string& why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    note("failed", why);
}

void
Report::wrong(const std::string& why)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    ++wrong_;
    note("wrong output", why);
}

// --- spans ----------------------------------------------------------------

SpanLog&
SpanLog::get()
{
    static SpanLog log;
    return log;
}

namespace {

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local const int index = next.fetch_add(1);
    return index;
}

} // namespace

void
SpanLog::add(const char* module, const char* name, double t0, double t1,
             int tid)
{
    if (tid < 0)
        tid = threadIndex();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({module, name, tid, t0, t1});
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

ScheduleJob::ProgressCallback
SolveSpans::callback()
{
    return [this](const JobProgress& event) {
        if (event.from_cache || !SpanLog::get().enabled())
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        done_.emplace_back(event.unique_index, nowSec());
    };
}

void
SolveSpans::addSpans(const NetworkResult& net)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [index, done] : done_) {
        for (const LayerScheduleResult& lr : net.layers) {
            if (lr.unique_index != index)
                continue;
            SpanLog::get().add("cosa", "cosa.layer_solve",
                               done - lr.result.stats.search_time_sec, done,
                               500 + index);
            break;
        }
    }
    done_.clear();
}

void
foldTrace(const Options& opts, const char* root, Report& report)
{
    std::vector<SpanRecord> spans = SpanLog::get().spans();
    // Per thread, spans nest by time: sort by start (longer first on
    // ties) and walk with a stack of open ancestors for self time.
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord& a, const SpanRecord& b) {
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  if (a.t0 != b.t0)
                      return a.t0 < b.t0;
                  return a.t1 > b.t1;
              });
    struct ModuleRow
    {
        double total = 0.0, self = 0.0;
        std::int64_t calls = 0;
    };
    std::map<std::string, ModuleRow> rows;
    std::vector<double> child_time(spans.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i <= spans.size(); ++i) {
        // Close every open span that ends before span i starts (or all
        // of them at a thread switch / the end).
        while (!stack.empty() &&
               (i == spans.size() || spans[i].tid != spans[stack.back()].tid ||
                spans[stack.back()].t1 <= spans[i].t0)) {
            const std::size_t j = stack.back();
            stack.pop_back();
            const SpanRecord& s = spans[j];
            const double dur = s.t1 - s.t0;
            ModuleRow& row = rows[s.module];
            row.total += dur;
            row.self += std::max(0.0, dur - child_time[j]);
            ++row.calls;
        }
        if (i == spans.size())
            break;
        if (!stack.empty())
            child_time[stack.back()] += spans[i].t1 - spans[i].t0;
        stack.push_back(i);
    }

    // Coverage: the share of root time during which a library module
    // span runs that belongs to the root: one on the root's own lane,
    // or one on a lane without roots (the service's worker threads
    // serving the one client's request).
    auto isRoot = [&](const SpanRecord& s) {
        return std::string_view(s.module) == "bench" &&
               std::string_view(s.name) == root;
    };
    std::set<int> root_lanes;
    for (const SpanRecord& s : spans) {
        if (isRoot(s))
            root_lanes.insert(s.tid);
    }
    double root_time = 0.0, covered = 0.0;
    for (const SpanRecord& r : spans) {
        if (!isRoot(r))
            continue;
        root_time += r.t1 - r.t0;
        std::vector<std::pair<double, double>> parts;
        for (const SpanRecord& s : spans) {
            if (std::string_view(s.module) == "bench" ||
                (s.tid != r.tid && root_lanes.count(s.tid) != 0))
                continue;
            const double t0 = std::max(s.t0, r.t0), t1 = std::min(s.t1, r.t1);
            if (t1 > t0)
                parts.emplace_back(t0, t1);
        }
        std::sort(parts.begin(), parts.end());
        double end = r.t0;
        for (const auto& [t0, t1] : parts) {
            covered += std::max(0.0, t1 - std::max(t0, end));
            end = std::max(end, t1);
        }
    }

    std::cerr << "perfbench: per-module self time (" << spans.size()
              << " spans)\n";
    for (const auto& [module, row] : rows) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "  %-10s self %10.4f s  total %10.4f s  calls %8lld\n",
                      module.c_str(), row.self, row.total,
                      static_cast<long long>(row.calls));
        std::cerr << line;
    }
    report.set("bench.trace_coverage",
               root_time > 0.0 ? covered / root_time : 0.0, "ratio");

    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    const std::string path = opts.out_dir + "/trace-" + opts.workload + "-" +
                             std::to_string(opts.seed) + ".json";
    std::ofstream out(path, std::ios::trunc);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        char event[256];
        std::snprintf(event, sizeof(event),
                      "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                      "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                      i == 0 ? "" : ",", spans[i].name, spans[i].module,
                      spans[i].t0 * 1e6, (spans[i].t1 - spans[i].t0) * 1e6,
                      spans[i].tid);
        out << event;
    }
    out << "]}\n";
    if (!out)
        report.fail("cannot write " + path);
    else
        report.detail("trace_file", "\"" + path + "\"");
}

// --- correctness ----------------------------------------------------------

std::string
checkLoopProducts(const Mapping& mapping, const LayerSpec& layer)
{
    const std::int64_t want[kNumDims] = {layer.r, layer.s, layer.p, layer.q,
                                         layer.c, layer.k, layer.n};
    std::int64_t got[kNumDims] = {1, 1, 1, 1, 1, 1, 1};
    for (const auto& level : mapping.levels) {
        for (const Loop& loop : level) {
            const int d = static_cast<int>(loop.dim);
            if (d < 0 || d >= kNumDims || loop.bound < 1)
                return "bad loop in mapping";
            got[d] *= loop.bound;
        }
    }
    for (int d = 0; d < kNumDims; ++d) {
        if (got[d] != want[d]) {
            return std::string("dim ") + dimName(static_cast<Dim>(d)) +
                   ": loop product " + std::to_string(got[d]) +
                   " != bound " + std::to_string(want[d]);
        }
    }
    return "";
}

void
checkNetwork(const NetworkResult& net, Report& report)
{
    if (net.cancelled || !net.all_found)
        report.wrong(net.network + ": cancelled or not all layers found");
    for (const LayerScheduleResult& lr : net.layers) {
        const std::string where = net.network + "/" + lr.layer.name;
        if (!lr.result.found || lr.cancelled) {
            report.wrong(where + ": no schedule");
            continue;
        }
        if (lr.outcome != LayerOutcome::kOptimal || !lr.result.status.ok())
            report.wrong(where + ": outcome " +
                         layerOutcomeName(lr.outcome));
        const std::string why = checkLoopProducts(lr.result.mapping, lr.layer);
        if (!why.empty())
            report.wrong(where + ": " + why);
    }
}

std::string
resultBytes(const std::vector<NetworkResult>& results)
{
    return server::resultsToJson(results).dump();
}

// --- CoSA attribution ---------------------------------------------------

void
attributeCosa(const std::vector<CosaProblem>& problems, Report& report)
{
    struct Row
    {
        double build = 0.0, solve = 0.0, schedule = 0.0;
        std::vector<double> evals;
        solver::MipResult mip;
        std::int64_t rows = 0, cols = 0;
    };
    std::vector<Row> rows(problems.size());
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next++; i < problems.size(); i = next++) {
            const CosaProblem& p = problems[i];
            Row& row = rows[i];
            std::optional<CosaFormulation> formulation;
            {
                Span build("cosa", "cosa.build");
                formulation.emplace(p.layer, p.arch, p.config);
                row.build = build.elapsed();
            }
            row.rows = formulation->model().numConstrs();
            row.cols = formulation->model().numVars();
            std::optional<Mapping> mapping;
            {
                Span solve("solver", "solver.solve");
                mapping = formulation->solve(&row.mip);
                row.solve = solve.elapsed();
            }
            if (mapping) {
                for (int rep = 0; rep < 3; ++rep) {
                    Span eval("model", "model.eval");
                    defaultEvaluator().evaluate(*mapping, p.layer, p.arch);
                    row.evals.push_back(eval.elapsed());
                }
            }
            Span schedule("cosa", "cosa.schedule");
            const SearchResult result =
                CosaScheduler(p.config).schedule(p.layer, p.arch);
            row.schedule = schedule.elapsed();
            if (!result.found)
                report.wrong(p.layer.name + ": CosaScheduler found nothing");
            else if (const std::string why =
                         checkLoopProducts(result.mapping, p.layer);
                     !why.empty())
                report.wrong(p.layer.name + ": " + why);
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kWidth; ++t)
        threads.emplace_back(worker);
    for (std::thread& thread : threads)
        thread.join();

    double build = 0, solve = 0, schedule = 0, presolve = 0, root = 0,
           tree = 0, log_gap = 0;
    std::int64_t iters = 0, nodes = 0, factorizations = 0, refactors = 0,
                 optimal = 0, model_rows = 0, model_cols = 0;
    std::vector<double> evals;
    for (const Row& row : rows) {
        build += row.build;
        solve += row.solve;
        schedule += row.schedule;
        presolve += row.mip.presolve_time_sec;
        root += row.mip.root_lp_time_sec;
        tree += row.mip.tree_time_sec;
        iters += row.mip.lp_iterations;
        nodes += row.mip.nodes;
        factorizations += row.mip.basis.factorizations;
        refactors += row.mip.basis.unstable_updates +
                     row.mip.basis.fill_refactor_requests;
        model_rows += row.rows;
        model_cols += row.cols;
        evals.insert(evals.end(), row.evals.begin(), row.evals.end());
        if (row.mip.status == solver::Status::Optimal)
            ++optimal;
        double gap = 1.0; // no incumbent: a full gap
        if (row.mip.hasSolution()) {
            gap = std::abs(row.mip.objective - row.mip.best_bound) /
                  std::max(1e-9, std::abs(row.mip.objective));
        }
        log_gap += std::log1p(gap);
    }
    const double n = std::max<double>(1.0, static_cast<double>(rows.size()));
    report.set("solver.solve_s", solve, "s");
    report.set("solver.presolve_s", presolve, "s");
    report.set("solver.root_lp_s", root, "s");
    report.set("solver.tree_s", tree, "s");
    report.set("solver.lp_iterations", static_cast<double>(iters), "count");
    report.set("solver.nodes", static_cast<double>(nodes), "count");
    report.set("solver.lu_factorizations", static_cast<double>(factorizations),
               "count");
    report.set("solver.lu_refactor_per_node",
               static_cast<double>(refactors) /
                   std::max<double>(1.0, static_cast<double>(nodes)),
               "ratio");
    report.set("solver.optimal_layers", static_cast<double>(optimal), "count");
    report.set("solver.gap_geomean", std::expm1(log_gap / n), "ratio");
    report.set("cosa.build_ms", build * 1e3, "ms");
    report.set("cosa.model_rows", static_cast<double>(model_rows), "count");
    report.set("cosa.model_cols", static_cast<double>(model_cols), "count");
    report.set("cosa.schedule_s", schedule, "s");
    report.set("model.eval_us", median(evals) * 1e6, "us");
    report.detail("attribution_problems", static_cast<double>(rows.size()));
}

// --- server codec ---------------------------------------------------------

void
measureCodec(const std::vector<std::string>& bodies,
             const std::vector<std::vector<NetworkResult>>& results,
             Report& report)
{
    std::vector<double> http, parse, decode, encode;
    double response_bytes = 0.0;
    for (int rep = 0; rep < 5; ++rep) {
        for (const std::string& body : bodies) {
            const std::string wire =
                "POST /v1/jobs HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                "Authorization: Bearer key0\r\n"
                "Content-Type: application/json\r\nContent-Length: " +
                std::to_string(body.size()) + "\r\n\r\n" + body;
            server::HttpRequestParser parser;
            parser.feed(wire);
            server::HttpRequest request;
            double t0 = nowSec();
            {
                Span span("server", "server.http_parse");
                if (parser.next(&request) !=
                    server::HttpRequestParser::Result::Ok)
                    report.wrong("HTTP parser rejected a workload request");
            }
            http.push_back(nowSec() - t0);
            t0 = nowSec();
            StatusOr<json::Value> value = [&] {
                Span span("server", "server.json_parse");
                return json::Value::parse(request.body);
            }();
            parse.push_back(nowSec() - t0);
            if (!value.ok()) {
                report.wrong("JSON parser rejected a workload request");
                continue;
            }
            t0 = nowSec();
            {
                Span span("server", "server.wire_decode");
                if (!server::requestFromJson(value.value(), "tenant0")
                         .ok())
                    report.wrong("wire decoder rejected a workload request");
            }
            decode.push_back(nowSec() - t0);
        }
        for (const auto& result : results) {
            const double t0 = nowSec();
            std::string bytes;
            {
                Span span("server", "server.wire_encode");
                bytes = resultBytes(result);
            }
            encode.push_back(nowSec() - t0);
            response_bytes = std::max(response_bytes,
                                      static_cast<double>(bytes.size()));
        }
    }
    report.set("server.http_parse_us", median(http) * 1e6, "us");
    report.set("server.json_parse_us", median(parse) * 1e6, "us");
    report.set("server.wire_decode_us", median(decode) * 1e6, "us");
    report.set("server.wire_encode_us", median(encode) * 1e6, "us");
    report.set("server.response_bytes", response_bytes, "bytes");
    report.detail("codec_samples", static_cast<double>(http.size()));
}

// --- engine ---------------------------------------------------------------

void
reportEngine(const ServiceStats& stats, double busy_sec, double wall_sec,
             Report& report)
{
    static const char* const kTier[kNumJobPriorities] = {"interactive",
                                                         "normal", "batch"};
    for (int t = 0; t < kNumJobPriorities; ++t) {
        const auto& tier = stats.tiers[static_cast<std::size_t>(t)];
        report.set(std::string("engine.queue_wait_ms_mean.") + kTier[t],
                   tier.meanQueueWaitSec() * 1e3, "ms");
        report.set(std::string("engine.queue_wait_ms_max.") + kTier[t],
                   tier.max_queue_wait_sec * 1e3, "ms");
    }
    report.set("engine.executor_steals",
               static_cast<double>(stats.executor.steals), "count");
    report.set("engine.worker_util",
               busy_sec / std::max(1e-9, wall_sec * kWidth), "ratio");
}

} // namespace perfbench
