#pragma once

/**
 * @file
 * Shared pieces of the repository benchmark (see README.md): options,
 * the metric report every workload fills, the benchmark's own span
 * log, and the correctness checks that run independently of the
 * library's formulation code.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cosa/formulation.hpp"
#include "engine/network_result.hpp"
#include "engine/schedule_job.hpp"
#include "engine/scheduler_service.hpp"

namespace perfbench {

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 25.0;
    bool trace = false;
    /** Where traced runs write their Chrome trace. */
    std::string out_dir = ".bench_build/perfbench";
    /** Set-up probe: do the workload's set-up, report ready on stdout
     *  and exit (see measureSetup()). */
    bool setup_only = false;
    /** sweep-store: an existing store to mount instead of a new one. */
    std::string store_dir;
};

/** Executor width, load-generator threads and open connections: the
 *  benchmark is sized for a 4-core host. */
inline constexpr int kWidth = 4;

/** Seconds on the steady clock since the first call in this process. */
double nowSec();

/** Nearest-rank percentile (q in [0, 1]) of @p values; 0 when empty. */
double percentile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

/** Peak resident set size of this process, in MB. */
double peakRssMb();

class Report;

/** Set-up probes spawned per run: kSetupGroups groups of
 *  kSetupProbesPerGroup in a row. */
inline constexpr int kSetupGroups = 15;
inline constexpr int kSetupProbesPerGroup = 3;

/**
 * setup_s: the time from process start to ready for load. Spawns this
 * program in set-up-only mode (the workload of @p opts, plus
 * @p extra_args) and times each probe from the spawn until the child
 * writes "ready" to its stdout; the child then exits. Returns the
 * median over the groups of each group's fastest probe, in seconds:
 * work moved into set-up slows every probe, while a host stall slows
 * only some. Negative when a probe failed (counted as failed on
 * @p report).
 */
double measureSetup(const Options& opts,
                    const std::vector<std::string>& extra_args,
                    Report& report);

/** In set-up-only mode: tell the parent the process is ready. */
void signalReady();

/** Metrics, operation counts and details of one run. */
class Report
{
  public:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    void set(const std::string& name, double value, const std::string& unit);
    /** Value of a metric already set, or @p fallback. */
    double get(const std::string& name, double fallback = 0.0) const;
    const std::vector<Metric>& metrics() const { return metrics_; }

    /** A raw JSON value recorded under @p key in the run's detail
     *  line (sample counts, per-rate rows, cross-checks). */
    void detail(const std::string& key, const std::string& json_value);
    void detail(const std::string& key, double value);
    const std::vector<std::pair<std::string, std::string>>& details() const
    {
        return details_;
    }

    /** Count @p n operations as attempted. Thread-safe. */
    void attempt(std::int64_t n = 1);
    /** An operation failed or was refused. Thread-safe. */
    void fail(const std::string& why);
    /** An output was wrong: counted as failed and fails the run. */
    void wrong(const std::string& why);

    std::int64_t attempted() const { return attempted_; }
    std::int64_t failed() const { return failed_; }
    std::int64_t wrongOutputs() const { return wrong_; }

  private:
    void note(const char* kind, const std::string& why);

    mutable std::mutex mutex_;
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> details_;
    std::int64_t attempted_ = 0;
    std::int64_t failed_ = 0;
    std::int64_t wrong_ = 0;
    int notes_ = 0;
};

/** One span the benchmark recorded around a call into a module. */
struct SpanRecord
{
    const char* module = "";
    const char* name = "";
    int tid = 0;
    double t0 = 0.0;
    double t1 = 0.0;
};

/**
 * The benchmark's own span log (traced runs only). Spans wrap the
 * benchmark's calls into the library's public functions; nothing
 * inside the library is instrumented by it.
 */
class SpanLog
{
  public:
    static SpanLog& get();

    void setEnabled(bool enabled) { enabled_.store(enabled); }
    bool enabled() const { return enabled_.load(); }

    /** Record a finished span on the calling thread, or on lane
     *  @p tid when it is not negative. */
    void add(const char* module, const char* name, double t0, double t1,
             int tid = -1);
    std::vector<SpanRecord> spans() const;

  private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

/** RAII span: [construction, destruction) when the log is enabled. */
class Span
{
  public:
    Span(const char* module, const char* name)
        : module_(module), name_(name), t0_(nowSec())
    {
    }
    ~Span()
    {
        if (SpanLog::get().enabled())
            SpanLog::get().add(module_, name_, t0_, nowSec());
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    double elapsed() const { return nowSec() - t0_; }

  private:
    const char* module_;
    const char* name_;
    double t0_;
};

/**
 * Spans for the problems a SchedulerService job solves, from its
 * public progress events: each solved (not cached) unique problem gets
 * a "cosa.layer_solve" span that ends at its progress event and lasts
 * its reported search time, on a lane of its own.
 */
class SolveSpans
{
  public:
    /** The callback to pass to SchedulerService::submit(). */
    cosa::ScheduleJob::ProgressCallback callback();
    /** Add the spans of the job that returned @p net and forget it. */
    void addSpans(const cosa::NetworkResult& net);

  private:
    std::mutex mutex_;
    std::vector<std::pair<int, double>> done_; //!< unique index, time
};

/**
 * Fold the span log into a per-module self-time table (stderr), write
 * it as a Chrome trace under @p opts.out_dir, and report
 * bench.trace_coverage: the share of the time inside spans of module
 * "bench" named @p root during which a library module span of that
 * root runs (one on the root's lane, or on a lane without roots, such
 * as a service worker's).
 */
void foldTrace(const Options& opts, const char* root, Report& report);

/**
 * Independent schedule check: for every dimension, the product of the
 * mapping's loop bounds equals the layer's bound. Empty when it holds,
 * else the reason.
 */
std::string checkLoopProducts(const cosa::Mapping& mapping,
                              const cosa::LayerSpec& layer);

/**
 * The per-network correctness gate: every layer found, served by the
 * requested scheduler (outcome optimal, no fallback, no failure), not
 * cancelled, and its mapping passes checkLoopProducts(). Each
 * violation is counted as a wrong output on @p report.
 */
void checkNetwork(const cosa::NetworkResult& net, Report& report);

/** One CoSA problem for the attribution pass. */
struct CosaProblem
{
    cosa::LayerSpec layer;
    cosa::ArchSpec arch;
    cosa::CosaConfig config;
};

/**
 * Traced-run attribution of CoSA work: for each problem, spans around
 * the CosaFormulation constructor (cosa.build), CosaFormulation::solve
 * (solver.solve), Evaluator::evaluate on the extracted mapping
 * (model.eval) and, separately, CosaScheduler::schedule
 * (cosa.schedule). Runs on kWidth threads and reports the solver.*,
 * cosa.* and model.eval_us metrics.
 */
void attributeCosa(const std::vector<CosaProblem>& problems,
                   Report& report);

/**
 * Traced-run server codec metrics over a workload's own request
 * bodies and results: HttpRequestParser::next, json::Value::parse,
 * wire::requestFromJson and wire::resultsToJson(...).dump(), each the
 * median per call in microseconds.
 */
void measureCodec(const std::vector<std::string>& bodies,
                  const std::vector<std::vector<cosa::NetworkResult>>& results,
                  Report& report);

/** engine.* metrics from a service's stats after the measured window;
 *  @p busy_sec is the summed layer solve time in that window. */
void reportEngine(const cosa::ServiceStats& stats, double busy_sec,
                  double wall_sec, Report& report);

/** Serialized canonical results, as the daemon puts them on the wire. */
std::string resultBytes(const std::vector<cosa::NetworkResult>& results);

// The three workloads (README.md gives each one's reason).
void runResnet50Cosa(const Options& opts, Report& report);
void runCosadRandom(const Options& opts, Report& report);
void runSweepStore(const Options& opts, Report& report);

} // namespace perfbench
