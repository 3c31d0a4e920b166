/**
 * @file
 * Workload sweep-store: an architecture-exploration sweep, closed loop
 * with one client. Every (layer, arch) problem of AlexNet, ResNeXt-50
 * and DeepBench on simbaBaseline, simba8x8 and simbaBigBuffers is
 * queried once, arch by arch, as a fresh CoSA job at a small work
 * budget (a write: a nearest-neighbour scan over every shard, a solve,
 * a log append with fsync); seven of eight queries repeat an earlier
 * one (a read: an exact hit). All queries share one
 * cachestore::PersistentScheduleCache that was pre-filled, untimed,
 * with synthetic entries under the same arch, scheduler and evaluator
 * keys, so lookups and scans see a large working set. The client looks
 * each query up in the store itself and submits it to the service only
 * on a miss, so a read costs the store's lookup and no thread hand-off.
 *
 * The seed picks where the reads fall and what they re-read. The
 * writes, their order and the pre-fill are fixed: reads change no
 * entry, so every write sees the same store and gets the same warm
 * start on every seed, and the schedule totals compare across seeds.
 */

#include <algorithm>
#include <filesystem>
#include <set>
#include <unistd.h>

#include "bench.hpp"
#include "cachestore/log.hpp"
#include "cachestore/store.hpp"
#include "common/rng.hpp"
#include "cosa/greedy.hpp"

namespace perfbench {

using namespace cosa;

namespace {

constexpr int kPrefillEntries = 20000;
constexpr std::int64_t kWorkLimit = 500;
/** Queries per fresh problem: one write and seven reads. */
constexpr int kQueriesPerProblem = 8;

struct Problem
{
    std::string network;
    LayerSpec layer;
    int arch = 0;
};

const std::vector<ArchSpec>&
archs()
{
    static const std::vector<ArchSpec> all = {ArchSpec::simbaBaseline(),
                                              ArchSpec::simba8x8(),
                                              ArchSpec::simbaBigBuffers()};
    return all;
}

const char* const kArchWireName[] = {"simba", "simba8x8", "simba-big-buffers"};

ScheduleRequest
queryRequest(const Problem& p, std::shared_ptr<ScheduleCache> cache)
{
    ScheduleRequest request;
    request.workloads = {Workload{p.network, {p.layer}}};
    request.arch = archs()[static_cast<std::size_t>(p.arch)];
    request.scheduler = SchedulerKind::Cosa;
    request.cosa.mip.work_limit = kWorkLimit;
    request.cache = std::move(cache);
    request.priority = JobPriority::Batch;
    request.tag = "sweep-store";
    return request;
}

/** The key the service files the schedule of @p p under in the store. */
ScheduleCacheKey
storeKey(const Problem& p)
{
    static const std::string scheduler_key =
        schedulerConfigKey(queryRequest(p, nullptr));
    static const std::string evaluator_key = defaultEvaluator().fingerprint();
    return {p.layer.canonicalKey(),
            archs()[static_cast<std::size_t>(p.arch)].fingerprint(),
            scheduler_key, evaluator_key};
}

/** A store entry as the store's log encodes it: what an exact hit
 *  must reproduce byte for byte. */
std::string
entryBytes(const Problem& p, const SearchResult& result)
{
    cachestore::LogRecord record;
    record.key = storeKey(p);
    record.layer = p.layer;
    record.result = result;
    return cachestore::encodeRecord(record);
}

/** The distinct (shape, arch) problems of the sweep, in sweep order:
 *  arch by arch, network by network. */
std::vector<Problem>
sweepProblems()
{
    std::vector<Problem> problems;
    std::set<std::string> seen;
    for (int a = 0; a < static_cast<int>(archs().size()); ++a) {
        for (const Workload& net :
             {workloads::alexNet(), workloads::resNeXt50(),
              workloads::deepBench()}) {
            for (const LayerSpec& layer : net.layers) {
                const std::string key =
                    layer.canonicalKey() + "|" + std::to_string(a);
                if (seen.insert(key).second)
                    problems.push_back({net.name, layer, a});
            }
        }
    }
    return problems;
}

/**
 * Fill a fresh store with kPrefillEntries synthetic entries: layer
 * shapes from a fixed generator (none equal to a sweep problem) with
 * their greedy schedule, under the sweep's scheduler and evaluator
 * keys.
 */
Status
prefill(const std::string& dir, const std::vector<Problem>& problems,
        Report& report)
{
    cachestore::StoreConfig config;
    config.dir = dir;
    config.num_shards = 8;
    config.fsync_each_append = false; // bulk import; synced below
    StatusOr<std::shared_ptr<cachestore::PersistentScheduleCache>> opened =
        cachestore::PersistentScheduleCache::open(config);
    if (!opened.ok())
        return opened.status();
    cachestore::PersistentScheduleCache& store = *opened.value();

    std::set<std::string> taken;
    for (const Problem& p : problems)
        taken.insert(p.layer.canonicalKey() + "|" + std::to_string(p.arch));
    static const std::int64_t kPq[] = {1,  2,  3,  4,  5,  6,  7,  8,
                                       10, 12, 13, 14, 16, 20, 24, 27,
                                       28, 32, 48, 55, 56, 64, 96, 112};
    static const std::int64_t kCk[] = {3,   4,   8,   12,  16,   24,   32,
                                       48,  64,  96,  128, 192,  256,  384,
                                       512, 768, 1024, 1536, 2048};
    static const std::int64_t kR[] = {1, 2, 3, 5, 7, 11};
    auto pick = [](Rng& rng, const auto& values) {
        return values[rng.nextBelow(std::size(values))];
    };

    Rng rng(0xD1B54A32D192ED03ULL);
    int inserted = 0;
    while (inserted < kPrefillEntries) {
        LayerSpec layer;
        layer.r = layer.s = pick(rng, kR);
        layer.p = layer.q = pick(rng, kPq);
        layer.c = pick(rng, kCk);
        layer.k = pick(rng, kCk);
        layer.stride = 1 + static_cast<std::int64_t>(rng.nextBelow(2));
        layer.name = layer.label();
        const int arch = static_cast<int>(rng.nextBelow(archs().size()));
        const std::string taken_key =
            layer.canonicalKey() + "|" + std::to_string(arch);
        if (!taken.insert(taken_key).second)
            continue;
        const ArchSpec& spec = archs()[static_cast<std::size_t>(arch)];
        SearchResult result;
        result.found = true;
        result.scheduler = "CoSA";
        result.mapping = greedyMapping(layer, spec);
        result.eval = defaultEvaluator().evaluate(result.mapping, layer, spec);
        result.stats.samples = 1;
        result.stats.valid_evaluated = 1;
        if (!result.eval.valid) {
            report.detail("prefill_invalid_greedy", "\"" + layer.name + "\"");
            continue;
        }
        store.insert(storeKey({"", layer, arch}), result, layer);
        ++inserted;
    }
    return store.syncAll();
}

/**
 * The store behind the ScheduleCache interface with a span and a
 * duration sample around each call the service makes into it (traced
 * runs only).
 */
class TimedStore final : public ScheduleCache
{
  public:
    explicit TimedStore(std::shared_ptr<cachestore::PersistentScheduleCache> s)
        : store_(std::move(s))
    {
    }

    std::optional<SearchResult>
    lookup(const ScheduleCacheKey& key) override
    {
        Timed timed(this, "cachestore.lookup", &lookups_);
        return store_->lookup(key);
    }
    void
    insert(const ScheduleCacheKey& key, const SearchResult& result,
           const LayerSpec& layer) override
    {
        Timed timed(this, "cachestore.insert", &inserts_);
        store_->insert(key, result, layer);
    }
    std::optional<SearchResult>
    nearestNeighbor(const std::string& arch_key,
                    const std::string& scheduler_key,
                    const std::string& evaluator_key,
                    const LayerSpec& target) override
    {
        Timed timed(this, "cachestore.nn", &scans_);
        return store_->nearestNeighbor(arch_key, scheduler_key,
                                       evaluator_key, target);
    }
    bool contains(const ScheduleCacheKey& key) const override
    {
        return store_->contains(key);
    }
    std::size_t size() const override { return store_->size(); }
    std::int64_t capacity() const override { return store_->capacity(); }
    void setCapacity(std::int64_t capacity) override
    {
        store_->setCapacity(capacity);
    }
    ScheduleCacheStats stats() const override { return store_->stats(); }
    void clear() override { store_->clear(); }
    std::vector<ExportedEntry> exportEntries() const override
    {
        return store_->exportEntries();
    }
    IoResult save(const std::string& path) const override
    {
        return store_->save(path);
    }
    IoResult load(const std::string& path) override
    {
        return store_->load(path);
    }

    std::vector<double> lookups() const { return copy(lookups_); }
    std::vector<double> inserts() const { return copy(inserts_); }
    std::vector<double> scans() const { return copy(scans_); }

  private:
    struct Timed
    {
        Timed(TimedStore* owner, const char* name, std::vector<double>* out)
            : owner(owner), span("cachestore", name), out(out)
        {
        }
        ~Timed()
        {
            std::lock_guard<std::mutex> lock(owner->mutex_);
            out->push_back(span.elapsed());
        }
        TimedStore* owner;
        Span span;
        std::vector<double>* out;
    };

    std::vector<double> copy(const std::vector<double>& v) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return v;
    }

    std::shared_ptr<cachestore::PersistentScheduleCache> store_;
    mutable std::mutex mutex_;
    std::vector<double> lookups_, inserts_, scans_;
};

} // namespace

void
runSweepStore(const Options& opts, Report& report)
{
    const std::vector<Problem> problems = sweepProblems();
    std::string dir = opts.store_dir;
    std::error_code ec;
    if (!opts.setup_only) {
        dir = opts.out_dir + "/store-" + std::to_string(opts.seed) + "-" +
              std::to_string(::getpid());
        std::filesystem::remove_all(dir, ec);
        std::filesystem::create_directories(opts.out_dir, ec);
        if (Status filled = prefill(dir, problems, report); !filled.ok()) {
            report.fail("prefill: " + filled.message());
            return;
        }
        report.set("setup_s", measureSetup(opts, {"--store-dir", dir}, report),
                   "s");
    }

    // Set-up, timed from process start by measureSetup(): mount the
    // store (replaying every shard log) and bring the service up.
    cachestore::StoreConfig store_config;
    store_config.dir = dir;
    const double open_start = nowSec();
    auto opened = cachestore::PersistentScheduleCache::open(store_config);
    const double open_sec = nowSec() - open_start;
    if (!opened.ok()) {
        report.fail("store open: " + opened.status().message());
        return;
    }
    std::shared_ptr<cachestore::PersistentScheduleCache> store = opened.value();
    ServiceConfig service_config;
    service_config.num_threads = kWidth;
    auto service = std::make_unique<SchedulerService>(service_config);
    if (opts.setup_only) {
        signalReady();
        return;
    }
    report.detail("prefill_entries", static_cast<double>(store->size()));

    // The query sequence: each problem once as a write, in sweep order,
    // and seeded reads of problems already written in between.
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ULL + 3);
    const std::size_t num_queries = problems.size() * kQueriesPerProblem;
    std::vector<char> is_write(num_queries, 0);
    std::fill(is_write.begin(), is_write.begin() + problems.size(), 1);
    rng.shuffle(is_write);
    std::iter_swap(is_write.begin(),
                   std::find(is_write.begin(), is_write.end(), 1));

    std::shared_ptr<TimedStore> timed;
    std::shared_ptr<ScheduleCache> cache = store;
    if (opts.trace) {
        timed = std::make_shared<TimedStore>(store);
        cache = timed;
    }
    const ScheduleCacheStats before = store->stats();
    std::vector<ScheduleCacheKey> keys;
    for (const Problem& p : problems)
        keys.push_back(storeKey(p));
    std::vector<std::string> first_bytes(problems.size());
    std::vector<double> latency, solve_latency, read_even, read_odd;
    std::vector<std::vector<NetworkResult>> sample_results;
    std::vector<std::string> sample_bodies;
    double cycles = 0.0, energy = 0.0, busy = 0.0;
    double samples = 0.0, valid = 0.0;
    std::int64_t warm_hits = 0;
    std::size_t written = 0;
    SolveSpans solve_spans;
    const double start = nowSec();
    for (std::size_t q = 0; q < num_queries; ++q) {
        const std::size_t problem =
            is_write[q] ? written++ : rng.nextBelow(written);
        const Problem& p = problems[problem];
        // Traced runs record every other query; the halves give the
        // tracing overhead.
        SpanLog::get().setEnabled(opts.trace && q % 2 == 0);
        report.attempt();
        std::optional<SearchResult> hit;
        std::vector<NetworkResult> results;
        double elapsed = 0.0;
        {
            Span root("bench", "query");
            hit = cache->lookup(keys[problem]);
            if (!hit) {
                SubmitResult submitted = service->submit(
                    queryRequest(p, cache), solve_spans.callback());
                if (!submitted) {
                    report.fail("query rejected");
                    continue;
                }
                results = submitted.job().wait();
            }
            elapsed = root.elapsed();
        }
        SpanLog::get().setEnabled(false);
        latency.push_back(elapsed);
        if (!is_write[q]) {
            if (!hit) {
                report.wrong(p.layer.name + ": repeated problem missed");
                continue;
            }
            if (!hit->found)
                report.wrong(p.layer.name + ": exact hit has no schedule");
            else if (const std::string why =
                         checkLoopProducts(hit->mapping, p.layer);
                     !why.empty())
                report.wrong(p.layer.name + ": " + why);
            if (entryBytes(p, *hit) != first_bytes[problem])
                report.wrong(p.layer.name +
                             ": exact hit differs from the first solve");
            (q % 2 == 0 ? read_even : read_odd).push_back(elapsed);
            continue;
        }
        if (hit) {
            report.wrong(p.layer.name + ": fresh problem hit the store");
            continue;
        }
        if (results.size() != 1 || results[0].layers.size() != 1) {
            report.wrong(p.layer.name + ": query returned no result");
            continue;
        }
        solve_spans.addSpans(results[0]);
        const NetworkResult& net = results[0];
        checkNetwork(net, report);
        if (net.num_cache_hits != 0)
            report.wrong(p.layer.name + ": fresh problem hit the cache");
        first_bytes[problem] = entryBytes(p, net.layers[0].result);
        solve_latency.push_back(elapsed);
        cycles += net.total_cycles;
        energy += net.total_energy_pj;
        busy += net.search.search_time_sec;
        samples += static_cast<double>(net.search.samples);
        valid += static_cast<double>(net.search.valid_evaluated);
        warm_hits += net.num_warm_hits;
        if (sample_results.size() < 16) {
            sample_results.push_back(results);
            sample_bodies.push_back(
                "{\"workloads\":[{\"name\":\"" + p.network +
                "\",\"layers\":[\"" + p.layer.label() + "\"]}],\"arch\":\"" +
                kArchWireName[p.arch] + "\",\"scheduler\":\"cosa\"," +
                "\"priority\":\"batch\"}");
        }
    }
    const double wall = nowSec() - start;
    const ScheduleCacheStats after = store->stats();

    report.set("net_solve_s", median(solve_latency), "s");
    report.set("req_p50_ms", median(latency) * 1e3, "ms");
    report.set("req_p99_ms", percentile(latency, 0.99) * 1e3, "ms");
    report.set("max_rps", static_cast<double>(latency.size()) / wall, "1/s");
    report.set("sched_cycles", cycles, "cycles");
    report.set("sched_energy_uj", energy * 1e-6, "uJ");
    report.detail("queries", static_cast<double>(latency.size()));
    report.detail("writes", static_cast<double>(problems.size()));

    if (opts.trace) {
        const std::int64_t hits = after.hits - before.hits;
        const std::int64_t misses = after.misses - before.misses;
        report.set("bench.trace_overhead_pct",
                   (median(read_even) / median(read_odd) - 1.0) * 100.0,
                   "pct");
        report.set("cachestore.open_s", open_sec, "s");
        report.detail("lookups", static_cast<double>(timed->lookups().size()));
        report.detail("scans", static_cast<double>(timed->scans().size()));
        report.detail("inserts", static_cast<double>(timed->inserts().size()));
        report.set("cachestore.lookup_p50_us", median(timed->lookups()) * 1e6,
                   "us");
        report.set("cachestore.lookup_p99_us",
                   percentile(timed->lookups(), 0.99) * 1e6, "us");
        report.set("cachestore.nn_p50_us", median(timed->scans()) * 1e6, "us");
        report.set("cachestore.nn_p99_us",
                   percentile(timed->scans(), 0.99) * 1e6, "us");
        report.set("cachestore.insert_p50_us", median(timed->inserts()) * 1e6,
                   "us");
        report.set("cachestore.insert_p99_us",
                   percentile(timed->inserts(), 0.99) * 1e6, "us");
        report.set("cachestore.hit_ratio",
                   static_cast<double>(hits) /
                       std::max<double>(1.0, static_cast<double>(hits + misses)),
                   "ratio");
        report.set("cachestore.warm_hits", static_cast<double>(warm_hits),
                   "count");
        double log_bytes = 0.0, compactions = 0.0;
        for (const cachestore::ShardStats& shard : store->storeStats().shards) {
            log_bytes += static_cast<double>(shard.log_bytes);
            compactions += static_cast<double>(shard.compactions);
        }
        report.set("cachestore.log_bytes", log_bytes, "bytes");
        report.set("cachestore.compactions", compactions, "count");
        reportEngine(service->stats(), busy, wall, report);
        report.set("mapper.samples", samples / problems.size(), "count");
        report.set("mapper.valid_ratio", valid / std::max(1.0, samples),
                   "ratio");

        SpanLog::get().setEnabled(true);
        measureCodec(sample_bodies, sample_results, report);
        std::vector<CosaProblem> attribution;
        for (const Problem& p : problems) {
            attribution.push_back(
                {p.layer, archs()[static_cast<std::size_t>(p.arch)],
                 queryRequest(p, nullptr).cosa});
        }
        attributeCosa(attribution, report);
        SpanLog::get().setEnabled(false);
        foldTrace(opts, "query", report);
    }

    service.reset();
    store.reset();
    std::filesystem::remove_all(dir, ec);
}

} // namespace perfbench
