#include "engine/schedule_cache.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "cachestore/compact.hpp"
#include "cachestore/log.hpp"
#include "common/failpoint.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"

namespace cosa {

double
canonicalLayerDistance(const LayerSpec& a, const LayerSpec& b)
{
    const auto term = [](std::int64_t x, std::int64_t y) {
        const double d = std::log2(static_cast<double>(x)) -
                         std::log2(static_cast<double>(y));
        return d * d;
    };
    const double sq = term(a.r, b.r) + term(a.s, b.s) + term(a.p, b.p) +
                      term(a.q, b.q) + term(a.c, b.c) + term(a.k, b.k) +
                      term(a.n, b.n) + term(a.stride, b.stride);
    return std::sqrt(sq);
}

const ScheduleCache::ShardMetrics&
ScheduleCache::metricsFor(const std::string& label)
{
    // Resolved once per label for the whole process: a private cache
    // per request must not pay registry lookups.
    static std::mutex mutex;
    static std::unordered_map<std::string, ShardMetrics> by_label;
    std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = by_label.try_emplace(label);
    if (inserted) {
        metrics::MetricsRegistry& registry =
            metrics::MetricsRegistry::global();
        const auto event = [&](const char* kind) {
            return &registry.counter("cosa_cache_events_total",
                                     "Schedule-cache events by shard and "
                                     "kind",
                                     {{"shard", label}, {"event", kind}});
        };
        ShardMetrics& m = it->second;
        m.hit = event("hit");
        m.miss = event("miss");
        m.insert = event("insert");
        m.evict = event("evict");
        m.neighbor_hit = event("neighbor_hit");
        m.corrupt_entry = event("corrupt_entry");
        m.evictions_total = &registry.counter(
            "cosa_cache_evictions_total",
            "Schedule-cache LRU evictions by shard", {{"shard", label}});
    }
    return it->second;
}

ScheduleCache::ScheduleCache(std::int64_t capacity)
    : ScheduleCache(capacity, 0)
{
}

ScheduleCache::ScheduleCache(std::int64_t capacity, std::size_t num_shards)
{
    const std::size_t count = std::max<std::size_t>(num_shards, 1);
    shards_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        shards_.push_back(std::make_unique<Shard>());
        shards_.back()->metrics =
            &metricsFor(num_shards == 0 ? "local" : std::to_string(i));
    }
    setCapacity(capacity);
}

ScheduleCache::~ScheduleCache() = default;

std::size_t
ScheduleCache::shardOf(const std::string& flat_key) const
{
    if (shards_.size() == 1)
        return 0;
    return static_cast<std::size_t>(
        cachestore::fnv1a(flat_key.data(), flat_key.size()) %
        shards_.size());
}

std::vector<std::unique_lock<std::mutex>>
ScheduleCache::lockAll() const
{
    // Fixed 0..K-1 order: no deadlock between concurrent scans.
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(shards_.size());
    for (const auto& shard : shards_)
        locks.emplace_back(shard->mutex);
    return locks;
}

template <class Visit>
void
ScheduleCache::scanLocked(Visit&& visit) const
{
    const std::size_t k = shards_.size();
    std::vector<std::size_t> cursor(k, 0);
    for (;;) {
        std::size_t next = k;
        std::uint64_t min_seq = 0;
        for (std::size_t s = 0; s < k; ++s) {
            const std::vector<IndexSlot>& index = shards_[s]->index;
            std::size_t& c = cursor[s];
            while (c < index.size() && !index[c].entry)
                ++c; // tombstone
            if (c < index.size() && (next == k || index[c].seq < min_seq)) {
                next = s;
                min_seq = index[c].seq;
            }
        }
        if (next == k)
            return;
        visit(*shards_[next]->index[cursor[next]++].entry, next);
    }
}

std::pair<ScheduleCache::Entry*, bool>
ScheduleCache::upsertLocked(Shard& shard, std::string&& flat,
                            std::uint64_t seq)
{
    const auto [it, inserted] = shard.entries.try_emplace(std::move(flat));
    Entry& entry = it->second;
    if (inserted) {
        // Seq assignment under the shard lock keeps each shard's index
        // (and log) in ascending seq order.
        entry.seq = seq != 0 ? seq
                             : next_seq_.fetch_add(
                                   1, std::memory_order_relaxed);
        entry.lru_it = shard.lru.insert(shard.lru.end(), &it->first);
        entry.index_slot = shard.index.size();
        shard.index.push_back({entry.seq, &entry});
    } else {
        // An overwrite refreshes recency like a hit would.
        shard.lru.splice(shard.lru.end(), shard.lru, entry.lru_it);
    }
    return {&entry, inserted};
}

void
ScheduleCache::eraseLocked(
    Shard& shard, std::unordered_map<std::string, Entry>::iterator it)
{
    Entry& entry = it->second;
    shard.index[entry.index_slot].entry = nullptr; // tombstone, O(1)
    ++shard.index_tombstones;
    shard.lru.erase(entry.lru_it);
    shard.entries.erase(it);
    if (shard.index_tombstones <= shard.entries.size() + 16)
        return;
    // Tombstones dominate: rebuild the index, so sustained churn on a
    // bounded cache stays amortized O(1) per eviction.
    std::vector<IndexSlot> live;
    live.reserve(shard.entries.size());
    for (const IndexSlot& slot : shard.index) {
        if (!slot.entry)
            continue;
        slot.entry->index_slot = live.size();
        live.push_back(slot);
    }
    shard.index = std::move(live);
    shard.index_tombstones = 0;
}

void
ScheduleCache::enforceBudgetLocked(std::size_t s)
{
    Shard& shard = *shards_[s];
    if (shard.budget <= 0)
        return;
    while (static_cast<std::int64_t>(shard.entries.size()) > shard.budget) {
        const auto it = shard.entries.find(*shard.lru.front());
        logEvictLocked(s, it->second);
        eraseLocked(shard, it);
        ++shard.evictions;
        shard.metrics->evict->inc();
        shard.metrics->evictions_total->inc();
    }
}

std::optional<SearchResult>
ScheduleCache::lookup(const ScheduleCacheKey& key)
{
    const std::string flat = key.flat();
    Shard& shard = *shards_[shardOf(flat)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto it = shard.entries.find(flat);
    if (it == shard.entries.end()) {
        ++shard.misses;
        shard.metrics->miss->inc();
        return std::nullopt;
    }
    ++shard.hits;
    shard.metrics->hit->inc();
    // Refresh recency: an exact hit is the strongest reuse signal.
    shard.lru.splice(shard.lru.end(), shard.lru, it->second.lru_it);
    return it->second.result;
}

void
ScheduleCache::insert(const ScheduleCacheKey& key, const SearchResult& result,
                      const LayerSpec& layer)
{
    std::string flat = key.flat();
    const std::size_t s = shardOf(flat);
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mutex);
    const auto [entry, inserted] = upsertLocked(shard, std::move(flat), 0);
    if (inserted) {
        entry->key = key;
        ++shard.inserts;
        shard.metrics->insert->inc();
    }
    entry->result = result;
    entry->layer = layer;
    logInsertLocked(s, *entry);
    enforceBudgetLocked(s);
    afterWriteLocked(s);
}

std::optional<SearchResult>
ScheduleCache::nearestNeighbor(const std::string& arch_key,
                               const std::string& scheduler_key,
                               const std::string& evaluator_key,
                               const LayerSpec& target)
{
    const auto locks = lockAll();
    const std::string target_key = target.canonicalKey();
    const Entry* best = nullptr;
    std::size_t best_shard = 0;
    double best_dist = 0.0;
    bool best_arch_match = false;
    // The strict-improvement rule keeps the earliest entry on ties, so
    // the global visit order is part of the determinism contract.
    scanLocked([&](const Entry& entry, std::size_t s) {
        if (!entry.result.found || entry.key.scheduler_key != scheduler_key ||
            entry.key.evaluator_key != evaluator_key)
            return;
        const bool arch_match = entry.key.arch_key == arch_key;
        if (arch_match && entry.layer.canonicalKey() == target_key)
            return; // the exact problem: a hit, not a neighbor
        const double dist = canonicalLayerDistance(entry.layer, target);
        const bool better =
            !best || dist < best_dist - 1e-12 ||
            (dist < best_dist + 1e-12 && arch_match && !best_arch_match);
        if (better) {
            best = &entry;
            best_shard = s;
            best_dist = dist;
            best_arch_match = arch_match;
        }
    });
    if (!best)
        return std::nullopt;
    neighbor_hits_.fetch_add(1, std::memory_order_relaxed);
    shards_[best_shard]->metrics->neighbor_hit->inc();
    return best->result;
}

bool
ScheduleCache::contains(const ScheduleCacheKey& key) const
{
    const std::string flat = key.flat();
    const Shard& shard = *shards_[shardOf(flat)];
    std::lock_guard<std::mutex> lock(shard.mutex);
    return shard.entries.find(flat) != shard.entries.end();
}

std::size_t
ScheduleCache::size() const
{
    std::size_t total = 0;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        total += shard->entries.size();
    }
    return total;
}

std::int64_t
ScheduleCache::capacity() const
{
    return capacity_.load(std::memory_order_relaxed);
}

void
ScheduleCache::setCapacity(std::int64_t capacity)
{
    const std::int64_t total = std::max<std::int64_t>(capacity, 0);
    capacity_.store(total, std::memory_order_relaxed);
    const std::int64_t k = static_cast<std::int64_t>(shards_.size());
    // Budgets sum to exactly max(total, K) when bounded.
    const std::int64_t effective =
        total == 0 ? 0 : std::max<std::int64_t>(total, k);
    for (std::int64_t i = 0; i < k; ++i) {
        const std::size_t s = static_cast<std::size_t>(i);
        std::lock_guard<std::mutex> lock(shards_[s]->mutex);
        shards_[s]->budget =
            effective == 0 ? 0 : effective / k + (i < effective % k ? 1 : 0);
        enforceBudgetLocked(s);
        afterWriteLocked(s);
    }
}

ScheduleCacheStats
ScheduleCache::stats() const
{
    ScheduleCacheStats out;
    for (const auto& shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        out.hits += shard->hits;
        out.misses += shard->misses;
        out.entries += static_cast<std::int64_t>(shard->entries.size());
        out.evictions += shard->evictions;
    }
    out.neighbor_hits = neighbor_hits_.load(std::memory_order_relaxed);
    return out;
}

void
ScheduleCache::clear()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard& shard = *shards_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        shard.lru.clear();
        shard.index.clear();
        shard.index_tombstones = 0;
        shard.entries.clear();
        clearedLocked(s);
    }
}

std::vector<ScheduleCache::ExportedEntry>
ScheduleCache::exportEntries() const
{
    const auto locks = lockAll();
    std::vector<ExportedEntry> out;
    scanLocked([&](const Entry& entry, std::size_t) {
        out.push_back({entry.key, entry.result, entry.layer});
    });
    return out;
}

ScheduleCache::IoResult
ScheduleCache::save(const std::string& path) const
{
    IoResult io;
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::filesystem::create_directories(parent, ec);
        if (ec) {
            io.error = "cannot create " + parent.string() + ": " +
                       ec.message();
            return io;
        }
    }
    std::vector<std::string> payloads;
    {
        const auto locks = lockAll();
        scanLocked([&](const Entry& entry, std::size_t) {
            payloads.push_back(cachestore::encodeInsert(
                entry.seq, entry.key, entry.layer, entry.result));
        });
    }
    // The same crash-safe generation write compaction uses: `.tmp`,
    // fsync, atomic rename.
    const StatusOr<std::uint64_t> written =
        cachestore::compactShardFile(path, 0, 1, payloads);
    if (!written.ok()) {
        io.error = "save to " + path + " failed: " +
                   written.status().message();
        return io;
    }
    io.ok = true;
    io.entries = static_cast<std::int64_t>(payloads.size());
    return io;
}

ScheduleCache::IoResult
ScheduleCache::load(const std::string& path)
{
    IoResult io;
    std::error_code ec;
    if (!std::filesystem::is_regular_file(path, ec)) {
        io.error = "cannot open " + path;
        return io;
    }
    const cachestore::LogReadResult read = cachestore::readLog(
        path, [&](cachestore::LogRecord&& record, std::uint32_t) {
            if (record.kind != cachestore::LogRecord::Kind::kInsert)
                return true; // snapshots hold inserts only
            if (failpoint::armed() &&
                failpoint::shouldTrigger("cache.load_entry")) {
                ++io.skipped;
                return true;
            }
            insert(record.key, record.result, record.layer);
            ++io.entries;
            return true;
        });
    if (!read.ok) {
        io.error = read.error;
        return io;
    }
    io.skipped += read.records_skipped;
    if (io.skipped > 0) {
        warn("schedule cache: skipped ", io.skipped, " corrupt record(s) in ",
             path, " (", io.entries, " merged)");
        metricsFor("local").corrupt_entry->inc(io.skipped);
    }
    io.ok = true;
    return io;
}

} // namespace cosa
