#include "cachestore/store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/logging.hpp"

namespace cosa {
namespace cachestore {

namespace {

constexpr const char* kManifestName = "MANIFEST";
constexpr const char* kManifestHeader = "cosa-cachestore v1";
constexpr int kDefaultShards = 8;
constexpr int kMaxShards = 4096;

std::string
shardFileName(std::size_t index)
{
    char name[32];
    std::snprintf(name, sizeof(name), "shard-%04zu.log", index);
    return name;
}

/**
 * Create @p config.dir when missing and reconcile its manifest with
 * @p config.num_shards (resolved in place). The manifest pins the
 * shard count so a reopen with a different configured K fails loudly
 * instead of scattering keys across a mismatched layout.
 */
Status
mountManifest(StoreConfig& config)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(config.dir, ec);
    if (ec)
        return Status{ErrorCode::kIoError,
                      "cachestore: cannot create " + config.dir + ": " +
                          ec.message()};
    const std::string manifest_path =
        (fs::path(config.dir) / kManifestName).string();
    int shards_on_disk = 0;
    {
        std::ifstream in(manifest_path);
        if (in) {
            std::string header;
            std::string word;
            if (!std::getline(in, header) || header != kManifestHeader ||
                !(in >> word >> shards_on_disk) || word != "shards" ||
                shards_on_disk <= 0 || shards_on_disk > kMaxShards)
                return Status{ErrorCode::kIoError,
                              "cachestore: " + manifest_path +
                                  " is not a valid manifest"};
        }
    }
    if (shards_on_disk > 0) {
        if (config.num_shards != 0 && config.num_shards != shards_on_disk)
            return Status{
                ErrorCode::kInvalidInput,
                "cachestore: " + config.dir + " has " +
                    std::to_string(shards_on_disk) +
                    " shards but the configuration asks for " +
                    std::to_string(config.num_shards) +
                    " (export/import to change the layout)"};
        config.num_shards = shards_on_disk;
        return Status::Ok();
    }
    if (config.num_shards == 0)
        config.num_shards = kDefaultShards;
    // Crash-safe manifest write: temp + rename.
    const std::string tmp = manifest_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            return Status{ErrorCode::kIoError,
                          "cachestore: cannot write " + tmp};
        out << kManifestHeader << "\n"
            << "shards " << config.num_shards << "\n";
    }
    if (std::rename(tmp.c_str(), manifest_path.c_str()) != 0)
        return Status{ErrorCode::kIoError,
                      "cachestore: cannot publish " + manifest_path};
    return Status::Ok();
}

} // namespace

StatusOr<std::shared_ptr<PersistentScheduleCache>>
PersistentScheduleCache::open(StoreConfig config)
{
    if (config.dir.empty())
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: empty shard directory"};
    if (config.num_shards < 0 || config.num_shards > kMaxShards)
        return Status{ErrorCode::kInvalidInput,
                      "cachestore: shard count out of range"};
    Status mounted = mountManifest(config);
    if (!mounted.ok())
        return mounted;
    std::shared_ptr<PersistentScheduleCache> store(
        new PersistentScheduleCache(std::move(config)));
    Status replayed = store->replay();
    if (!replayed.ok())
        return replayed;
    return store;
}

PersistentScheduleCache::PersistentScheduleCache(StoreConfig config)
    : ScheduleCache(config.capacity,
                    static_cast<std::size_t>(config.num_shards)),
      config_(std::move(config)),
      logs_(shards_.size())
{
}

Status
PersistentScheduleCache::replay()
{
    const std::size_t num_shards = shards_.size();
    for (std::size_t i = 0; i < num_shards; ++i) {
        logs_[i].path =
            (std::filesystem::path(config_.dir) / shardFileName(i)).string();
        // A stale `.tmp` is a compaction that crashed before its
        // rename: the old generation is still the truth, the partial
        // new one is garbage. Ignore + remove.
        std::error_code ec;
        std::filesystem::remove(compactionTempPath(logs_[i].path), ec);
    }

    // Read + replay every shard log in parallel — shards are fully
    // independent until the writers open, and replay (decode + map
    // build) dominates a large store's startup. No other thread can
    // see the store yet, so replay skips the shard locks.
    std::vector<Status> statuses(num_shards, Status::Ok());
    std::vector<std::uint64_t> valid_bytes(num_shards, 0);
    std::vector<std::uint64_t> max_seqs(num_shards, 0);
    const auto scanShard = [&](std::size_t i) {
        Shard& shard = *shards_[i];
        ShardLog& log = logs_[i];
        // Sizing hint so a big replay doesn't rehash/regrow its way
        // up (entries run a few hundred bytes; overshooting a bit is
        // just slack buckets).
        std::error_code size_ec;
        const auto on_disk = std::filesystem::file_size(log.path, size_ec);
        if (!size_ec && on_disk > 0) {
            const std::size_t hint =
                static_cast<std::size_t>(on_disk / 256) + 1;
            shard.entries.reserve(hint);
            shard.index.reserve(hint);
        }
        // Replay streams straight out of the frame scan — no second
        // copy of the shard's records. Inserts overwrite in place
        // keeping the *first* record's seq (an overwrite keeps its
        // order slot); evicts erase. A re-insert after an evict is a
        // fresh entry under its fresh seq.
        const auto apply = [&](LogRecord&& record,
                               std::uint32_t record_bytes) {
            ++log.records_recovered;
            max_seqs[i] = std::max(max_seqs[i], record.seq);
            std::string flat = record.key.flat();
            if (record.kind == LogRecord::Kind::kEvict) {
                const auto it = shard.entries.find(flat);
                if (it != shard.entries.end()) {
                    log.live_bytes -= it->second.record_bytes;
                    eraseLocked(shard, it);
                }
                return true;
            }
            const auto [entry, inserted] =
                upsertLocked(shard, std::move(flat), record.seq);
            if (inserted)
                entry->key = std::move(record.key);
            log.live_bytes += record_bytes;
            log.live_bytes -= entry->record_bytes;
            entry->result = std::move(record.result);
            entry->layer = std::move(record.layer);
            entry->record_bytes = record_bytes;
            return true;
        };
        LogReadResult read = readLog(log.path, apply);
        if (!read.ok) {
            statuses[i] = Status{ErrorCode::kIoError, read.error};
            return;
        }
        if (read.num_shards != 0 &&
            (read.num_shards != static_cast<std::uint32_t>(num_shards) ||
             read.shard_index != static_cast<std::uint32_t>(i))) {
            statuses[i] =
                Status{ErrorCode::kIoError,
                       "cachestore: " + log.path + " is shard " +
                           std::to_string(read.shard_index) + "/" +
                           std::to_string(read.num_shards) +
                           ", not part of this layout"};
            return;
        }
        log.records_skipped = read.records_skipped;
        log.torn_tail_recovered = read.torn_tail;
        valid_bytes[i] = read.valid_bytes;
    };
    const std::size_t num_workers = std::min<std::size_t>(
        num_shards,
        std::max<unsigned>(1, std::thread::hardware_concurrency()));
    if (num_workers <= 1) {
        for (std::size_t i = 0; i < num_shards; ++i)
            scanShard(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> workers;
        workers.reserve(num_workers);
        for (std::size_t w = 0; w < num_workers; ++w) {
            workers.emplace_back([&] {
                for (;;) {
                    const std::size_t i =
                        next.fetch_add(1, std::memory_order_relaxed);
                    if (i >= num_shards)
                        return;
                    scanShard(i);
                }
            });
        }
        for (std::thread& worker : workers)
            worker.join();
    }
    for (const Status& status : statuses)
        if (!status.ok())
            return status;

    metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
    for (std::size_t i = 0; i < num_shards; ++i) {
        ShardLog& log = logs_[i];
        const std::string label = std::to_string(i);
        if (log.records_skipped > 0) {
            warn("cachestore: ", log.path, ": ", log.records_skipped,
                 " bad record(s) dropped, ", log.records_recovered,
                 " replayed",
                 log.torn_tail_recovered ? " (torn tail cut)" : "");
            shards_[i]->metrics->corrupt_entry->inc(log.records_skipped);
            registry
                .counter("cosa_cachestore_recovered_skips_total",
                         "Bad records dropped at open", {{"shard", label}})
                .inc(log.records_skipped);
        }
        Status opened = log.writer.open(
            log.path, static_cast<std::uint32_t>(i),
            static_cast<std::uint32_t>(num_shards), valid_bytes[i],
            config_.fsync_each_append);
        if (!opened.ok())
            return opened;
        log.compaction_counter = &registry.counter(
            "cosa_cachestore_compactions_total",
            "Shard log generation folds", {{"shard", label}});
        log.log_bytes_gauge = &registry.gauge(
            "cosa_cachestore_log_bytes", "Current shard log file size",
            {{"shard", label}});
        publishLogBytes(log);
    }
    next_seq_.store(*std::max_element(max_seqs.begin(), max_seqs.end()) + 1,
                    std::memory_order_relaxed);
    // Apply the budgets to the replayed entries (evicting and logging
    // the excess) and fold any shard the policy flags.
    setCapacity(capacity());
    return Status::Ok();
}

void
PersistentScheduleCache::logInsertLocked(std::size_t s, Entry& entry)
{
    ShardLog& log = logs_[s];
    const std::string payload =
        encodeInsert(entry.seq, entry.key, entry.layer, entry.result);
    log.live_bytes -= entry.record_bytes;
    entry.record_bytes = framedBytes(payload);
    log.live_bytes += entry.record_bytes;
    // write -> fsync -> publish: the in-memory entry is only reachable
    // by other threads once the shard lock drops, which is after the
    // durable append. An IO failure degrades to memory-only service
    // for this entry (warned, not fatal: the cache must keep absorbing
    // solves even on a full disk).
    Status appended = log.writer.append(payload);
    if (!appended.ok())
        warn("cachestore: ", log.path, ": ", appended.message(),
             " (entry stays in memory only)");
}

void
PersistentScheduleCache::logEvictLocked(std::size_t s, const Entry& entry)
{
    ShardLog& log = logs_[s];
    LogRecord record;
    record.kind = LogRecord::Kind::kEvict;
    record.seq = entry.seq;
    record.key = entry.key;
    Status appended = log.writer.append(encodeRecord(record));
    if (!appended.ok())
        warn("cachestore: ", log.path, ": ", appended.message());
    log.live_bytes -= entry.record_bytes;
}

void
PersistentScheduleCache::afterWriteLocked(std::size_t s)
{
    ShardLog& log = logs_[s];
    publishLogBytes(log);
    if (log.compaction_pending || !worthCompacting(log))
        return;
    std::function<void(std::function<void()>)> runner;
    {
        std::lock_guard<std::mutex> lock(runner_mutex_);
        runner = runner_;
    }
    if (!runner) {
        compactShardLocked(s);
        return;
    }
    // Online mode: fold on the shared executor, never on the solve
    // path. The task holds a weak_ptr — a store torn down before the
    // continuation runs is a no-op, not a use-after-free.
    log.compaction_pending = true;
    std::weak_ptr<PersistentScheduleCache> weak = weak_from_this();
    runner([weak, s] {
        const std::shared_ptr<PersistentScheduleCache> self = weak.lock();
        if (!self)
            return;
        std::lock_guard<std::mutex> lock(self->shards_[s]->mutex);
        ShardLog& log = self->logs_[s];
        log.compaction_pending = false;
        // Re-check: appends since the dispatch may have changed the
        // ratio (or another fold already ran).
        if (self->worthCompacting(log))
            self->compactShardLocked(s);
    });
}

void
PersistentScheduleCache::clearedLocked(std::size_t s)
{
    ShardLog& log = logs_[s];
    log.live_bytes = 0;
    Status truncated = log.writer.openTruncated(
        log.path, static_cast<std::uint32_t>(s),
        static_cast<std::uint32_t>(shards_.size()),
        config_.fsync_each_append);
    if (!truncated.ok())
        warn("cachestore: clear: ", truncated.message());
    publishLogBytes(log);
}

void
PersistentScheduleCache::setAsyncRunner(
    std::function<void(std::function<void()>)> runner)
{
    std::lock_guard<std::mutex> lock(runner_mutex_);
    runner_ = std::move(runner);
}

bool
PersistentScheduleCache::worthCompacting(const ShardLog& log) const
{
    return config_.compaction.shouldCompact(log.writer.bytes(),
                                            log.live_bytes, logHeaderBytes());
}

void
PersistentScheduleCache::compactShardLocked(std::size_t s)
{
    // Live entries in ascending seq, re-encoded as plain inserts: the
    // next generation replays to exactly the current map.
    ShardLog& log = logs_[s];
    std::vector<std::string> payloads;
    payloads.reserve(shards_[s]->entries.size());
    for (const IndexSlot& slot : shards_[s]->index) {
        if (slot.entry)
            payloads.push_back(encodeInsert(slot.entry->seq, slot.entry->key,
                                            slot.entry->layer,
                                            slot.entry->result));
    }
    const std::uint32_t shard_index = static_cast<std::uint32_t>(s);
    const std::uint32_t num_shards =
        static_cast<std::uint32_t>(shards_.size());
    const std::uint64_t old_bytes = log.writer.bytes();
    log.writer.close();
    StatusOr<std::uint64_t> folded =
        compactShardFile(log.path, shard_index, num_shards, payloads);
    if (!folded.ok())
        warn("cachestore: compaction of ", log.path,
             " failed: ", folded.status().message(),
             " (old generation kept)");
    Status reopened = log.writer.open(
        log.path, shard_index, num_shards,
        folded.ok() ? folded.value() : old_bytes, config_.fsync_each_append);
    if (!reopened.ok()) {
        warn("cachestore: reopen after compaction of ", log.path,
             " failed: ", reopened.message());
        return;
    }
    if (folded.ok()) {
        ++log.compactions;
        log.compaction_counter->inc();
    }
    publishLogBytes(log);
}

Status
PersistentScheduleCache::syncAll()
{
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        std::lock_guard<std::mutex> lock(shards_[s]->mutex);
        Status synced = logs_[s].writer.sync();
        if (!synced.ok())
            return synced;
    }
    return Status::Ok();
}

StoreStats
PersistentScheduleCache::storeStats() const
{
    StoreStats out;
    out.dir = config_.dir;
    out.num_shards = config_.num_shards;
    out.capacity = capacity();
    out.cache = stats();
    out.shards.reserve(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Shard& shard = *shards_[s];
        const ShardLog& log = logs_[s];
        std::lock_guard<std::mutex> lock(shard.mutex);
        ShardStats stats;
        stats.entries = static_cast<std::int64_t>(shard.entries.size());
        stats.hits = shard.hits;
        stats.misses = shard.misses;
        stats.inserts = shard.inserts;
        stats.evictions = shard.evictions;
        stats.compactions = log.compactions;
        stats.records_recovered = log.records_recovered;
        stats.records_skipped = log.records_skipped;
        stats.log_bytes = log.writer.bytes();
        stats.live_bytes = log.live_bytes;
        stats.torn_tail_recovered = log.torn_tail_recovered;
        out.shards.push_back(stats);
    }
    return out;
}

void
PersistentScheduleCache::publishLogBytes(ShardLog& log)
{
    if (log.log_bytes_gauge)
        log.log_bytes_gauge->set(static_cast<double>(log.writer.bytes()));
}

} // namespace cachestore
} // namespace cosa
