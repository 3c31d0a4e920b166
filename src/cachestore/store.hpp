#pragma once

/**
 * @file
 * PersistentScheduleCache — the schedule cache with an append-only log
 * behind every shard.
 *
 * The sharded index (maps, LRU, scan order, counters) is ScheduleCache
 * itself; this subclass adds only durability. Each shard owns a log
 * file (see log.hpp) appended under the shard lock, so shards never
 * contend with each other and N daemon replicas can mount disjoint
 * shard directories — or share one, since every mutation is durable
 * before it is published. A MANIFEST pins the shard count.
 *
 * Determinism contract (asserted bit-for-bit by the tests): a fixed
 * ScheduleRequest returns byte-identical results whether it runs on
 * the in-memory cache or this store, at 1 shard or 16, freshly opened
 * or reloaded, before or after torn-tail recovery. Every log record
 * carries its entry's global sequence number, so replay rebuilds the
 * exact global first-insertion order the scans merge by.
 */

#include <functional>
#include <memory>
#include <mutex>

#include "cachestore/compact.hpp"
#include "cachestore/log.hpp"
#include "common/metrics.hpp"
#include "common/status.hpp"
#include "engine/schedule_cache.hpp"

namespace cosa {
namespace cachestore {

/** Everything open() needs to mount (or create) a store. */
struct StoreConfig
{
    /** Shard directory (created when missing). */
    std::string dir;
    /** Shard count when creating a fresh directory; on reopen it must
     *  match the directory's manifest (0 = adopt whatever is there,
     *  defaulting to 8 for a fresh directory). */
    int num_shards = 0;
    /** Total LRU entry budget across shards; 0 = unbounded. Bounded
     *  stores keep at least one entry per shard, so the effective
     *  bound is max(capacity, num_shards). */
    std::int64_t capacity = 0;
    /** fsync every append (write -> fsync -> publish). False batches
     *  durability to sync()/close — for bulk imports and benches. */
    bool fsync_each_append = true;
    CompactionPolicy compaction;
};

/** One shard's live accounting, as /v1/cache/stats reports it. */
struct ShardStats
{
    std::int64_t entries = 0;
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t inserts = 0;
    std::int64_t evictions = 0;
    std::int64_t compactions = 0;
    /** Records replayed from the log at open(). */
    std::int64_t records_recovered = 0;
    /** Bad frames dropped at open() (corrupt or torn). */
    std::int64_t records_skipped = 0;
    std::uint64_t log_bytes = 0;
    std::uint64_t live_bytes = 0;
    bool torn_tail_recovered = false;
};

/** Store-wide roll-up + per-shard detail. */
struct StoreStats
{
    ScheduleCacheStats cache; //!< aggregate, base-cache compatible
    std::string dir;
    int num_shards = 0;
    std::int64_t capacity = 0;
    std::vector<ShardStats> shards;
};

/** The persistent tier. Create via open(); thread-safe. */
class PersistentScheduleCache final
    : public ScheduleCache,
      public std::enable_shared_from_this<PersistentScheduleCache>
{
  public:
    /**
     * Mount @p config.dir: create it (with a manifest) when missing,
     * otherwise replay every shard log in parallel — recovering per
     * log.hpp — and resume appending. Fails only on real IO errors or
     * a layout mismatch (foreign files, manifest shard-count
     * conflict); crash damage recovers.
     */
    static StatusOr<std::shared_ptr<PersistentScheduleCache>> open(
        StoreConfig config);

    /**
     * Mount an async task runner (e.g. a lowest-tier submit on the
     * engine's shared Executor): compaction then runs as a threadless
     * continuation off the insert path instead of inline. The runner
     * outlives nothing — scheduled tasks hold a weak_ptr and no-op
     * once the store is gone.
     */
    void setAsyncRunner(std::function<void(std::function<void()>)> runner);

    /** Flush batched appends (no-op when fsync_each_append). */
    Status syncAll();

    StoreStats storeStats() const;

  private:
    /** The durable side of one shard, guarded by that shard's lock. */
    struct ShardLog
    {
        std::string path;
        LogWriter writer;
        /** Framed bytes of the live entries' latest records. */
        std::uint64_t live_bytes = 0;
        bool compaction_pending = false;
        std::int64_t compactions = 0;
        std::int64_t records_recovered = 0;
        std::int64_t records_skipped = 0;
        bool torn_tail_recovered = false;
        metrics::Counter* compaction_counter = nullptr;
        metrics::Gauge* log_bytes_gauge = nullptr;
    };

    explicit PersistentScheduleCache(StoreConfig config);

    /** Replay every shard log, then open the writers. */
    Status replay();

    void logInsertLocked(std::size_t s, Entry& entry) override;
    void logEvictLocked(std::size_t s, const Entry& entry) override;
    void afterWriteLocked(std::size_t s) override;
    void clearedLocked(std::size_t s) override;

    bool worthCompacting(const ShardLog& log) const;
    void compactShardLocked(std::size_t s);
    void publishLogBytes(ShardLog& log);

    StoreConfig config_;
    std::vector<ShardLog> logs_; //!< parallel to shards_

    mutable std::mutex runner_mutex_;
    std::function<void(std::function<void()>)> runner_;
};

} // namespace cachestore
} // namespace cosa
