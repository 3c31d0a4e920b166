#pragma once

/**
 * @file
 * Memoization of scheduling results across engine queries.
 *
 * The cache key is the quadruple (canonical layer key, arch
 * fingerprint, scheduler config key, evaluator fingerprint): two
 * queries share an entry exactly when they pose the same mathematical
 * scheduling problem to the same scheduler *scored on the same
 * evaluation backend* — layer names and arch display names do not
 * matter. Arch sweeps over shared layer shapes and repeated network
 * queries hit; any change to the arch constants, scheduler tunables or
 * evaluator configuration misses, so analytical and NoC-simulated
 * results never alias.
 *
 * Beyond exact hits, the cache answers nearest-neighbor queries: for a
 * layer shape it has never seen, it returns the cached schedule of the
 * closest *different* shape solved under the same arch and scheduler
 * (distance on the log2 dimension vector). The engine refits that
 * schedule as a MIP warm start, so effort spent on one layer primes
 * branch-and-bound on its relatives — the cross-layer analogue of the
 * per-node dual warm starts inside one solve.
 *
 * Layout: the entries are hashed (FNV-1a of the flat key) into K
 * shards, each with its own lock, map, LRU list, budget and counters.
 * Every entry carries a cache-global monotonic sequence number (an
 * overwrite keeps the original), and each shard keeps a seq-ordered
 * scan index, so a K-way merge of those indexes visits the entries in
 * global first-insertion order — the order nearestNeighbor() breaks
 * ties on and exportEntries()/save() emit. The shard count is
 * therefore invisible to every caller. A plain `ScheduleCache` is one
 * in-memory shard; cachestore::PersistentScheduleCache adds an
 * append-only log per shard behind the same index.
 *
 * The cache persists across processes: save() writes a snapshot file
 * and load() merges one back. A snapshot is one compacted single-shard
 * log in the binary frame format of cachestore/log.hpp (bit-exact
 * doubles, per-record checksums), so repeated CLI runs and CI jobs
 * reuse solves and revive cross-layer warm starts.
 *
 * Long-lived services can bound the cache with an optional LRU
 * capacity (entries, not bytes): when set, inserting beyond a shard's
 * share of it evicts that shard's least-recently-used entry (exact
 * lookup hits and overwrites refresh recency; nearest-neighbor scans
 * do not). Evictions are counted in the stats, so a serving deployment
 * can watch its churn.
 *
 * Thread-safe: operations on one key take only its shard's lock;
 * nearestNeighbor(), exportEntries() and save() take every shard lock
 * in index order for one consistent view.
 */

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mapper/mapper.hpp"

namespace cosa {

namespace metrics {
class Counter;
}

/** Composite key of one memoized scheduling problem. */
struct ScheduleCacheKey
{
    std::string layer_key;     //!< LayerSpec::canonicalKey()
    std::string arch_key;      //!< ArchSpec::fingerprint()
    std::string scheduler_key; //!< engine-serialized scheduler config
    std::string evaluator_key; //!< Evaluator::fingerprint()

    /** Flat string form used as the map key. */
    std::string flat() const
    {
        return layer_key + "|" + arch_key + "|" + scheduler_key + "|" +
               evaluator_key;
    }
};

/** Hit/miss counters of one cache (monotonic over its lifetime). */
struct ScheduleCacheStats
{
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t entries = 0;
    /** Nearest-neighbor lookups that returned a candidate schedule. */
    std::int64_t neighbor_hits = 0;
    /** Entries dropped by the LRU capacity bound (lifetime total). */
    std::int64_t evictions = 0;

    double
    hitRate() const
    {
        const std::int64_t total = hits + misses;
        return total == 0 ? 0.0 : static_cast<double>(hits) / total;
    }
};

/**
 * Distance between two scheduling problems: Euclidean distance of the
 * log2 loop-bound vectors (r, s, p, q, c, k, n) plus the stride. Zero
 * iff the canonical keys coincide.
 */
double canonicalLayerDistance(const LayerSpec& a, const LayerSpec& b);

/**
 * Thread-safe (layer, arch, scheduler) -> SearchResult memo table.
 *
 * The public methods are virtual so a request can mount a wrapper
 * (timing, tracing) behind the same `std::shared_ptr<ScheduleCache>`
 * without the engine knowing. Subclasses that persist the cache hook
 * the protected *Locked() callbacks instead of re-implementing the
 * index.
 */
class ScheduleCache
{
  public:
    /**
     * One in-memory shard.
     * @param capacity optional LRU entry bound; 0 (the default) keeps
     *        the cache unbounded.
     */
    explicit ScheduleCache(std::int64_t capacity = 0);

    virtual ~ScheduleCache();

    ScheduleCache(const ScheduleCache&) = delete;
    ScheduleCache& operator=(const ScheduleCache&) = delete;

    /**
     * Look up @p key; counts a hit or a miss (a hit refreshes the
     * entry's LRU recency). The returned result's
     * search_time_sec is the original solve's time (callers decide how
     * to account cached time).
     */
    virtual std::optional<SearchResult> lookup(const ScheduleCacheKey& key);

    /** Insert (or overwrite) the result for @p key. @p layer describes
     *  the problem's shape for nearest-neighbor queries. */
    virtual void insert(const ScheduleCacheKey& key,
                       const SearchResult& result, const LayerSpec& layer);

    /**
     * The cached schedule nearest to (@p target, @p arch_key) under the
     * same @p scheduler_key and @p evaluator_key, or nullopt when none
     * exists. Candidates
     * are ranked by canonical layer distance first, then by whether
     * their arch fingerprint matches (so an arch sweep seeds each
     * variant with the same layer's schedule from a sibling arch, and
     * a fresh layer seeds from its nearest shape on the same arch);
     * remaining ties break toward the earliest-inserted entry, keeping
     * the choice deterministic. The exact (layer, arch) pair itself is
     * excluded — that is an exact hit, not a neighbor. Only entries
     * with a found schedule qualify. Counts a neighbor_hit when a
     * candidate is returned; exact hit/miss counters are untouched.
     */
    virtual std::optional<SearchResult> nearestNeighbor(
        const std::string& arch_key, const std::string& scheduler_key,
        const std::string& evaluator_key, const LayerSpec& target);

    /** True when @p key is present, without touching the counters
     *  (or the LRU recency). */
    virtual bool contains(const ScheduleCacheKey& key) const;

    /** Live entry count (same number stats().entries reports). */
    virtual std::size_t size() const;

    /** The LRU entry bound; 0 = unbounded. */
    virtual std::int64_t capacity() const;

    /**
     * Change the LRU entry bound (0 = unbounded). Shrinking below the
     * current size evicts least-recently-used entries immediately
     * (counted in stats().evictions). A bounded cache keeps at least
     * one entry per shard, so the effective bound is
     * max(capacity, shard count).
     */
    virtual void setCapacity(std::int64_t capacity);

    /** Snapshot of the counters. */
    virtual ScheduleCacheStats stats() const;

    /** Drop every entry; counters keep their lifetime totals. */
    virtual void clear();

    /** One entry as exportEntries() hands it out. */
    struct ExportedEntry
    {
        ScheduleCacheKey key;
        SearchResult result;
        LayerSpec layer;
    };

    /**
     * Every live entry in global first-insertion order (the order
     * save() writes and nearestNeighbor() scans), as a deep copy taken
     * under the locks.
     */
    virtual std::vector<ExportedEntry> exportEntries() const;

    /** Outcome of a save() or load(). */
    struct IoResult
    {
        bool ok = false;
        std::string error;   //!< empty on success
        std::int64_t entries = 0; //!< written / merged
        /** load() only: records dropped because they failed their
         *  checksum or decode, were cut short by the end of the file,
         *  or were skipped by the `cache.load_entry` failpoint (counted
         *  and logged; the surviving records still merge). */
        std::int64_t skipped = 0;
    };

    /**
     * Write every entry to @p path as one compacted single-shard log
     * (first-insertion order, one insert record each). Crash-safe: the
     * file is written to a `.tmp` sibling, fsynced and atomically
     * renamed over @p path, so a failure mid-save never truncates an
     * existing snapshot. Missing parent directories are created.
     * Counters and the capacity bound are not persisted.
     */
    virtual IoResult save(const std::string& path) const;

    /**
     * Merge a snapshot (or any shard log) into this cache through
     * insert(): entries keep the file's order, existing keys are
     * overwritten. A missing file or a foreign header (an old text
     * snapshot, say) fails without touching the cache. A record that
     * fails its checksum or decode is skipped (counted in
     * IoResult::skipped, `cosa_cache_events_total{event=
     * "corrupt_entry"}`) and the scan goes on; a record cut short by
     * the end of the file ends it. Hit/miss counters are untouched.
     */
    virtual IoResult load(const std::string& path);

  protected:
    /** One cached problem. */
    struct Entry
    {
        ScheduleCacheKey key;
        LayerSpec layer;
        SearchResult result;
        /** Global first-insertion sequence number. */
        std::uint64_t seq = 0;
        /** Framed size of the entry's latest log record (logged
         *  shards only; 0 in memory). */
        std::uint64_t record_bytes = 0;
        /** Position in the shard's LRU list. */
        std::list<const std::string*>::iterator lru_it;
        /** This entry's slot in the shard's scan index. */
        std::size_t index_slot = 0;
    };

    /** One slot of a shard's seq-ordered scan index. Entry pointers
     *  stay valid across unrelated map mutations (node-based map); an
     *  erased entry tombstones its slot (null). */
    struct IndexSlot
    {
        std::uint64_t seq = 0;
        Entry* entry = nullptr;
    };

    /** Registry counters of one shard (`shard` label). */
    struct ShardMetrics
    {
        metrics::Counter* hit = nullptr;
        metrics::Counter* miss = nullptr;
        metrics::Counter* insert = nullptr;
        metrics::Counter* evict = nullptr;
        metrics::Counter* neighbor_hit = nullptr;
        metrics::Counter* corrupt_entry = nullptr;
        metrics::Counter* evictions_total = nullptr;
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<std::string, Entry> entries;
        /** Ascending seq; the shard's lane of the global merge. */
        std::vector<IndexSlot> index;
        std::size_t index_tombstones = 0;
        /** Flat keys by recency, least recent first. Points at the
         *  entries map's keys (node-based, so stable until erase). */
        std::list<const std::string*> lru;
        std::int64_t budget = 0; //!< this shard's LRU bound; 0 = none
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t inserts = 0;
        std::int64_t evictions = 0;
        const ShardMetrics* metrics = nullptr;
    };

    /** @p num_shards shards labeled "0".."K-1" in the metrics; 0
     *  means the one in-memory shard labeled "local". */
    ScheduleCache(std::int64_t capacity, std::size_t num_shards);

    /**
     * Insert or refresh @p flat in @p shard (caller holds its lock). A
     * new entry takes @p seq (0 = the next global seq) and joins the
     * LRU tail and the scan index; an existing one keeps its seq and
     * moves to the LRU tail. The caller fills key/layer/result.
     */
    std::pair<Entry*, bool> upsertLocked(Shard& shard, std::string&& flat,
                                         std::uint64_t seq);

    /** Remove @p it from @p shard (caller holds its lock). */
    void eraseLocked(
        Shard& shard,
        std::unordered_map<std::string, Entry>::iterator it);

    // --- durability hooks, called with shard s locked ---------------
    /** The entry was inserted or overwritten. */
    virtual void logInsertLocked(std::size_t /*s*/, Entry& /*entry*/) {}
    /** The entry is about to be evicted. */
    virtual void logEvictLocked(std::size_t /*s*/, const Entry& /*entry*/)
    {
    }
    /** A mutation of shard s (an insert and its evictions) finished. */
    virtual void afterWriteLocked(std::size_t /*s*/) {}
    /** Shard s was just emptied by clear(). */
    virtual void clearedLocked(std::size_t /*s*/) {}

    std::vector<std::unique_ptr<Shard>> shards_;
    /** Next global sequence number (replay resumes it past the log). */
    std::atomic<std::uint64_t> next_seq_{1};

  private:
    std::size_t shardOf(const std::string& flat_key) const;

    /** Evict LRU entries of shard @p s down to its budget. */
    void enforceBudgetLocked(std::size_t s);

    /** Every shard lock, in index order. */
    std::vector<std::unique_lock<std::mutex>> lockAll() const;

    /** Visit every live entry as (entry, shard) in global seq order —
     *  the K-way merge of the shard indexes. Caller holds lockAll(). */
    template <class Visit>
    void scanLocked(Visit&& visit) const;

    /** The process-wide counters of one shard label. */
    static const ShardMetrics& metricsFor(const std::string& label);

    std::atomic<std::int64_t> capacity_{0}; //!< 0 = unbounded
    std::atomic<std::int64_t> neighbor_hits_{0};
};

} // namespace cosa
