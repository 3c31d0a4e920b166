#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "engine/scheduling_engine.hpp"

namespace cosa {
namespace {

/** Self-deleting temp path under the build dir. */
class TempFile
{
  public:
    explicit TempFile(const std::string& name)
        : path_("cosa_cache_test_" + name + ".cache")
    {
        std::remove(path_.c_str());
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

EngineConfig
fastRandomConfig()
{
    EngineConfig config;
    config.scheduler = SchedulerKind::Random;
    config.num_threads = 2;
    config.random.max_samples = 500;
    config.random.target_valid = 1;
    return config;
}

TEST(ScheduleCachePersistence, RoundTripIsBitExact)
{
    TempFile file("roundtrip");
    const Workload net = workloads::resNet50();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    auto cache = std::make_shared<ScheduleCache>();
    const SchedulingEngine engine(fastRandomConfig(), cache);
    const NetworkResult original = engine.scheduleNetwork(net, arch);
    ASSERT_EQ(original.num_solved, 23);

    const auto saved = cache->save(file.path());
    ASSERT_TRUE(saved.ok) << saved.error;
    EXPECT_EQ(saved.entries, 23);

    // A fresh process (fresh cache) revives every solve.
    auto revived = std::make_shared<ScheduleCache>();
    const auto loaded = revived->load(file.path());
    ASSERT_TRUE(loaded.ok) << loaded.error;
    EXPECT_EQ(loaded.entries, 23);
    EXPECT_EQ(revived->stats().entries, 23);

    const SchedulingEngine engine2(fastRandomConfig(), revived);
    const NetworkResult replayed = engine2.scheduleNetwork(net, arch);
    EXPECT_EQ(replayed.num_cache_hits, 23);
    EXPECT_EQ(replayed.num_solved, 0);
    ASSERT_EQ(replayed.layers.size(), original.layers.size());
    for (std::size_t l = 0; l < replayed.layers.size(); ++l) {
        EXPECT_EQ(replayed.layers[l].result.mapping,
                  original.layers[l].result.mapping);
        // Bit-exact doubles, not approximately equal: the file stores
        // their raw IEEE-754 bits.
        EXPECT_EQ(replayed.layers[l].result.eval.cycles,
                  original.layers[l].result.eval.cycles);
        EXPECT_EQ(replayed.layers[l].result.eval.energy_pj,
                  original.layers[l].result.eval.energy_pj);
    }
    EXPECT_EQ(replayed.total_cycles, original.total_cycles);
    EXPECT_EQ(replayed.total_energy_pj, original.total_energy_pj);
}

TEST(ScheduleCachePersistence, PreservesEvaluatorPartitioning)
{
    TempFile file("evaluator");
    const LayerSpec layer = workloads::listing1Layer();
    const ArchSpec arch = ArchSpec::simbaBaseline();

    auto cache = std::make_shared<ScheduleCache>();
    EngineConfig analytical_config = fastRandomConfig();
    EngineConfig sim_config = analytical_config;
    sim_config.evaluator = std::make_shared<NocSimEvaluator>();
    SchedulingEngine(analytical_config, cache).scheduleLayer(layer, arch);
    SchedulingEngine(sim_config, cache).scheduleLayer(layer, arch);
    ASSERT_EQ(cache->stats().entries, 2);
    ASSERT_TRUE(cache->save(file.path()).ok);

    // After a reload, the analytical entry still never answers a
    // simulator-backed query (and vice versa): both engines hit their
    // own entry, neither solves.
    auto revived = std::make_shared<ScheduleCache>();
    ASSERT_TRUE(revived->load(file.path()).ok);
    const SchedulingEngine analytical(analytical_config, revived);
    const SchedulingEngine simulated(sim_config, revived);
    const SearchResult a = analytical.scheduleLayer(layer, arch);
    const SearchResult s = simulated.scheduleLayer(layer, arch);
    EXPECT_EQ(revived->stats().hits, 2);
    EXPECT_EQ(revived->stats().misses, 0);
    EXPECT_EQ(revived->stats().entries, 2);
    // The simulated entry reports simulator cycles, the analytical one
    // model cycles — they stayed distinct through the file.
    EXPECT_NE(a.eval.cycles, s.eval.cycles);
}

TEST(ScheduleCachePersistence, RevivesNearestNeighborWarmStarts)
{
    TempFile file("warmstart");
    const LayerSpec layer = LayerSpec::fromLabel("1_7_64_32_1");
    const ArchSpec arch = ArchSpec::simbaBaseline();

    EngineConfig config; // CoSA, warm hints on
    config.num_threads = 1;
    config.cosa.mip.work_limit = 4000;
    {
        auto cache = std::make_shared<ScheduleCache>();
        const SchedulingEngine engine(config, cache);
        ASSERT_TRUE(engine.scheduleLayer(layer, arch).found);
        ASSERT_TRUE(cache->save(file.path()).ok);
    }

    // A later run loads the snapshot; a *similar* layer warm-starts
    // from the revived schedule (the cross-layer revival ROADMAP asks
    // persistence to enable).
    auto revived = std::make_shared<ScheduleCache>();
    ASSERT_TRUE(revived->load(file.path()).ok);
    const SchedulingEngine engine(config, revived);
    const SearchResult sibling = engine.scheduleLayer(
        LayerSpec::fromLabel("1_7_64_64_1"), arch);
    ASSERT_TRUE(sibling.found);
    EXPECT_EQ(revived->stats().neighbor_hits, 1);
    EXPECT_GE(sibling.stats.warm_starts_installed, 1);
}

TEST(ScheduleCachePersistence, RejectsWrongVersionAndMalformedFiles)
{
    TempFile file("badversion");
    SearchResult found;
    found.found = true;
    found.eval.cycles = 5.0;
    const LayerSpec layer = LayerSpec::fromLabel("1_7_32_16_1");
    const ScheduleCacheKey key{layer.canonicalKey(), "arch", "s", "e"};
    ScheduleCache cache;
    cache.insert(key, found, layer);

    // A text snapshot of the old v3 format is a foreign file: the load
    // fails cleanly at the header and leaves the cache untouched.
    {
        std::ofstream out(file.path());
        out << "cosa-schedule-cache v3\n";
        out << "capacity 0\n";
        out << "entry\n";
        out << "key.layer " << key.layer_key << "\n";
    }
    const auto text = cache.load(file.path());
    EXPECT_FALSE(text.ok);
    EXPECT_NE(text.error.find("not a"), std::string::npos);
    EXPECT_EQ(text.entries, 0);
    EXPECT_EQ(cache.stats().entries, 1);
    const auto kept = cache.lookup(key);
    ASSERT_TRUE(kept.has_value());
    EXPECT_EQ(kept->eval.cycles, 5.0);

    // So is a file too short to hold a header.
    {
        std::ofstream out(file.path(), std::ios::trunc);
        out << "cosa";
    }
    EXPECT_FALSE(cache.load(file.path()).ok);
    EXPECT_EQ(cache.stats().entries, 1);

    EXPECT_FALSE(cache.load("no_such_dir/no_such_file.cache").ok);
}

TEST(ScheduleCachePersistence, LoadMergesIntoExistingEntries)
{
    TempFile file("merge");
    SearchResult found;
    found.found = true;
    found.eval.valid = true;
    found.eval.cycles = 7.0;
    found.scheduler = "Random";
    const LayerSpec layer = LayerSpec::fromLabel("1_7_32_16_1");

    ScheduleCache first;
    first.insert({layer.canonicalKey(), "archA", "s", "e"}, found, layer);
    ASSERT_TRUE(first.save(file.path()).ok);

    // The receiving cache already holds a different problem plus a
    // *newer* result under the same key; load keeps the merge simple
    // and lets the file win on collision (documented).
    ScheduleCache second;
    SearchResult newer = found;
    newer.eval.cycles = 9.0;
    second.insert({layer.canonicalKey(), "archA", "s", "e"}, newer, layer);
    second.insert({layer.canonicalKey(), "archB", "s", "e"}, found, layer);
    const auto io = second.load(file.path());
    ASSERT_TRUE(io.ok) << io.error;
    EXPECT_EQ(io.entries, 1);
    EXPECT_EQ(second.stats().entries, 2);
    const auto hit =
        second.lookup({layer.canonicalKey(), "archA", "s", "e"});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->eval.cycles, 7.0);
}

} // namespace
} // namespace cosa
