// Concurrency tests for the streaming ingest path: appends racing streamed
// queries. Run under TSan in scripts/check.sh.
//
// The snapshot-isolation contract under test (src/sample/leveled_store.h):
// a query pins the level set it starts with, so
//   - an append landing MID-QUERY is invisible to that query — its answer is
//     bit-identical to one computed before the append existed, and
//   - a query started AFTER an append always observes the appended rows.
// The races are real (appender/maintenance threads vs. streamed queries on
// the runtime's own thread pool), which is what makes the TSan run in
// check.sh a proof and not a formality.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/sample/sample_family.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

using testgen::MakeArrivalBatch;
using testgen::MakeFact;

constexpr uint64_t kBaseRows = 8'192;
// Unreachably tight bound: the streamed plan consumes every pinned block, so
// answers are pure functions of the pinned level set — ideal for equality.
constexpr const char* kNeverStopCount =
    "SELECT COUNT(*) FROM t ERROR WITHIN 0.0000001% AT CONFIDENCE 95%";

// A live BlinkDB over MakeFact with a deterministic uniform family (seed 17,
// mirroring the differential fixture) and a streamed multi-threaded runtime.
struct LiveDb {
  BlinkDB db;

  explicit LiveDb(LeveledStoreOptions ingest, size_t exec_threads = 2)
      : db(MakeOptions(exec_threads)) {
    const Table fact = MakeFact(kBaseRows);
    EXPECT_TRUE(db.RegisterTable("t", MakeFact(kBaseRows), /*scale_factor=*/1e4).ok());
    Rng rng(17);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.max_resolutions = 6;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(uniform.ok());
    db.samples().AddFamily("t", std::move(uniform.value()));
    EXPECT_TRUE(db.ConfigureIngest("t", std::move(ingest)).ok());
  }

  static BlinkDbOptions MakeOptions(size_t exec_threads) {
    BlinkDbOptions options;
    options.runtime.streaming = true;
    options.runtime.exec_threads = exec_threads;
    options.runtime.morsel_rows = 256;
    options.runtime.stream_batch_blocks = 2;
    return options;
  }

  double Count(std::string_view sql = kNeverStopCount,
               ProgressCallback progress = {}) {
    auto answer = db.Query(sql, std::move(progress));
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(answer->result.rows.size(), 1u);
    return answer->result.rows[0].aggregates[0].value;
  }
};

// Exact-runs-only options: sample_min_rows is unreachably high, so every run
// (including merged ones) is scanned exactly with weight 1. COUNT over a
// pinned set is then precisely base_estimate + pinned appended rows, which
// turns snapshot isolation into an equality check.
LeveledStoreOptions ExactRunsOptions() {
  LeveledStoreOptions options;
  options.level_fanout = 3;
  options.sample_min_rows = 1ull << 40;
  return options;
}

// --- The acceptance-criterion pair: before-never / after-always --------------

TEST(IngestConcurrencyTest, MidQueryAppendIsInvisibleAndNextQuerySeesIt) {
  LiveDb live(ExactRunsOptions());
  Rng rng(2'024);
  ASSERT_TRUE(live.db.Append("t", MakeArrivalBatch(rng, 700)).ok());

  // Quiescent reference over the current level set {700-row run}.
  const double before = live.Count();

  // Same query, but an appender fires MID-QUERY, synchronized to land while
  // the streamed scan is between rounds. The query pinned its levels at
  // start, so the appended rows must not leak into its answer.
  constexpr uint64_t kMidRows = 900;
  std::atomic<bool> append_started{false};
  std::atomic<bool> append_done{false};
  std::thread appender;
  const double pinned = live.Count(
      kNeverStopCount, [&](const QueryResult&, const StreamProgress&) {
        if (!append_started.exchange(true)) {
          appender = std::thread([&] {
            Rng mid_rng(77);
            ASSERT_TRUE(live.db.Append("t", MakeArrivalBatch(mid_rng, kMidRows)).ok());
            append_done.store(true);
          });
          // Block the streamed drive until the append has published: the rest
          // of this query provably executes against a superseded manifest.
          while (!append_done.load()) {
            std::this_thread::yield();
          }
        }
      });
  appender.join();
  ASSERT_TRUE(append_done.load());
  EXPECT_EQ(pinned, before)
      << "a query observed rows appended after it pinned its level set";

  // Started after the append: always sees the new rows, as an exact +900
  // (the run is scanned exactly; the base pipeline is unchanged).
  const double after = live.Count();
  EXPECT_DOUBLE_EQ(after, before + static_cast<double>(kMidRows));

  // Ground truth agrees: the flattened exact scan covers base + both runs.
  auto exact = live.db.QueryExact("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->result.rows[0].aggregates[0].value,
                   static_cast<double>(kBaseRows + 700 + kMidRows));
}

// --- Appends + merges racing streamed queries (the TSan workhorse) -----------

TEST(IngestConcurrencyTest, AppendsAndMergesRaceStreamedQueries) {
  LiveDb live(ExactRunsOptions());
  constexpr int kAppenders = 2;
  constexpr int kQueriers = 2;
  constexpr int kBatchesPerAppender = 12;
  constexpr uint64_t kBatchRows = 300;

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> appended{0};

  std::vector<std::thread> threads;
  for (int a = 0; a < kAppenders; ++a) {
    threads.emplace_back([&, a] {
      Rng rng(1'000 + static_cast<uint64_t>(a));
      for (int b = 0; b < kBatchesPerAppender; ++b) {
        auto version = live.db.Append("t", MakeArrivalBatch(rng, kBatchRows));
        ASSERT_TRUE(version.ok()) << version.status().ToString();
        appended.fetch_add(kBatchRows);
        if (b % 3 == 2) {
          // Merges race the queries too: compaction republishes the manifest
          // while pinned snapshots keep the replaced runs alive.
          ASSERT_TRUE(live.db.MaintenanceTick("t").ok());
        }
      }
    });
  }
  for (int q = 0; q < kQueriers; ++q) {
    threads.emplace_back([&] {
      // Every run is exact (weight 1), so COUNT(pinned set) = base estimate +
      // rows appended at pin time: successive answers on one thread must be
      // non-decreasing — a query can never see a SMALLER level set than an
      // earlier one, and never partially-applied appends.
      double last = 0.0;
      while (!stop.load()) {
        const double count = live.Count();
        EXPECT_GE(count, last) << "a later query observed an older level set";
        last = count;
      }
    });
  }
  for (int a = 0; a < kAppenders; ++a) {
    threads[a].join();
  }
  stop.store(true);
  for (size_t i = kAppenders; i < threads.size(); ++i) {
    threads[i].join();
  }

  // Quiescent: everything appended is visible, exactly once.
  const double base_only = [] {
    LiveDb fresh(ExactRunsOptions());
    return fresh.Count();
  }();
  EXPECT_DOUBLE_EQ(live.Count(), base_only + static_cast<double>(appended.load()));
  auto exact = live.db.QueryExact("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->result.rows[0].aggregates[0].value,
                   static_cast<double>(kBaseRows + appended.load()));
}

// --- Sampled merged runs under the same race (no equality, full machinery) ---

TEST(IngestConcurrencyTest, SampledMergesRaceBoundedQueries) {
  LeveledStoreOptions options;
  options.level_fanout = 2;
  options.sample_min_rows = 512;  // merged runs DO build sample families
  options.sample.largest_cap = 400;
  options.sample.max_resolutions = 3;
  LiveDb live(options);

  std::atomic<bool> stop{false};
  std::thread appender([&] {
    Rng rng(31'337);
    for (int b = 0; b < 16; ++b) {
      ASSERT_TRUE(live.db.Append("t", MakeArrivalBatch(rng, 400)).ok());
      ASSERT_TRUE(live.db.MaintenanceTick("t").ok());
    }
  });
  std::thread querier([&] {
    while (!stop.load()) {
      // A reachable bound exercises the joint stopping rule across base +
      // run pipelines while manifests churn underneath.
      auto answer = live.db.Query(
          "SELECT AVG(v) FROM t WHERE a < 7 ERROR WITHIN 5% AT CONFIDENCE 95%");
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
      EXPECT_EQ(answer->result.rows.size(), 1u);
      const double avg = answer->result.rows[0].aggregates[0].value;
      // v is uniform on [0, 100) independent of a: any pinned snapshot's AVG
      // sits well inside (20, 80) — a corrupted merge would not.
      EXPECT_GT(avg, 20.0);
      EXPECT_LT(avg, 80.0);
    }
  });
  appender.join();
  stop.store(true);
  querier.join();

  // The store really compacted: fewer runs than appends landed.
  const LeveledStore* store = live.db.Levels("t");
  ASSERT_NE(store, nullptr);
  EXPECT_LT(store->run_count(), 16u);
  auto exact = live.db.QueryExact("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(exact->result.rows[0].aggregates[0].value,
                   static_cast<double>(kBaseRows + 16 * 400));
}

// --- The answer cache over a pinned level set ---------------------------------

// Every estimate and variance at %.17g: two answers render equal iff they are
// bit-identical.
std::string Render(const QueryResult& result) {
  std::string out;
  char buf[64];
  for (const ResultRow& row : result.rows) {
    for (const Estimate& estimate : row.aggregates) {
      std::snprintf(buf, sizeof(buf), "%.17g/%.17g;", estimate.value, estimate.variance);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

// Answers `sql` over the level set `pinned`, scoping the answer cache (when
// given) to that set the way the server does: the pin's generation plus its
// snapshot fingerprint.
Result<ApproxAnswer> QueryPinned(const LiveDb& live, const QueryRuntime& runtime,
                                 const BlinkDB::PinnedLevels& pinned,
                                 std::string_view sql, AnswerCache* cache,
                                 ProgressCallback progress = {}) {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  auto tables = live.db.Resolve(*stmt);
  if (!tables.ok()) {
    return tables.status();
  }
  CacheContext cache_ctx;
  if (cache != nullptr) {
    cache_ctx.cache = cache;
    cache_ctx.table_generation = pinned.generation;
    cache_ctx.snapshot_fingerprint = pinned.fingerprint;
  }
  return runtime.Execute(*stmt, tables->fact->name, tables->fact->table,
                         tables->fact->scale_factor, pinned.levels, /*dim=*/nullptr,
                         std::move(progress), /*cancel=*/nullptr, cache_ctx);
}

// The leveled cache contract: entries are final-only and scoped to one pinned
// level set. A repeat hits with zero blocks; a tighter bound misses (a leveled
// entry never resumes) and lands on the cache-free bits; a new append misses.
TEST(LeveledCacheTest, HitsOnlyTheSamePinnedSetAndNeverResumes) {
  LiveDb live(ExactRunsOptions(), /*exec_threads=*/1);
  Rng rng(4'242);
  ASSERT_TRUE(live.db.Append("t", MakeArrivalBatch(rng, 600)).ok());
  const QueryRuntime runtime(&live.db.samples(), &live.db.cluster(),
                             LiveDb::MakeOptions(/*exec_threads=*/1).runtime);
  AnswerCache cache(16);
  constexpr const char* kCoarse =
      "SELECT AVG(v) FROM t WHERE a < 8 ERROR WITHIN 5% AT CONFIDENCE 95%";
  constexpr const char* kTight =
      "SELECT AVG(v) FROM t WHERE a < 8 ERROR WITHIN 1.5% AT CONFIDENCE 95%";

  const auto pinned = live.db.PinLevels("t");
  ASSERT_TRUE(pinned.has_value());
  ASSERT_EQ(pinned->levels.size(), 1u);

  // (a) The same bounded query twice on one pinned set: the second is a hit.
  auto cold = QueryPinned(live, runtime, *pinned, kCoarse, &cache);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->report.cache, "miss");
  EXPECT_EQ(cold->report.family, "leveled");
  ASSERT_GT(cold->report.blocks_consumed, 0u);
  ASSERT_TRUE(cold->report.stopped_early)
      << "the coarse bound must stop early for the tighter re-ask to have work left";
  ASSERT_GT(cold->report.achieved_error, 0.015);
  auto hit = QueryPinned(live, runtime, *pinned, kCoarse, &cache);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->report.cache, "hit");
  EXPECT_EQ(hit->report.family, "leveled");
  EXPECT_EQ(hit->report.blocks_consumed, 0u);
  EXPECT_EQ(hit->report.rows_read, 0u);
  EXPECT_EQ(Render(hit->result), Render(cold->result));

  // (b) A tighter bound on the same set: a miss — never a resume — and the
  // same bits and blocks as a run with no cache at all.
  auto tight = QueryPinned(live, runtime, *pinned, kTight, &cache);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_EQ(tight->report.cache, "miss");
  auto uncached = QueryPinned(live, runtime, *pinned, kTight, /*cache=*/nullptr);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  EXPECT_EQ(uncached->report.cache, "");
  EXPECT_EQ(Render(tight->result), Render(uncached->result));
  EXPECT_EQ(tight->report.blocks_consumed, uncached->report.blocks_consumed);
  EXPECT_GT(tight->report.blocks_consumed, cold->report.blocks_consumed);
  EXPECT_EQ(cache.stats().resumes, 0u);

  // (d) A progress callback on a hit sees exactly one call: the final batch.
  std::vector<StreamProgress> seen;
  auto observed = QueryPinned(
      live, runtime, *pinned, kCoarse, &cache,
      [&seen](const QueryResult&, const StreamProgress& p) { seen.push_back(p); });
  ASSERT_TRUE(observed.ok()) << observed.status().ToString();
  EXPECT_EQ(observed->report.cache, "hit");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_TRUE(seen[0].final_batch);
  EXPECT_EQ(seen[0].cache, "hit");
  EXPECT_EQ(seen[0].blocks_consumed, 0u);

  // (c) Another append publishes a new level set: the same query misses.
  ASSERT_TRUE(live.db.Append("t", MakeArrivalBatch(rng, 600)).ok());
  const auto repinned = live.db.PinLevels("t");
  ASSERT_TRUE(repinned.has_value());
  auto after_append = QueryPinned(live, runtime, *repinned, kCoarse, &cache);
  ASSERT_TRUE(after_append.ok()) << after_append.status().ToString();
  EXPECT_EQ(after_append->report.cache, "miss");
  EXPECT_GT(after_append->report.blocks_consumed, 0u);
}

}  // namespace
}  // namespace blink
