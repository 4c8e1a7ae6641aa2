// Tests for the §4.5 maintenance primitives — CheckDrift, RebuildFamily,
// BuildFamilyLike — and for the catalog-generation contract the streaming
// ingest path builds on: every publication (append or merge) bumps the
// table's generation, and the answer-cache key folds in both the generation
// and the pinned snapshot's fingerprint, so a cached answer computed over a
// stale level set can never be served.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/cache/answer_cache.h"
#include "src/exec/executor.h"
#include "src/sample/maintenance.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

using testgen::MakeArrivalBatch;
using testgen::MakeFact;

// A two-column table whose group column has EXACT stratum proportions — the
// stored stratum_counts then reproduce the proportions bit-for-bit, so the
// drift TV distances below are exact numbers, not approximations.
Table GroupedTable(const std::vector<std::pair<std::string, uint64_t>>& strata) {
  Table t(Schema({{"g", DataType::kString}, {"v", DataType::kDouble}}));
  Rng rng(31);
  for (const auto& [label, rows] : strata) {
    for (uint64_t i = 0; i < rows; ++i) {
      t.AppendString(0, label);
      t.AppendDouble(1, rng.NextDouble());
      t.CommitRow();
    }
  }
  return t;
}

SampleFamilyOptions SmallOptions() {
  SampleFamilyOptions options;
  options.largest_cap = 200;
  options.max_resolutions = 3;
  options.uniform_fraction = 0.5;
  return options;
}

// --- CheckDrift: uniform families drift only in size ------------------------

TEST(MaintenanceTest, UniformDriftIsRowCountRatio) {
  const Table base = MakeFact(1'000);
  Rng rng(7);
  auto family = SampleFamily::BuildUniform(base, SmallOptions(), rng);
  ASSERT_TRUE(family.ok()) << family.status().ToString();

  // Unchanged table: zero drift.
  auto same = CheckDrift(*family, base);
  ASSERT_TRUE(same.ok());
  EXPECT_DOUBLE_EQ(same->total_variation, 0.0);
  EXPECT_FALSE(same->needs_refresh);

  // Grown to 1250 rows: tv = 250 / 1250 = 0.2 exactly.
  const Table grown = MakeFact(1'250);
  auto drift = CheckDrift(*family, grown, /*threshold=*/0.1);
  ASSERT_TRUE(drift.ok());
  EXPECT_DOUBLE_EQ(drift->total_variation, 0.2);
  EXPECT_TRUE(drift->needs_refresh);

  // The threshold is a strict inequality: tv == threshold does NOT refresh.
  auto at = CheckDrift(*family, grown, /*threshold=*/0.2);
  ASSERT_TRUE(at.ok());
  EXPECT_DOUBLE_EQ(at->total_variation, 0.2);
  EXPECT_FALSE(at->needs_refresh);
  auto below = CheckDrift(*family, grown, /*threshold=*/0.2 - 1e-9);
  ASSERT_TRUE(below.ok());
  EXPECT_TRUE(below->needs_refresh);

  // Shrunk to half: tv = 500 / 1000 = 0.5, refresh at the default threshold.
  const Table shrunk = MakeFact(500);
  auto gone = CheckDrift(*family, shrunk);
  ASSERT_TRUE(gone.ok());
  EXPECT_DOUBLE_EQ(gone->total_variation, 0.5);
  EXPECT_TRUE(gone->needs_refresh);
}

// --- CheckDrift: stratified families compare frequency SHAPE ----------------

TEST(MaintenanceTest, StratifiedDriftComparesSortedFrequencyProfiles) {
  const Table base = GroupedTable({{"g_0", 500}, {"g_1", 300}, {"g_2", 200}});
  Rng rng(11);
  auto family = SampleFamily::BuildStratified(base, {"g"}, SmallOptions(), rng);
  ASSERT_TRUE(family.ok()) << family.status().ToString();

  // Same table: identical profiles, zero TV distance.
  auto same = CheckDrift(*family, base);
  ASSERT_TRUE(same.ok());
  EXPECT_NEAR(same->total_variation, 0.0, 1e-12);
  EXPECT_FALSE(same->needs_refresh);

  // Relabeled values with the SAME shape: profiles are sorted before
  // comparison, so pure relabeling is not drift.
  const Table relabeled = GroupedTable({{"x", 200}, {"y", 500}, {"z", 300}});
  auto stable = CheckDrift(*family, relabeled);
  ASSERT_TRUE(stable.ok());
  EXPECT_NEAR(stable->total_variation, 0.0, 1e-12);
  EXPECT_FALSE(stable->needs_refresh);

  // Concentrated distribution: (0.5,0.3,0.2) vs (0.9,0.05,0.05) has
  // tv = 0.5 * (0.4 + 0.25 + 0.15) = 0.4.
  const Table reshaped = GroupedTable({{"g_0", 900}, {"g_1", 50}, {"g_2", 50}});
  auto drift = CheckDrift(*family, reshaped, /*threshold=*/0.1);
  ASSERT_TRUE(drift.ok());
  EXPECT_NEAR(drift->total_variation, 0.4, 1e-12);
  EXPECT_TRUE(drift->needs_refresh);

  // A new stratum appearing is drift too: extra mass compared against 0.
  const Table extra =
      GroupedTable({{"g_0", 500}, {"g_1", 300}, {"g_2", 100}, {"g_3", 100}});
  auto added = CheckDrift(*family, extra, /*threshold=*/0.05);
  ASSERT_TRUE(added.ok());
  EXPECT_NEAR(added->total_variation, 0.1, 1e-12);
  EXPECT_TRUE(added->needs_refresh);

  // The stratification column must exist in the candidate table.
  const Table wrong(Schema({{"other", DataType::kString}}));
  EXPECT_EQ(CheckDrift(*family, wrong).status().code(), StatusCode::kNotFound);
}

// --- RebuildFamily / BuildFamilyLike ----------------------------------------

TEST(MaintenanceTest, RebuildPreservesKindAndColumnSet) {
  const Table base = GroupedTable({{"g_0", 600}, {"g_1", 400}});
  Rng rng(13);
  auto stratified = SampleFamily::BuildStratified(base, {"g"}, SmallOptions(), rng);
  ASSERT_TRUE(stratified.ok());
  auto uniform = SampleFamily::BuildUniform(base, SmallOptions(), rng);
  ASSERT_TRUE(uniform.ok());

  const Table grown =
      GroupedTable({{"g_0", 600}, {"g_1", 400}, {"g_2", 500}});
  Rng rebuild_rng(14);
  auto fresh = RebuildFamily(*stratified, grown, SmallOptions(), rebuild_rng);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh->kind(), SampleFamily::Kind::kStratified);
  EXPECT_EQ(fresh->columns(), std::vector<std::string>{"g"});
  EXPECT_EQ(fresh->source_rows(), grown.num_rows());

  auto fresh_uniform = RebuildFamily(*uniform, grown, SmallOptions(), rebuild_rng);
  ASSERT_TRUE(fresh_uniform.ok());
  EXPECT_EQ(fresh_uniform->kind(), SampleFamily::Kind::kUniform);
  EXPECT_TRUE(fresh_uniform->columns().empty());
  EXPECT_EQ(fresh_uniform->source_rows(), grown.num_rows());

  // A rebuilt family no longer drifts against the table it was built from.
  auto drift = CheckDrift(*fresh, grown);
  ASSERT_TRUE(drift.ok());
  EXPECT_NEAR(drift->total_variation, 0.0, 1e-12);
  EXPECT_FALSE(drift->needs_refresh);
}

TEST(MaintenanceTest, BuildFamilyLikeIsDeterministicInSeed) {
  const Table base = MakeFact(4'000);
  auto stmt = ParseSelect("SELECT COUNT(*), SUM(v) FROM t WHERE a < 5");
  ASSERT_TRUE(stmt.ok());

  // Same seed → bit-identical sample → bit-identical estimates. This is the
  // replay property the leveled store's merge seeds (seed ^ run id) and the
  // differential ingest arm rely on.
  QueryResult results[2];
  for (int i = 0; i < 2; ++i) {
    Rng rng(0xfeedULL);
    auto family =
        BuildFamilyLike(SampleFamily::Kind::kUniform, {}, base, SmallOptions(), rng);
    ASSERT_TRUE(family.ok()) << family.status().ToString();
    auto result = ExecuteQueryScalar(*stmt, family->LogicalSample(0));
    ASSERT_TRUE(result.ok());
    results[i] = std::move(result.value());
  }
  ASSERT_EQ(results[0].rows.size(), 1u);
  for (size_t a = 0; a < results[0].rows[0].aggregates.size(); ++a) {
    EXPECT_EQ(results[0].rows[0].aggregates[a].value,
              results[1].rows[0].aggregates[a].value);
    EXPECT_EQ(results[0].rows[0].aggregates[a].variance,
              results[1].rows[0].aggregates[a].variance);
  }

  // A different seed draws a different sample (else the seed plumbing is
  // dead and every run would share one sample).
  Rng other(0xbeefULL);
  auto reseeded =
      BuildFamilyLike(SampleFamily::Kind::kUniform, {}, base, SmallOptions(), other);
  ASSERT_TRUE(reseeded.ok());
  auto result = ExecuteQueryScalar(*stmt, reseeded->LogicalSample(0));
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->rows[0].aggregates[1].value,
            results[0].rows[0].aggregates[1].value);
}

// --- Catalog generation: every ingest publication invalidates the cache -----

TEST(MaintenanceTest, AppendAndMergeBumpCatalogGeneration) {
  BlinkDB db;
  const Table fact = MakeFact(4'096);
  ASSERT_TRUE(db.RegisterTable("t", fact).ok());
  // The store mirrors the table's family shapes onto merged runs — give it
  // one uniform family so merged runs above the threshold get re-sampled.
  Rng family_rng(23);
  auto uniform = SampleFamily::BuildUniform(fact, SmallOptions(), family_rng);
  ASSERT_TRUE(uniform.ok());
  db.samples().AddFamily("t", std::move(uniform.value()));
  LeveledStoreOptions options;
  options.level_fanout = 2;
  options.sample_min_rows = 1'024;
  options.sample = SmallOptions();
  ASSERT_TRUE(db.ConfigureIngest("t", options).ok());
  const TableEntry* entry = db.catalog().Find("t");
  ASSERT_NE(entry, nullptr);

  const uint64_t gen0 = entry->generation.load();
  Rng rng(99);
  ASSERT_TRUE(db.Append("t", MakeArrivalBatch(rng, 600)).ok());
  const uint64_t gen1 = entry->generation.load();
  EXPECT_GT(gen1, gen0) << "append published without bumping the generation";

  ASSERT_TRUE(db.Append("t", MakeArrivalBatch(rng, 600)).ok());
  const uint64_t gen2 = entry->generation.load();
  EXPECT_GT(gen2, gen1);

  // Two L0 runs at fanout 2: the tick merges (and the merged 1200-row run
  // crosses sample_min_rows, so it carries rebuilt families).
  auto merged = db.MaintenanceTick("t");
  ASSERT_TRUE(merged.ok());
  EXPECT_TRUE(*merged);
  const uint64_t gen3 = entry->generation.load();
  EXPECT_GT(gen3, gen2) << "merge published without bumping the generation";
  const auto pinned = db.PinLevels("t");
  ASSERT_TRUE(pinned.has_value());
  ASSERT_EQ(pinned->levels.size(), 1u);
  EXPECT_FALSE(pinned->levels[0].families.empty())
      << "merged run crossed sample_min_rows but carries no rebuilt families";

  // Nothing due: no publication, no bump.
  auto idle = db.MaintenanceTick("t");
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(*idle);
  EXPECT_EQ(entry->generation.load(), gen3);
}

TEST(MaintenanceTest, StaleLevelSetsNeverShareCacheKeys) {
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("t", MakeFact(2'048)).ok());
  LeveledStoreOptions options;
  options.level_fanout = 2;
  ASSERT_TRUE(db.ConfigureIngest("t", options).ok());
  Rng rng(5);
  ASSERT_TRUE(db.Append("t", MakeArrivalBatch(rng, 256)).ok());

  auto stmt = ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  // The key the server builds for a live table: statement shape + catalog
  // generation + the pinned snapshot's fingerprint.
  const auto key_for = [&](const BlinkDB::PinnedLevels& pinned) {
    return AnswerCacheKey(*stmt, pinned.generation, /*morsel_rows=*/512,
                          /*compressed_scan=*/true, /*filter_encoded_views=*/true,
                          pinned.fingerprint);
  };

  const auto before = db.PinLevels("t");
  ASSERT_TRUE(before.has_value());
  AnswerCache cache(16);
  auto entry = std::make_shared<CacheEntry>();
  entry->complete = true;
  cache.Insert(key_for(*before), entry);
  ASSERT_NE(cache.Lookup(key_for(*before)), nullptr);

  // Each publication — append or merge — changes generation AND fingerprint,
  // so the stale entry is unreachable under the new snapshot's key.
  ASSERT_TRUE(db.Append("t", MakeArrivalBatch(rng, 256)).ok());
  const auto after_append = db.PinLevels("t");
  ASSERT_TRUE(after_append.has_value());
  EXPECT_GT(after_append->generation, before->generation);
  EXPECT_NE(after_append->fingerprint, before->fingerprint);
  EXPECT_EQ(cache.Lookup(key_for(*after_append)), nullptr)
      << "stale cached answer is reachable after an append";

  auto merged = db.MaintenanceTick("t");
  ASSERT_TRUE(merged.ok());
  ASSERT_TRUE(*merged);
  const auto after_merge = db.PinLevels("t");
  ASSERT_TRUE(after_merge.has_value());
  EXPECT_GT(after_merge->generation, after_append->generation);
  EXPECT_NE(after_merge->fingerprint, after_append->fingerprint);
  EXPECT_EQ(cache.Lookup(key_for(*after_merge)), nullptr)
      << "stale cached answer is reachable after a merge";
}

}  // namespace
}  // namespace blink
