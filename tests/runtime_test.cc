#include <gtest/gtest.h>

#include <cmath>

#include "src/runtime/query_runtime.h"
#include "src/sql/parser.h"
#include "src/stats/distributions.h"
#include "src/storage/encoded_table.h"
#include "src/util/rng.h"

namespace blink {
namespace {

Table MakeFact(uint64_t rows = 60'000) {
  Table t(Schema({{"city", DataType::kString},
                  {"os", DataType::kString},
                  {"sessiontime", DataType::kDouble}}));
  t.Reserve(rows);
  Rng rng(2718);
  ZipfGenerator city_zipf(1.4, 800);
  const char* oses[] = {"win", "osx", "ios", "android"};
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendString(0, "city_" + std::to_string(city_zipf.Next(rng)));
    t.AppendString(1, oses[rng.NextBounded(4)]);
    t.AppendDouble(2, 100.0 + rng.NextDouble() * 1000.0);
    t.CommitRow();
  }
  return t;
}

struct Fixture {
  Table fact = MakeFact();
  SampleStore store;
  ClusterModel cluster{ClusterConfig{}, EngineModel::For(EngineKind::kBlinkDb)};
  // Scale: pretend this 60k-row table is 17 TB.
  double scale = 0.0;

  Fixture() {
    // The 60k-row stand-in represents a 100 GB table: large enough that full
    // scans are slow but small samples answer in seconds.
    const double bytes = fact.num_rows() * fact.EstimatedBytesPerRow();
    scale = 100e9 / bytes;
    Rng rng(1);
    SampleFamilyOptions options;
    options.largest_cap = 200;
    options.max_resolutions = 8;
    options.uniform_fraction = 0.3;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    auto by_city = SampleFamily::BuildStratified(fact, {"city"}, options, rng);
    EXPECT_TRUE(uniform.ok() && by_city.ok());
    store.AddFamily("sessions", std::move(uniform.value()));
    store.AddFamily("sessions", std::move(by_city.value()));
  }

  QueryRuntime Runtime(RuntimeConfig config = {}) const {
    return QueryRuntime(&store, &cluster, config);
  }

  ApproxAnswer MustExecute(const std::string& sql, RuntimeConfig config = {}) const {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    auto answer = Runtime(config).Execute(*stmt, "sessions", fact, scale);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(answer.value());
  }
};

TEST(DnfTest, ConjunctiveIsSingleton) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2");
  ASSERT_TRUE(stmt.ok());
  auto dnf = ToDnf(*stmt->where, 16);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_EQ(dnf->size(), 1u);
}

TEST(DnfTest, OrSplits) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE a = 1 OR a = 2 OR a = 3");
  ASSERT_TRUE(stmt.ok());
  auto dnf = ToDnf(*stmt->where, 16);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_EQ(dnf->size(), 3u);
  for (const auto& d : *dnf) {
    EXPECT_TRUE(d.IsConjunctive());
  }
}

TEST(DnfTest, DistributesAndOverOr) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE (a = 1 OR a = 2) AND (b = 3 OR b = 4)");
  ASSERT_TRUE(stmt.ok());
  auto dnf = ToDnf(*stmt->where, 16);
  ASSERT_TRUE(dnf.has_value());
  EXPECT_EQ(dnf->size(), 4u);  // cross product
}

TEST(DnfTest, ExplosionCapped) {
  // (a1|a2)^5 = 32 disjuncts > cap 16.
  std::string where = "(a = 1 OR a = 2)";
  std::string sql = "SELECT COUNT(*) FROM t WHERE " + where;
  for (int i = 0; i < 4; ++i) {
    sql += " AND " + where;
  }
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ToDnf(*stmt->where, 16).has_value());
}

bool Disjoint(const char* where_a, const char* where_b) {
  auto a = ParseSelect(std::string("SELECT COUNT(*) FROM t WHERE ") + where_a);
  auto b = ParseSelect(std::string("SELECT COUNT(*) FROM t WHERE ") + where_b);
  EXPECT_TRUE(a.ok() && b.ok());
  return DisjunctsDisjoint(*a->where, *b->where) && DisjunctsDisjoint(*b->where, *a->where);
}

TEST(DnfTest, DisjointnessNeedsAColumnWhoseRangesCannotMeet) {
  EXPECT_TRUE(Disjoint("a = 1", "a = 2"));
  EXPECT_TRUE(Disjoint("s = 'x'", "s = 'y'"));
  EXPECT_TRUE(Disjoint("u < 0.35", "u > 0.65"));
  EXPECT_TRUE(Disjoint("k <= 2", "k = 7"));
  EXPECT_TRUE(Disjoint("u < 0.5", "u >= 0.5"));
  EXPECT_TRUE(Disjoint("s = 's_3' AND a >= 2", "a < 2"));
  EXPECT_TRUE(Disjoint("a = 1 AND b = 3", "a = 2 AND b = 3"));
  EXPECT_TRUE(Disjoint("a > 1 AND a < 1", "b = 3"));  // the left side is empty

  EXPECT_FALSE(Disjoint("s = 's_3'", "a < 2"));  // different columns
  EXPECT_FALSE(Disjoint("u <= 0.5", "u >= 0.5"));
  EXPECT_FALSE(Disjoint("g = 'drama' AND c = 'city_1'", "g = 'drama'"));
  EXPECT_FALSE(Disjoint("a = 1", "a = 1"));
  EXPECT_FALSE(Disjoint("a != 1", "a = 1"));  // != is not tracked: may overlap
  EXPECT_FALSE(Disjoint("a = 1 OR a = 2", "a = 3"));  // not a conjunction
}

TEST(RuntimeTest, CoveringFamilyChosenForStratifiedColumn) {
  Fixture fx;
  const auto answer =
      fx.MustExecute("SELECT COUNT(*) FROM sessions WHERE city = 'city_5'");
  EXPECT_EQ(answer.report.family, "{city}");
}

TEST(RuntimeTest, UniformChosenForUnfilteredQuery) {
  Fixture fx;
  const auto answer = fx.MustExecute("SELECT AVG(sessiontime) FROM sessions");
  EXPECT_EQ(answer.report.family, "uniform");
}

TEST(RuntimeTest, ProbingPicksHighSelectivityFamily) {
  Fixture fx;
  // phi = {os} is covered by no stratified family -> probe path. The city
  // family and the uniform family both see ~25% selectivity; either is
  // acceptable, but execution must succeed and report a family.
  const auto answer = fx.MustExecute("SELECT COUNT(*) FROM sessions WHERE os = 'win'");
  EXPECT_FALSE(answer.report.family.empty());
  EXPECT_GT(answer.result.rows[0].aggregates[0].value, 0.0);
}

TEST(RuntimeTest, ExactFallbackWithoutSamples) {
  Fixture fx;
  SampleStore empty;
  QueryRuntime runtime(&empty, &fx.cluster);
  auto stmt = ParseSelect("SELECT COUNT(*) FROM sessions");
  ASSERT_TRUE(stmt.ok());
  auto answer = runtime.Execute(*stmt, "sessions", fx.fact, fx.scale);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->report.family, "exact");
  EXPECT_DOUBLE_EQ(answer->result.rows[0].aggregates[0].value,
                   static_cast<double>(fx.fact.num_rows()));
  EXPECT_DOUBLE_EQ(answer->report.achieved_error, 0.0);
}

TEST(RuntimeTest, ErrorBoundSelectsSmallSampleForLooseTarget) {
  Fixture fx;
  const auto loose = fx.MustExecute(
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_1' "
      "ERROR WITHIN 20% AT CONFIDENCE 95%");
  const auto tight = fx.MustExecute(
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_1' "
      "ERROR WITHIN 1% AT CONFIDENCE 95%");
  // Tighter bound requires at least as many rows.
  EXPECT_GE(tight.report.rows_read, loose.report.rows_read);
  EXPECT_LE(tight.report.achieved_error, 0.05);
}

TEST(RuntimeTest, ErrorBoundAchieved) {
  Fixture fx;
  // city_1 is capped (frequent) -> sampled; 10% relative error at 95%.
  const auto answer = fx.MustExecute(
      "SELECT AVG(sessiontime) FROM sessions WHERE city = 'city_1' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  EXPECT_LE(answer.report.achieved_error, 0.10 * 1.5);  // modest slack
  EXPECT_GT(answer.result.rows[0].aggregates[0].value, 0.0);
}

TEST(RuntimeTest, TimeBoundRespectsBudget) {
  Fixture fx;
  const auto fast = fx.MustExecute(
      "SELECT AVG(sessiontime) FROM sessions WHERE city = 'city_1' WITHIN 3 SECONDS");
  EXPECT_LE(fast.report.total_latency, 3.0 * 1.2);
  const auto slow = fx.MustExecute(
      "SELECT AVG(sessiontime) FROM sessions WHERE city = 'city_1' WITHIN 30 SECONDS");
  EXPECT_GE(slow.report.rows_read, fast.report.rows_read);
}

TEST(RuntimeTest, StreamedPartialFramesAgreeWithProgressBytes) {
  Fixture fx;
  BlockEncodeOptions encode;
  for (SampleFamily* family : fx.store.MutableFamiliesFor("sessions")) {
    ASSERT_TRUE(family->EncodeBlocks(encode).ok());
  }
  ASSERT_TRUE(fx.fact.BuildEncoded(encode).ok());
  // Conjunctive -> single-pipeline plan: every PARTIAL's embedded stats must
  // carry the same bytes_scanned the StreamProgress side reports (the
  // split-brain regression was the snapshot recomputing bytes from rows x
  // estimated width while progress summed encoded bytes). The unreachable
  // error bound drives the stream through the whole scan.
  auto stmt = ParseSelect(
      "SELECT AVG(sessiontime) FROM sessions WHERE city = 'city_1' "
      "ERROR WITHIN 0.0000001% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  for (const bool compressed : {false, true}) {
    RuntimeConfig config;
    config.streaming = true;
    config.stream_batch_blocks = 2;
    config.morsel_rows = 512;
    config.compressed_scan = compressed;
    int frames = 0;
    double last_scanned = -1.0;
    auto progress = [&](const QueryResult& partial, const StreamProgress& p) {
      ++frames;
      EXPECT_DOUBLE_EQ(partial.stats.bytes_scanned, p.bytes_scanned);
      EXPECT_GE(p.bytes_scanned, last_scanned);  // monotone across rounds
      last_scanned = p.bytes_scanned;
      if (!compressed) {
        // Raw storage reads exactly what it materializes.
        EXPECT_DOUBLE_EQ(p.bytes_scanned, p.bytes_decoded);
      }
      if (p.rows_consumed > 0) {
        EXPECT_GT(p.bytes_scanned, 0.0);
      }
    };
    auto answer =
        fx.Runtime(config).Execute(*stmt, "sessions", fx.fact, fx.scale,
                                   /*levels=*/{}, nullptr, progress);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_GT(frames, 1) << "compressed=" << compressed;
  }
}

TEST(RuntimeTest, ElpIsMonotone) {
  Fixture fx;
  const auto answer = fx.MustExecute(
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_2' "
      "ERROR WITHIN 5% AT CONFIDENCE 95%");
  ASSERT_GE(answer.report.elp.size(), 2u);
  for (size_t i = 1; i < answer.report.elp.size(); ++i) {
    // Larger resolutions: more rows, lower projected error, higher latency.
    EXPECT_LT(answer.report.elp[i].rows, answer.report.elp[i - 1].rows);
    EXPECT_GE(answer.report.elp[i].projected_error,
              answer.report.elp[i - 1].projected_error);
    EXPECT_LE(answer.report.elp[i].projected_latency,
              answer.report.elp[i - 1].projected_latency);
  }
}

TEST(RuntimeTest, IntermediateReuseReducesLatency) {
  Fixture fx;
  RuntimeConfig with_reuse;
  with_reuse.reuse_intermediate = true;
  RuntimeConfig without_reuse;
  without_reuse.reuse_intermediate = false;
  const std::string sql =
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_1' "
      "ERROR WITHIN 2% AT CONFIDENCE 95%";
  const auto reused = fx.MustExecute(sql, with_reuse);
  const auto fresh = fx.MustExecute(sql, without_reuse);
  // Same sample chosen; the reuse path charges only the delta blocks.
  EXPECT_EQ(reused.report.rows_read, fresh.report.rows_read);
  EXPECT_LE(reused.report.total_latency, fresh.report.total_latency + 1e-9);
}

TEST(RuntimeTest, DisjunctiveRewriteCombinesCounts) {
  Fixture fx;
  // os has no covering family -> union path with 2 subqueries.
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM sessions WHERE os = 'win' OR os = 'osx'");
  ASSERT_TRUE(stmt.ok());
  auto answer = fx.Runtime().Execute(*stmt, "sessions", fx.fact, fx.scale);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->report.num_subqueries, 2u);

  // Compare with ground truth (~50% of rows).
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(fx.fact));
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows[0].aggregates[0].value;
  const Estimate& est = answer->result.rows[0].aggregates[0];
  EXPECT_NEAR(est.value, truth, truth * 0.10);
}

TEST(RuntimeTest, DisjunctiveAvgRecombination) {
  Fixture fx;
  auto stmt = ParseSelect(
      "SELECT AVG(sessiontime) FROM sessions WHERE os = 'win' OR os = 'ios'");
  ASSERT_TRUE(stmt.ok());
  auto answer = fx.Runtime().Execute(*stmt, "sessions", fx.fact, fx.scale);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(fx.fact));
  ASSERT_TRUE(exact.ok());
  const double truth = exact->rows[0].aggregates[0].value;
  EXPECT_NEAR(answer->result.rows[0].aggregates[0].value, truth, truth * 0.05);
}

TEST(RuntimeTest, DisjunctionOnCoveredColumnsStaysSingleQuery) {
  Fixture fx;
  // city OR city: the {city} family covers phi, so no rewrite is needed.
  const auto answer = fx.MustExecute(
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_1' OR city = 'city_2'");
  EXPECT_EQ(answer.report.num_subqueries, 1u);
  EXPECT_EQ(answer.report.family, "{city}");
}

TEST(RuntimeTest, GroupByEstimatesCloseToTruth) {
  Fixture fx;
  auto stmt = ParseSelect(
      "SELECT os, AVG(sessiontime) FROM sessions GROUP BY os "
      "ERROR WITHIN 5% AT CONFIDENCE 95%");
  ASSERT_TRUE(stmt.ok());
  auto answer = fx.Runtime().Execute(*stmt, "sessions", fx.fact, fx.scale);
  ASSERT_TRUE(answer.ok());
  auto exact = ExecuteQuery(*stmt, Dataset::Exact(fx.fact));
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(answer->result.rows.size(), exact->rows.size());
  for (size_t i = 0; i < exact->rows.size(); ++i) {
    const double truth = exact->rows[i].aggregates[0].value;
    EXPECT_NEAR(answer->result.rows[i].aggregates[0].value, truth, truth * 0.10);
  }
}

TEST(RuntimeTest, ProbeEscalatesForRareValues) {
  Fixture fx;
  // A rare city: the smallest resolution sees < min_probe_matches rows, so
  // the probe escalates; the final answer is near-exact (rare strata are kept
  // whole in the city family).
  const auto answer = fx.MustExecute(
      "SELECT COUNT(*) FROM sessions WHERE city = 'city_700' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  auto stmt = ParseSelect("SELECT COUNT(*) FROM sessions WHERE city = 'city_700'");
  ASSERT_TRUE(stmt.ok());
  auto exact = ExecuteQuery(stmt.value(), Dataset::Exact(fx.fact));
  ASSERT_TRUE(exact.ok());
  EXPECT_DOUBLE_EQ(answer.result.rows[0].aggregates[0].value,
                   exact->rows[0].aggregates[0].value);
}

}  // namespace
}  // namespace blink
