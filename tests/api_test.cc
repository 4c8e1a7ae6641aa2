#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/api/blinkdb.h"
#include "src/workload/conviva.h"
#include "src/workload/tpch.h"

namespace blink {
namespace {

ConvivaConfig SmallConviva() {
  ConvivaConfig config;
  config.num_rows = 60'000;
  config.num_cities = 500;
  config.num_urls = 5'000;
  return config;
}

PlannerConfig SmallPlanner() {
  PlannerConfig config;
  config.budget_fraction = 0.5;
  config.cap_k = 500;
  config.max_columns_per_set = 2;
  config.uniform_fraction = 0.1;
  return config;
}

TEST(BlinkDbTest, RegisterAndQueryExact) {
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(SmallConviva())).ok());
  auto answer = db.QueryExact("SELECT COUNT(*) FROM sessions");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_DOUBLE_EQ(answer->result.rows[0].aggregates[0].value, 60'000.0);
}

TEST(BlinkDbTest, DuplicateTableRejected) {
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("t", GenerateConvivaTable(SmallConviva())).ok());
  EXPECT_FALSE(db.RegisterTable("T", GenerateConvivaTable(SmallConviva())).ok());
}

TEST(BlinkDbTest, QueryUnknownTableFails) {
  BlinkDB db;
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM nope").status().code(), StatusCode::kNotFound);
}

TEST(BlinkDbTest, MalformedSqlFails) {
  BlinkDB db;
  EXPECT_EQ(db.Query("SELECT FROM WHERE").status().code(), StatusCode::kInvalidArgument);
}

TEST(BlinkDbTest, BuildSamplesAndQueryWithErrorBound) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  // The 60k-row stand-in represents ~6 TB of data: sampling must clearly win.
  ASSERT_TRUE(db.RegisterTable("sessions", table, /*scale_factor=*/1e6).ok());
  auto plan = db.BuildSamples("sessions", ConvivaTemplates(), SmallPlanner());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->families.empty());
  EXPECT_LE(plan->total_bytes, plan->budget_bytes * 1.0001);

  auto answer = db.Query(
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_1' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  auto exact = db.QueryExact("SELECT COUNT(*) FROM sessions WHERE country = 'country_1'");
  ASSERT_TRUE(exact.ok());
  const double truth = exact->result.rows[0].aggregates[0].value;
  const double got = answer->result.rows[0].aggregates[0].value;
  EXPECT_NEAR(got, truth, truth * 0.15);
  // Sampling must beat the exact scan on simulated latency.
  EXPECT_LT(answer->report.total_latency, exact->report.total_latency);
}

// The §4.1.2 union sums its pipelines' estimates, so it may only split a
// WHERE into disjuncts no row satisfies twice. Overlapping disjuncts run as
// one scan of the whole predicate (reported rewrite_fallback); provably
// disjoint ones keep the union.
TEST(BlinkDbTest, OverlappingDisjunctsAreNotCountedTwice) {
  constexpr char kOverlap[] =
      "SELECT COUNT(*) FROM sessions WHERE (genre = 'drama' AND city = 'city_1') "
      "OR genre = 'drama'";
  constexpr char kDisjoint[] =
      "SELECT COUNT(*) FROM sessions WHERE genre = 'drama' OR genre = 'comedy'";
  BlinkDB db;
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(SmallConviva())).ok());

  // No samples: every pipeline scans the table exactly, so any double count
  // shows as an exact inequality.
  for (const char* sql : {kOverlap, kDisjoint}) {
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto exact = db.QueryExact(sql);
    ASSERT_TRUE(exact.ok()) << exact.status().ToString();
    EXPECT_EQ(answer->result.rows[0].aggregates[0].value,
              exact->result.rows[0].aggregates[0].value)
        << sql;
    const bool overlapping = sql == kOverlap;
    EXPECT_EQ(answer->report.rewrite_fallback, overlapping) << sql;
    EXPECT_EQ(answer->report.num_subqueries, overlapping ? 1u : 2u) << sql;
  }

  // Over samples (no family covers {genre, city}) the bounded answer is one
  // scan too, and its interval covers the truth.
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), SmallPlanner()).ok());
  const std::string bounded = std::string(kOverlap) + " ERROR WITHIN 5% AT CONFIDENCE 95%";
  auto answer = db.Query(bounded);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->report.rewrite_fallback);
  EXPECT_EQ(answer->report.num_subqueries, 1u);
  auto exact = db.QueryExact(kOverlap);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  const Estimate& estimate = answer->result.rows[0].aggregates[0];
  EXPECT_LE(std::abs(estimate.value - exact->result.rows[0].aggregates[0].value),
            3.0 * estimate.ErrorAt(0.95))
      << "family=" << answer->report.family;
}

TEST(BlinkDbTest, TimeBoundedQueryMeetsBudget) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  // The 60k-row stand-in represents ~170 GB: the cardinality-to-row ratio of
  // the stand-in is much higher than the real 5.5B-row table, so the smallest
  // stratified resolutions are a larger *fraction* of the data; the modest
  // scale keeps probe costs proportionate.
  ASSERT_TRUE(db.RegisterTable("sessions", table, /*scale_factor=*/2e4).ok());
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), SmallPlanner()).ok());
  auto answer = db.Query(
      "SELECT AVG(sessiontimems) FROM sessions WHERE dt = 3 WITHIN 5 SECONDS");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_LE(answer->report.total_latency, 5.0 * 1.2);
  EXPECT_GT(answer->result.rows[0].aggregates[0].value, 0.0);
}

TEST(BlinkDbTest, DimensionJoinQuery) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 50'000;
  config.num_orders = 10'000;
  ASSERT_TRUE(db.RegisterTable("lineitem", GenerateLineitem(config)).ok());
  ASSERT_TRUE(db.RegisterDimensionTable("orders", GenerateOrders(config)).ok());
  auto answer = db.Query(
      "SELECT orderpriority, AVG(extendedprice) FROM lineitem "
      "JOIN orders ON orderkey = orderkey GROUP BY orderpriority");
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->result.rows.size(), 5u);  // five priorities
}

TEST(BlinkDbTest, DimensionTablesAreNotSampled) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 1'000;
  ASSERT_TRUE(db.RegisterDimensionTable("orders", GenerateOrders(config)).ok());
  EXPECT_EQ(db.BuildSamples("orders", {}, SmallPlanner()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BlinkDbTest, MaintenanceRebuildsOnDrift) {
  BlinkDB db;
  ConvivaConfig small = SmallConviva();
  small.num_rows = 20'000;
  const Table table = GenerateConvivaTable(small);
  ASSERT_TRUE(db.RegisterTable("sessions", table).ok());
  PlannerConfig planner = SmallPlanner();
  planner.uniform_fraction = 0.2;
  ASSERT_TRUE(db.BuildSamples("sessions", ConvivaTemplates(), planner).ok());
  const size_t before = db.samples().FamiliesFor("sessions").size();

  // Appending a same-distribution trickle should rebuild nothing.
  ConvivaConfig trickle = small;
  trickle.num_rows = 500;
  trickle.rng_seed = 777;
  auto rebuilt = db.AppendAndMaintain("sessions", GenerateConvivaTable(trickle));
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(*rebuilt, 0);

  // Doubling the data with a shifted distribution must trigger rebuilds.
  ConvivaConfig shifted = small;
  shifted.num_rows = 40'000;
  shifted.rng_seed = 999;
  shifted.num_cities = 50;  // much more concentrated
  auto rebuilt2 = db.AppendAndMaintain("sessions", GenerateConvivaTable(shifted), 0.05);
  ASSERT_TRUE(rebuilt2.ok()) << rebuilt2.status().ToString();
  EXPECT_GT(*rebuilt2, 0);
  EXPECT_EQ(db.samples().FamiliesFor("sessions").size(), before);
  // Queries still work after maintenance.
  auto answer = db.Query("SELECT COUNT(*) FROM sessions");
  ASSERT_TRUE(answer.ok());
  EXPECT_NEAR(answer->result.rows[0].aggregates[0].value, 60'500.0, 3000.0);
}

TEST(WorkloadTest, ConvivaTableShape) {
  const Table t = GenerateConvivaTable(SmallConviva());
  EXPECT_EQ(t.num_rows(), 60'000u);
  EXPECT_EQ(t.num_columns(), 15u);
  EXPECT_TRUE(t.schema().FindColumn("genre").has_value());
  EXPECT_TRUE(t.schema().FindColumn("jointimems").has_value());
}

TEST(WorkloadTest, ConvivaTemplatesWeightsSumToOne) {
  double total = 0.0;
  for (const auto& tmpl : ConvivaTemplates()) {
    EXPECT_FALSE(tmpl.columns.empty());
    total += tmpl.weight;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(WorkloadTest, InstantiatedQueriesParseAndRun) {
  BlinkDB db;
  const Table table = GenerateConvivaTable(SmallConviva());
  ASSERT_TRUE(db.RegisterTable("sessions", GenerateConvivaTable(SmallConviva())).ok());
  Rng rng(5);
  for (const auto& tmpl : ConvivaTemplates()) {
    const std::string sql =
        InstantiateConvivaQuery(table, tmpl, "ERROR WITHIN 10% AT CONFIDENCE 95%", rng);
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
  }
}

TEST(WorkloadTest, TpchTablesAndTemplates) {
  TpchConfig config;
  config.lineitem_rows = 10'000;
  const Table lineitem = GenerateLineitem(config);
  EXPECT_EQ(lineitem.num_rows(), 10'000u);
  const Table orders = GenerateOrders(config);
  EXPECT_EQ(orders.num_rows(), config.num_orders);
  EXPECT_EQ(TpchTemplates().size(), 6u);  // §6.1: 22 queries -> 6 templates

  // Quantity domain 1..50, discount 0..0.1.
  const auto q = lineitem.schema().FindColumn("quantity").value();
  const auto d = lineitem.schema().FindColumn("discount").value();
  for (uint64_t r = 0; r < 1'000; ++r) {
    EXPECT_GE(lineitem.GetInt(q, r), 1);
    EXPECT_LE(lineitem.GetInt(q, r), 50);
    EXPECT_GE(lineitem.GetDouble(d, r), 0.0);
    EXPECT_LE(lineitem.GetDouble(d, r), 0.10001);
  }
}

TEST(WorkloadTest, TpchQueriesRunOnBlinkDb) {
  BlinkDB db;
  TpchConfig config;
  config.lineitem_rows = 60'000;
  const Table lineitem = GenerateLineitem(config);
  ASSERT_TRUE(db.RegisterTable("lineitem", GenerateLineitem(config)).ok());
  PlannerConfig planner = SmallPlanner();
  planner.cap_k = 200;
  ASSERT_TRUE(db.BuildSamples("lineitem", TpchTemplates(), planner).ok());
  Rng rng(6);
  for (const auto& tmpl : TpchTemplates()) {
    const std::string sql = InstantiateTpchQuery(lineitem, tmpl, "", rng);
    auto answer = db.Query(sql);
    ASSERT_TRUE(answer.ok()) << sql << " -> " << answer.status().ToString();
  }
}

}  // namespace
}  // namespace blink
