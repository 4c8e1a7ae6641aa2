// Snapshot-resume differentials for the answer cache (src/cache/).
//
// The cache's correctness rests on the determinism invariant of
// src/plan/scan_pipeline.h: a pipeline's accumulators are a pure function of
// its consumed block count, so restore-then-advance must land on exactly the
// bits a cold scan of the same total prefix produces. Asserted here:
//
//  (a) Resume from ANY prefix: a coarse-bound run leaves a snapshot at its
//      stop block; tightening the bound resumes from it. Walking a ladder of
//      bounds chains resume-from-resume through many distinct prefixes, and
//      every rung's answer is bit-identical (values AND variances) to a cold
//      cache-free run of the same statement — across threads {1, 2, 7} x
//      morsels {64, 1024, 4096}.
//  (b) Hits are bit-identical replays: re-asking a cached query serves the
//      stored FINAL with zero blocks consumed this run.
//  (c) A cold run with a cache attached consumes exactly the per-pipeline
//      block trace of a cache-free run (the pre-PR trace): attaching the
//      cache never perturbs execution, it only remembers it.
//  (d) Generation invalidation: mutating the table (catalog generation bump)
//      turns what would be a stale hit into a cold re-execution.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/cache/answer_cache.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/sample_family.h"
#include "src/sample/sample_store.h"
#include "src/sql/parser.h"
#include "src/util/rng.h"
#include "tests/query_gen.h"

namespace blink {
namespace {

// Bit-exact equality: group values, estimate values, and variances.
void ExpectIdentical(const QueryResult& x, const QueryResult& y,
                     const std::string& context) {
  ASSERT_EQ(x.rows.size(), y.rows.size()) << context;
  for (size_t r = 0; r < x.rows.size(); ++r) {
    const std::string at = context + " row " + std::to_string(r);
    ASSERT_EQ(x.rows[r].group_values.size(), y.rows[r].group_values.size()) << at;
    for (size_t g = 0; g < x.rows[r].group_values.size(); ++g) {
      EXPECT_EQ(x.rows[r].group_values[g], y.rows[r].group_values[g]) << at;
    }
    ASSERT_EQ(x.rows[r].aggregates.size(), y.rows[r].aggregates.size()) << at;
    for (size_t a = 0; a < x.rows[r].aggregates.size(); ++a) {
      EXPECT_EQ(x.rows[r].aggregates[a].value, y.rows[r].aggregates[a].value) << at;
      EXPECT_EQ(x.rows[r].aggregates[a].variance, y.rows[r].aggregates[a].variance)
          << at;
    }
  }
}

struct Fixture {
  Table fact = testgen::MakeFact();
  SampleStore store;
  ClusterModel cluster;
  double scale = 0.0;

  Fixture() {
    scale = 1e11 / (static_cast<double>(fact.num_rows()) * fact.EstimatedBytesPerRow());
    Rng rng(17);
    SampleFamilyOptions options;
    options.uniform_fraction = 0.5;
    options.max_resolutions = 6;
    auto uniform = SampleFamily::BuildUniform(fact, options, rng);
    EXPECT_TRUE(uniform.ok());
    store.AddFamily("t", std::move(uniform.value()));
  }

  ApproxAnswer MustExecute(const SelectStatement& stmt, const RuntimeConfig& config,
                           const CacheContext& cache_ctx = {}) const {
    QueryRuntime runtime(&store, &cluster, config);
    auto answer =
        runtime.Execute(stmt, "t", fact, scale, {}, nullptr, {}, nullptr, cache_ctx);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString();
    return std::move(answer.value());
  }
};

RuntimeConfig StreamingConfig(size_t threads, uint32_t morsel_rows) {
  RuntimeConfig config;
  config.streaming = true;
  config.schedule_mode = ScheduleMode::kUniform;
  config.exec_threads = threads;
  config.morsel_rows = morsel_rows;
  config.stream_batch_blocks = 3;
  return config;
}

SelectStatement Bounded(const std::string& base, double bound) {
  char suffix[80];
  std::snprintf(suffix, sizeof(suffix), " ERROR WITHIN %.7f%% AT CONFIDENCE 95%%",
                bound * 100.0);
  auto stmt = ParseSelect(base + suffix);
  EXPECT_TRUE(stmt.ok()) << base << ": " << stmt.status().ToString();
  return std::move(stmt.value());
}

const char* kQueries[] = {
    "SELECT COUNT(*) FROM t WHERE a = 3",
    "SELECT s, COUNT(*), AVG(v) FROM t WHERE v < 50 GROUP BY s",
    "SELECT SUM(v), COUNT(*) FROM t WHERE a < 7 AND u > 0.25",
};

// --- (a) + (b): ladder of bounds, every rung bit-identical to cold -----------

TEST(CacheResumeTest, ResumeFromAnyPrefixMatchesColdRunBitExactly) {
  const Fixture fx;
  // Descending bounds: each rung resumes from the previous rung's prefix
  // (chaining resume-from-resume), the last is effectively never-stop so the
  // final rung drains the dataset and marks the entry complete.
  const double ladder[] = {0.20, 0.10, 0.04, 0.015, 1e-9};
  int resumes = 0;
  int hits = 0;
  for (const char* base : kQueries) {
    for (size_t threads : {1u, 2u, 7u}) {
      for (uint32_t morsel_rows : {64u, 1024u, 4096u}) {
        const RuntimeConfig config = StreamingConfig(threads, morsel_rows);
        AnswerCache cache;
        const CacheContext ctx{&cache, /*table_generation=*/1};
        const std::string context_base = std::string(base) +
                                         " [threads=" + std::to_string(threads) +
                                         " morsel=" + std::to_string(morsel_rows) + "]";
        uint64_t prev_prefix = 0;
        for (double bound : ladder) {
          const SelectStatement stmt = Bounded(base, bound);
          const std::string context =
              context_base + " bound=" + std::to_string(bound);
          // Cold reference: same statement, no cache anywhere.
          const ApproxAnswer cold = fx.MustExecute(stmt, config);
          const ApproxAnswer cached = fx.MustExecute(stmt, config, ctx);
          ExpectIdentical(cached.result, cold.result, context);
          EXPECT_EQ(cached.report.achieved_error, cold.report.achieved_error)
              << context;
          EXPECT_EQ(cached.report.stopped_early, cold.report.stopped_early) << context;
          // The consumed prefix this rung landed on. Cold runs report the
          // whole prefix in blocks_consumed (their blocks_reused only adds
          // §4.4 probe-prefix credit on top, without discounting). Resumed
          // runs DISCOUNT the restored prefix out of blocks_consumed and
          // credit it to blocks_reused, so prefix = consumed + reused. Hits
          // consume nothing and report the entry's prefix as reused.
          uint64_t prefix = 0;
          if (cached.report.cache == "resume") {
            ++resumes;
            // Strictly fewer blocks this run; prefix + delta = cold total.
            EXPECT_GT(cached.report.blocks_reused, 0u) << context;
            EXPECT_LT(cached.report.blocks_consumed, cold.report.blocks_consumed)
                << context;
            EXPECT_EQ(cached.report.blocks_consumed + cached.report.blocks_reused,
                      cold.report.blocks_consumed)
                << context;
            prefix = cached.report.blocks_consumed + cached.report.blocks_reused;
          } else if (cached.report.cache == "hit") {
            ++hits;
            EXPECT_EQ(cached.report.blocks_consumed, 0u) << context;
            prefix = cached.report.blocks_reused;
          } else {
            EXPECT_EQ(cached.report.cache, "miss") << context;
            EXPECT_EQ(cached.report.blocks_consumed, cold.report.blocks_consumed)
                << context;
            prefix = cached.report.blocks_consumed;
            // A mid-ladder miss restarts the chain (e.g. a coarse
            // probe-answered entry was discarded and this rung ran cold), so
            // its prefix is measured over a fresh dataset: reset, don't
            // compare.
            prev_prefix = 0;
          }
          // Within a resume chain the walked prefix only ever grows.
          EXPECT_GE(prefix, prev_prefix) << context;
          prev_prefix = prefix;
        }
      }
    }
  }
  // The ladder must have actually exercised both fast paths, or the
  // assertions above were vacuous.
  EXPECT_GE(resumes, 27) << "the bound ladder almost never resumed; retune bounds";
  EXPECT_GE(hits, 9) << "the bound ladder never hit; retune bounds";
}

// --- (c): attaching a cache never perturbs a cold run ------------------------

TEST(CacheResumeTest, ColdRunWithCacheReproducesCacheFreeTraceExactly) {
  const Fixture fx;
  Rng rng(98'765);
  for (int q = 0; q < 8; ++q) {
    const SelectStatement stmt =
        Bounded(testgen::RandomQuery(rng, /*allow_quantile=*/false), 0.05);
    const RuntimeConfig config = StreamingConfig(1 + rng.NextBounded(2), 512);
    const ApproxAnswer bare = fx.MustExecute(stmt, config);
    AnswerCache cache;
    const ApproxAnswer observed =
        fx.MustExecute(stmt, config, CacheContext{&cache, 1});
    const std::string context = stmt.ToString();
    ExpectIdentical(observed.result, bare.result, context);
    EXPECT_EQ(observed.report.cache, "miss") << context;
    ASSERT_EQ(observed.report.pipeline_outcomes.size(),
              bare.report.pipeline_outcomes.size())
        << context;
    for (size_t p = 0; p < bare.report.pipeline_outcomes.size(); ++p) {
      const PipelineOutcome& b = bare.report.pipeline_outcomes[p];
      const PipelineOutcome& o = observed.report.pipeline_outcomes[p];
      const std::string at = context + " pipeline " + std::to_string(p);
      EXPECT_EQ(o.blocks_total, b.blocks_total) << at;
      EXPECT_EQ(o.blocks_consumed, b.blocks_consumed) << at;
      EXPECT_EQ(o.rows_consumed, b.rows_consumed) << at;
      EXPECT_EQ(o.rows_matched, b.rows_matched) << at;
      EXPECT_EQ(o.scheduled_rounds, b.scheduled_rounds) << at;
    }
  }
}

// --- (d): a table mutation invalidates every cached answer -------------------

TEST(CacheResumeTest, GenerationBumpInvalidatesCachedAnswers) {
  const Fixture fx;
  const RuntimeConfig config = StreamingConfig(2, 512);
  AnswerCache cache;
  const SelectStatement stmt = Bounded(kQueries[0], 0.05);

  const ApproxAnswer first = fx.MustExecute(stmt, config, CacheContext{&cache, 1});
  EXPECT_EQ(first.report.cache, "miss");
  const ApproxAnswer again = fx.MustExecute(stmt, config, CacheContext{&cache, 1});
  EXPECT_EQ(again.report.cache, "hit");

  // The mutation path (ReplaceTable / BuildSamples / CompressStorage /
  // AppendAndMaintain) bumps the catalog generation; the old snapshot's key
  // no longer matches, so the query re-executes cold instead of serving a
  // stale answer.
  const ApproxAnswer stale = fx.MustExecute(stmt, config, CacheContext{&cache, 2});
  EXPECT_EQ(stale.report.cache, "miss");
  EXPECT_GT(stale.report.blocks_consumed, 0u);
  // And the new generation caches independently.
  const ApproxAnswer warm = fx.MustExecute(stmt, config, CacheContext{&cache, 2});
  EXPECT_EQ(warm.report.cache, "hit");
  const AnswerCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 2u);
}

}  // namespace
}  // namespace blink
