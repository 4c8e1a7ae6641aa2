// Seeded random table/query generator shared by the randomized suites
// (tests/fuzz_differential_test.cc, tests/answer_cache_test.cc,
// tests/cache_resume_test.cc). Everything is a pure function of the caller's
// Rng, so each suite picks its own seed and stays reproducible.
#ifndef BLINKDB_TESTS_QUERY_GEN_H_
#define BLINKDB_TESTS_QUERY_GEN_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/storage/table.h"
#include "src/util/rng.h"

namespace blink {
namespace testgen {

// A small mixed-type fact table: a (10 distinct ints), v (doubles in
// [0, 100)), s (12 distinct strings), u (uniform doubles in [0, 1)).
inline Table MakeFact(uint64_t rows = 16'000) {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"u", DataType::kDouble}}));
  t.Reserve(rows);
  Rng rng(62'003);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(12)));
    t.AppendDouble(3, rng.NextDouble());
    t.CommitRow();
  }
  return t;
}

// A batch of freshly-arrived rows with MakeFact()'s schema and per-column
// distributions, drawn from the caller's Rng — the ingest suites' append
// payloads. Same rng state + same `rows` → bit-identical batch, which is
// what lets two BlinkDB instances replay an append sequence into identical
// leveled stores.
inline Table MakeArrivalBatch(Rng& rng, uint64_t rows) {
  Table t(Schema({{"a", DataType::kInt64},
                  {"v", DataType::kDouble},
                  {"s", DataType::kString},
                  {"u", DataType::kDouble}}));
  t.Reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    t.AppendInt(0, static_cast<int64_t>(rng.NextBounded(10)));
    t.AppendDouble(1, rng.NextDouble() * 100.0);
    t.AppendString(2, "s_" + std::to_string(rng.NextBounded(12)));
    t.AppendDouble(3, rng.NextDouble());
    t.CommitRow();
  }
  return t;
}

inline std::string RandomLeaf(Rng& rng) {
  static const char* ops[] = {"=", "!=", "<", "<=", ">", ">="};
  switch (rng.NextBounded(4)) {
    case 0:
      return "a " + std::string(ops[rng.NextBounded(6)]) + " " +
             std::to_string(rng.NextBounded(10));
    case 1: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "v %s %.4f", ops[rng.NextBounded(6)],
                    rng.NextDouble() * 100.0);
      return buf;
    }
    case 2: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "u %s %.4f", rng.NextBernoulli(0.5) ? "<" : ">",
                    rng.NextDouble());
      return buf;
    }
    default:
      return "s " + std::string(rng.NextBernoulli(0.5) ? "=" : "!=") + " 's_" +
             std::to_string(rng.NextBounded(12)) + "'";
  }
}

// Up to `max_disjuncts` disjuncts, each a conjunction of 1-2 leaves.
inline std::string RandomPredicate(Rng& rng, uint64_t max_disjuncts) {
  const uint64_t disjuncts = 1 + rng.NextBounded(max_disjuncts);
  std::string sql;
  for (uint64_t d = 0; d < disjuncts; ++d) {
    if (d > 0) {
      sql += " OR ";
    }
    if (rng.NextBernoulli(0.3)) {
      sql += "(" + RandomLeaf(rng) + " AND " + RandomLeaf(rng) + ")";
    } else {
      sql += RandomLeaf(rng);
    }
  }
  return sql;
}

// 2 to `max_disjuncts` disjuncts that split u into equal ranges, each AND
// 0-1 random leaves: no row satisfies two of them, so the §4.1.2 union plan
// takes them (it only unions provably disjoint disjuncts).
inline std::string RandomDisjointPredicate(Rng& rng, uint64_t max_disjuncts) {
  const uint64_t disjuncts = 2 + rng.NextBounded(max_disjuncts - 1);
  std::string sql;
  for (uint64_t d = 0; d < disjuncts; ++d) {
    char range[64];
    std::snprintf(range, sizeof(range), "u >= %.4f AND u < %.4f",
                  static_cast<double>(d) / static_cast<double>(disjuncts),
                  static_cast<double>(d + 1) / static_cast<double>(disjuncts));
    if (d > 0) {
      sql += " OR ";
    }
    sql += "(" + std::string(range);
    if (rng.NextBernoulli(0.5)) {
      sql += " AND " + RandomLeaf(rng);
    }
    sql += ")";
  }
  return sql;
}

// A full SELECT over MakeFact()'s schema spanning the planner's surface:
// optional GROUP BY, 1-3 aggregates (COUNT / SUM / AVG, plus MEDIAN when
// `allow_quantile`), and a random WHERE of up to 4 disjuncts — with
// `mix_disjoint`, half the time provably disjoint ones, so union plans stay
// common among the generated queries.
inline std::string RandomQuery(Rng& rng, bool allow_quantile, bool mix_disjoint = false) {
  static const char* aggs[] = {"COUNT(*)", "SUM(v)", "AVG(v)", "MEDIAN(v)"};
  static const char* groups[] = {"", "s", "a"};
  const std::string group = groups[rng.NextBounded(3)];
  std::string sql = "SELECT ";
  if (!group.empty()) {
    sql += group + ", ";
  }
  const int num_aggs = 1 + static_cast<int>(rng.NextBounded(3));
  for (int i = 0; i < num_aggs; ++i) {
    if (i > 0) {
      sql += ", ";
    }
    sql += aggs[rng.NextBounded(allow_quantile ? 4 : 3)];
  }
  const bool disjoint = mix_disjoint && rng.NextBernoulli(0.5);
  sql += " FROM t WHERE " +
         (disjoint ? RandomDisjointPredicate(rng, 4) : RandomPredicate(rng, 4));
  if (!group.empty()) {
    sql += " GROUP BY " + group;
  }
  return sql;
}

}  // namespace testgen
}  // namespace blink

#endif  // BLINKDB_TESTS_QUERY_GEN_H_
