// Folds per-pipeline partial answers into the §4.1.2 union answer.
//
// The DNF rewrite splits a disjunctive query into conjunctive subqueries that
// select disjoint row sets (the planner only rewrites provably disjoint
// disjuncts; a live table's runs hold disjoint rows), so per-group: COUNT and
// SUM add across pipelines (values and variances both — the subqueries scan
// independent samples), and AVG recombines through value·count with a helper
// COUNT(*) column the planner appends to every subquery. The combination runs over
// finished per-pipeline estimates, in pipeline order, so the combined answer
// is a pure function of the per-pipeline snapshots — which is what lets the
// plan driver evaluate the joint error bound on every round without touching
// any pipeline's accumulators.
#ifndef BLINKDB_PLAN_UNION_COMBINER_H_
#define BLINKDB_PLAN_UNION_COMBINER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/sql/ast.h"

namespace blink {

class UnionCombiner {
 public:
  // Reads the aggregate shape of the original (pre-rewrite) statement.
  explicit UnionCombiner(const SelectStatement& stmt);

  // A COUNT aggregate is needed for AVG recombination; when the statement has
  // none, every subquery gets a hidden trailing COUNT(*) that Combine strips.
  bool append_count() const { return append_count_; }
  // Appends the hidden helper COUNT(*) item to a rewritten subquery.
  void PrepareSubquery(SelectStatement& sub) const;

  // Combines per-pipeline partial answers (one per disjunct, pipeline order).
  // `partials` must be non-empty and share the original statement's group and
  // aggregate shape (plus the helper count when append_count()). The
  // pointer form is what the plan driver uses: completed pipelines' frozen
  // snapshots are combined by reference on every round, never re-copied.
  QueryResult Combine(const std::vector<const QueryResult*>& partials,
                      double confidence) const;
  QueryResult Combine(const std::vector<QueryResult>& partials,
                      double confidence) const;

  // The rendered group-tuple key Combine merges rows under; two rows with the
  // same key coalesce into one combined group. Exposed so the adaptive
  // scheduler can look a combined group up in per-pipeline snapshots.
  static std::string GroupKey(const ResultRow& row);

  // Variance `row` (one pipeline's partial for some group) contributes to the
  // combined estimate of original aggregate `agg_idx`, UNNORMALIZED: the
  // variance itself for COUNT/SUM (contributions add), count^2 * variance for
  // AVG (the numerator term of the value*count recombination; the shared
  // (sum of counts)^2 denominator cancels in any cross-pipeline comparison),
  // and 0 for quantiles (never recombined). Summed over pipelines and — for
  // AVG — divided by the squared total count, this reproduces exactly the
  // combined cell's variance, which is what lets the scheduler attribute the
  // joint error across pipelines.
  double CellContribution(const ResultRow& row, size_t agg_idx) const;

 private:
  std::vector<AggFunc> agg_funcs_;  // the original aggregates, in order
  size_t count_idx_ = 0;            // column used for AVG recombination
  bool append_count_ = false;
};

}  // namespace blink

#endif  // BLINKDB_PLAN_UNION_COMBINER_H_
