// The answer checker and its negative control, plus the tracer and the small
// statistics helpers.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "perfbench/bench.h"

namespace perfbench {

namespace {
const Clock::time_point kProcessStart = Clock::now();
}  // namespace

double SinceStart() { return Seconds(kProcessStart, Clock::now()); }

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const double rank = std::ceil(p * static_cast<double>(xs.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return xs[std::min(idx, xs.size() - 1)];
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : xs) {
    s += x;
  }
  return s / static_cast<double>(xs.size());
}

// ---- Checker ------------------------------------------------------------------

void CheckStats::Fail(const std::string& what) {
  ++violations;
  if (examples.size() < 5) {
    examples.push_back(what);
  }
}

void CheckStats::Merge(const CheckStats& o) {
  answers += o.answers;
  estimates += o.estimates;
  skipped += o.skipped;
  unchecked_answers += o.unchecked_answers;
  early_stops += o.early_stops;
  max_z = std::max(max_z, o.max_z);
  for (const std::string& e : o.examples) {
    if (examples.size() < 5) {
      examples.push_back(e);
    }
  }
  violations += o.violations;
}

namespace {

// Range [lo, hi] of the exact value of one group (a point, except for a
// quantile); false when the truth does not define it.
bool TruthRange(const Ask& ask, int64_t key, const Truth& truth, double* lo, double* hi) {
  const auto it = truth.find(key);
  const GroupTruth empty;
  const GroupTruth& g = it == truth.end() ? empty : it->second;
  if (ask.agg == Agg::kQuantile) {
    if (g.values.empty()) {
      return false;
    }
    // Any value between the order statistics around p is a p-quantile.
    std::vector<double> v = g.values;
    std::sort(v.begin(), v.end());
    const double pos = ask.quantile_p * static_cast<double>(v.size() - 1);
    *lo = v[static_cast<size_t>(std::floor(pos))];
    *hi = v[static_cast<size_t>(std::ceil(pos))];
    return true;
  }
  *lo = *hi = TruthValue(ask, g);
  return !std::isnan(*lo);
}

// The group's share of all matching rows.
double GroupShare(int64_t key, const Truth& t) {
  double total = 0.0;
  for (const auto& [k, g] : t) {
    total += g.count;
  }
  const auto it = t.find(key);
  return it == t.end() || total <= 0.0 ? 0.0 : it->second.count / total;
}

bool GroupKey(const Ask& ask, const blink::ResultRow& row, const Mirror& m, int64_t* key) {
  *key = 0;
  if (!ask.grouped()) {
    return true;
  }
  if (row.group_values.size() != 1) {
    return false;
  }
  const blink::Value& v = row.group_values[0];
  const Mirror::Col& col = m.cols[ask.group_col];
  if (col.type == blink::DataType::kString) {
    if (!v.is_string()) {
      return false;
    }
    const auto it = col.index.find(v.AsString());
    if (it == col.index.end()) {
      return false;
    }
    *key = it->second;
    return true;
  }
  if (!v.is_int()) {
    return false;
  }
  *key = v.AsInt();
  return true;
}

}  // namespace

void CheckAnswer(const Ask& ask, const blink::QueryResult& result,
                 const blink::ExecutionReport& report, const Truth& truth, const Mirror& m,
                 CheckStats& stats) {
  ++stats.answers;
  const std::string where = " [" + ask.sql + "]";
  if (report.stopped_early && !report.cancelled && report.effective_error_bound > 0.0) {
    ++stats.early_stops;
    if (!(report.achieved_error <= report.effective_error_bound * (1.0 + 1e-9))) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "early stop with achieved_error %.6g > bound %.6g",
                    report.achieved_error, report.effective_error_bound);
      stats.Fail(buf + where);
    }
  }
  // Leveled and distributed answers leave result.stats empty; their
  // pipelines carry the counts.
  double matched = static_cast<double>(result.stats.rows_matched);
  if (matched == 0.0) {
    for (const blink::PipelineOutcome& p : report.pipeline_outcomes) {
      matched += static_cast<double>(p.rows_matched);
    }
  }
  // An ungrouped aggregate always has one row; a grouped ask always has true
  // groups (DrawAsks keeps none without), and each holds enough rows that a
  // sample reports it.
  if (!ask.grouped() && result.rows.size() != 1) {
    stats.Fail("ungrouped answer with " + std::to_string(result.rows.size()) + " rows" + where);
    return;
  }
  if (ask.grouped() && result.rows.empty() && !truth.empty()) {
    stats.Fail("grouped answer with no groups" + where);
    return;
  }
  const uint64_t estimates_before = stats.estimates;
  for (const blink::ResultRow& row : result.rows) {
    int64_t key = 0;
    if (!GroupKey(ask, row, m, &key)) {
      stats.Fail("group value unknown to the table" + where);
      continue;
    }
    if (ask.grouped() && truth.count(key) == 0) {
      stats.Fail("reported group " + std::to_string(key) + " has no true rows" + where);
      continue;
    }
    if (row.aggregates.size() != 1) {
      stats.Fail("expected one aggregate per row" + where);
      continue;
    }
    const blink::Estimate& est = row.aggregates[0];
    if (!std::isfinite(est.value) || !(est.variance >= 0.0)) {
      stats.Fail("non-finite estimate" + where);
      continue;
    }
    double lo = 0.0;
    double hi = 0.0;
    if (!TruthRange(ask, key, truth, &lo, &hi)) {
      ++stats.skipped;
      continue;
    }
    // Matching sample rows behind this estimate: the scan's matched rows,
    // split across groups by their true shares.
    const double support = matched * GroupShare(key, truth);
    if (support < kMinSupport) {
      ++stats.skipped;
      continue;
    }
    const double hw = est.ErrorAt(result.confidence);
    const double dist = std::max({0.0, lo - est.value, est.value - hi});
    // Round-off allowance: the engine and this loop sum in different orders.
    const double slack = 1e-9 * std::max({1.0, std::fabs(lo), std::fabs(hi)});
    if (!(hw > 0.0)) {
      // Zero width comes from strata whose sampled rows all match (or all
      // miss); it is the plug-in variance collapsing, not a claim of
      // exactness, so there is no interval to hold the estimate to.
      ++stats.skipped;
      continue;
    }
    ++stats.estimates;
    const double z = dist / hw;
    stats.max_z = std::max(stats.max_z, z);
    if (dist > kCiMultiple * hw + slack) {
      char buf[200];
      std::snprintf(buf, sizeof(buf),
                    "estimate %.9g outside %.1fx its half-width %.6g of truth [%.9g, %.9g]",
                    est.value, kCiMultiple, hw, lo, hi);
      stats.Fail(buf + where);
    }
  }
  if (stats.estimates == estimates_before) {
    ++stats.unchecked_answers;
  }
}

bool NegativeControl(const Ask& ask, const blink::QueryResult& result,
                     const blink::ExecutionReport& report, const Truth& truth, const Mirror& m,
                     std::string* why) {
  CheckStats base;
  CheckAnswer(ask, result, report, truth, m, base);
  if (base.violations != 0 || base.estimates == 0) {
    *why = kNotClean;
    return false;
  }
  // 1. Scale one estimate far past its interval: some checked estimate must
  //    be caught.
  bool scaled_caught = false;
  for (size_t i = 0; i < result.rows.size() && !scaled_caught; ++i) {
    blink::QueryResult scaled = result;
    blink::Estimate& est = scaled.rows[i].aggregates[0];
    const double hw = est.ErrorAt(result.confidence);
    if (!(hw > 0.0) || est.value == 0.0) {
      continue;
    }
    est.value *= 1.0 + (3.0 * kCiMultiple * hw) / std::fabs(est.value) + 0.5;
    CheckStats s1;
    CheckAnswer(ask, scaled, report, truth, m, s1);
    scaled_caught = s1.violations > 0;
  }
  // 2. Report a group the table does not have: the truth with that group
  //    dropped must reject the answer.
  CheckStats s2;
  bool dropped_one = false;
  if (ask.grouped() && !result.rows.empty()) {
    int64_t key = 0;
    if (GroupKey(ask, result.rows[0], m, &key)) {
      Truth without = truth;
      without.erase(key);
      CheckAnswer(ask, result, report, without, m, s2);
      dropped_one = true;
    }
  }
  // 3. An early stop that claims a bound it did not meet.
  blink::ExecutionReport lying = report;
  lying.stopped_early = true;
  lying.cancelled = false;
  lying.effective_error_bound = 0.01;
  lying.achieved_error = 0.05;
  CheckStats s3;
  CheckAnswer(ask, result, lying, truth, m, s3);

  if (!scaled_caught) {
    *why = "scaled estimate was not caught";
    return false;
  }
  if (!dropped_one || s2.violations == 0) {
    *why = "group missing from the truth was not caught";
    return false;
  }
  if (s3.violations == 0) {
    *why = "early stop past its bound was not caught";
    return false;
  }
  return true;
}

// ---- Tracer -------------------------------------------------------------------

int64_t Tracer::Begin(const char* name, int64_t parent, uint64_t request) {
  if (!enabled_) {
    return -1;
  }
  const double now = SinceStart();
  spans_.push_back({name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  if (span >= 0) {
    spans_[static_cast<size_t>(span)].end = SinceStart();
  }
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += s.end - s.start;
    }
  }
  return total;
}

uint64_t Tracer::Count(const std::string& name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) {
    n += name == s.name ? 1 : 0;
  }
  return n;
}

void Tracer::Merge(const Tracer& other) {
  const int64_t offset = static_cast<int64_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) {
      s.parent += offset;
    }
    spans_.push_back(s);
  }
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%lld,\"request\":%llu}\n",
                 i, s.name, s.start, s.end, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
