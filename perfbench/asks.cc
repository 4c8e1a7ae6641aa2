// Data mirror, ask generation and rendering, and the truth evaluator.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "perfbench/bench.h"
#include "src/workload/conviva.h"

namespace perfbench {

using blink::DataType;

// ---- Mirror -----------------------------------------------------------------

Mirror Mirror::Of(const blink::Table& table) {
  Mirror m;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    Col col;
    col.name = table.schema().column(c).name;
    col.type = table.schema().column(c).type;
    m.cols.push_back(std::move(col));
  }
  m.AppendFrom(table);
  return m;
}

void Mirror::AppendFrom(const blink::Table& table) {
  const uint64_t n = table.num_rows();
  for (size_t c = 0; c < cols.size(); ++c) {
    Col& col = cols[c];
    const blink::Column& src = table.column(c);
    switch (col.type) {
      case DataType::kInt64:
        col.ints.insert(col.ints.end(), src.ints.begin(), src.ints.begin() + n);
        break;
      case DataType::kDouble:
        col.doubles.insert(col.doubles.end(), src.doubles.begin(), src.doubles.begin() + n);
        break;
      case DataType::kString: {
        // Re-map the table's dictionary codes into this mirror's own codes.
        std::vector<int32_t> remap(src.dict->size());
        for (size_t k = 0; k < remap.size(); ++k) {
          const std::string& s = src.dict->At(static_cast<int32_t>(k));
          auto [it, fresh] = col.index.emplace(s, static_cast<int32_t>(col.dict.size()));
          if (fresh) {
            col.dict.push_back(s);
          }
          remap[k] = it->second;
        }
        col.codes.reserve(col.codes.size() + n);
        for (uint64_t r = 0; r < n; ++r) {
          col.codes.push_back(remap[static_cast<size_t>(src.codes[r])]);
        }
        break;
      }
    }
  }
  rows += n;
}

int Mirror::Find(const std::string& name) const {
  for (size_t c = 0; c < cols.size(); ++c) {
    if (cols[c].name == name) {
      return static_cast<int>(c);
    }
  }
  return -1;
}

// ---- Rendering ----------------------------------------------------------------

namespace {

std::string Literal(const Mirror& m, const Term& t) {
  return m.cols[t.col].type == DataType::kString ? "'" + t.s + "'" : std::to_string(t.i);
}

std::string AggText(const Ask& ask, const Mirror& m) {
  switch (ask.agg) {
    case Agg::kCount:
      return "COUNT(*)";
    case Agg::kSum:
      return "SUM(" + m.cols[ask.agg_col].name + ")";
    case Agg::kAvg:
      return "AVG(" + m.cols[ask.agg_col].name + ")";
    case Agg::kQuantile:
      return "QUANTILE(" + m.cols[ask.agg_col].name +
             (ask.quantile_p == 0.5 ? ", 0.50)" : ", 0.90)");
  }
  return "COUNT(*)";
}

}  // namespace

std::string Render(Ask& ask, const Mirror& m) {
  std::string sql = "SELECT ";
  if (ask.grouped()) {
    sql += m.cols[ask.group_col].name + ", ";
  }
  sql += AggText(ask, m) + " FROM sessions";
  for (size_t t = 0; t < ask.where.size(); ++t) {
    const Term& term = ask.where[t];
    sql += t == 0 ? " WHERE " : " AND ";
    sql += m.cols[term.col].name + (term.op == Op::kEq ? " = " : " <= ") + Literal(m, term);
  }
  if (ask.grouped()) {
    sql += " GROUP BY " + m.cols[ask.group_col].name;
  }
  char bound[64];
  std::snprintf(bound, sizeof(bound), " ERROR WITHIN %g%% AT CONFIDENCE 95%%", ask.error_pct);
  sql += bound;
  ask.sql = sql;
  return sql;
}

// ---- Generation ---------------------------------------------------------------

namespace {

// Group keys with a handful of common values; the Zipf-distributed columns
// (country, isp) always have groups too rare to estimate.
bool Groupable(const std::string& col) {
  for (const char* ok : {"dt", "os", "browser", "genre", "endedflag"}) {
    if (col == ok) {
      return true;
    }
  }
  return false;
}

// A predicate on `col` whose literal is the value of row `row`: equality on
// categorical columns, `<=` on the high-cardinality integer keys.
Term TermAt(const Mirror& m, int col, uint64_t row) {
  Term t;
  t.col = col;
  const Mirror::Col& c = m.cols[col];
  if (c.type == DataType::kString) {
    t.s = c.dict[static_cast<size_t>(c.codes[row])];
  } else {
    t.i = c.ints[row];
    t.op = (c.name == "customer_id" || c.name == "asn") ? Op::kLe : Op::kEq;
  }
  return t;
}

const char* kMeasures[] = {"sessiontimems", "bitrate", "jointimems", "bufferingms"};
constexpr size_t kNumMeasures = sizeof(kMeasures) / sizeof(kMeasures[0]);
// Literal draws per template before the stream moves on to its next one.
constexpr size_t kLiteralTries = 16;
// DrawAsks judges the group floor on the first 1/kScreen of the rows.
constexpr uint64_t kScreen = 8;

std::vector<size_t> GroupableColumns(const blink::WorkloadTemplate& t) {
  std::vector<size_t> out;
  for (size_t i = 0; i < t.columns.size(); ++i) {
    if (Groupable(t.columns[i])) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace

Mixer::Mixer(uint64_t seed, std::vector<double> ladder)
    : templates_(blink::ConvivaTemplates()), ladder_(std::move(ladder)), seed_(seed) {}

Mixer::Choice Mixer::Next(const AskShape& shape) {
  const auto key = std::make_pair(shape.grouped, static_cast<int>(shape.agg));
  auto [it, fresh] = streams_.try_emplace(key);
  Stream& st = it->second;
  if (fresh) {
    blink::Rng start(seed_ * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(key.second) * 2 +
                     (shape.grouped ? 1 : 0));
    st.u = start.NextDouble();
  }
  double total = 0.0;
  for (const auto& t : templates_) {
    total += t.weight;
  }
  Choice c;
  for (;;) {
    // Golden-ratio steps cover the template weights evenly in any stretch.
    st.u += 0.6180339887498949;
    st.u -= std::floor(st.u);
    double u = st.u * total;
    c.tmpl = templates_.size() - 1;
    for (size_t i = 0; i < templates_.size(); ++i) {
      if (u < templates_[i].weight) {
        c.tmpl = i;
        break;
      }
      u -= templates_[i].weight;
    }
    if (!shape.grouped || !GroupableColumns(templates_[c.tmpl]).empty()) {
      break;
    }
  }
  c.error_pct = ladder_[st.k % ladder_.size()];
  c.measure = kMeasures[st.k % kNumMeasures];
  c.pick = st.k;
  ++st.k;
  return c;
}

namespace {

Ask DrawCandidate(const AskShape& shape, const Mixer::Choice& choice,
                  const blink::WorkloadTemplate& tmpl, const Mirror& m, blink::Rng& rng) {
  Ask ask;
  ask.agg = shape.agg;
  if (ask.agg != Agg::kCount) {
    ask.agg_col = m.Find(choice.measure);
  }
  ask.error_pct = choice.error_pct;
  std::vector<std::string> cols = tmpl.columns;
  if (shape.grouped) {
    const std::vector<size_t> candidates = GroupableColumns(tmpl);
    const size_t g = candidates[choice.pick % candidates.size()];
    ask.group_col = m.Find(cols[g]);
    cols.erase(cols.begin() + static_cast<std::ptrdiff_t>(g));
  }
  const uint64_t row = rng.NextBounded(m.rows);
  for (const std::string& c : cols) {
    ask.where.push_back(TermAt(m, m.Find(c), row));
  }
  Render(ask, m);
  return ask;
}

// The ask's SQL without its bound clause: the answer cache's notion of "the
// same query".
std::string Unbounded(const Ask& ask) { return ask.sql.substr(0, ask.sql.find(" ERROR WITHIN")); }

}  // namespace

void DrawAsks(const std::vector<AskShape>& shapes, const Mirror& m, blink::Rng& rng, Mixer& mixer,
              double min_group_rows, std::vector<Ask>* asks, std::unordered_set<std::string>* used) {
  std::vector<Ask> picked(shapes.size());
  std::vector<Mixer::Choice> choice(shapes.size());
  std::vector<size_t> tries(shapes.size(), 0);
  std::vector<size_t> pending(shapes.size());
  for (size_t i = 0; i < shapes.size(); ++i) {
    pending[i] = i;
  }
  while (!pending.empty()) {
    // Draw candidates in order (so the stream depends on the seed alone),
    // several per slot once few slots are left, and screen them in
    // parallel; each slot keeps its first acceptable candidate.
    const size_t per_slot = pending.size() < 4 ? 4 : 1;
    std::vector<std::pair<size_t, Ask>> cands;
    for (size_t i : pending) {
      for (size_t c = 0; c < per_slot; ++c) {
        Ask ask;
        do {
          if (tries[i]++ % kLiteralTries == 0) {
            choice[i] = mixer.Next(shapes[i]);
          }
          ask = DrawCandidate(shapes[i], choice[i], mixer.Template(choice[i]), m, rng);
        } while (used != nullptr && used->count(Unbounded(ask)) > 0);
        cands.emplace_back(i, std::move(ask));
      }
    }
    // The group floor is judged on a 1/kScreen prefix of the rows (they are
    // generated i.i.d.), scaled up.
    std::vector<uint8_t> enough(cands.size(), 0);
    ParallelFor(cands.size(), [&](size_t k) {
      const Truth t = Evaluate(cands[k].second, m, 0, m.rows / kScreen);
      bool ok = !t.empty();
      for (const auto& [key, g] : t) {
        ok = ok && g.count * kScreen >= min_group_rows;
      }
      enough[k] = ok ? 1 : 0;
    });
    std::vector<bool> done(shapes.size(), false);
    for (size_t k = 0; k < cands.size(); ++k) {
      const size_t i = cands[k].first;
      if (done[i] || enough[k] == 0) {
        continue;
      }
      if (used != nullptr && !used->insert(Unbounded(cands[k].second)).second) {
        continue;  // a sibling candidate took the same query
      }
      picked[i] = std::move(cands[k].second);
      done[i] = true;
    }
    std::vector<size_t> rejected;
    for (size_t i : pending) {
      if (!done[i]) {
        rejected.push_back(i);
      }
    }
    pending = std::move(rejected);
  }
  for (Ask& ask : picked) {
    asks->push_back(std::move(ask));
  }
}

std::vector<Truth> Truths(const std::vector<Ask>& asks, const Mirror& m) {
  // Asks that differ only in their bound share one evaluation.
  std::unordered_map<std::string, size_t> first;
  std::vector<size_t> distinct;
  std::vector<size_t> source(asks.size());
  for (size_t i = 0; i < asks.size(); ++i) {
    auto [it, fresh] = first.emplace(Unbounded(asks[i]), i);
    if (fresh) {
      distinct.push_back(i);
    }
    source[i] = it->second;
  }
  std::vector<Truth> out(asks.size());
  ParallelFor(distinct.size(), [&](size_t k) {
    out[distinct[k]] = Evaluate(asks[distinct[k]], m, 0, m.rows);
  });
  for (size_t i = 0; i < asks.size(); ++i) {
    if (source[i] != i) {
      out[i] = out[source[i]];
    }
  }
  return out;
}

// ---- Truth --------------------------------------------------------------------

namespace {

// One predicate term resolved against the mirror's columns.
struct Compiled {
  const int32_t* codes = nullptr;  // string column
  const int64_t* ints = nullptr;   // integer column
  int64_t literal = 0;
  bool le = false;

  bool Match(uint64_t row) const {
    if (codes != nullptr) {
      return codes[row] == literal;
    }
    return le ? ints[row] <= literal : ints[row] == literal;
  }
};

}  // namespace

Truth Evaluate(const Ask& ask, const Mirror& m, uint64_t begin, uint64_t end) {
  std::vector<Compiled> terms;
  for (const Term& t : ask.where) {
    const Mirror::Col& c = m.cols[t.col];
    Compiled k;
    if (c.type == DataType::kString) {
      const auto it = c.index.find(t.s);
      k.codes = c.codes.data();
      k.literal = it == c.index.end() ? -1 : it->second;
    } else {
      k.ints = c.ints.data();
      k.literal = t.i;
      k.le = t.op == Op::kLe;
    }
    terms.push_back(k);
  }
  // Accumulate densely by group key (string codes and the small integer
  // group columns), then keep the non-empty groups.
  const Mirror::Col* g = ask.grouped() ? &m.cols[ask.group_col] : nullptr;
  const Mirror::Col* a = ask.agg_col >= 0 ? &m.cols[ask.agg_col] : nullptr;
  std::vector<GroupTruth> dense(1);
  for (uint64_t row = begin; row < end; ++row) {
    bool match = true;
    for (const Compiled& k : terms) {
      if (!k.Match(row)) {
        match = false;
        break;
      }
    }
    if (!match) {
      continue;
    }
    size_t key = 0;
    if (g != nullptr) {
      key = static_cast<size_t>(g->type == DataType::kString ? g->codes[row] : g->ints[row]);
      if (key >= dense.size()) {
        dense.resize(key + 1);
      }
    }
    GroupTruth& gt = dense[key];
    gt.count += 1.0;
    if (a != nullptr) {
      const double v = a->doubles[row];
      gt.sum += v;
      if (ask.agg == Agg::kQuantile) {
        gt.values.push_back(v);
      }
    }
  }
  Truth truth;
  for (size_t key = 0; key < dense.size(); ++key) {
    if (dense[key].count > 0.0) {
      truth.emplace(static_cast<int64_t>(key), std::move(dense[key]));
    }
  }
  return truth;
}

void Accumulate(Truth& into, const Truth& more) {
  for (const auto& [key, g] : more) {
    GroupTruth& dst = into[key];
    dst.count += g.count;
    dst.sum += g.sum;
    dst.values.insert(dst.values.end(), g.values.begin(), g.values.end());
  }
}

double TruthValue(const Ask& ask, const GroupTruth& g) {
  switch (ask.agg) {
    case Agg::kCount:
      return g.count;
    case Agg::kSum:
      return g.sum;
    case Agg::kAvg:
      return g.count > 0 ? g.sum / g.count : std::numeric_limits<double>::quiet_NaN();
    case Agg::kQuantile:
      break;
  }
  return std::numeric_limits<double>::quiet_NaN();  // quantiles: see CheckAnswer
}

size_t Cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  const size_t threads = std::min(n, Cores());
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) {
        fn(i);
      }
    });
  }
  for (std::thread& th : pool) {
    th.join();
  }
}

}  // namespace perfbench
