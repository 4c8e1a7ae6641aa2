// Shared pieces of the BlinkDB end-to-end benchmark (perfbench/README.md):
// the structured ask description and its SQL rendering, the independent
// truth evaluator and answer checker, the in-memory span tracer, and small
// timing/statistics helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/client/blink_client.h"
#include "src/storage/table.h"
#include "src/util/rng.h"
#include "src/workload/conviva.h"

namespace perfbench {

// ---- Time ------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

// Seconds since the process started (static initialization time).
double SinceStart();
inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Nearest-rank percentile of an unsorted sample (p in [0, 1]); 0 when empty.
double Percentile(std::vector<double> xs, double p);
double Mean(const std::vector<double>& xs);

// ---- Data mirror ------------------------------------------------------------
//
// The benchmark's own copy of the generated rows: raw column vectors and
// string dictionaries, copied out of the generated Table before the engine
// takes ownership of it. Truth is computed from this copy alone.
struct Mirror {
  struct Col {
    std::string name;
    blink::DataType type = blink::DataType::kInt64;
    std::vector<int64_t> ints;
    std::vector<double> doubles;
    std::vector<int32_t> codes;
    std::vector<std::string> dict;                 // code -> string
    std::unordered_map<std::string, int32_t> index;  // string -> code
  };
  std::vector<Col> cols;
  uint64_t rows = 0;

  static Mirror Of(const blink::Table& table);
  // Appends another batch with the same schema (string codes re-mapped into
  // this mirror's dictionaries).
  void AppendFrom(const blink::Table& table);
  int Find(const std::string& name) const;
};

// ---- Asks -------------------------------------------------------------------

enum class Agg { kCount, kSum, kAvg, kQuantile };
enum class Op { kEq, kLe };

// One comparison `column op literal`. The literal is kept typed; strings carry
// their text (the code is resolved against the mirror at truth time).
struct Term {
  int col = -1;
  Op op = Op::kEq;
  int64_t i = 0;
  std::string s;
};

// A conjunctive, error-bounded query in structured form.
struct Ask {
  Agg agg = Agg::kCount;
  int agg_col = -1;  // ignored for COUNT(*)
  double quantile_p = 0.5;
  std::vector<Term> where;  // ANDed; empty = no WHERE clause
  int group_col = -1;
  double error_pct = 5.0;
  std::string sql;  // filled by Render

  bool grouped() const { return group_col >= 0; }
};

// Renders `ask` to SQL over table `sessions` (stores it in ask.sql too).
std::string Render(Ask& ask, const Mirror& m);

// What kind of ask to draw; the generator fills in template columns and
// literals drawn from rows of the mirror.
struct AskShape {
  bool grouped = false;
  Agg agg = Agg::kCount;
};

// ---- Truth ------------------------------------------------------------------

// Exact per-group aggregates of one ask over a row range of a mirror.
struct GroupTruth {
  double count = 0.0;
  double sum = 0.0;
  std::vector<double> values;  // QUANTILE asks only
};
using Truth = std::map<int64_t, GroupTruth>;  // group key (0 when ungrouped)

// Evaluates `ask` over rows [begin, end) of `m` with a plain loop.
Truth Evaluate(const Ask& ask, const Mirror& m, uint64_t begin, uint64_t end);
// Adds `more` into `into` (counts, sums, and quantile values).
void Accumulate(Truth& into, const Truth& more);
// The aggregate's exact value for one group (NaN if it is undefined: AVG or
// QUANTILE of an empty group).
double TruthValue(const Ask& ask, const GroupTruth& g);

// Runs fn(i) for i in [0, n) on up to Cores() threads.
size_t Cores();
void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

// Chooses the parts of an ask that set its cost, per shape, so that any
// stretch of asks carries nearly the same mix whatever the seed: templates
// follow a golden-ratio sequence over their Conviva weights (from a seeded
// start), and the bound, measure column and group column cycle through their
// lists. Only literals are left to chance (DrawAsks).
class Mixer {
 public:
  struct Choice {
    size_t tmpl = 0;
    double error_pct = 5.0;
    const char* measure = "";
    uint64_t pick = 0;  // cycles the group column among the template's
  };

  Mixer(uint64_t seed, std::vector<double> ladder);
  Choice Next(const AskShape& shape);
  const blink::WorkloadTemplate& Template(const Choice& c) const { return templates_[c.tmpl]; }

 private:
  struct Stream {
    double u = 0.0;
    uint64_t k = 0;
  };
  std::vector<blink::WorkloadTemplate> templates_;
  std::vector<double> ladder_;
  uint64_t seed_;
  std::map<std::pair<bool, int>, Stream> streams_;
};

// Draws one ask per shape, in order: template, bound and columns from
// `mixer`, literals from random rows of `m`. A candidate is kept only if every
// one of its groups (its single group, when ungrouped) holds at least
// `min_group_rows` rows, as judged on the first eighth of the rows (scaled
// up); see README "What the asks leave out". When `used` is set, a candidate
// whose SQL (bound aside; the answer cache ignores bounds) is already in it
// is redrawn, and kept queries are added to it. Appends the asks.
// Deterministic in `rng` and `mixer`.
void DrawAsks(const std::vector<AskShape>& shapes, const Mirror& m, blink::Rng& rng, Mixer& mixer,
              double min_group_rows, std::vector<Ask>* asks,
              std::unordered_set<std::string>* used = nullptr);

// The exact answer of each ask over all rows of `m`, evaluated in parallel.
std::vector<Truth> Truths(const std::vector<Ask>& asks, const Mirror& m);

// ---- Checking ---------------------------------------------------------------

// Multiple of the reported CI half-width an estimate may stray from the
// truth. At 95% confidence the half-width is 1.96 standard errors, so 6x is
// ~11.8 standard errors: a correct interval never misses by that much, while
// this engine's stratified variance estimates were seen to miss by up to
// ~5.2x (README "Checks").
inline constexpr double kCiMultiple = 6.0;
// Matching sample rows an estimate must rest on before its normal-theory
// interval is held to the truth. Stratified samples weight rows unevenly, so
// the effective sample behind an estimate can be far smaller than its row
// count; below this the engine's intervals are too narrow (README "Checks").
inline constexpr double kMinSupport = 300.0;
// Ceilings on what the checker may leave unchecked in one run: the share of
// estimates skipped (above), and the share of answers none of whose estimates
// was compared. Reference runs stay well under both (README "Checks"); a
// report that lost its row counts or its variances skips everything.
inline constexpr double kMaxSkippedShare = 0.6;
inline constexpr double kMaxUncheckedShare = 0.6;

struct CheckStats {
  uint64_t answers = 0;
  uint64_t estimates = 0;        // estimates compared against truth
  uint64_t skipped = 0;          // estimates without a usable interval
  uint64_t unchecked_answers = 0;  // answers none of whose estimates was compared
  uint64_t violations = 0;
  uint64_t early_stops = 0;
  double max_z = 0.0;            // max |est - truth| / half-width seen
  std::vector<std::string> examples;  // first few violation descriptions

  void Fail(const std::string& what);
  void Merge(const CheckStats& other);
};

// Checks one answer against the exact answer over the rows its query saw.
void CheckAnswer(const Ask& ask, const blink::QueryResult& result,
                 const blink::ExecutionReport& report, const Truth& truth, const Mirror& m,
                 CheckStats& stats);

// NegativeControl's reason when the given answer is itself unusable as a
// control (it has a violation or no checked estimate); try another answer.
inline constexpr char kNotClean[] = "control answer is not a clean checked answer";

// Feeds the checker corrupted copies of a correct answer (a scaled estimate,
// a group the table does not have, an early stop past its bound) and returns
// true when every corruption is caught and the original passes.
bool NegativeControl(const Ask& ask, const blink::QueryResult& result,
                     const blink::ExecutionReport& report, const Truth& truth, const Mirror& m,
                     std::string* why);

// ---- Tracing ----------------------------------------------------------------
//
// Spans (name, start, end, parent, request id) and named counts, kept in
// memory per thread and written as JSON lines when the run ends.
struct Span {
  const char* name;
  double start;
  double end;
  int64_t parent;  // index into the same tracer's spans, -1 for a root
  uint64_t request;
};

class Tracer {
 public:
  explicit Tracer(bool enabled = false) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  // Opens a span; returns its index (or -1 when disabled).
  int64_t Begin(const char* name, int64_t parent = -1, uint64_t request = 0);
  void End(int64_t span);
  // Sum of durations (seconds) and number of closed spans named `name`.
  double Total(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  size_t size() const { return spans_.size(); }
  void Merge(const Tracer& other);
  // Writes one JSON object per span; returns false on I/O failure.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// RAII helper around Tracer::Begin/End.
class Scoped {
 public:
  Scoped(Tracer& t, const char* name, int64_t parent = -1, uint64_t request = 0)
      : t_(t), id_(t.Begin(name, parent, request)) {}
  ~Scoped() { t_.End(id_); }
  int64_t id() const { return id_; }

 private:
  Tracer& t_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
