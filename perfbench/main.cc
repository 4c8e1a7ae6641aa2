// BlinkDB end-to-end benchmark: one process per run, one workload per run.
//
//   blinkbench --workload adhoc|dashboard|ingest --seed N
//              --seconds S --trace 0|1 [--trace-dir DIR]
//
// Each run builds the seeded data set and its samples, starts BlinkServer
// instances on ephemeral ports, drives them over the wire for S seconds in
// whole rounds of asks, checks every answer against truth computed by this
// program's own loops over the rows it generated, stops every server and
// thread, and prints one JSON object as its last line. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics (see README.md).

#include <dirent.h>
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/bench.h"
#include "src/api/blinkdb.h"
#include "src/client/blink_client.h"
#include "src/coord/coordinator.h"
#include "src/exec/executor.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/sql/parser.h"
#include "src/stats/distributions.h"
#include "src/workload/conviva.h"

namespace perfbench {
namespace {

using blink::BlinkClient;
using blink::BlinkDB;
using blink::BlinkServer;

// ---- Fixed workload parameters (README "Workloads") -------------------------

constexpr uint64_t kRows = 1'000'000;
constexpr uint64_t kCities = 500;
constexpr uint64_t kUrls = 5'000;
constexpr double kPaperBytes = 1e12;
// Every group of an ask holds at least this many rows (0.2% of the table), as
// DrawAsks judges it.
constexpr double kMinGroupRows = 2'000;
constexpr size_t kMinAsks = 1'500;        // adhoc: asks per run, at least
constexpr size_t kDashRound = 256;        // asks per dashboard client round
constexpr size_t kDashClients = 2;
constexpr size_t kPanels = 30;
constexpr size_t kDrillPool = 256;        // drill-downs per dashboard client
constexpr uint64_t kBatchRows = 2'000;   // ingest APPEND batch, one per round
constexpr size_t kMinIngestAsks = 1'000;  // ingest: asks per run (50 rounds), at least
constexpr size_t kCoordProbeAsks = 60;
constexpr uint64_t kProbeBatchRows = 2'048;
constexpr size_t kProbeBatches = 8;

// The engine's defaults: one scan thread per query, 4,096-row morsels and
// 16-block rounds. Each extra scan thread, and each round's PARTIAL frame, is a
// cross-thread wake-up per ask; on a shared VM those waits, not the scans, set
// how much a run's latency moves with the host's load (README "Steadiness").
blink::RuntimeConfig Runtime() { return blink::RuntimeConfig{}; }

// ---- Args, metrics, output ----------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
};

struct Metrics {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void Add(const std::string& name, double value, const std::string& unit) {
    entries.push_back({name, value, unit});
  }
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // why `correct` is false
  Metrics metrics;

  void Wrong(const std::string& why) {
    correct = false;
    if (problems.size() < 10) {
      problems.push_back(why);
    }
  }
};

void Print(const RunResult& r) {
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "WRONG: %s\n", p.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.entries.size(); ++i) {
    const Metrics::Entry& e = r.metrics.entries[i];
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(e.value) ? e.value : 0.0);
    out += (i > 0 ? ", \"" : "\"") + e.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           e.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Sets the CPU affinity of every thread of this process; threads started
// later inherit their starter's. Returns false if any thread was not set.
bool SetAffinity(const cpu_set_t& mask) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) {
    return false;
  }
  bool ok = true;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') {
      const auto tid = static_cast<pid_t>(std::strtol(e->d_name, nullptr, 10));
      ok = sched_setaffinity(tid, sizeof(mask), &mask) == 0 && ok;
    }
  }
  closedir(dir);
  return ok;
}

// Holds the whole process on one CPU (the last it may use) while alive, and
// gives every thread the process's CPUs back at the end.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) {
      return;
    }
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
      if (CPU_ISSET(cpu, &all_)) {
        CPU_SET(cpu, &one);
        break;
      }
    }
    if (!SetAffinity(one)) {
      std::fprintf(stderr, "warning: could not hold the process on one CPU\n");
    }
  }
  ~PinToOneCpu() { SetAffinity(all_); }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

 private:
  cpu_set_t all_;
};

// ---- Setup --------------------------------------------------------------------

struct SetupTimes {
  double build_samples_s = 0.0;
  double compress_s = 0.0;
};

// The base table is the same in every run: generated from the Conviva
// generator's own fixed seed, so the sample planner always builds the same
// families. (On per-seed tables it flips between two family sets, which moves
// latency by ~30%; README "Seeds".) --seed drives everything else.
blink::ConvivaConfig DataConfig() {
  blink::ConvivaConfig data;
  data.num_rows = kRows;
  data.num_cities = kCities;
  data.num_urls = kUrls;
  return data;
}

// Registers `table` as "sessions" into `db`, builds the stratified sample
// families for the Conviva template workload, and compresses storage.
blink::Status BuildDb(BlinkDB& db, blink::Table table, double scale, Tracer& tr,
                      SetupTimes& times) {
  BLINK_RETURN_IF_ERROR(db.RegisterTable("sessions", std::move(table), scale));
  blink::PlannerConfig planner;
  planner.budget_fraction = 0.5;
  planner.cap_k = 500;
  planner.max_columns_per_set = 2;
  planner.uniform_fraction = 0.1;
  auto t0 = Clock::now();
  {
    Scoped span(tr, "optimizer.build_samples");
    auto plan = db.BuildSamples("sessions", blink::ConvivaTemplates(), planner);
    if (!plan.ok()) {
      return plan.status();
    }
  }
  auto t1 = Clock::now();
  {
    Scoped span(tr, "storage.compress");
    BLINK_RETURN_IF_ERROR(db.CompressStorage("sessions"));
  }
  auto t2 = Clock::now();
  times.build_samples_s += Seconds(t0, t1);
  times.compress_s += Seconds(t1, t2);
  return blink::Status::Ok();
}

double ScaleFor(const blink::Table& full) {
  return kPaperBytes / (static_cast<double>(full.num_rows()) * full.EstimatedBytesPerRow());
}

// ---- One ask over the wire ------------------------------------------------------

// A kept answer, for checking after the run.
struct Answer {
  blink::QueryResult result;
  blink::ExecutionReport report;
};

struct Record {
  size_t ask = 0;            // index into the workload's ask list
  double ms = 0.0;
  bool ok = false;
  bool traced = false;
  std::string error;
  std::shared_ptr<const Answer> answer;  // null once an identical one is kept
  double bytes_scanned = 0.0;
  double bytes_decoded = 0.0;
  double queue_s = 0.0;
  double blocks = 0.0;
  double pipelines = 0.0;
  double rounds = 0.0;
  double partials = 0.0;
  // ingest: batches acknowledged before the ask was sent.
  uint64_t acked_before = 0;
};

// Client-side per-layer timings gathered in traced rounds.
struct LayerTimes {
  std::vector<double> parse_us;
  std::vector<double> encode_us;
  std::vector<double> decode_us;
  std::vector<double> final_bytes;
  void Merge(const LayerTimes& o) {
    parse_us.insert(parse_us.end(), o.parse_us.begin(), o.parse_us.end());
    encode_us.insert(encode_us.end(), o.encode_us.begin(), o.encode_us.end());
    decode_us.insert(decode_us.end(), o.decode_us.begin(), o.decode_us.end());
    final_bytes.insert(final_bytes.end(), o.final_bytes.begin(), o.final_bytes.end());
  }
};

void Keep(Record& rec, blink::QueryResult result, blink::ExecutionReport report) {
  rec.ok = true;
  rec.bytes_scanned = report.bytes_scanned;
  rec.bytes_decoded = report.bytes_decoded;
  rec.queue_s = report.queue_latency;
  rec.blocks = static_cast<double>(report.blocks_consumed);
  rec.pipelines = static_cast<double>(report.pipeline_outcomes.size());
  for (const auto& p : report.pipeline_outcomes) {
    rec.rounds += static_cast<double>(p.scheduled_rounds);
  }
  rec.answer = std::make_shared<const Answer>(Answer{std::move(result), std::move(report)});
}

// Sends one ask on `client`. In traced rounds the client-side layers around
// the call are timed too: SQL parsing, and re-encoding/decoding the FINAL.
Record RunAsk(BlinkClient& client, size_t ask_index, const std::string& sql, bool traced,
              Tracer& tr, LayerTimes& lt) {
  Record rec;
  rec.ask = ask_index;
  rec.traced = traced;
  Scoped root(tr, traced ? "ask" : "ask.untraced", -1, ask_index);
  if (traced) {
    auto p0 = Clock::now();
    {
      Scoped span(tr, "sql.parse", root.id(), ask_index);
      auto parsed = blink::ParseSelect(sql);
      (void)parsed;
    }
    lt.parse_us.push_back(Seconds(p0, Clock::now()) * 1e6);
  }
  auto t0 = Clock::now();
  blink::Result<blink::QueryOutcome> outcome = blink::Status::Internal("not run");
  {
    Scoped span(tr, "client.query", root.id(), ask_index);
    outcome = client.Query(sql);
  }
  rec.ms = Seconds(t0, Clock::now()) * 1e3;
  if (!outcome.ok()) {
    rec.error = outcome.status().ToString();
    return rec;
  }
  rec.partials = static_cast<double>(outcome->partial_frames);
  Keep(rec, std::move(outcome->result), std::move(outcome->report));
  if (traced) {
    blink::FinalFrame final_frame;
    final_frame.id = ask_index;
    final_frame.result = rec.answer->result;
    final_frame.report = rec.answer->report;
    auto e0 = Clock::now();
    std::string payload;
    {
      Scoped span(tr, "protocol.encode_final", root.id(), ask_index);
      payload = blink::EncodeFinal(final_frame);
    }
    auto e1 = Clock::now();
    {
      Scoped span(tr, "protocol.decode_frame", root.id(), ask_index);
      auto decoded = blink::DecodeFrame(payload);
      (void)decoded;
    }
    auto e2 = Clock::now();
    lt.encode_us.push_back(Seconds(e0, e1) * 1e6);
    lt.decode_us.push_back(Seconds(e1, e2) * 1e6);
    lt.final_bytes.push_back(static_cast<double>(payload.size()));
  }
  return rec;
}

// Stable fingerprint of an answer, so repeated identical answers (cache hits)
// are checked once.
uint64_t Fingerprint(const Answer& a) {
  const blink::QueryResult& r = a.result;
  const blink::ExecutionReport& rep = a.report;
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ b[i]) * 1099511628211ULL;
    }
  };
  for (const auto& row : r.rows) {
    for (const auto& v : row.group_values) {
      const std::string s = v.ToString();
      mix(s.data(), s.size());
    }
    for (const auto& e : row.aggregates) {
      mix(&e.value, sizeof(e.value));
      mix(&e.variance, sizeof(e.variance));
    }
  }
  mix(&r.confidence, sizeof(r.confidence));
  mix(&rep.achieved_error, sizeof(rep.achieved_error));
  mix(&rep.effective_error_bound, sizeof(rep.effective_error_bound));
  const uint8_t flags = (rep.stopped_early ? 1 : 0) | (rep.cancelled ? 2 : 0);
  mix(&flags, 1);
  return h;
}

// ---- Shared end-to-end and per-layer reporting -------------------------------------

struct Run {
  Args args;
  Tracer tracer;
  Mirror mirror;
  std::vector<Ask> asks;
  std::vector<Truth> truths;  // exact answer of each ask over the base rows (after the run)
  SetupTimes setup_times;
  double setup_s = 0.0;
  // The benchmark's own work inside set-up (copying the rows into the mirror,
  // drawing asks), which setup_s leaves out.
  double own_setup_s = 0.0;
  // Measured asks, in issue order per client. A deque grows without the
  // copy-on-growth peaks of a vector, which would make peak_rss_mb depend on
  // where the ask count falls between powers of two.
  std::deque<Record> records;
  size_t scan_metric_asks = 0;     // mb_scanned over this many leading records (0 = all)
  LayerTimes layers;
  CheckStats checks;
  RunResult out;
  // Per-layer extras filled by workloads/probes.
  blink::AnswerCacheStats cache{};
  double runtime_ms = 0.0;
  double exec_count_rows_s = 0.0;
  double exec_grouped_rows_s = 0.0;
  double encoded_over_raw = 0.0;
  double sample_append_ms = 0.0;
  double sample_tick_ms = 0.0;
  double sample_merges = 0.0;
  double sample_live_runs = 0.0;
  double append_rows_per_s = 0.0;
  // Failed operations other than measured asks: probes of a traced run and
  // the ingest writer's APPEND (see Tally).
  std::vector<std::string> other_failures;
  double coord_rounds = 0.0;
  double coord_grants = 0.0;
  double coord_over_shard = 0.0;
  double trace_overhead_pct = 0.0;
  double traced_round_s = 0.0;    // summed wall time of traced rounds
  double untraced_round_s = 0.0;
  uint64_t traced_asks = 0;
  uint64_t untraced_asks = 0;

  explicit Run(const Args& a) : args(a), tracer(a.trace) {}

  // Ends set-up: engine time from process start, the benchmark's own work
  // taken out.
  void SetupDone() { setup_s = SinceStart() - own_setup_s; }
  void Failed(const std::string& what) { other_failures.push_back(what); }
};


void AddRoundTime(Run& run, bool traced, double seconds, size_t asks) {
  if (traced) {
    run.traced_round_s += seconds;
    run.traced_asks += asks;
  } else {
    run.untraced_round_s += seconds;
    run.untraced_asks += asks;
  }
}

// ---- End-to-end metrics -------------------------------------------------------------

// Wire latencies and throughput are per-layer metrics (README "Steadiness").
void ReportEndToEnd(Run& run) {
  double scanned = 0.0;
  size_t scanned_n = 0;
  const size_t limit = run.scan_metric_asks == 0
                           ? run.records.size()
                           : std::min(run.scan_metric_asks, run.records.size());
  for (size_t i = 0; i < limit; ++i) {
    const Record& r = run.records[i];
    if (r.ok) {
      scanned += r.bytes_scanned;
      ++scanned_n;
    }
  }
  Metrics& m = run.out.metrics;
  m.Add("setup_s", run.setup_s, "s");
  m.Add("mb_scanned_per_query",
        scanned_n == 0 ? 0.0 : scanned / static_cast<double>(scanned_n) / 1e6, "MB");
}

// ---- Per-layer metrics ----------------------------------------------------------------

void ReportLayers(Run& run) {
  std::vector<double> decoded, queue, blocks, pipelines, rounds, partials, traced_ms;
  std::vector<double> untraced_ms, untraced_grouped_ms;
  for (const Record& r : run.records) {
    if (!r.ok) {
      continue;
    }
    decoded.push_back(r.bytes_decoded / 1e6);
    queue.push_back(r.queue_s * 1e3);
    blocks.push_back(r.blocks);
    pipelines.push_back(r.pipelines);
    rounds.push_back(r.rounds);
    partials.push_back(r.partials);
    if (r.traced) {
      traced_ms.push_back(r.ms);
    } else {
      untraced_ms.push_back(r.ms);
      if (run.asks[r.ask].grouped()) {
        untraced_grouped_ms.push_back(r.ms);
      }
    }
  }
  const double traced_per_ask =
      run.traced_asks == 0 ? 0.0 : run.traced_round_s / static_cast<double>(run.traced_asks);
  const double untraced_per_ask = run.untraced_asks == 0
                                      ? 0.0
                                      : run.untraced_round_s /
                                            static_cast<double>(run.untraced_asks);
  Metrics& m = run.out.metrics;
  m.Add("peak_rss_mb", PeakRssMb(), "MB");
  m.Add("sql.parse_us", Mean(run.layers.parse_us), "us");
  m.Add("optimizer.build_samples_s", run.setup_times.build_samples_s, "s");
  m.Add("storage.compress_s", run.setup_times.compress_s, "s");
  m.Add("storage.encoded_over_raw", run.encoded_over_raw, "ratio");
  m.Add("storage.mb_decoded_per_query", Mean(decoded), "MB");
  m.Add("runtime.query_p50_ms", run.runtime_ms, "ms");
  m.Add("plan.blocks_per_query", Mean(blocks), "count");
  m.Add("plan.pipelines_per_query", Mean(pipelines), "count");
  m.Add("plan.rounds_per_query", Mean(rounds), "count");
  m.Add("exec.count_mrows_per_s", run.exec_count_rows_s / 1e6, "Mrows/s");
  m.Add("exec.grouped_mrows_per_s", run.exec_grouped_rows_s / 1e6, "Mrows/s");
  m.Add("cache.hits", static_cast<double>(run.cache.hits), "count");
  m.Add("cache.resumes", static_cast<double>(run.cache.resumes), "count");
  m.Add("cache.misses", static_cast<double>(run.cache.misses), "count");
  m.Add("server.queue_ms", Mean(queue), "ms");
  m.Add("protocol.final_bytes", Mean(run.layers.final_bytes), "bytes");
  m.Add("protocol.encode_final_us", Mean(run.layers.encode_us), "us");
  m.Add("protocol.decode_frame_us", Mean(run.layers.decode_us), "us");
  m.Add("client.partials_per_query", Mean(partials), "count");
  m.Add("client.query_p50_ms", Percentile(untraced_ms, 0.5), "ms");
  m.Add("client.grouped_p50_ms", Percentile(untraced_grouped_ms, 0.5), "ms");
  m.Add("client.queries_per_s", untraced_per_ask > 0.0 ? 1.0 / untraced_per_ask : 0.0, "1/s");
  m.Add("sample.append_ms", run.sample_append_ms, "ms");
  m.Add("sample.tick_ms", run.sample_tick_ms, "ms");
  m.Add("sample.merges", run.sample_merges, "count");
  m.Add("sample.live_runs", run.sample_live_runs, "count");
  m.Add("ingest.append_rows_per_s", run.append_rows_per_s, "rows/s");
  m.Add("coord.rounds_per_query", run.coord_rounds, "count");
  m.Add("coord.grants_per_query", run.coord_grants, "count");
  m.Add("coord.time_over_shard", run.coord_over_shard, "ratio");
  m.Add("trace.query_p50_ms", Percentile(traced_ms, 0.5), "ms");
  m.Add("trace.overhead_pct",
        untraced_per_ask > 0.0 ? (traced_per_ask - untraced_per_ask) / untraced_per_ask * 100.0
                               : 0.0,
        "%");
  m.Add("trace.spans", static_cast<double>(run.tracer.size()), "count");
  const double estimates = static_cast<double>(run.checks.estimates);
  const double skipped = static_cast<double>(run.checks.skipped);
  m.Add("check.estimates", estimates, "count");
  m.Add("check.skipped_pct",
        estimates + skipped > 0.0 ? skipped / (estimates + skipped) * 100.0 : 0.0, "%");
}

// ---- Checking ---------------------------------------------------------------------------

// Checks every kept answer against the truth `truth_for` gives its record: the
// ask's truth over the table, or on `ingest` over the rows its snapshot held.
// Then feeds the negative control clean grouped answers until one serves.
void CheckAnswers(Run& run, const std::function<Truth(const Record&)>& truth_for) {
  const size_t workers = Cores();
  std::vector<CheckStats> partial(workers);
  ParallelFor(workers, [&](size_t w) {
    for (size_t i = w; i < run.records.size(); i += workers) {
      const Record& r = run.records[i];
      if (r.answer != nullptr) {
        CheckAnswer(run.asks[r.ask], r.answer->result, r.answer->report, truth_for(r),
                    run.mirror, partial[w]);
      }
    }
  });
  for (const CheckStats& s : partial) {
    run.checks.Merge(s);
  }
  for (const Record& r : run.records) {
    if (r.answer == nullptr || !run.asks[r.ask].grouped()) {
      continue;
    }
    std::string why;
    if (NegativeControl(run.asks[r.ask], r.answer->result, r.answer->report, truth_for(r),
                        run.mirror, &why)) {
      return;
    }
    if (why != kNotClean) {
      run.out.Wrong("negative control: " + why);
      return;
    }
  }
  run.out.Wrong("negative control: no grouped answer to corrupt");
}

void CheckAgainstTable(Run& run) {
  run.truths = Truths(run.asks, run.mirror);
  CheckAnswers(run, [&run](const Record& r) { return run.truths[r.ask]; });
}

// `attempted` counts the measured asks. Any other operation (a probe of a
// traced run, an APPEND) is counted only when it fails, in both `attempted`
// and `failed`, so a clean run's failed share is that of its asks alone.
void Tally(Run& run) {
  run.out.attempted = run.records.size() + run.other_failures.size();
  run.out.failed += run.other_failures.size();
  std::unordered_map<std::string, uint64_t> errors;
  for (const Record& r : run.records) {
    if (!r.ok) {
      ++run.out.failed;
      ++errors[r.error.substr(0, 120)];
    }
  }
  for (const std::string& what : run.other_failures) {
    ++errors[what.substr(0, 120)];
  }
  for (const auto& [what, n] : errors) {
    std::fprintf(stderr, "failed x%llu: %s\n", static_cast<unsigned long long>(n),
                 what.c_str());
  }
  std::fprintf(stderr,
               "checked %llu answers (%llu with no compared estimate), %llu estimates "
               "(%llu skipped), %llu early stops, max z %.3f, %llu violations\n",
               static_cast<unsigned long long>(run.checks.answers),
               static_cast<unsigned long long>(run.checks.unchecked_answers),
               static_cast<unsigned long long>(run.checks.estimates),
               static_cast<unsigned long long>(run.checks.skipped),
               static_cast<unsigned long long>(run.checks.early_stops), run.checks.max_z,
               static_cast<unsigned long long>(run.checks.violations));
  for (const std::string& e : run.checks.examples) {
    run.out.Wrong(e);
  }
  const double compared = static_cast<double>(run.checks.estimates);
  const double skipped = static_cast<double>(run.checks.skipped);
  const double unchecked = static_cast<double>(run.checks.unchecked_answers);
  if (compared == 0.0 || skipped > kMaxSkippedShare * (compared + skipped) ||
      unchecked > kMaxUncheckedShare * static_cast<double>(run.checks.answers)) {
    run.out.Wrong("too few estimates were compared against truth");
  }
  if (run.checks.violations > run.checks.examples.size()) {
    run.out.Wrong(std::to_string(run.checks.violations) + " violations in total");
  }
}

// ---- Per-layer probes (traced runs only) ----------------------------------------------------

// In-process BlinkDB::Query over the workload's own asks: the runtime's share
// of the wire latency.
void ProbeRuntime(Run& run, const BlinkDB& db, size_t max_asks) {
  std::vector<double> ms;
  for (size_t i = 0; i < run.asks.size() && ms.size() < max_asks; ++i) {
    if (run.asks[i].agg == Agg::kQuantile && db.Levels("sessions") != nullptr) {
      continue;  // rejected on live tables; see the ingest workload
    }
    Scoped span(run.tracer, "runtime.query", -1, i);
    auto t0 = Clock::now();
    auto answer = db.Query(run.asks[i].sql);
    ms.push_back(Seconds(t0, Clock::now()) * 1e3);
    if (!answer.ok()) {
      run.Failed("in-process query: " + answer.status().ToString());
    }
  }
  run.runtime_ms = Percentile(ms, 0.5);
}

// ExecuteQuery over every family's largest logical sample: a filtered count
// and a grouped aggregate.
void ProbeExec(Run& run, const BlinkDB& db) {
  auto count = blink::ParseSelect("SELECT COUNT(*) FROM sessions WHERE endedflag = 1");
  auto grouped = blink::ParseSelect("SELECT os, AVG(sessiontimems) FROM sessions GROUP BY os");
  if (!count.ok() || !grouped.ok()) {
    run.Failed("exec probe statements do not parse");
    return;
  }
  double rows = 0.0;
  double count_s = 0.0;
  double grouped_s = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    for (const blink::SampleFamily* family : db.samples().FamiliesFor("sessions")) {
      const blink::Dataset ds = family->LogicalSample(0);
      rows += static_cast<double>(ds.NumRows());
      auto t0 = Clock::now();
      {
        Scoped span(run.tracer, "exec.count");
        if (!blink::ExecuteQuery(count.value(), ds).ok()) {
          run.Failed("exec probe count");
        }
      }
      auto t1 = Clock::now();
      {
        Scoped span(run.tracer, "exec.grouped");
        if (!blink::ExecuteQuery(grouped.value(), ds).ok()) {
          run.Failed("exec probe grouped");
        }
      }
      auto t2 = Clock::now();
      count_s += Seconds(t0, t1);
      grouped_s += Seconds(t1, t2);
    }
  }
  run.exec_count_rows_s = count_s > 0.0 ? rows / count_s : 0.0;
  run.exec_grouped_rows_s = grouped_s > 0.0 ? rows / grouped_s : 0.0;
}

void ProbeStorage(Run& run, const BlinkDB& db) {
  const blink::TableEntry* entry = db.catalog().Find("sessions");
  const blink::EncodedTable* enc = entry == nullptr ? nullptr : entry->table.encoded_blocks();
  if (enc == nullptr) {
    return;
  }
  double raw = 0.0;
  double encoded = 0.0;
  for (size_t c = 0; c < enc->num_columns(); ++c) {
    raw += static_cast<double>(enc->stats(c).raw_bytes);
    encoded += static_cast<double>(enc->stats(c).encoded_bytes);
  }
  run.encoded_over_raw = raw > 0.0 ? encoded / raw : 0.0;
}

// In-process Append + MaintenanceTick of fixed batches (servers stopped).
void ProbeSample(Run& run, BlinkDB& db) {
  blink::Rng rng(run.args.seed ^ 0x5a17e5ULL);
  const blink::ConvivaConfig config = DataConfig();
  double append_s = 0.0;
  double tick_s = 0.0;
  double merges = 0.0;
  for (size_t b = 0; b < kProbeBatches; ++b) {
    blink::Table batch = blink::GenerateConvivaArrivals(config, kProbeBatchRows, rng);
    auto t0 = Clock::now();
    {
      Scoped span(run.tracer, "sample.append");
      if (!db.Append("sessions", std::move(batch)).ok()) {
        run.Failed("sample probe append");
      }
    }
    auto t1 = Clock::now();
    {
      Scoped span(run.tracer, "sample.tick");
      auto merged = db.MaintenanceTick("sessions");
      if (!merged.ok()) {
        run.Failed("sample probe tick");
      } else if (merged.value()) {
        merges += 1.0;
      }
    }
    tick_s += Seconds(t1, Clock::now());
    append_s += Seconds(t0, t1);
  }
  run.sample_append_ms = append_s / kProbeBatches * 1e3;
  run.sample_tick_ms = tick_s / kProbeBatches * 1e3;
  run.sample_merges = merges;
  const blink::LeveledStore* levels = db.Levels("sessions");
  run.sample_live_runs = levels == nullptr ? 0.0 : static_cast<double>(levels->run_count());
}

// ---- Workloads ------------------------------------------------------------------------------

struct Served {
  std::unique_ptr<BlinkDB> db;
  std::unique_ptr<BlinkServer> server;
};

blink::Status StartServed(Run& run, Served& s, bool ingest) {
  blink::Table table;
  {
    Scoped span(run.tracer, "data.generate");
    table = blink::GenerateConvivaTable(DataConfig());
  }
  const auto m0 = Clock::now();
  run.mirror = Mirror::Of(table);
  run.own_setup_s += Seconds(m0, Clock::now());
  const double scale = ScaleFor(table);
  s.db = std::make_unique<BlinkDB>();
  BLINK_RETURN_IF_ERROR(BuildDb(*s.db, std::move(table), scale, run.tracer, run.setup_times));
  blink::ServerOptions options;
  options.runtime = Runtime();
  options.max_concurrent_queries = 2;
  Scoped span(run.tracer, "server.start");
  if (ingest) {
    s.server = std::make_unique<BlinkServer>(*s.db, options);
  } else {
    s.server = std::make_unique<BlinkServer>(static_cast<const BlinkDB&>(*s.db), options);
  }
  return s.server->Start();
}

blink::Status Connect(BlinkClient& client, const BlinkServer& server) {
  return client.Connect("127.0.0.1", server.port(), "perfbench/1");
}

// One round's shapes: `mix` expanded and shuffled.
std::vector<AskShape> RoundShapes(const std::vector<std::pair<size_t, AskShape>>& mix,
                                  blink::Rng& rng) {
  std::vector<AskShape> shapes;
  for (const auto& [n, shape] : mix) {
    shapes.insert(shapes.end(), n, shape);
  }
  rng.Shuffle(shapes);
  return shapes;
}

blink::AnswerCacheStats Delta(const blink::AnswerCacheStats& a, const blink::AnswerCacheStats& b) {
  return {b.hits - a.hits, b.resumes - a.resumes, b.misses - a.misses, 0, 0};
}

// Sends the warm-up round: asks drawn like the measured ones, from a separate
// stream, unmeasured and unchecked.
void WarmUp(Run& run, const std::vector<std::pair<size_t, AskShape>>& mix,
            const std::vector<double>& ladder, uint64_t stream,
            const std::function<void(const std::string&)>& send) {
  Scoped span(run.tracer, "warmup");
  blink::Rng rng(run.args.seed * 7919 + stream);
  Mixer mixer(run.args.seed * 7919 + stream, ladder);
  std::vector<Ask> asks;
  const auto d0 = Clock::now();
  DrawAsks(RoundShapes(mix, rng), run.mirror, rng, mixer, kMinGroupRows, &asks);
  run.own_setup_s += Seconds(d0, Clock::now());
  for (const Ask& ask : asks) {
    send(ask.sql);
  }
}

// Drives whole rounds of freshly drawn asks through `send` until the summed
// round time reaches the run length and at least `min_asks` were sent. Ask
// generation (and its truth) happens between rounds, outside the timing.
// `fixed`, when set, is one more ask (by index) sent in every round.
// `begin_round`, when set, runs at the start of every round, inside its timing.
void ClosedLoop(Run& run, const std::vector<std::pair<size_t, AskShape>>& mix,
                const std::vector<double>& ladder, uint64_t stream, size_t min_asks,
                const std::optional<size_t>& fixed,
                const std::function<Record(size_t, bool)>& send,
                const std::function<void()>& begin_round = nullptr) {
  blink::Rng rng(run.args.seed * 7919 + stream);
  Mixer mixer(run.args.seed * 7919 + stream, ladder);
  double busy = 0.0;
  double drawing = 0.0;
  std::unordered_set<std::string> used;
  for (size_t round = 0; busy < run.args.seconds || run.records.size() < min_asks; ++round) {
    const bool traced = run.args.trace && round % 2 == 0;
    std::vector<size_t> order;
    const size_t first = run.asks.size();
    const auto d0 = Clock::now();
    DrawAsks(RoundShapes(mix, rng), run.mirror, rng, mixer, kMinGroupRows, &run.asks, &used);
    drawing += Seconds(d0, Clock::now());
    for (size_t i = first; i < run.asks.size(); ++i) {
      order.push_back(i);
    }
    if (fixed.has_value()) {
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(order.size() / 2), *fixed);
    }
    const auto r0 = Clock::now();
    if (begin_round) {
      begin_round();
    }
    for (size_t i : order) {
      run.records.push_back(send(i, traced));
    }
    const double took = Seconds(r0, Clock::now());
    busy += took;
    AddRoundTime(run, traced, took, order.size());
  }
  std::fprintf(stderr, "drew %zu asks in %.2f s\n", run.asks.size(), drawing);
}

void ProbeAll(Run& run, BlinkDB& db, size_t runtime_asks) {
  ProbeRuntime(run, db, runtime_asks);
  ProbeExec(run, db);
  ProbeStorage(run, db);
  ProbeSample(run, db);
}

// ---- The coord layer: a Coordinator over two in-process shard workers ------------------------

struct Shards {
  std::vector<std::unique_ptr<BlinkDB>> dbs;
  std::vector<std::unique_ptr<BlinkServer>> servers;
  std::unique_ptr<blink::Coordinator> coordinator;

  void Stop() {
    for (auto& server : servers) {
      server->Stop();
    }
  }
};

// Splits `full` by row striping as in DemoDbOptions (shard i keeps rows with
// row % 2 == i), builds each shard's samples, and starts its worker.
blink::Status StartShards(Run& run, const blink::Table& full, Shards& s) {
  constexpr uint64_t kShards = 2;
  const double scale = ScaleFor(full);
  SetupTimes ignored;  // the traced set-up times are the single server's
  blink::CoordinatorOptions options;
  for (uint64_t i = 0; i < kShards; ++i) {
    std::vector<uint64_t> keep;
    for (uint64_t row = i; row < full.num_rows(); row += kShards) {
      keep.push_back(row);
    }
    s.dbs.push_back(std::make_unique<BlinkDB>());
    BLINK_RETURN_IF_ERROR(
        BuildDb(*s.dbs.back(), full.SelectRows(keep), scale, run.tracer, ignored));
    blink::ServerOptions server;
    server.runtime = Runtime();
    server.max_concurrent_queries = 2;
    server.shard_index = i;
    server.shard_count = kShards;
    s.servers.push_back(
        std::make_unique<BlinkServer>(static_cast<const BlinkDB&>(*s.dbs.back()), server));
    BLINK_RETURN_IF_ERROR(s.servers.back()->Start());
    options.workers.push_back({"127.0.0.1", s.servers.back()->port()});
  }
  s.coordinator = std::make_unique<blink::Coordinator>(options);
  return blink::Status::Ok();
}

// The same asks through Coordinator::Execute and straight to shard 0: the
// coordinator's gathered rounds, the shard rounds it granted, and its time
// over the one shard's time.
void ProbeCoord(Run& run, Shards& s) {
  BlinkClient shard;
  if (blink::Status st = Connect(shard, *s.servers[0]); !st.ok()) {
    run.Failed("coord probe connect: " + st.ToString());
    return;
  }
  double coord_s = 0.0;
  double shard_s = 0.0;
  std::vector<double> rounds;
  std::vector<double> grants;
  for (size_t i = 0; i < run.asks.size() && rounds.size() < kCoordProbeAsks; ++i) {
    uint64_t gathered = 0;
    auto c0 = Clock::now();
    blink::Result<blink::ApproxAnswer> answer = blink::Status::Internal("not run");
    {
      Scoped span(run.tracer, "coord.execute", -1, i);
      answer = s.coordinator->Execute(
          run.asks[i].sql, [&gathered](const blink::QueryResult&, const blink::StreamProgress& p) {
            gathered += p.final_batch ? 0 : 1;
          });
    }
    auto c1 = Clock::now();
    {
      Scoped span(run.tracer, "shard.query", -1, i);
      (void)shard.Query(run.asks[i].sql);
    }
    coord_s += Seconds(c0, c1);
    shard_s += Seconds(c1, Clock::now());
    if (!answer.ok()) {
      run.Failed("coordinator: " + answer.status().ToString());
      continue;
    }
    double granted = 0.0;
    for (const auto& p : answer->report.pipeline_outcomes) {
      granted += static_cast<double>(p.scheduled_rounds);
    }
    rounds.push_back(static_cast<double>(gathered));
    grants.push_back(granted);
  }
  shard.Close();
  run.coord_over_shard = shard_s > 0.0 ? coord_s / shard_s : 0.0;
  run.coord_rounds = Mean(rounds);
  run.coord_grants = Mean(grants);
}

// ---- Workloads ------------------------------------------------------------------------------

// adhoc: one client, closed loop, distinct seeded template instances.
void RunAdhoc(Run& run) {
  Served s;
  if (blink::Status st = StartServed(run, s, /*ingest=*/false); !st.ok()) {
    run.out.Wrong("setup: " + st.ToString());
    return;
  }
  const std::vector<std::pair<size_t, AskShape>> mix = {
      {7, {false, Agg::kCount}}, {3, {false, Agg::kAvg}}, {2, {false, Agg::kSum}},
      {5, {true, Agg::kCount}},  {3, {true, Agg::kAvg}},
  };
  const std::vector<double> ladder = {1, 2, 3, 5, 10};
  BlinkClient client;
  if (blink::Status st = Connect(client, *s.server); !st.ok()) {
    run.out.Wrong("connect: " + st.ToString());
    s.server->Stop();
    return;
  }
  WarmUp(run, mix, ladder, 2, [&](const std::string& sql) { (void)client.Query(sql); });
  run.SetupDone();

  run.scan_metric_asks = kMinAsks;
  const blink::AnswerCacheStats cache0 = s.server->cache_stats();
  ClosedLoop(run, mix, ladder, 1, kMinAsks, std::nullopt, [&](size_t i, bool traced) {
    return RunAsk(client, i, run.asks[i].sql, traced, run.tracer, run.layers);
  });
  run.cache = Delta(cache0, s.server->cache_stats());
  client.Close();
  s.server->Stop();
  CheckAgainstTable(run);
  if (run.args.trace) {
    ProbeAll(run, *s.db, 150);
    // The coord layer: the same asks through a Coordinator over two shards.
    s.db.reset();
    Shards shards;
    blink::Status st = StartShards(run, blink::GenerateConvivaTable(DataConfig()), shards);
    if (st.ok()) {
      ProbeCoord(run, shards);
    } else {
      run.Failed("coord probe setup: " + st.ToString());
    }
    shards.Stop();
  }
}

// dashboard: a few clients refreshing a fixed panel set at a bound ladder,
// plus one drill-down pair (coarse, then fine) per round.
void RunDashboard(Run& run) {
  Served s;
  if (blink::Status st = StartServed(run, s, /*ingest=*/false); !st.ok()) {
    run.out.Wrong("setup: " + st.ToString());
    return;
  }
  const std::vector<double> rungs = {10, 5, 2};
  // Panel p has shape p % 6 and popularity rank p + 1, the same in every run.
  const std::vector<AskShape> panel_shapes = {
      {false, Agg::kCount}, {true, Agg::kCount}, {false, Agg::kAvg},
      {true, Agg::kAvg},    {false, Agg::kSum},  {false, Agg::kCount},
  };
  const auto d0 = Clock::now();
  {
    Scoped span(run.tracer, "asks.generate");
    // Panel templates and group columns come from an unseeded mixer, so they
    // are the same in every run; the seed chooses their literals.
    blink::Rng rng(run.args.seed * 104729 + 3);
    Mixer panel_mixer(0, rungs);
    std::unordered_set<std::string> used;
    std::vector<AskShape> shapes;
    for (size_t p = 0; p < kPanels; ++p) {
      shapes.push_back(panel_shapes[p % panel_shapes.size()]);
    }
    std::vector<Ask> panels;
    DrawAsks(shapes, run.mirror, rng, panel_mixer, kMinGroupRows, &panels, &used);
    for (size_t p = 0; p < kPanels; ++p) {
      for (double rung : rungs) {
        Ask ask = panels[p];
        ask.error_pct = rung;
        Render(ask, run.mirror);
        run.asks.push_back(std::move(ask));
      }
    }
    // Drill-downs: per client, a pool larger than the cache can hold, asked
    // in order, so each pair misses and then resumes.
    Mixer drill_mixer(run.args.seed * 104729 + 3, rungs);
    std::vector<Ask> drills;
    DrawAsks(std::vector<AskShape>(kDashClients * kDrillPool, {false, Agg::kCount}), run.mirror,
             rng, drill_mixer, kMinGroupRows, &drills, &used);
    for (size_t d = 0; d < drills.size(); ++d) {
      for (double bound : {10.0, 2.0}) {
        Ask ask = drills[d];
        ask.error_pct = bound;
        Render(ask, run.mirror);
        run.asks.push_back(std::move(ask));
      }
    }
  }
  run.own_setup_s += Seconds(d0, Clock::now());
  const size_t drill_base = kPanels * rungs.size();
  {
    // Warm-up: every panel at every rung, coarse to fine, so the cache holds
    // each panel's finest answer before measuring.
    Scoped span(run.tracer, "warmup");
    BlinkClient warm;
    if (blink::Status st = Connect(warm, *s.server); !st.ok()) {
      run.out.Wrong("connect: " + st.ToString());
      s.server->Stop();
      return;
    }
    for (size_t i = 0; i < drill_base; ++i) {
      (void)warm.Query(run.asks[i].sql);
    }
  }
  run.SetupDone();

  const blink::AnswerCacheStats cache0 = s.server->cache_stats();
  std::atomic<bool> stop{false};
  std::vector<std::deque<Record>> per_client(kDashClients);
  std::vector<Tracer> tracers(kDashClients, Tracer(run.args.trace));
  std::vector<LayerTimes> layers(kDashClients);
  std::vector<std::string> errors(kDashClients);
  std::vector<double> traced_s(kDashClients, 0.0), untraced_s(kDashClients, 0.0);
  std::vector<uint64_t> traced_n(kDashClients, 0), untraced_n(kDashClients, 0);
  const blink::ZipfGenerator zipf(1.0, kPanels);
  // Clients and server share one CPU while measuring, so each hand-off is a
  // context switch, not a wake-up of another vCPU (README "Steadiness").
  std::optional<PinToOneCpu> pin(std::in_place);
  const auto start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kDashClients; ++c) {
    clients.emplace_back([&, c] {
      BlinkClient client;
      if (blink::Status st = Connect(client, *s.server); !st.ok()) {
        errors[c] = "connect: " + st.ToString();
        return;
      }
      blink::Rng crng(run.args.seed * 15485863 + c);
      std::vector<size_t> next_rung(kPanels, 0);
      std::unordered_map<size_t, std::unordered_set<uint64_t>> seen;
      for (size_t round = 0; !stop.load(); ++round) {
        const bool traced = run.args.trace && round % 2 == 0;
        const size_t drill_slot = crng.NextBounded(kDashRound - 1);
        const size_t drill = drill_base + (c * kDrillPool + round % kDrillPool) * 2;
        const auto r0 = Clock::now();
        for (size_t k = 0; k < kDashRound; ++k) {
          size_t ask_index;
          if (k == drill_slot || k == drill_slot + 1) {
            ask_index = drill + (k - drill_slot);
          } else {
            const size_t panel = zipf.Next(crng) - 1;
            ask_index = panel * rungs.size() + next_rung[panel];
            next_rung[panel] = (next_rung[panel] + 1) % rungs.size();
          }
          Record rec = RunAsk(client, ask_index, run.asks[ask_index].sql, traced, tracers[c],
                              layers[c]);
          if (rec.answer != nullptr && !seen[ask_index].insert(Fingerprint(*rec.answer)).second) {
            rec.answer = nullptr;  // identical to an answer already kept
          }
          per_client[c].push_back(std::move(rec));
        }
        const double took = Seconds(r0, Clock::now());
        (traced ? traced_s[c] : untraced_s[c]) += took;
        (traced ? traced_n[c] : untraced_n[c]) += kDashRound;
        if (Seconds(start, Clock::now()) >= run.args.seconds) {
          stop = true;
        }
      }
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  pin.reset();
  run.cache = Delta(cache0, s.server->cache_stats());
  s.server->Stop();
  for (size_t c = 0; c < kDashClients; ++c) {
    if (!errors[c].empty()) {
      run.out.Wrong(errors[c]);
    }
    for (Record& r : per_client[c]) {
      run.records.push_back(std::move(r));
    }
    per_client[c] = {};
    run.tracer.Merge(tracers[c]);
    run.layers.Merge(layers[c]);
    AddRoundTime(run, true, traced_s[c], traced_n[c]);
    AddRoundTime(run, false, untraced_s[c], untraced_n[c]);
  }
  CheckAgainstTable(run);
  if (run.args.trace) {
    ProbeAll(run, *s.db, drill_base);
  }
}

// ingest: one connection appends a fixed-size batch at the start of every
// round, and another asks the round's queries over the live table. One thread
// drives both in a fixed order, so every ask meets a level set that depends on
// the seed alone (README "Workloads").
void RunIngest(Run& run) {
  Served s;
  if (blink::Status st = StartServed(run, s, /*ingest=*/true); !st.ok()) {
    run.out.Wrong("setup: " + st.ToString());
    return;
  }
  const blink::ConvivaConfig config = DataConfig();
  blink::Rng batch_rng(run.args.seed * 31337 + 5);
  std::vector<blink::Table> batches;  // every acknowledged batch, in order
  std::vector<uint64_t> versions;
  uint64_t acked_rows = 0;
  double append_rtt_s = 0.0;  // summed round trips of acknowledged APPENDs
  bool writer_failed = false;
  BlinkClient writer;
  BlinkClient reader;
  blink::Status st = Connect(writer, *s.server);
  if (st.ok()) {
    st = Connect(reader, *s.server);
  }
  if (!st.ok()) {
    run.out.Wrong("connect: " + st.ToString());
    s.server->Stop();
    return;
  }
  // Sends the next batch; after a failed APPEND the writer stops, so the rows
  // the server holds stay known.
  auto append_next = [&]() {
    if (writer_failed) {
      return;
    }
    blink::Table batch = blink::GenerateConvivaArrivals(config, kBatchRows, batch_rng);
    Scoped span(run.tracer, "client.append");
    const auto a0 = Clock::now();
    auto ok = writer.Append("sessions", batch);
    if (!ok.ok()) {
      writer_failed = true;
      run.Failed("APPEND: " + ok.status().ToString());
      return;
    }
    append_rtt_s += Seconds(a0, Clock::now());
    acked_rows += ok->rows_appended;
    versions.push_back(ok->version);
    batches.push_back(std::move(batch));
  };
  // The first batch lands before any ask, so every ask meets a live table.
  append_next();
  if (writer_failed) {
    run.out.Wrong("setup append failed");
    s.server->Stop();
    return;
  }
  const std::vector<std::pair<size_t, AskShape>> mix = {
      {7, {false, Agg::kCount}}, {3, {false, Agg::kAvg}}, {2, {false, Agg::kSum}},
      {4, {true, Agg::kCount}},  {3, {true, Agg::kAvg}},
  };
  const std::vector<double> ladder = {2, 5, 10};
  // The round's QUANTILE ask, the same in every run: live tables reject it
  // (README "Workloads"), so it is the one counted failure.
  Ask quantile;
  quantile.agg = Agg::kQuantile;
  quantile.agg_col = run.mirror.Find("sessiontimems");
  quantile.where.push_back({run.mirror.Find("genre"), Op::kEq, 0, "drama"});
  Render(quantile, run.mirror);
  run.asks.push_back(std::move(quantile));
  WarmUp(run, mix, ladder, 8, [&](const std::string& sql) { (void)reader.Query(sql); });
  run.SetupDone();

  run.scan_metric_asks = kMinIngestAsks;
  ClosedLoop(
      run, mix, ladder, 7, kMinIngestAsks, size_t{0},
      [&](size_t i, bool traced) {
        Record rec = RunAsk(reader, i, run.asks[i].sql, traced, run.tracer, run.layers);
        rec.acked_before = batches.size();
        return rec;
      },
      append_next);
  // Append capacity: acknowledged rows over the APPEND round trips alone.
  run.append_rows_per_s = append_rtt_s > 0.0 ? static_cast<double>(acked_rows) / append_rtt_s : 0.0;

  // Two independent totals: the rows this client generated and had
  // acknowledged, and the server's unbounded COUNT(*) over the live table.
  if (acked_rows != kBatchRows * batches.size()) {
    run.out.Wrong("acknowledged rows do not match the batches sent");
  }
  const double expected_rows = static_cast<double>(kRows + acked_rows);
  auto total = reader.Query("SELECT COUNT(*) FROM sessions");
  if (!total.ok() || total->result.rows.size() != 1 ||
      std::fabs(total->result.rows[0].aggregates[0].value - expected_rows) > 0.5) {
    run.out.Wrong("final COUNT(*) does not equal base rows plus acknowledged rows");
  }
  for (size_t v = 1; v < versions.size(); ++v) {
    if (versions[v] <= versions[v - 1]) {
      run.out.Wrong("APPEND_OK versions do not strictly increase");
      break;
    }
  }
  run.cache = s.server->cache_stats();
  reader.Close();
  writer.Close();
  s.server->Stop();

  // Truth: the base rows plus the batches acknowledged before the ask was
  // sent. The ask was sent after that APPEND_OK and answered before the next
  // APPEND, so its snapshot holds exactly those rows.
  run.truths = Truths(run.asks, run.mirror);
  for (const blink::Table& b : batches) {
    run.mirror.AppendFrom(b);
  }
  CheckAnswers(run, [&run](const Record& r) {
    Truth at = run.truths[r.ask];
    const uint64_t end = kRows + r.acked_before * kBatchRows;
    Accumulate(at, Evaluate(run.asks[r.ask], run.mirror, kRows, end));
    return at;
  });
  if (run.args.trace) {
    ProbeAll(run, *s.db, 150);
  }
}

// ---- main ------------------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && args.seconds > 0.0 &&
         (args.workload == "adhoc" || args.workload == "dashboard" || args.workload == "ingest");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: blinkbench --workload adhoc|dashboard|ingest --seed N "
                 "--seconds S --trace 0|1 [--trace-dir DIR]\n");
    return 2;
  }
  // Freed memory stays in the heap for reuse, so asks in the steady state do
  // not fault fresh pages in from the VM (README "Steadiness").
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Run run(args);
  {
    Scoped span(run.tracer, "run");
    if (args.workload == "adhoc") {
      RunAdhoc(run);
    } else if (args.workload == "dashboard") {
      RunDashboard(run);
    } else {
      RunIngest(run);
    }
  }
  if (run.records.empty()) {
    run.out.Wrong("no asks were made");
  }
  Tally(run);
  if (args.trace) {
    ReportLayers(run);
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".jsonl";
      if (!run.tracer.Write(path)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
    }
  } else {
    ReportEndToEnd(run);
  }
  Print(run.out);
  return run.out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
