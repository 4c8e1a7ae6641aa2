// Streaming query server: loopback integration + protocol units.
//
//  - Codec: JSON values round-trip bit-exactly (17-digit doubles), every
//    frame type encodes/decodes, malformed payloads are rejected.
//  - Serving: N concurrent clients get FINAL answers bit-identical to a
//    direct in-process BlinkDB::Query under the same runtime settings;
//    PARTIAL sequences are monotone in blocks_consumed and precede FINAL
//    for bounded queries; malformed frames draw an ERROR without killing
//    the session; handshake rules hold.
//  - Admission: a second query queues (FIFO) instead of bouncing; BUSY is
//    reserved for a full queue (and duplicate in-flight ids); the shed
//    ladder widens bounds under backlog; stale tickets shed at the
//    deadline; fairness prefers clients with nothing running.
//  - Answer cache (over the wire, on its own cache-enabled server): a
//    repeated bounded query is a hit — zero blocks, bit-identical FINAL —
//    and a tighter re-ask resumes from the cached prefix.
//  - Cancellation (the §4.4 satellite): CANCEL mid-stream ends the query at
//    a round boundary with FINAL(cancelled=true), the server keeps serving,
//    and the cancelled query is charged only for consumed blocks — both
//    over the wire and at the runtime layer.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/api/blinkdb.h"
#include "src/client/blink_client.h"
#include "src/server/admission.h"
#include "src/server/net.h"
#include "src/server/protocol.h"
#include "src/server/runtime_pool.h"
#include "src/server/server.h"
#include "src/sql/parser.h"
#include "src/util/json.h"
#include "src/workload/conviva.h"

namespace blink {
namespace {

// Runtime settings shared by the served pool and the direct BlinkDB the
// answers are compared against — bit-identity requires matching knobs.
RuntimeConfig ServedConfig() {
  RuntimeConfig config;
  config.exec_threads = 2;
  config.morsel_rows = 256;
  config.stream_batch_blocks = 4;
  return config;
}

BlinkDbOptions ServedDbOptions() {
  BlinkDbOptions options;
  options.runtime = ServedConfig();
  return options;
}

// One server over one BlinkDB instance, shared by every test (sample
// building is the expensive part); sessions are cheap and isolated.
struct ServedFixture {
  BlinkDB db{ServedDbOptions()};
  std::unique_ptr<BlinkServer> server;

  static ServedFixture& Get() {
    // A real static (not a leaked pointer): the destructor stops the server
    // at process exit, joining every session reader — TSan's thread-leak
    // check runs over this binary in scripts/check.sh.
    static ServedFixture fixture;
    return fixture;
  }

  ServedFixture() {
    ConvivaConfig data;
    data.num_rows = 60'000;
    data.num_cities = 500;
    data.num_urls = 5'000;
    EXPECT_TRUE(
        db.RegisterTable("sessions", GenerateConvivaTable(data), /*scale=*/1e6).ok());
    PlannerConfig planner;
    planner.budget_fraction = 0.5;
    planner.cap_k = 500;
    planner.max_columns_per_set = 2;
    planner.uniform_fraction = 0.1;
    auto plan = db.BuildSamples("sessions", ConvivaTemplates(), planner);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();

    ServerOptions options;
    options.runtime = ServedConfig();
    options.max_concurrent_queries = 4;
    // The answer cache is OFF here on purpose: these tests pin the cold
    // execution path (every query consumes blocks, every bounded query
    // streams) — the documented no-cache behavior. Cache serving gets its
    // own server below (CachedServedFixture).
    options.answer_cache_entries = 0;
    server = std::make_unique<BlinkServer>(db, options);
    EXPECT_TRUE(server->Start().ok());
  }

  void Connect(BlinkClient& client) {
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  }
};

void ExpectValueEq(const Value& x, const Value& y) {
  ASSERT_EQ(x.type(), y.type());
  EXPECT_EQ(x, y);
}

// Bit-exact equality of two answers: group values, estimate values and
// variances, confidence.
void ExpectIdentical(const QueryResult& x, const QueryResult& y,
                     const std::string& context) {
  ASSERT_EQ(x.rows.size(), y.rows.size()) << context;
  EXPECT_EQ(x.group_names, y.group_names) << context;
  EXPECT_EQ(x.aggregate_names, y.aggregate_names) << context;
  EXPECT_EQ(x.confidence, y.confidence) << context;
  EXPECT_EQ(x.stats.rows_matched, y.stats.rows_matched) << context;
  for (size_t r = 0; r < x.rows.size(); ++r) {
    ASSERT_EQ(x.rows[r].group_values.size(), y.rows[r].group_values.size()) << context;
    for (size_t g = 0; g < x.rows[r].group_values.size(); ++g) {
      ExpectValueEq(x.rows[r].group_values[g], y.rows[r].group_values[g]);
    }
    ASSERT_EQ(x.rows[r].aggregates.size(), y.rows[r].aggregates.size()) << context;
    for (size_t a = 0; a < x.rows[r].aggregates.size(); ++a) {
      EXPECT_EQ(x.rows[r].aggregates[a].value, y.rows[r].aggregates[a].value)
          << context << " row " << r;
      EXPECT_EQ(x.rows[r].aggregates[a].variance, y.rows[r].aggregates[a].variance)
          << context << " row " << r;
    }
  }
}

// --- JSON unit tests ---------------------------------------------------------

TEST(JsonTest, DoublesRoundTripBitExactly) {
  for (double v : {1.0 / 3.0, 1e-17, 123456789.123456789, -2.5e300, 0.0, 42.0}) {
    JsonValue array = JsonValue::Array();
    array.Append(v);
    auto parsed = JsonValue::Parse(array.Serialize());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->items()[0].AsDouble(), v) << v;
  }
}

TEST(JsonTest, IntegersKeepFullPrecision) {
  const int64_t big = (int64_t{1} << 62) + 12345;
  JsonValue obj = JsonValue::Object();
  obj.Set("n", big);
  auto parsed = JsonValue::Parse(obj.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("n")->AsInt(), big);
}

TEST(JsonTest, StringsEscapeAndUnescape) {
  const std::string nasty = "quote\" slash\\ newline\n tab\t ctrl\x01 end";
  JsonValue obj = JsonValue::Object();
  obj.Set("s", nasty);
  auto parsed = JsonValue::Parse(obj.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("s")->AsString(), nasty);
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad : {"", "{", "{\"a\":}", "[1,]", "nope", "{\"a\":1} x",
                          "\"unterminated", "{\"a\" 1}", "[--3]"}) {
    EXPECT_FALSE(JsonValue::Parse(bad).ok()) << bad;
  }
}

TEST(JsonTest, ParsesNestedStructures) {
  auto parsed = JsonValue::Parse(
      R"({"a": [1, 2.5, "x", null, true], "b": {"c": -7}})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("a")->items().size(), 5u);
  EXPECT_EQ(parsed->Find("b")->Find("c")->AsInt(), -7);
}

// --- Protocol codec ----------------------------------------------------------

QueryResult SampleResult() {
  QueryResult result;
  result.group_names = {"os"};
  result.aggregate_names = {"COUNT(*)", "AVG(v)"};
  result.confidence = 0.95;
  ResultRow row;
  row.group_values = {Value("android"), };
  row.aggregates.push_back({1.0 / 3.0, 1e-9});
  row.aggregates.push_back({42.0, 0.0});
  result.rows.push_back(row);
  ResultRow row2;
  row2.group_values = {Value(int64_t{7})};
  row2.aggregates.push_back({2.5e300, 17.25});
  row2.aggregates.push_back({-0.125, 3e-45});
  result.rows.push_back(row2);
  result.stats.rows_scanned = 1000;
  result.stats.rows_matched = 123;
  result.stats.blocks_scanned = 4;
  result.stats.block_rows = 256;
  result.stats.bytes_scanned = 65536.5;
  return result;
}

TEST(ProtocolTest, QueryResultRoundTripsBitExactly) {
  const QueryResult original = SampleResult();
  auto decoded = DecodeQueryResult(EncodeQueryResult(original));
  // Encode → serialize → parse → decode, the full wire path.
  auto reparsed = JsonValue::Parse(EncodeQueryResult(original).Serialize());
  ASSERT_TRUE(reparsed.ok());
  decoded = DecodeQueryResult(*reparsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectIdentical(*decoded, original, "codec round trip");
  EXPECT_EQ(decoded->stats.rows_scanned, original.stats.rows_scanned);
  EXPECT_EQ(decoded->stats.bytes_scanned, original.stats.bytes_scanned);
}

TEST(ProtocolTest, ReportRoundTrips) {
  ExecutionReport report;
  report.family = "{city}";
  report.resolution = 3;
  report.cap = 500;
  report.rows_read = 12345;
  report.blocks_read = 48;
  report.blocks_reused = 6;
  report.blocks_consumed = 48;
  report.stopped_early = true;
  report.cancelled = true;
  report.probe_latency = 0.25;
  report.execution_latency = 1.5;
  report.total_latency = 1.75;
  report.projected_error = 0.04;
  report.achieved_error = 0.031;
  report.num_subqueries = 2;
  report.rewrite_fallback = false;
  report.bytes_scanned = 9211.5;
  report.bytes_decoded = 40960.0;
  report.schedule = ScheduleMode::kAdaptive;
  report.elp.push_back({1, 1000, 4, 0.1, 0.5, 30.0});
  PipelineOutcome outcome;
  outcome.blocks_total = 30;
  outcome.blocks_consumed = 20;
  outcome.rows_consumed = 5120;
  outcome.rows_matched = 77;
  outcome.reused_probe = false;
  outcome.scheduled_rounds = 5;
  outcome.error_contribution = 0.625;
  outcome.bytes_scanned = 9211.5;
  outcome.bytes_decoded = 40960.0;
  report.pipeline_outcomes.push_back(outcome);

  auto reparsed = JsonValue::Parse(EncodeReport(report).Serialize());
  ASSERT_TRUE(reparsed.ok());
  auto decoded = DecodeReport(*reparsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->family, report.family);
  EXPECT_EQ(decoded->resolution, report.resolution);
  EXPECT_EQ(decoded->blocks_consumed, report.blocks_consumed);
  EXPECT_TRUE(decoded->stopped_early);
  EXPECT_TRUE(decoded->cancelled);
  EXPECT_EQ(decoded->schedule, ScheduleMode::kAdaptive);
  EXPECT_EQ(decoded->achieved_error, report.achieved_error);
  ASSERT_EQ(decoded->elp.size(), 1u);
  EXPECT_EQ(decoded->elp[0].projected_latency, 0.5);
  ASSERT_EQ(decoded->pipeline_outcomes.size(), 1u);
  EXPECT_EQ(decoded->pipeline_outcomes[0].blocks_consumed, 20u);
  EXPECT_EQ(decoded->pipeline_outcomes[0].error_contribution, 0.625);
  EXPECT_EQ(decoded->bytes_scanned, 9211.5);
  EXPECT_EQ(decoded->bytes_decoded, 40960.0);
  EXPECT_EQ(decoded->pipeline_outcomes[0].bytes_scanned, 9211.5);
  EXPECT_EQ(decoded->pipeline_outcomes[0].bytes_decoded, 40960.0);
}

// Frames from a pre-bytes-accounting peer lack bytes_scanned/bytes_decoded;
// decoding must default them to 0 rather than fail (additive evolution, §5).
TEST(ProtocolTest, ReportWithoutBytesFieldsDecodesToZero) {
  ExecutionReport report;
  report.family = "uniform";
  report.bytes_scanned = 123.0;
  report.bytes_decoded = 456.0;
  const JsonValue encoded = EncodeReport(report);
  JsonValue stripped = JsonValue::Object();
  for (const auto& [key, value] : encoded.members()) {
    if (key != "bytes_scanned" && key != "bytes_decoded") {
      stripped.Set(key, value);
    }
  }
  auto reparsed = JsonValue::Parse(stripped.Serialize());
  ASSERT_TRUE(reparsed.ok());
  auto decoded = DecodeReport(*reparsed);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->bytes_scanned, 0.0);
  EXPECT_EQ(decoded->bytes_decoded, 0.0);
}

TEST(ProtocolTest, EveryFrameTypeRoundTrips) {
  HelloFrame hello;
  hello.peer = "test/1";
  hello.tables = {"sessions", "lineitem"};
  auto frame = DecodeFrame(EncodeHello(hello));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kHello);
  EXPECT_EQ(std::get<HelloFrame>(frame->payload).tables.size(), 2u);

  QueryFrame query;
  query.id = 9;
  query.sql = "SELECT COUNT(*) FROM t WHERE s = 'x\"y'";
  frame = DecodeFrame(EncodeQuery(query));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kQuery);
  EXPECT_EQ(std::get<QueryFrame>(frame->payload).sql, query.sql);

  CancelFrame cancel;
  cancel.id = 9;
  frame = DecodeFrame(EncodeCancel(cancel));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kCancel);
  EXPECT_EQ(std::get<CancelFrame>(frame->payload).id, 9u);

  PartialFrame partial;
  partial.id = 9;
  partial.seq = 2;
  partial.progress.blocks_consumed = 8;
  partial.progress.blocks_total = 64;
  partial.progress.achieved_error = 0.07;
  partial.result = SampleResult();
  frame = DecodeFrame(EncodePartial(partial));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kPartial);
  EXPECT_EQ(std::get<PartialFrame>(frame->payload).progress.blocks_consumed, 8u);

  FinalFrame final_frame;
  final_frame.id = 9;
  final_frame.result = SampleResult();
  final_frame.report.family = "uniform";
  frame = DecodeFrame(EncodeFinal(final_frame));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kFinal);
  ExpectIdentical(std::get<FinalFrame>(frame->payload).result, final_frame.result,
                  "FINAL round trip");

  ErrorFrame error;
  error.has_id = true;
  error.id = 9;
  error.code = wire_error::kQueryFailed;
  error.message = "boom";
  frame = DecodeFrame(EncodeError(error));
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(frame->payload).code, wire_error::kQueryFailed);
}

TEST(ProtocolTest, RejectsMalformedFrames) {
  EXPECT_FALSE(DecodeFrame("not json").ok());
  EXPECT_FALSE(DecodeFrame("[]").ok());
  EXPECT_FALSE(DecodeFrame(R"({"no_type": 1})").ok());
  EXPECT_FALSE(DecodeFrame(R"({"type": "QUERY"})").ok());  // missing id/sql
  // Counters are [0, 2^63): a negative id must not wrap into a huge uint64.
  EXPECT_FALSE(DecodeFrame(R"({"type": "CANCEL", "id": -1})").ok());
  EXPECT_FALSE(DecodeFrame(R"({"type": "QUERY", "id": -7, "sql": "x"})").ok());
  const auto unknown = DecodeFrame(R"({"type": "BOGUS"})");
  EXPECT_EQ(unknown.status().code(), StatusCode::kUnimplemented);
}

// --- RuntimePool -------------------------------------------------------------

TEST(RuntimePoolTest, LeasesBlockAndRelease) {
  ServedFixture& fx = ServedFixture::Get();
  RuntimePool pool(&fx.db.samples(), &fx.db.cluster(), ServedConfig(), 2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.available(), 2u);
  {
    auto lease1 = pool.Acquire();
    auto lease2 = pool.Acquire();
    EXPECT_EQ(pool.available(), 0u);
    // A third Acquire would block; verify it completes once a lease frees.
    std::atomic<bool> acquired{false};
    std::thread waiter([&pool, &acquired] {
      auto lease3 = pool.Acquire();
      acquired.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(acquired.load());
    {
      auto release_first = std::move(lease1);
    }  // lease1 returns to the pool
    waiter.join();
    EXPECT_TRUE(acquired.load());
  }
  EXPECT_EQ(pool.available(), 2u);
}

// --- AdmissionController -----------------------------------------------------

using Decision = AdmissionController::Decision;

// With the only worker parked on a latch and the queue filled to depth, the
// backlog drains through descending shed rungs — the most-pressured pops are
// widened the most — and a submit past depth is rejected outright.
TEST(AdmissionControllerTest, QueuePressureWidensBoundsThenRejects) {
  ServedFixture& fx = ServedFixture::Get();
  AdmissionOptions options;
  options.queue_depth = 4;  // ladder {2%,5%,10%}: backlog 3 → rung 2, 2 → 1, 1 → 0
  AdmissionController admission(&fx.db.samples(), &fx.db.cluster(), ServedConfig(),
                                /*workers=*/1, options);
  auto ignore_shed = [](const char*, const std::string&) {};
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ASSERT_TRUE(admission.Submit(
      1,
      [&started, released](const QueryRuntime&, const Decision&) {
        started.set_value();
        released.wait();
      },
      ignore_shed));
  started.get_future().wait();  // the worker now holds the pool's only runtime

  std::mutex mu;
  std::condition_variable done_cv;
  std::vector<Decision> decisions;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(admission.Submit(
        1,
        [&mu, &done_cv, &decisions](const QueryRuntime&, const Decision& decision) {
          std::lock_guard<std::mutex> lock(mu);
          decisions.push_back(decision);
          done_cv.notify_all();
        },
        ignore_shed));
  }
  EXPECT_EQ(admission.waiting(), 4u);
  // Depth exhausted and no idle worker: the fifth waiter is bounced.
  EXPECT_FALSE(
      admission.Submit(1, [](const QueryRuntime&, const Decision&) {}, ignore_shed));

  release.set_value();
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&decisions] { return decisions.size() == 4; });
  }
  // One worker drains FIFO; each rung is the occupancy band of what is still
  // waiting after the pop: backlog 3, 2, 1, 0 → rungs 2, 1, 0, 0.
  EXPECT_EQ(decisions[0].shed_rung, 2u);
  EXPECT_EQ(decisions[0].shed_bound, 0.05);
  EXPECT_EQ(decisions[1].shed_rung, 1u);
  EXPECT_EQ(decisions[1].shed_bound, 0.02);
  EXPECT_EQ(decisions[2].shed_rung, 0u);
  EXPECT_EQ(decisions[3].shed_rung, 0u);
  for (const Decision& decision : decisions) {
    EXPECT_GT(decision.queue_seconds, 0.0);
  }
  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 5u);
  EXPECT_EQ(stats.widened, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.deadline_shed, 0u);
}

// A worker counts as free from construction on, not from the moment its
// thread first reaches the queue: with no waiting room, a ticket submitted
// right after start-up runs instead of being bounced while every worker is
// idle.
TEST(AdmissionControllerTest, SubmitRightAfterConstructionIsAdmitted) {
  ServedFixture& fx = ServedFixture::Get();
  AdmissionOptions options;
  options.queue_depth = 0;
  auto ignore_shed = [](const char*, const std::string&) {};
  for (int attempt = 0; attempt < 20; ++attempt) {
    AdmissionController admission(&fx.db.samples(), &fx.db.cluster(), ServedConfig(),
                                  /*workers=*/1, options);
    std::promise<void> ran;
    ASSERT_TRUE(admission.Submit(
        1, [&ran](const QueryRuntime&, const Decision&) { ran.set_value(); },
        ignore_shed))
        << "attempt " << attempt << ": bounced with the only worker idle";
    ran.get_future().wait();
    EXPECT_EQ(admission.stats().rejected, 0u);
  }
}

// A ticket that outwaits the deadline is shed at pop time with
// DEADLINE_EXCEEDED — its work callback never runs.
TEST(AdmissionControllerTest, DeadlineShedsStaleTicketsAtPop) {
  ServedFixture& fx = ServedFixture::Get();
  AdmissionOptions options;
  options.queue_depth = 4;
  options.deadline_seconds = 0.01;
  AdmissionController admission(&fx.db.samples(), &fx.db.cluster(), ServedConfig(),
                                /*workers=*/1, options);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  ASSERT_TRUE(admission.Submit(
      1,
      [&started, released](const QueryRuntime&, const Decision&) {
        started.set_value();
        released.wait();
      },
      [](const char*, const std::string&) {}));
  started.get_future().wait();

  std::promise<std::string> shed_code;
  std::atomic<bool> executed{false};
  ASSERT_TRUE(admission.Submit(
      1, [&executed](const QueryRuntime&, const Decision&) { executed.store(true); },
      [&shed_code](const char* code, const std::string&) {
        shed_code.set_value(code);
      }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // let it go stale
  release.set_value();
  EXPECT_EQ(shed_code.get_future().get(), wire_error::kDeadlineExceeded);
  EXPECT_FALSE(executed.load());
  EXPECT_EQ(admission.stats().deadline_shed, 1u);
}

// Client 1 saturates both workers and queues a third ticket; client 2 queues
// one behind it. When a worker frees while client 1 still runs elsewhere,
// the younger client-2 ticket jumps the older client-1 one — and the skipped
// ticket still runs afterwards via the FIFO fallback.
TEST(AdmissionControllerTest, FairnessPrefersClientsWithNothingRunning) {
  ServedFixture& fx = ServedFixture::Get();
  AdmissionOptions options;
  options.queue_depth = 4;
  AdmissionController admission(&fx.db.samples(), &fx.db.cluster(), ServedConfig(),
                                /*workers=*/2, options);
  auto ignore_shed = [](const char*, const std::string&) {};
  std::promise<void> started1, started2, release1, release2;
  std::shared_future<void> released1(release1.get_future());
  std::shared_future<void> released2(release2.get_future());
  ASSERT_TRUE(admission.Submit(
      1,
      [&started1, released1](const QueryRuntime&, const Decision&) {
        started1.set_value();
        released1.wait();
      },
      ignore_shed));
  ASSERT_TRUE(admission.Submit(
      1,
      [&started2, released2](const QueryRuntime&, const Decision&) {
        started2.set_value();
        released2.wait();
      },
      ignore_shed));
  started1.get_future().wait();
  started2.get_future().wait();

  std::mutex mu;
  std::vector<uint64_t> order;
  std::promise<void> drained;
  auto record = [&mu, &order, &drained](uint64_t client) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(client);
    if (order.size() == 2) {
      drained.set_value();
    }
  };
  ASSERT_TRUE(admission.Submit(
      1, [&record](const QueryRuntime&, const Decision&) { record(1); }, ignore_shed));
  ASSERT_TRUE(admission.Submit(
      2, [&record](const QueryRuntime&, const Decision&) { record(2); }, ignore_shed));
  ASSERT_EQ(admission.waiting(), 2u);

  release1.set_value();  // one worker frees; client 1 still holds the other
  drained.get_future().wait();
  release2.set_value();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
}

// --- Loopback serving --------------------------------------------------------

constexpr char kBoundedSql[] =
    "SELECT COUNT(*) FROM sessions WHERE country = 'country_2' "
    "ERROR WITHIN 1% AT CONFIDENCE 95%";
constexpr char kGroupedSql[] =
    "SELECT os, COUNT(*), AVG(sessiontimems) FROM sessions GROUP BY os";
// A deliberately unreachable bound over a grouped scan: the plan streams
// every block of the largest resolution — a long, many-round query for the
// BUSY and cancellation tests.
constexpr char kLongSql[] =
    "SELECT city, COUNT(*), AVG(sessiontimems) FROM sessions GROUP BY city "
    "ERROR WITHIN 0.05% AT CONFIDENCE 95%";

TEST(ServerTest, FinalIsBitIdenticalToInProcessQuery) {
  ServedFixture& fx = ServedFixture::Get();
  for (const char* sql : {kBoundedSql, kGroupedSql}) {
    auto direct = fx.db.Query(sql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    BlinkClient client;
    fx.Connect(client);
    auto outcome = client.Query(sql);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    ExpectIdentical(outcome->result, direct->result, sql);
    EXPECT_EQ(outcome->report.blocks_consumed, direct->report.blocks_consumed) << sql;
    EXPECT_EQ(outcome->report.family, direct->report.family) << sql;
    EXPECT_EQ(outcome->report.achieved_error, direct->report.achieved_error) << sql;
  }
}

TEST(ServerTest, ConcurrentClientsAllGetIdenticalAnswers) {
  ServedFixture& fx = ServedFixture::Get();
  auto direct_bounded = fx.db.Query(kBoundedSql);
  auto direct_grouped = fx.db.Query(kGroupedSql);
  ASSERT_TRUE(direct_bounded.ok() && direct_grouped.ok());

  constexpr int kClients = 5;
  std::vector<Result<QueryOutcome>> bounded(kClients, Status::Internal("unset"));
  std::vector<Result<QueryOutcome>> grouped(kClients, Status::Internal("unset"));
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&fx, &bounded, &grouped, c] {
      BlinkClient client;
      fx.Connect(client);
      bounded[c] = client.Query(kBoundedSql);
      grouped[c] = client.Query(kGroupedSql);
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(bounded[c].ok()) << bounded[c].status().ToString();
    ASSERT_TRUE(grouped[c].ok()) << grouped[c].status().ToString();
    ExpectIdentical(bounded[c]->result, direct_bounded->result,
                    "client " + std::to_string(c) + " bounded");
    ExpectIdentical(grouped[c]->result, direct_grouped->result,
                    "client " + std::to_string(c) + " grouped");
    EXPECT_EQ(bounded[c]->report.blocks_consumed,
              direct_bounded->report.blocks_consumed);
  }
}

TEST(ServerTest, BoundedQueryStreamsMonotonePartialsBeforeFinal) {
  ServedFixture& fx = ServedFixture::Get();
  BlinkClient client;
  fx.Connect(client);
  std::vector<StreamProgress> partials;
  std::vector<uint64_t> seqs;
  auto outcome = client.Query(kBoundedSql, [&](const PartialFrame& partial) {
    partials.push_back(partial.progress);
    seqs.push_back(partial.seq);
  });
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_GE(outcome->partial_frames, 1u) << "a bounded query must stream";
  ASSERT_EQ(partials.size(), outcome->partial_frames);
  for (size_t i = 0; i < partials.size(); ++i) {
    EXPECT_EQ(seqs[i], i + 1) << "seq numbers are dense from 1";
    if (i > 0) {
      EXPECT_GT(partials[i].blocks_consumed, partials[i - 1].blocks_consumed);
      EXPECT_GE(partials[i].rows_consumed, partials[i - 1].rows_consumed);
    }
  }
  // The final answer consumed at least as much as the last partial saw.
  EXPECT_GE(outcome->report.blocks_consumed, partials.back().blocks_consumed);
}

TEST(ServerTest, MalformedFramesDrawErrorWithoutKillingSession) {
  ServedFixture& fx = ServedFixture::Get();
  BlinkClient client;
  fx.Connect(client);

  ASSERT_TRUE(client.SendRaw("this is not json").ok());
  auto reply = client.ReadOne();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(reply->payload).code, wire_error::kMalformedFrame);

  ASSERT_TRUE(client.SendRaw(R"({"type": "BOGUS"})").ok());
  reply = client.ReadOne();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(reply->payload).code, wire_error::kUnknownType);

  // A well-formed frame that is server-to-client only.
  FinalFrame bogus_final;
  ASSERT_TRUE(client.SendRaw(EncodeFinal(bogus_final)).ok());
  reply = client.ReadOne();
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(reply->payload).code, wire_error::kUnexpectedFrame);

  // The session survived all three: a real query still answers.
  auto outcome = client.Query(kGroupedSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->result.rows.empty());
}

TEST(ServerTest, QueryBeforeHelloIsRejected) {
  ServedFixture& fx = ServedFixture::Get();
  auto fd = ConnectTcp("127.0.0.1", fx.server->port());
  ASSERT_TRUE(fd.ok());
  QueryFrame query;
  query.id = 1;
  query.sql = kGroupedSql;
  ASSERT_TRUE(WriteFrame(fd->get(), EncodeQuery(query)).ok());
  auto payload = ReadFrame(fd->get());
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(payload->has_value());
  auto frame = DecodeFrame(**payload);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(frame->payload).code,
            wire_error::kHandshakeRequired);
}

TEST(ServerTest, ProtocolVersionMismatchClosesSession) {
  ServedFixture& fx = ServedFixture::Get();
  auto fd = ConnectTcp("127.0.0.1", fx.server->port());
  ASSERT_TRUE(fd.ok());
  HelloFrame hello;
  hello.protocol_version = 99;
  ASSERT_TRUE(WriteFrame(fd->get(), EncodeHello(hello)).ok());
  auto payload = ReadFrame(fd->get());
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(payload->has_value());
  auto frame = DecodeFrame(**payload);
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame->type, FrameType::kError);
  EXPECT_EQ(std::get<ErrorFrame>(frame->payload).code,
            wire_error::kUnsupportedProtocol);
  // The server closes after reporting: the next read is a clean EOF.
  auto eof = ReadFrame(fd->get());
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
}

// The old immediate BUSY bounce is gone: with one runtime taken and queue
// room available, a second query waits its turn in the admission queue and
// completes — strictly after the first (one worker is FIFO), with the real
// wait surfaced as queue_latency in its report.
TEST(ServerTest, SecondQueryQueuesAndCompletesInOrder) {
  ServedFixture& fx = ServedFixture::Get();
  ServerOptions options;
  options.runtime = ServedConfig();
  options.max_concurrent_queries = 1;
  options.admission.queue_depth = 16;
  options.answer_cache_entries = 0;
  BlinkServer server(fx.db, options);
  ASSERT_TRUE(server.Start().ok());
  BlinkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  QueryFrame first;
  first.id = 601;
  first.sql = kLongSql;  // long scan: 602 must wait for the only runtime
  QueryFrame second;
  second.id = 602;
  second.sql = kGroupedSql;
  ASSERT_TRUE(client.SendRaw(EncodeQuery(first)).ok());
  ASSERT_TRUE(client.SendRaw(EncodeQuery(second)).ok());
  bool first_done = false;
  bool second_done = false;
  while (!first_done || !second_done) {
    auto frame = client.ReadOne();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_NE(frame->type, FrameType::kError) << "a queued query is never bounced";
    if (frame->type != FrameType::kFinal) {
      continue;
    }
    const FinalFrame& final_frame = std::get<FinalFrame>(frame->payload);
    if (final_frame.id == first.id) {
      EXPECT_FALSE(second_done) << "one worker serves FIFO: 601 finishes first";
      first_done = true;
    } else if (final_frame.id == second.id) {
      EXPECT_TRUE(first_done);
      // The wait was real, and the report decomposes it from execution time.
      EXPECT_GT(final_frame.report.queue_latency, 0.0);
      second_done = true;
    }
  }
}

// BUSY is reserved for a full admission queue. queue_depth = 0 restores the
// pre-queue bounce: the single runtime is taken, there is no waiting room,
// so the second query is rejected immediately.
TEST(ServerTest, QueueFullDrawsBusy) {
  ServedFixture& fx = ServedFixture::Get();
  ServerOptions options;
  options.runtime = ServedConfig();
  options.max_concurrent_queries = 1;
  options.admission.queue_depth = 0;
  options.answer_cache_entries = 0;
  BlinkServer server(fx.db, options);
  ASSERT_TRUE(server.Start().ok());
  BlinkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());

  QueryFrame first;
  first.id = 611;
  first.sql = kLongSql;  // long scan: still running when 612 arrives
  QueryFrame second;
  second.id = 612;
  second.sql = kGroupedSql;
  ASSERT_TRUE(client.SendRaw(EncodeQuery(first)).ok());
  ASSERT_TRUE(client.SendRaw(EncodeQuery(second)).ok());
  // Drain frames until both queries reached a terminal state, tracked by
  // frame id; the loop always terminates because every query ends in exactly
  // one FINAL or ERROR, whichever of the two was bounced.
  bool saw_busy = false;
  bool first_done = false;
  bool second_done = false;
  while (!first_done || !second_done) {
    auto frame = client.ReadOne();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type == FrameType::kError) {
      const ErrorFrame& error = std::get<ErrorFrame>(frame->payload);
      EXPECT_EQ(error.code, wire_error::kBusy);
      ASSERT_TRUE(error.has_id);
      EXPECT_EQ(error.id, second.id);
      saw_busy = true;
      (error.id == first.id ? first_done : second_done) = true;
    } else if (frame->type == FrameType::kFinal) {
      const FinalFrame& final_frame = std::get<FinalFrame>(frame->payload);
      if (final_frame.id == first.id) {
        first_done = true;
      } else if (final_frame.id == second.id) {
        second_done = true;  // 611 finished before 612 was read: no BUSY
      }
    }
  }
  EXPECT_TRUE(saw_busy)
      << "the first query completed before the server read the second QUERY; "
         "the queue-full rule was never exercised";
  EXPECT_GE(server.admission_stats().rejected, 1u);
}

// Ids name queries on the wire (CANCEL routing): reusing an id while the
// first query is still in flight is ambiguous and draws BUSY, without
// disturbing the running query.
TEST(ServerTest, DuplicateInFlightQueryIdDrawsBusy) {
  ServedFixture& fx = ServedFixture::Get();
  BlinkClient client;
  fx.Connect(client);
  QueryFrame first;
  first.id = 700;
  first.sql = kLongSql;
  QueryFrame duplicate;
  duplicate.id = 700;
  duplicate.sql = kGroupedSql;
  ASSERT_TRUE(client.SendRaw(EncodeQuery(first)).ok());
  ASSERT_TRUE(client.SendRaw(EncodeQuery(duplicate)).ok());
  bool saw_busy = false;
  bool saw_final = false;
  while (!saw_final) {
    auto frame = client.ReadOne();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    if (frame->type == FrameType::kError) {
      EXPECT_EQ(std::get<ErrorFrame>(frame->payload).code, wire_error::kBusy);
      saw_busy = true;
    } else if (frame->type == FrameType::kFinal) {
      EXPECT_EQ(std::get<FinalFrame>(frame->payload).id, first.id);
      saw_final = true;
    }
  }
  EXPECT_TRUE(saw_busy) << "the duplicate id was accepted while 700 was in flight";
}

// --- Answer cache over the wire ----------------------------------------------

// A second server over the same serving state with the answer cache ON (the
// shared fixture disables it so the cold-path assertions above stay valid).
struct CachedServedFixture {
  std::unique_ptr<BlinkServer> server;

  static CachedServedFixture& Get() {
    // Constructed after (so destroyed before) the ServedFixture whose db it
    // borrows; a real static so its server joins its threads at exit.
    static CachedServedFixture fixture;
    return fixture;
  }

  CachedServedFixture() {
    ServerOptions options;
    options.runtime = ServedConfig();
    options.max_concurrent_queries = 4;
    options.answer_cache_entries = 64;
    server = std::make_unique<BlinkServer>(ServedFixture::Get().db, options);
    EXPECT_TRUE(server->Start().ok());
  }

  void Connect(BlinkClient& client) {
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  }
};

TEST(ServerCacheTest, RepeatedBoundedQueryHitsWithZeroBlocksBitIdentically) {
  CachedServedFixture& fx = CachedServedFixture::Get();
  BlinkClient client;
  fx.Connect(client);

  std::vector<PartialFrame> cold_partials;
  auto cold = client.Query(kBoundedSql, [&cold_partials](const PartialFrame& partial) {
    cold_partials.push_back(partial);
  });
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->report.cache, "miss");
  EXPECT_GT(cold->report.blocks_consumed, 0u);
  ASSERT_GE(cold_partials.size(), 1u) << "the cold run streams";
  for (const PartialFrame& partial : cold_partials) {
    EXPECT_EQ(partial.cache, "miss");
    EXPECT_EQ(partial.effective_bound, 0.01);  // the statement's own bound
  }

  uint64_t hit_partials = 0;
  auto hit = client.Query(kBoundedSql, [&hit_partials](const PartialFrame&) {
    ++hit_partials;
  });
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(hit->report.cache, "hit");
  EXPECT_EQ(hit->report.blocks_consumed, 0u);  // no scan at all
  EXPECT_EQ(hit->report.rows_read, 0u);
  EXPECT_EQ(hit->report.blocks_reused, cold->report.blocks_consumed);
  EXPECT_EQ(hit_partials, 0u) << "a hit answers in one FINAL frame";
  ExpectIdentical(hit->result, cold->result, "cache hit");
  EXPECT_EQ(hit->report.achieved_error, cold->report.achieved_error);
  EXPECT_EQ(hit->report.family, cold->report.family);
  EXPECT_GE(fx.server->cache_stats().hits, 1u);
}

// Bound-independence: the cache key omits the bound, so a tighter re-ask of
// the same query resumes scanning from the cached prefix — and lands on the
// same bits a cold tight-bound run produces, because the consumed prefix is
// a deterministic function of block count alone.
TEST(ServerCacheTest, TighterBoundResumesFromCachedPrefix) {
  CachedServedFixture& fx = CachedServedFixture::Get();
  constexpr char kCoarseSql[] =
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_3' "
      "ERROR WITHIN 10% AT CONFIDENCE 95%";
  constexpr char kTightSql[] =
      "SELECT COUNT(*) FROM sessions WHERE country = 'country_3' "
      "ERROR WITHIN 1% AT CONFIDENCE 95%";
  auto direct = ServedFixture::Get().db.Query(kTightSql);  // cold, cache-free
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  BlinkClient client;
  fx.Connect(client);
  auto coarse = client.Query(kCoarseSql);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_EQ(coarse->report.cache, "miss");
  ASSERT_GT(coarse->report.blocks_consumed, 0u);
  ASSERT_LT(coarse->report.blocks_consumed, direct->report.blocks_consumed)
      << "the coarse bound must stop earlier for the resume to have work left";

  std::vector<PartialFrame> partials;
  auto resumed = client.Query(kTightSql, [&partials](const PartialFrame& partial) {
    partials.push_back(partial);
  });
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->report.cache, "resume");
  for (const PartialFrame& partial : partials) {
    EXPECT_EQ(partial.cache, "resume");
  }
  // Strictly fewer blocks this run; the reused prefix is credited.
  EXPECT_LT(resumed->report.blocks_consumed, direct->report.blocks_consumed);
  EXPECT_GE(resumed->report.blocks_reused, coarse->report.blocks_consumed);
  // Restore-then-advance lands on the cold run's bits exactly.
  ExpectIdentical(resumed->result, direct->result, "resume vs cold");
  EXPECT_EQ(resumed->report.achieved_error, direct->report.achieved_error);
}

// --- Cancellation ------------------------------------------------------------

TEST(ServerTest, CancelMidStreamEndsWithCancelledFinalAndServerKeepsServing) {
  ServedFixture& fx = ServedFixture::Get();

  // The cancel races the scan by design; retry a few times rather than
  // depending on scheduler timing. Every attempt must end in a clean FINAL
  // either way — that is itself part of the contract.
  bool cancelled_once = false;
  for (int attempt = 0; attempt < 5 && !cancelled_once; ++attempt) {
    BlinkClient client;
    fx.Connect(client);
    auto outcome = client.Query(kLongSql, [&client](const PartialFrame& partial) {
      if (partial.seq == 1) {
        EXPECT_TRUE(client.CancelActive().ok());
      }
    });
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (!outcome->report.cancelled) {
      continue;  // the query finished before the CANCEL landed; retry
    }
    cancelled_once = true;
    // The answer is the partial over the consumed prefix: strictly fewer
    // blocks than the plan had, and the report says so.
    ASSERT_EQ(outcome->report.pipeline_outcomes.size(), 1u);
    const PipelineOutcome& pipe = outcome->report.pipeline_outcomes[0];
    EXPECT_LT(pipe.blocks_consumed, pipe.blocks_total);
    EXPECT_TRUE(outcome->report.stopped_early);
    EXPECT_EQ(outcome->report.blocks_consumed, pipe.blocks_consumed);
    EXPECT_FALSE(outcome->result.rows.empty());

    // §4.4 regression: the cancelled query is charged for its consumed
    // prefix only — strictly less than the full (uncancelled) run of the
    // same query, and blocks_read reflects consumed blocks, not the plan.
    auto full = fx.db.Query(kLongSql);
    ASSERT_TRUE(full.ok());
    EXPECT_LT(outcome->report.blocks_consumed, full->report.blocks_consumed);
    EXPECT_LT(outcome->report.execution_latency, full->report.execution_latency);
    EXPECT_EQ(outcome->report.blocks_read, outcome->report.blocks_consumed);

    // The session survives its own cancel...
    auto next = client.Query(kGroupedSql);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_FALSE(next->report.cancelled);
  }
  EXPECT_TRUE(cancelled_once)
      << "CANCEL never landed mid-stream in 5 attempts; scan too fast?";

  // ...and so does the server as a whole.
  BlinkClient fresh;
  fx.Connect(fresh);
  auto sanity = fresh.Query(kBoundedSql);
  ASSERT_TRUE(sanity.ok()) << sanity.status().ToString();
}

TEST(ServerTest, CancelForUnknownQueryIsIgnored) {
  ServedFixture& fx = ServedFixture::Get();
  BlinkClient client;
  fx.Connect(client);
  CancelFrame cancel;
  cancel.id = 424242;
  ASSERT_TRUE(client.SendRaw(EncodeCancel(cancel)).ok());
  // No ERROR comes back; the session simply keeps working.
  auto outcome = client.Query(kGroupedSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->report.cancelled);
}

// Runtime-layer regression for the same §4.4 rule, without the wire: a
// cancel flag flipped after the first streamed round must leave the report
// charged for consumed blocks only.
TEST(RuntimeCancelTest, CancelReleasesUnconsumedBlocksFromCharging) {
  ServedFixture& fx = ServedFixture::Get();
  auto full = fx.db.Query(kLongSql);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->report.blocks_consumed, 0u);

  std::atomic<bool> cancel{false};
  uint64_t partials_seen = 0;
  auto answer = fx.db.Query(
      kLongSql,
      [&cancel, &partials_seen](const QueryResult&, const StreamProgress& progress) {
        if (!progress.final_batch && ++partials_seen == 1) {
          cancel.store(true);  // flip synchronously: lands at the next round
        }
      },
      &cancel);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_TRUE(answer->report.cancelled);
  EXPECT_TRUE(answer->report.stopped_early);
  EXPECT_LT(answer->report.blocks_consumed, full->report.blocks_consumed);
  EXPECT_EQ(answer->report.blocks_read, answer->report.blocks_consumed);
  // The consumed-block charge is what the cluster model bills: strictly
  // cheaper than the full run's, never the planned total.
  EXPECT_LT(answer->report.execution_latency, full->report.execution_latency);
  uint64_t outcome_sum = 0;
  for (const auto& pipe : answer->report.pipeline_outcomes) {
    outcome_sum += pipe.blocks_consumed;
  }
  EXPECT_EQ(answer->report.blocks_consumed, outcome_sum);
  // Bit-reproducibility of the cancel point: flipping the flag in the first
  // callback is synchronous, so the consumed prefix — and therefore the
  // partial answer — is deterministic.
  EXPECT_GT(answer->report.blocks_consumed, 0u);
}

// --- Transport faults --------------------------------------------------------

// A peer that dies mid-frame is distinguishable from a clean close: EOF
// between frames is an orderly end-of-stream (nullopt), EOF inside a frame's
// header or payload is DataLoss — the coordinator relies on the distinction
// to tell "worker finished" from "worker died".
TEST(NetTest, MidFrameEofIsDataLossNotCleanClose) {
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  OwnedFd reader(pair[0]);
  {
    OwnedFd writer(pair[1]);
    const char partial_header[2] = {0, 0};  // 2 of the 4 length bytes
    ASSERT_EQ(::send(writer.get(), partial_header, sizeof(partial_header), 0), 2);
  }  // close mid-header
  auto frame = ReadFrame(reader.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);

  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  OwnedFd reader2(pair[0]);
  {
    OwnedFd writer(pair[1]);
    const char header_then_half[6] = {0, 0, 0, 8, 'a', 'b'};  // 2 of 8 payload bytes
    ASSERT_EQ(::send(writer.get(), header_then_half, sizeof(header_then_half), 0), 6);
  }  // close mid-payload
  frame = ReadFrame(reader2.get());
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss);

  // Control: a close on a frame boundary is the orderly nullopt EOF.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  OwnedFd reader3(pair[0]);
  ::close(pair[1]);
  frame = ReadFrame(reader3.get());
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_FALSE(frame->has_value());
}

// --- Idle read timeout -------------------------------------------------------

// A half-open client (connected, greeted, then silent forever) is reaped by
// the idle read timeout — but only when the session has no query in flight:
// a paced query paused awaiting grants keeps its session alive indefinitely.
TEST(ServerIdleTest, IdleSessionsReapedButInFlightQueriesKeepSessionAlive) {
  ServedFixture& fx = ServedFixture::Get();
  ServerOptions options;
  options.runtime = ServedConfig();
  options.answer_cache_entries = 0;
  options.idle_read_timeout_seconds = 0.3;
  BlinkServer server(fx.db, options);
  ASSERT_TRUE(server.Start().ok());

  // Busy session: a paced query that pauses on its grant is outstanding
  // work, so the reaper must leave the session alone across idle periods
  // far past the timeout.
  auto busy = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(busy.ok());
  ASSERT_TRUE(WriteFrame(busy->get(), EncodeHello(HelloFrame{})).ok());
  auto greeting = ReadFrame(busy->get());
  ASSERT_TRUE(greeting.ok());
  ASSERT_TRUE(greeting->has_value());
  QueryFrame paced;
  paced.id = 1;
  paced.sql = kLongSql;
  paced.round_blocks = 4;
  paced.grant_blocks = 4;
  ASSERT_TRUE(WriteFrame(busy->get(), EncodeQuery(paced)).ok());
  auto first = ReadFrame(busy->get());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->has_value());

  // Idle session: greeted, then silent — reaped (clean EOF) once the
  // timeout elapses with nothing running.
  auto idle = ConnectTcp("127.0.0.1", server.port());
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(WriteFrame(idle->get(), EncodeHello(HelloFrame{})).ok());
  greeting = ReadFrame(idle->get());
  ASSERT_TRUE(greeting.ok());
  ASSERT_TRUE(greeting->has_value());
  auto reaped = ReadFrame(idle->get());  // blocks until the server closes
  ASSERT_TRUE(reaped.ok()) << reaped.status().ToString();
  EXPECT_FALSE(reaped->has_value());

  // The reaping above took > idle_read_timeout_seconds of wall time with no
  // frames from the busy client either; its paused query must still answer.
  ASSERT_TRUE(WriteFrame(busy->get(), EncodeCancel(CancelFrame{1})).ok());
  bool saw_final = false;
  for (int i = 0; i < 64 && !saw_final; ++i) {
    auto payload = ReadFrame(busy->get());
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    ASSERT_TRUE(payload->has_value()) << "session reaped despite in-flight query";
    auto frame = DecodeFrame(**payload);
    ASSERT_TRUE(frame.ok());
    if (frame->type == FrameType::kFinal) {
      EXPECT_TRUE(std::get<FinalFrame>(frame->payload).report.cancelled);
      saw_final = true;
    }
  }
  EXPECT_TRUE(saw_final);
  server.Stop();
}

}  // namespace
}  // namespace blink
