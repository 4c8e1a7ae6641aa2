// BlinkDB public API — the facade a downstream application uses.
//
//   BlinkDB db;                                    // default 100-node cluster
//   db.RegisterTable("sessions", std::move(t));
//   db.BuildSamples("sessions", workload, config); // offline sampling (§3)
//   auto answer = db.Query(
//       "SELECT COUNT(*) FROM sessions WHERE genre = 'western' "
//       "GROUP BY os ERROR WITHIN 10% AT CONFIDENCE 95%");
//   // answer->result: estimates with error bars; answer->report: the
//   // sample/resolution chosen, the ELP, simulated latencies, and — for
//   // §4.1.2 union plans — per-pipeline outcomes (blocks consumed, scheduler
//   // rounds granted, each pipeline's share of the joint error) under the
//   // configured schedule_mode (adaptive error-attributed by default).
#ifndef BLINKDB_API_BLINKDB_H_
#define BLINKDB_API_BLINKDB_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/catalog/catalog.h"
#include "src/cluster/cluster_model.h"
#include "src/optimizer/sample_planner.h"
#include "src/runtime/query_runtime.h"
#include "src/sample/leveled_store.h"
#include "src/sample/sample_store.h"

namespace blink {

struct BlinkDbOptions {
  ClusterConfig cluster;
  EngineKind engine = EngineKind::kBlinkDb;
  RuntimeConfig runtime;
};

class BlinkDB {
 public:
  BlinkDB() : BlinkDB(BlinkDbOptions{}) {}
  explicit BlinkDB(const BlinkDbOptions& options);

  // The runtime holds pointers to sibling members; pin the object.
  BlinkDB(const BlinkDB&) = delete;
  BlinkDB& operator=(const BlinkDB&) = delete;
  BlinkDB(BlinkDB&&) = delete;
  BlinkDB& operator=(BlinkDB&&) = delete;

  // Registers a fact table. `scale_factor` maps the in-memory stand-in to
  // paper-scale bytes for the latency model (1.0 = data is its real size).
  Status RegisterTable(std::string name, Table table, double scale_factor = 1.0);

  // Registers a dimension table (exact, never sampled; join target per §2.1).
  Status RegisterDimensionTable(std::string name, Table table);

  // Runs the offline sample-creation pipeline (§3): optimizes the choice of
  // stratified families for the workload under the budget and builds them.
  Result<SamplePlan> BuildSamples(const std::string& table_name,
                                  const std::vector<WorkloadTemplate>& workload,
                                  const PlannerConfig& config);

  // Answers a SQL query with optional ERROR/TIME bounds from the best sample.
  Result<ApproxAnswer> Query(std::string_view sql) const;

  // Same, with a progress/partial-answer callback: during a streamed bounded
  // execution, `progress` is invoked after every round of blocks with the
  // running partial answer, its achieved error, and the scan position. For
  // bounded disjunctive queries the plan streams too: the callback receives
  // the COMBINED §4.1.2 union partial across all pipelines, with block/row
  // totals aggregated over them. Every successful query ends with exactly
  // one final_batch invocation carrying the final answer — paths that never
  // stream (unbounded queries, exact fallback, probe reuse) fire just that
  // completion call. The QueryResult reference passed to the callback is
  // only valid during the call.
  Result<ApproxAnswer> Query(std::string_view sql, ProgressCallback progress) const;

  // Same, with a cooperative cancellation flag — the in-process form of the
  // wire protocol's CANCEL (src/server/, docs/PROTOCOL.md). `cancel` may be
  // flipped to true from any thread; the plan driver checks it at every
  // round boundary and, once set, stops scanning and returns the best
  // partial answer over the consumed prefixes with
  // ExecutionReport::cancelled set. Per the §4.4 early-stopping rule, only
  // blocks actually consumed are charged to the cluster model — a cancelled
  // query never pays for the blocks it released. The flag is only read;
  // passing null degenerates to the two-argument overload.
  Result<ApproxAnswer> Query(std::string_view sql, ProgressCallback progress,
                             const std::atomic<bool>* cancel) const;

  // Ground truth: executes on the full table (no sampling). Latency is
  // reported for the configured engine on the full data.
  Result<ApproxAnswer> QueryExact(std::string_view sql) const;

  // --- Streaming ingest (src/sample/leveled_store.h) -----------------------
  //
  // Append() seals each batch as an immutable level-0 run of the table's
  // leveled store; queries union the pinned runs with the base table as
  // extra plan pipelines. MaintenanceTick() (or the background thread, when
  // ConfigureIngest enables one) compacts runs into leveled merged runs and
  // rebuilds sample families over them. Every publication bumps the table's
  // catalog generation, so cached answers over a stale level set never
  // serve. A query pins the level set it starts with: appends and merges
  // landing mid-query are invisible to it (snapshot isolation).

  // Installs a leveled store for the table with explicit options (merge
  // fanout, sampling threshold, seeds, background cadence). Optional:
  // Append() creates a store with defaults — family shapes mirroring the
  // table's built samples, compression matching CompressStorage — on first
  // use. Fails if the table is unknown, is a dimension table, or already has
  // a configured store.
  Status ConfigureIngest(const std::string& table_name, LeveledStoreOptions options);

  // Appends `rows` as one sealed level-0 run. Thread-safe against concurrent
  // queries, appends, and maintenance. Returns the store's manifest version
  // after publication.
  Result<uint64_t> Append(const std::string& table_name, Table rows);

  // Runs one merge step of the table's leveled store; returns whether a
  // merge happened. False when the table has no store or no level is due.
  // The deterministic test-driven alternative to the background thread.
  Result<bool> MaintenanceTick(const std::string& table_name);

  // The table's leveled store, or null if ingest was never used.
  const LeveledStore* Levels(const std::string& table_name) const;

  // A pinned level set, ready to execute against: the snapshot that keeps
  // the runs alive, the LevelScan views QueryRuntime::Execute scans as
  // `levels`, the snapshot fingerprint (part of the answer-cache key), and
  // the table generation observed at pin time. Keep it alive across the
  // Execute call.
  struct PinnedLevels {
    LeveledStore::Snapshot snapshot;
    std::vector<LevelScan> levels;
    std::string fingerprint;
    uint64_t generation = 0;
  };
  // Pins the table's current level set; nullopt when the table has no
  // leveled store or no runs (queries then take the flat path).
  std::optional<PinnedLevels> PinLevels(const std::string& table_name) const;

  // Ingests new data for a table and refreshes its samples when their
  // distribution drifted (§4.5 maintenance loop). Returns the number of
  // families rebuilt. Rebuilt families are re-encoded when the table is
  // compressed, so CompressStorage survives maintenance. This is the legacy
  // synchronous rebuild-the-world path; Append() is the streaming one.
  Result<int> AppendAndMaintain(const std::string& table_name, const Table& new_rows,
                                double drift_threshold = 0.1);

  // Builds compressed columnar block storage for the table AND every sample
  // family already built on it. Idempotent; call after BuildSamples. The
  // choice is sticky: families built or rebuilt later (BuildSamples,
  // AppendAndMaintain, ReplaceTable) are encoded automatically. Scans then
  // decode blocks into scratch buffers instead of reading raw columns;
  // answers are bit-identical (every block is verified against the raw
  // column at encode time) and ExecutionReport::bytes_scanned reflects the
  // encoded footprint.
  Status CompressStorage(const std::string& table_name,
                         const BlockEncodeOptions& options = {});

  const Catalog& catalog() const { return catalog_; }
  const SampleStore& samples() const { return samples_; }
  SampleStore& samples() { return samples_; }
  const ClusterModel& cluster() const { return cluster_; }

  // The catalog entries a parsed statement executes against: the fact table
  // plus the joined dimension table (null when the statement has no join).
  // Shared by Query/QueryExact and the streaming server's sessions, so
  // resolution rules and their error messages cannot diverge between the
  // in-process and over-the-wire paths.
  struct ResolvedTables {
    const TableEntry* fact = nullptr;
    const TableEntry* dim = nullptr;
  };
  Result<ResolvedTables> Resolve(const SelectStatement& stmt) const;

 private:
  // Returns the table's leveled store, creating one with default options on
  // first use (shapes mirror the table's built families; compression follows
  // the entry's CompressStorage choice). Caller holds no locks.
  Result<LeveledStore*> GetOrCreateLevels(const std::string& table_name);

  Catalog catalog_;
  SampleStore samples_;
  ClusterModel cluster_;
  QueryRuntime runtime_;
  PlannerConfig last_planner_config_;
  std::vector<WorkloadTemplate> last_workload_;
  std::string last_planned_table_;
  // Leveled ingest stores, keyed by lower-cased table name. The map only
  // grows (stores live for the BlinkDB's lifetime), so a pointer handed out
  // under the mutex stays valid after it is released.
  mutable std::mutex levels_mu_;
  std::unordered_map<std::string, std::unique_ptr<LeveledStore>> levels_;
};

}  // namespace blink

#endif  // BLINKDB_API_BLINKDB_H_
