// Error-aware answer cache: consumed-prefix snapshots keyed by query shape.
//
// BlinkDB's §4.4 insight — work done for one query prefix is reusable — is
// generalized here ACROSS queries: a bounded query that streamed k blocks of
// a sample leaves behind its per-pipeline running accumulators and n_h(prefix)
// tallies. A later query with the same shape (table generation, canonical
// predicate, group/aggregate shape) either
//   - HIT: the cached answer's achieved error already meets the incoming
//     bound (or the cached scan is complete) → serve the stored FINAL
//     instantly, consuming zero blocks, or
//   - RESUME: seed fresh ScanPipelines with the snapshots and stream on from
//     block k instead of block 0 (strictly fewer blocks than cold), or
//   - MISS: execute cold and (when cacheable) insert the exported state.
//
// Correctness rests on two invariants:
//   1. A pipeline's accumulators depend only on its consumed block count
//      (src/plan/scan_pipeline.h), so restore-then-advance is bit-identical
//      to a cold scan of the same prefix.
//   2. Error-bounded streamed scans always run over the family's largest
//      resolution (LogicalSample(0)), so the snapshot's dataset does not
//      depend on the bound — one snapshot serves every future bound.
// Staleness is handled by keying on the table's catalog generation, which
// every mutation (ReplaceTable / CompressStorage / BuildSamples /
// AppendAndMaintain) bumps.
#ifndef BLINKDB_CACHE_ANSWER_CACHE_H_
#define BLINKDB_CACHE_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/exec/executor.h"
#include "src/plan/scan_pipeline.h"
#include "src/sql/ast.h"

namespace blink {

// How a lookup was ultimately served; rendered into the wire frames' `cache`
// field ("hit" / "resume" / "miss", empty when no cache is configured).
enum class CacheOutcome { kMiss, kResume, kHit };

const char* CacheOutcomeName(CacheOutcome outcome);

// One pipeline's reusable execution state: enough to rebuild its PipelineSpec
// against the same sample family and seed the scan at the cached prefix.
struct CachedPipeline {
  // The conjunctive sub-statement the pipeline executed (for union plans the
  // DNF disjunct with the combiner's helper COUNT already appended).
  SelectStatement stmt;
  // Which family the scan ran over, by store identity (re-looked-up at resume
  // so a dropped family turns the entry into a miss).
  bool is_uniform = false;
  std::vector<std::string> family_columns;  // stratified key, lower + sorted
  std::string family_name;                  // display name for the report
  size_t resolution = 0;                    // LogicalSample index scanned
  // Consumed-prefix state; null when the pipeline was answered by a §4.4
  // probe (then `precomputed` carries the reusable answer instead).
  std::shared_ptr<const PipelineSnapshot> snapshot;
  std::shared_ptr<const QueryResult> precomputed;
};

// A cached answer: the FINAL served on a hit plus the per-pipeline state a
// near-miss resumes from. Immutable once inserted (shared_ptr<const>).
struct CacheEntry {
  QueryResult result;           // the combined FINAL answer
  double result_confidence = 0.95;  // confidence the entry was computed at
  bool complete = false;        // every pipeline consumed its whole dataset
  bool resumable = false;       // every pipeline carries a snapshot
  uint64_t blocks_consumed = 0;  // totals across pipelines, for reuse credit
  uint64_t blocks_total = 0;
  uint64_t rows_consumed = 0;
  // Report fields a hit reproduces without re-planning.
  std::string family;
  size_t resolution = 0;
  uint64_t cap = 0;
  double projected_error = 0.0;
  size_t num_subqueries = 1;
  bool rewrite_fallback = false;
  std::vector<CachedPipeline> pipelines;
};

struct AnswerCacheStats {
  uint64_t hits = 0;
  uint64_t resumes = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
};

// Bounded, sharded LRU. Thread-safe: lookups and inserts from concurrent
// sessions take only the shard's mutex; entries are shared immutably.
class AnswerCache {
 public:
  explicit AnswerCache(size_t capacity = 256, size_t num_shards = 8);

  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  // Returns the entry (refreshing its LRU position) or null.
  std::shared_ptr<const CacheEntry> Lookup(const std::string& key);

  // Inserts or replaces; evicts the shard's LRU tail past capacity.
  void Insert(const std::string& key, std::shared_ptr<const CacheEntry> entry);

  // Called by the runtime once a lookup's outcome is known.
  void RecordOutcome(CacheOutcome outcome);

  AnswerCacheStats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<std::pair<std::string, std::shared_ptr<const CacheEntry>>> lru;
    std::unordered_map<std::string,
                       std::list<std::pair<std::string, std::shared_ptr<const CacheEntry>>>::
                           iterator>
        index;
  };

  Shard& ShardFor(const std::string& key);

  size_t capacity_;   // total entries across shards
  size_t per_shard_;  // per-shard bound (capacity split evenly, rounded up)
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> resumes_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
};

// The cache key for a statement over a table at a catalog generation. Keyed
// on everything that determines the ANSWER and the SCAN DECOMPOSITION:
// table + generation, morsel size, storage path flags, join, select shape
// (aggregates, aliases, error columns), GROUP BY, HAVING, and the WHERE
// clause's order-insensitive Predicate::CanonicalString. Deliberately
// EXCLUDED: the error bound and confidence — error-bounded streamed scans
// over a family always consume its largest resolution in prefix order, so
// one snapshot serves every bound, and confidence only parameterizes error
// rendering (never the estimates themselves). A live table's key ends with
// its pinned snapshot fingerprint (`snapshot_fingerprint`, empty for a flat
// table), so two different level sets never share an entry.
std::string AnswerCacheKey(const SelectStatement& stmt, uint64_t table_generation,
                           uint32_t morsel_rows, bool compressed_scan,
                           bool filter_encoded_views,
                           std::string_view snapshot_fingerprint = {});

}  // namespace blink

#endif  // BLINKDB_CACHE_ANSWER_CACHE_H_
