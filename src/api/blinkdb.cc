#include "src/api/blinkdb.h"

#include <utility>
#include <vector>

#include "src/sample/maintenance.h"
#include "src/sql/parser.h"
#include "src/util/logging.h"
#include "src/util/string_util.h"

namespace blink {

BlinkDB::BlinkDB(const BlinkDbOptions& options)
    : cluster_(options.cluster, EngineModel::For(options.engine)),
      runtime_(&samples_, &cluster_, options.runtime) {}

Status BlinkDB::RegisterTable(std::string name, Table table, double scale_factor) {
  return catalog_.AddTable(std::move(name), std::move(table), scale_factor,
                           /*is_dimension=*/false);
}

Status BlinkDB::RegisterDimensionTable(std::string name, Table table) {
  return catalog_.AddTable(std::move(name), std::move(table), /*scale_factor=*/1.0,
                           /*is_dimension=*/true);
}

Result<SamplePlan> BlinkDB::BuildSamples(const std::string& table_name,
                                         const std::vector<WorkloadTemplate>& workload,
                                         const PlannerConfig& config) {
  const TableEntry* entry = catalog_.Find(table_name);
  if (entry == nullptr) {
    return Status::NotFound("table '" + table_name + "' not registered");
  }
  if (entry->is_dimension) {
    return Status::FailedPrecondition("dimension tables are not sampled (§2.1)");
  }
  auto plan = PlanAndBuildSamples(entry->table, table_name, workload, config, samples_);
  if (plan.ok()) {
    // New families change which snapshots are valid even though the table
    // contents did not: invalidate cached answers keyed on the old generation.
    catalog_.BumpGeneration(table_name);
    last_planner_config_ = config;
    last_workload_ = workload;
    last_planned_table_ = table_name;
    if (entry->compressed) {
      // Compression is sticky (CompressStorage ran before this build): encode
      // the freshly built families so scans stay on the compressed path.
      for (SampleFamily* family : samples_.MutableFamiliesFor(table_name)) {
        BLINK_RETURN_IF_ERROR(family->EncodeBlocks(entry->encode_options));
      }
    }
  }
  return plan;
}

Status BlinkDB::CompressStorage(const std::string& table_name,
                                const BlockEncodeOptions& options) {
  BLINK_RETURN_IF_ERROR(catalog_.CompressTable(table_name, options));
  for (SampleFamily* family : samples_.MutableFamiliesFor(table_name)) {
    BLINK_RETURN_IF_ERROR(family->EncodeBlocks(options));
  }
  return Status::Ok();
}

Result<BlinkDB::ResolvedTables> BlinkDB::Resolve(const SelectStatement& stmt) const {
  ResolvedTables tables;
  tables.fact = catalog_.Find(stmt.table);
  if (tables.fact == nullptr) {
    return Status::NotFound("table '" + stmt.table + "' not registered");
  }
  if (stmt.join.has_value()) {
    tables.dim = catalog_.Find(stmt.join->table);
    if (tables.dim == nullptr) {
      return Status::NotFound("joined table '" + stmt.join->table + "' not registered");
    }
  }
  return tables;
}

Result<ApproxAnswer> BlinkDB::Query(std::string_view sql) const {
  return Query(sql, ProgressCallback{});
}

Result<ApproxAnswer> BlinkDB::Query(std::string_view sql, ProgressCallback progress) const {
  return Query(sql, std::move(progress), /*cancel=*/nullptr);
}

Result<ApproxAnswer> BlinkDB::Query(std::string_view sql, ProgressCallback progress,
                                    const std::atomic<bool>* cancel) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  auto tables = Resolve(*stmt);
  if (!tables.ok()) {
    return tables.status();
  }
  // A live table (pinned ingest runs) executes over the level set pinned
  // here — appends landing after this point are invisible to this query.
  // `pinned` owns the snapshot keeping the runs alive across the call.
  const auto pinned = PinLevels(stmt->table);
  const std::vector<LevelScan> no_levels;
  return runtime_.Execute(*stmt, tables->fact->name, tables->fact->table,
                          tables->fact->scale_factor,
                          pinned.has_value() ? pinned->levels : no_levels,
                          tables->dim != nullptr ? &tables->dim->table : nullptr,
                          std::move(progress), cancel);
}

Result<ApproxAnswer> BlinkDB::QueryExact(std::string_view sql) const {
  auto stmt = ParseSelect(sql);
  if (!stmt.ok()) {
    return stmt.status();
  }
  auto tables = Resolve(*stmt);
  if (!tables.ok()) {
    return tables.status();
  }
  // Ground truth over a live table covers the pinned runs too: flatten the
  // base table plus every run into one exact scan.
  const Table* exact_table = &tables->fact->table;
  Table flattened;
  const auto pinned = PinLevels(stmt->table);
  if (pinned.has_value()) {
    flattened = Table(tables->fact->table.schema());
    BLINK_RETURN_IF_ERROR(LeveledStore::AppendRows(flattened, tables->fact->table));
    for (const auto& run : pinned->snapshot.runs) {
      BLINK_RETURN_IF_ERROR(LeveledStore::AppendRows(flattened, *run->rows));
    }
    exact_table = &flattened;
  }
  auto result = ExecuteQuery(
      *stmt, Dataset::Exact(*exact_table),
      tables->dim != nullptr ? &tables->dim->table : nullptr);
  if (!result.ok()) {
    return result.status();
  }
  ApproxAnswer answer{std::move(result.value()), {}};
  answer.report.family = "exact";
  answer.report.rows_read = exact_table->num_rows();
  QueryWorkload workload;
  workload.input_bytes = tables->fact->logical_bytes();
  workload.want_cached = true;
  answer.report.execution_latency = cluster_.EstimateLatency(workload);
  answer.report.total_latency = answer.report.execution_latency;
  return answer;
}

Status BlinkDB::ConfigureIngest(const std::string& table_name,
                                LeveledStoreOptions options) {
  const TableEntry* entry = catalog_.Find(table_name);
  if (entry == nullptr) {
    return Status::NotFound("table '" + table_name + "' not registered");
  }
  if (entry->is_dimension) {
    return Status::FailedPrecondition("dimension tables do not take appends (§2.1)");
  }
  std::vector<FamilyShape> shapes;
  for (const SampleFamily* family : samples_.FamiliesFor(table_name)) {
    shapes.push_back(FamilyShape{family->kind(), family->columns()});
  }
  const std::string key = AsciiToLower(table_name);
  std::lock_guard<std::mutex> lock(levels_mu_);
  if (levels_.count(key) != 0) {
    return Status::FailedPrecondition("ingest already configured for '" + table_name +
                                      "'");
  }
  levels_.emplace(key, std::make_unique<LeveledStore>(
                           entry->table.schema(), std::move(shapes),
                           std::move(options), [this, name = entry->name] {
                             catalog_.BumpGeneration(name);
                           }));
  return Status::Ok();
}

Result<LeveledStore*> BlinkDB::GetOrCreateLevels(const std::string& table_name) {
  {
    std::lock_guard<std::mutex> lock(levels_mu_);
    const auto it = levels_.find(AsciiToLower(table_name));
    if (it != levels_.end()) {
      return it->second.get();
    }
  }
  // First append with no explicit ConfigureIngest: defaults, with family
  // shapes mirroring whatever samples the table has and compression matching
  // its CompressStorage choice.
  const TableEntry* entry = catalog_.Find(table_name);
  if (entry == nullptr) {
    return Status::NotFound("table '" + table_name + "' not registered");
  }
  LeveledStoreOptions options;
  if (entry->compressed) {
    options.encode = entry->encode_options;
  }
  BLINK_RETURN_IF_ERROR(ConfigureIngest(table_name, std::move(options)));
  std::lock_guard<std::mutex> lock(levels_mu_);
  return levels_.find(AsciiToLower(table_name))->second.get();
}

Result<uint64_t> BlinkDB::Append(const std::string& table_name, Table rows) {
  auto store = GetOrCreateLevels(table_name);
  if (!store.ok()) {
    return store.status();
  }
  return store.value()->Append(std::move(rows));
}

Result<bool> BlinkDB::MaintenanceTick(const std::string& table_name) {
  std::unique_lock<std::mutex> lock(levels_mu_);
  const auto it = levels_.find(AsciiToLower(table_name));
  if (it == levels_.end()) {
    return false;
  }
  LeveledStore* store = it->second.get();
  lock.unlock();  // merges are slow; the store synchronizes itself
  return store->MaintenanceTick();
}

const LeveledStore* BlinkDB::Levels(const std::string& table_name) const {
  std::lock_guard<std::mutex> lock(levels_mu_);
  const auto it = levels_.find(AsciiToLower(table_name));
  return it == levels_.end() ? nullptr : it->second.get();
}

std::optional<BlinkDB::PinnedLevels> BlinkDB::PinLevels(
    const std::string& table_name) const {
  const LeveledStore* store = Levels(table_name);
  if (store == nullptr) {
    return std::nullopt;
  }
  PinnedLevels pinned;
  pinned.snapshot = store->Pin();
  if (pinned.snapshot.runs.empty()) {
    return std::nullopt;
  }
  pinned.levels.reserve(pinned.snapshot.runs.size());
  for (const auto& run : pinned.snapshot.runs) {
    LevelScan scan;
    scan.rows = run->rows.get();
    scan.families.reserve(run->families.size());
    for (const auto& family : run->families) {
      scan.families.push_back(family.get());
    }
    scan.label = "run" + std::to_string(run->id) + "@L" + std::to_string(run->level);
    pinned.levels.push_back(std::move(scan));
  }
  pinned.fingerprint = pinned.snapshot.Fingerprint();
  if (const TableEntry* entry = catalog_.Find(table_name)) {
    pinned.generation = entry->generation;
  }
  return pinned;
}

Result<int> BlinkDB::AppendAndMaintain(const std::string& table_name,
                                       const Table& new_rows, double drift_threshold) {
  const TableEntry* entry = catalog_.Find(table_name);
  if (entry == nullptr) {
    return Status::NotFound("table '" + table_name + "' not registered");
  }
  // Append the new rows.
  Table merged(entry->table.schema());
  merged.Reserve(entry->table.num_rows() + new_rows.num_rows());
  for (const Table* src : {&entry->table, &new_rows}) {
    for (uint64_t r = 0; r < src->num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(src->num_columns());
      for (size_t c = 0; c < src->num_columns(); ++c) {
        row.push_back(src->GetValue(c, r));
      }
      BLINK_RETURN_IF_ERROR(merged.AppendRow(row));
    }
  }
  BLINK_RETURN_IF_ERROR(catalog_.ReplaceTable(table_name, std::move(merged)));
  const TableEntry* updated = catalog_.Find(table_name);

  // Check each family for drift; rebuild the drifted ones (§4.5).
  int rebuilt = 0;
  Rng rng(0xb11dbULL);
  SampleFamilyOptions options;
  options.largest_cap = last_planner_config_.cap_k;
  options.resolution_factor = last_planner_config_.resolution_factor;
  options.max_resolutions = last_planner_config_.max_resolutions;
  options.uniform_fraction = last_planner_config_.uniform_fraction > 0.0
                                 ? last_planner_config_.uniform_fraction
                                 : 0.5;
  std::vector<const SampleFamily*> families = samples_.FamiliesFor(table_name);
  for (const SampleFamily* family : families) {
    auto drift = CheckDrift(*family, updated->table, drift_threshold);
    if (!drift.ok()) {
      return drift.status();
    }
    if (!drift->needs_refresh) {
      continue;
    }
    auto fresh = RebuildFamily(*family, updated->table, options, rng);
    if (!fresh.ok()) {
      return fresh.status();
    }
    if (updated->compressed) {
      BLINK_RETURN_IF_ERROR(fresh->EncodeBlocks(updated->encode_options));
    }
    const bool is_uniform = family->kind() == SampleFamily::Kind::kUniform;
    if (is_uniform) {
      samples_.RemoveUniform(table_name);
    } else {
      samples_.RemoveFamily(table_name, family->columns());
    }
    samples_.AddFamily(table_name, std::move(fresh.value()));
    ++rebuilt;
    BLINK_LOG(kInfo) << "rebuilt " << (is_uniform ? "uniform" : "stratified")
                     << " family for '" << table_name << "'";
  }
  return rebuilt;
}

}  // namespace blink
