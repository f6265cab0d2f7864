#include "cache/result_cache.h"

#include <algorithm>
#include <numeric>
#include <set>
#include <utility>

#include "expr/pred_program.h"

namespace rqp {

namespace {

/// FNV-1a 64-bit, folded over one int64 at a time.
uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Strips the `table.` qualifier from a spec slot; false when the slot is
/// not a column of `table`.
bool UnqualifySlot(const std::string& slot, const std::string& table,
                   std::string* column) {
  const std::string prefix = table + ".";
  if (slot.rfind(prefix, 0) != 0) return false;
  *column = slot.substr(prefix.size());
  return true;
}

}  // namespace

uint64_t ResultCache::Checksum(const std::vector<RowBatch>& batches) {
  uint64_t h = 1469598103934665603ULL;
  for (const RowBatch& b : batches) {
    h = FnvMix(h, b.num_cols());
    h = FnvMix(h, b.num_rows());
    for (int64_t cell : b.data()) h = FnvMix(h, static_cast<uint64_t>(cell));
  }
  return h;
}

ResultCache::Snapshot ResultCache::TakeSnapshot(const QuerySpec& spec,
                                                const Catalog& catalog) {
  std::set<std::string> names;
  for (const auto& t : spec.tables) names.insert(t.table);
  Snapshot snap;
  snap.reserve(names.size());
  for (const std::string& name : names) {
    auto table_or = catalog.GetTable(name);
    if (!table_or.ok()) continue;  // the query itself will fail
    const Table* t = table_or.value();
    snap.push_back(TableEpoch{name, t->append_epoch(), t->reload_epoch(),
                              t->num_rows()});
  }
  return snap;
}

ResultCache::MaintenanceInfo ResultCache::AnalyzeMaintenance(
    const QuerySpec& spec, const Catalog& catalog,
    const std::vector<RowBatch>& batches) {
  MaintenanceInfo info;
  // Patchable shape: one base table, no joins, and an aggregation node
  // (group-by and/or aggregates). Aggregation is what makes the delta fold
  // order-insensitive — HashAgg emits groups in key order regardless of
  // input order, so patched output can match a recompute byte-for-byte.
  // Non-aggregate results are order-sensitive (an index scan emits key
  // order, not append order) and are invalidated instead.
  if (spec.tables.size() != 1 || !spec.joins.empty()) return info;
  if (spec.aggregates.empty() && spec.group_by.empty()) return info;
  // Derived columns run through the expression VM above the scan; folding a
  // delta here would skip their evaluation (and any runtime error a
  // recompute would raise), so such results are invalidated, not patched.
  if (!spec.derived.empty()) return info;
  auto table_or = catalog.GetTable(spec.tables[0].table);
  if (!table_or.ok()) return info;
  const Table* t = table_or.value();

  std::vector<size_t> group_cols;
  for (const auto& slot : spec.group_by) {
    std::string column;
    if (!UnqualifySlot(slot, t->name(), &column)) return info;
    auto idx = t->ColumnIndex(column);
    if (!idx.ok()) return info;
    group_cols.push_back(idx.value());
  }
  std::vector<size_t> agg_cols;
  for (const auto& a : spec.aggregates) {
    if (a.fn == AggFn::kCount) {
      agg_cols.push_back(0);  // COUNT reads no input cell
      continue;
    }
    std::string column;
    if (!UnqualifySlot(a.slot, t->name(), &column)) return info;
    auto idx = t->ColumnIndex(column);
    if (!idx.ok()) return info;
    agg_cols.push_back(idx.value());
  }

  // The cached layout must be [group keys..., accumulators...] with group
  // keys in strictly ascending key order — the in-memory HashAgg emit
  // order. A result that spilled may have been emitted in partition order;
  // verifying sortedness here (instead of trusting the operator) keeps the
  // patched re-emit byte-identical to a recompute.
  const size_t cols = group_cols.size() + spec.aggregates.size();
  int64_t total_rows = 0;
  const int64_t* prev = nullptr;
  for (const RowBatch& b : batches) {
    if (b.num_cols() != cols) return info;
    for (size_t r = 0; r < b.num_rows(); ++r) {
      const int64_t* row = b.row(r);
      if (prev != nullptr && !group_cols.empty() &&
          !std::lexicographical_compare(prev, prev + group_cols.size(), row,
                                        row + group_cols.size())) {
        return info;
      }
      prev = row;
      ++total_rows;
    }
  }
  // A scalar aggregate is exactly one row (even over empty input).
  if (group_cols.empty() && total_rows != 1) return info;

  info.maintainable = true;
  info.table = t->name();
  info.predicate = spec.tables[0].predicate;
  if (info.predicate != nullptr && HasParams(info.predicate)) {
    info.predicate = BindParams(info.predicate, spec.params);
  }
  info.group_cols = std::move(group_cols);
  info.aggs = spec.aggregates;
  info.agg_cols = std::move(agg_cols);
  return info;
}

void ResultCache::EraseLocked(const std::string& key) {
  Entry* e = entries_.Get(key);
  if (e == nullptr) return;
  grant_.Shrink(e->pages);
  entries_.Erase(key);
}

bool ResultCache::EvictOldestLocked() {
  std::string key;
  Entry victim;
  if (!entries_.EvictOldest(&key, &victim)) return false;
  grant_.Shrink(victim.pages);
  ++stats_.evictions;
  return true;
}

bool ResultCache::ReserveLocked(int64_t pages, size_t min_keep) {
  while (!grant_.TryGrow(pages)) {
    if (entries_.size() <= min_keep) return false;
    EvictOldestLocked();
  }
  return true;
}

bool ResultCache::Lookup(const std::string& key, const Catalog& catalog,
                         FaultInjector* faults, Hit* hit) {
  *hit = Hit{};
  std::lock_guard<std::mutex> lock(mu_);
  Entry* entry = entries_.Get(key);
  if (entry == nullptr) {
    ++stats_.misses;
    return false;
  }

  // Fault injection: a scheduled corruption damages the entry *before* the
  // checksum runs, exercising the real detection path. Copy-on-corrupt —
  // a Hit handed out earlier shares the old batch vector and must keep
  // seeing intact data.
  if (faults != nullptr && faults->DrawCacheCorruption()) {
    auto damaged = std::make_shared<std::vector<RowBatch>>(*entry->batches);
    bool flipped = false;
    for (RowBatch& b : *damaged) {
      if (!b.mutable_data().empty()) {
        b.mutable_data()[0] ^= int64_t{1} << 17;
        flipped = true;
        break;
      }
    }
    entry->batches = std::move(damaged);
    // An empty result has no cell to flip; damage the stored checksum
    // instead (torn metadata) so detection still fires.
    if (!flipped) entry->checksum ^= 0x9E3779B97F4A7C15ULL;
  }

  if (Checksum(*entry->batches) != entry->checksum) {
    ++stats_.corruptions_detected;
    ++stats_.misses;
    EraseLocked(key);
    return false;
  }

  // Freshness: any reload-epoch change (or row growth unexplained by
  // appends) invalidates; pure appends are measured as the delta.
  int64_t append_delta = 0;
  bool invalid = false;
  for (const TableEpoch& te : entry->snapshot) {
    auto table_or = catalog.GetTable(te.table);
    if (!table_or.ok()) {
      invalid = true;
      break;
    }
    const Table* t = table_or.value();
    const int64_t ad = t->append_epoch() - te.append_epoch;
    if (t->reload_epoch() != te.reload_epoch || ad < 0 ||
        t->num_rows() - te.rows != ad) {
      invalid = true;
      break;
    }
    append_delta += ad;
  }
  if (invalid) {
    ++stats_.invalidations;
    ++stats_.misses;
    EraseLocked(key);
    return false;
  }

  if (append_delta > options_.max_staleness) {
    if (!entry->maint.maintainable) {
      ++stats_.invalidations;
      ++stats_.misses;
      EraseLocked(key);
      return false;
    }
    if (!PatchLocked(key, entry, catalog, hit)) {
      ++stats_.misses;
      return false;
    }
    ++stats_.patched_hits;
  } else if (append_delta > 0) {
    hit->stale = true;
    ++stats_.stale_hits;
  }

  hit->batches = entry->batches;
  hit->slots = entry->slots;
  hit->rows = entry->rows;
  // A hit costs only the re-emit work: one row_cpu per served row (the
  // patch charges, if any, were added by PatchLocked).
  hit->rows_processed += entry->rows;
  hit->cost_units += options_.cost_model.row_cpu * entry->rows;
  ++stats_.hits;
  return true;
}

bool ResultCache::PatchLocked(const std::string& key, Entry* entry,
                              const Catalog& catalog, Hit* hit) {
  const MaintenanceInfo& m = entry->maint;
  auto table_or = catalog.GetTable(m.table);
  if (!table_or.ok()) {
    ++stats_.invalidations;
    EraseLocked(key);
    return false;
  }
  const Table* t = table_or.value();
  const TableEpoch* snap = nullptr;
  for (const TableEpoch& te : entry->snapshot) {
    if (te.table == m.table) snap = &te;
  }
  if (snap == nullptr || t->num_rows() < snap->rows) {
    ++stats_.invalidations;
    EraseLocked(key);
    return false;
  }

  const size_t groups = m.group_cols.size();
  const size_t naggs = m.aggs.size();

  // Decode the cached result into a FlatGroups, one partial per group...
  FlatGroups state;
  state.Reset(groups, naggs);
  for (const RowBatch& b : *entry->batches) {
    for (size_t r = 0; r < b.num_rows(); ++r) {
      const int64_t* row = b.row(r);
      AggFoldPartial(m.aggs, row + groups, state.UpsertAcc(row, m.aggs));
    }
  }

  // ...fold the delta rows in (the same AggFoldInput as HashAggOp, so the
  // patched cells match a recompute exactly) — `row` gathers a table row
  // as its group key followed by the aggregate inputs...
  std::vector<size_t> input_idx(naggs);
  std::iota(input_idx.begin(), input_idx.end(), groups);
  std::vector<int64_t> row(groups + naggs, 0);
  const int64_t delta_rows = t->num_rows() - snap->rows;
  SelectionVector delta;  // offsets of the folded rows past snap->rows
  if (m.predicate != nullptr) {
    // The same bytecode the scan ran, over the appended rows only.
    auto filter = PredicateProgram::Compile(m.predicate, *t);
    if (!filter.ok()) {
      ++stats_.invalidations;
      EraseLocked(key);
      return false;
    }
    hit->predicate_evals += delta_rows;
    std::vector<const int64_t*> cols(t->schema().num_columns());
    for (size_t c = 0; c < cols.size(); ++c) {
      cols[c] = t->column(c).data() + snap->rows;
    }
    filter->BuildSelection(cols.data(), /*stride=*/1,
                           static_cast<size_t>(delta_rows), &delta);
  } else {
    delta.resize(static_cast<size_t>(delta_rows));
    std::iota(delta.begin(), delta.end(), 0u);
  }
  for (const uint32_t d : delta) {
    const int64_t r = snap->rows + d;
    for (size_t g = 0; g < groups; ++g) row[g] = t->Value(m.group_cols[g], r);
    for (size_t a = 0; a < naggs; ++a) {
      if (m.aggs[a].fn != AggFn::kCount) {
        row[groups + a] = t->Value(m.agg_cols[a], r);
      }
    }
    AggFoldInput(m.aggs, input_idx, row.data(),
                 state.UpsertAcc(row.data(), m.aggs));
  }

  // ...and re-emit in SortedIds() key order (new groups may have appeared
  // anywhere in the order). Copy-on-patch: outstanding Hits keep the old
  // vector.
  auto patched = std::make_shared<std::vector<RowBatch>>();
  RowBatch batch(groups + naggs);
  for (const uint32_t g : state.SortedIds()) {
    state.CopyRow(g, row.data());
    batch.AppendRow(row);
    if (batch.full()) {
      patched->push_back(std::move(batch));
      batch.Reset(groups + naggs);
    }
  }
  if (!batch.empty()) patched->push_back(std::move(batch));

  const auto new_rows = static_cast<int64_t>(state.num_groups);
  const int64_t new_pages = PagesFor(new_rows);
  if (new_pages > entry->pages) {
    const int64_t extra = new_pages - entry->pages;
    // The entry under patch is MRU (Lookup just touched it), so evicting
    // from the LRU end with min_keep=1 can never evict it.
    if (!ReserveLocked(extra, 1)) {
      ++stats_.invalidations;
      EraseLocked(key);
      return false;
    }
    entry->pages = new_pages;
  } else if (new_pages < entry->pages) {
    grant_.Shrink(entry->pages - new_pages);
    entry->pages = new_pages;
  }

  entry->batches = std::move(patched);
  entry->rows = new_rows;
  entry->checksum = Checksum(*entry->batches);
  for (TableEpoch& te : entry->snapshot) {
    if (te.table != m.table) continue;
    te.append_epoch = t->append_epoch();
    te.reload_epoch = t->reload_epoch();
    te.rows = t->num_rows();
  }

  // Deterministic patch charges: the delta is a sequential scan (its pages
  // at seq_page_read) plus one row_cpu per delta row folded.
  const int64_t delta_pages = (delta_rows + kRowsPerPage - 1) / kRowsPerPage;
  hit->patched = true;
  hit->pages_read += delta_pages;
  hit->rows_processed += delta_rows;
  hit->cost_units += options_.cost_model.seq_page_read * delta_pages +
                     options_.cost_model.row_cpu * delta_rows;
  return true;
}

void ResultCache::Insert(const std::string& key, const QuerySpec& spec,
                         const Catalog& catalog, Snapshot snapshot,
                         std::vector<std::string> slots,
                         std::vector<RowBatch> batches, int64_t rows) {
  const int64_t pages = PagesFor(rows);
  if (options_.max_entry_pages > 0 && pages > options_.max_entry_pages) {
    return;  // oversized result; caching it would thrash the LRU
  }
  Entry entry;
  entry.rows = rows;
  entry.pages = pages;
  entry.checksum = Checksum(batches);
  entry.snapshot = std::move(snapshot);
  entry.slots = std::move(slots);
  entry.maint = AnalyzeMaintenance(spec, catalog, batches);
  entry.batches =
      std::make_shared<const std::vector<RowBatch>>(std::move(batches));

  std::lock_guard<std::mutex> lock(mu_);
  EraseLocked(key);  // replace-by-key: drop the old entry's pages first
  while (entries_.size() >= options_.max_entries) {
    if (!EvictOldestLocked()) break;
  }
  while (options_.max_pages > 0 &&
         grant_.pages() + pages > options_.max_pages) {
    if (!EvictOldestLocked()) break;
  }
  if (options_.max_pages > 0 && grant_.pages() + pages > options_.max_pages) {
    return;  // page budget refuses even an empty cache
  }
  if (!ReserveLocked(pages, 0)) {
    return;  // broker refuses even after shedding everything else
  }
  entries_.Put(key, std::move(entry));
  ++stats_.inserts;
}

int64_t ResultCache::ShedPages(int64_t deficit) {
  if (deficit <= 0) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  int64_t shed = 0;
  while (shed < deficit && !entries_.empty()) {
    const int64_t before = grant_.pages();
    if (!EvictOldestLocked()) break;
    shed += before - grant_.pages();
  }
  return shed;
}

void ResultCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t before = stats_.evictions;
  while (EvictOldestLocked()) {
  }
  // Clear is administrative, not capacity pressure; don't let it skew the
  // eviction stat.
  stats_.evictions = before;
}

}  // namespace rqp
