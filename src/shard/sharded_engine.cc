#include "shard/sharded_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "exec/scan_ops.h"
#include "exec/sort_agg_ops.h"
#include "shard/exchange.h"
#include "util/env.h"

namespace rqp {

int ResolveShards(int num_shards) {
  const int64_t shards =
      num_shards > 0 ? num_shards : EnvInt64("RQP_SHARDS", 1);
  return static_cast<int>(std::clamp<int64_t>(shards, 1, 64));
}

int64_t ResolveExchangeQueuePages(int64_t pages) {
  return pages > 0 ? pages : EnvInt64("RQP_EXCHANGE_QUEUE_PAGES", 64);
}

double ResolveHotkeyThreshold(double fraction) {
  if (fraction <= 0) fraction = EnvDouble("RQP_HOTKEY_THRESHOLD", 0.05);
  if (fraction <= 0) fraction = 0.05;
  return std::min(fraction, 1.0);
}

namespace {

/// Flattens `rows` row ids of `table` into row-major cells.
void FlattenRows(const Table& table, const std::vector<int64_t>& row_ids,
                 std::vector<int64_t>* cells) {
  const size_t ncols = table.schema().num_columns();
  cells->reserve(cells->size() + row_ids.size() * ncols);
  for (int64_t r : row_ids) {
    for (size_t c = 0; c < ncols; ++c) cells->push_back(table.Value(c, r));
  }
}

int64_t PagesOfRows(int64_t rows) {
  return (rows + kRowsPerPage - 1) / kRowsPerPage;
}

}  // namespace

ShardedEngine::ShardedEngine(Catalog* catalog, EngineOptions eopts,
                             ShardOptions sopts)
    : catalog_(catalog), eopts_(std::move(eopts)), sopts_(std::move(sopts)),
      shards_(ResolveShards(sopts_.num_shards)), global_(catalog, eopts_) {
  sopts_.num_shards = shards_;
  sopts_.exchange_queue_pages =
      ResolveExchangeQueuePages(sopts_.exchange_queue_pages);
  sopts_.hotkey_threshold = ResolveHotkeyThreshold(sopts_.hotkey_threshold);
  if (shards_ <= 1) return;

  // Sorted table order: Catalog::TableNames iterates an unordered_map, and
  // construction must be deterministic.
  std::vector<std::string> names = catalog_->TableNames();
  std::sort(names.begin(), names.end());

  shard_states_.resize(static_cast<size_t>(shards_));
  for (auto& st : shard_states_) st.catalog = std::make_unique<Catalog>();

  for (const std::string& name : names) {
    const Table* src = *catalog_->GetTable(name);
    std::vector<std::vector<int64_t>> assign;  // [shard] -> row ids
    auto it = sopts_.partitions.find(name);
    if (it != sopts_.partitions.end()) {
      auto part = TablePartitioner::Make(*src, it->second, shards_);
      assert(part.ok() && "partition column missing");
      if (part.ok()) assign = part->AssignRows(*src);
    }
    for (int s = 0; s < shards_; ++s) {
      Table* dst =
          *shard_states_[static_cast<size_t>(s)].catalog->AddTable(
              name, src->schema());
      const size_t ncols = src->schema().num_columns();
      for (size_t c = 0; c < ncols; ++c) {
        std::vector<int64_t> data;
        if (!assign.empty()) {  // partitioned: gather this shard's rows
          const auto& rows = assign[static_cast<size_t>(s)];
          data.reserve(rows.size());
          for (int64_t r : rows) data.push_back(src->Value(c, r));
        } else {  // replicated: full copy
          data = src->column(c);
        }
        dst->SetColumnData(c, std::move(data));
      }
    }
    for (const std::string& col : catalog_->IndexedColumns(name)) {
      for (auto& st : shard_states_) st.catalog->BuildIndex(name, col);
    }
  }

  for (int s = 0; s < shards_; ++s) {
    EngineOptions so = eopts_;
    so.engine_tag_suffix = "s" + std::to_string(s);
    shard_states_[static_cast<size_t>(s)].engine = std::make_unique<Engine>(
        shard_states_[static_cast<size_t>(s)].catalog.get(), std::move(so));
  }
}

void ShardedEngine::AnalyzeAll(const AnalyzeOptions& options) {
  analyze_opts_ = options;
  global_.AnalyzeAll(options);
  for (auto& st : shard_states_) st.engine->AnalyzeAll(options);
}

ShardQueryPlan ShardedEngine::PlanShards(const QuerySpec& spec) const {
  return PlanShardedQuery(spec, *catalog_, sopts_.partitions, shards_,
                          eopts_.cost_model);
}

StatusOr<QueryResult> ShardedEngine::Run(const QuerySpec& spec,
                                         bool keep_rows) {
  if (shards_ <= 1) return global_.Run(spec, keep_rows);
  ShardQueryPlan splan = PlanShards(spec);
  if (!splan.runs_sharded) return global_.Run(spec, keep_rows);
  return RunSharded(spec, splan, keep_rows);
}

StatusOr<QueryResult> ShardedEngine::RunSharded(const QuerySpec& spec,
                                                const ShardQueryPlan& splan,
                                                bool keep_rows) {
  const CostModel& cm = eopts_.cost_model;
  const int N = shards_;

  // Range-pruned shards hold no qualifying anchor rows (planner.cc): they
  // still *send* in the exchange phase (their replicated-partner partitions
  // broadcast to the survivors) but are skipped as stealing participants
  // and as executors — their per-shard run is provably empty.
  const bool has_pruning =
      splan.pruned_shards > 0 &&
      splan.pruned.size() == static_cast<size_t>(N);
  auto is_pruned = [&](int s) {
    return has_pruning && splan.pruned[static_cast<size_t>(s)];
  };

  // Serial coordinator work (hot-key detection, stealing, merge) and one
  // context per sender shard for exchanges — the exchange phase's elapsed
  // contribution is the makespan (max) over senders, its cost the sum.
  ExecContext aux_ctx, steal_ctx, merge_ctx;
  aux_ctx.set_cost_model(cm);
  steal_ctx.set_cost_model(cm);
  merge_ctx.set_cost_model(cm);
  std::vector<std::unique_ptr<ExecContext>> sender_ctx;
  for (int s = 0; s < N; ++s) {
    sender_ctx.push_back(std::make_unique<ExecContext>());
    sender_ctx.back()->set_cost_model(cm);
  }

  // ---- hot-key detection (repartitioning anchor only) ----------------------
  // When the anchor shuffles on a skewed key, the owner shard of a heavy
  // hitter would receive nearly the whole table. Diversion: hot probe rows
  // stay wherever they already are, and the build-side partner's hot-key
  // rows travel the broadcast side channel instead of to their owner (and
  // are excluded from owner placement, keeping every key's build rows
  // exactly once per shard).
  const ShardTableDecision& anchor_dec = splan.decisions.at(splan.anchor);
  HotKeySet hot;
  std::set<std::string> hot_partners;
  if (sopts_.hotkey_handling &&
      anchor_dec.strategy == ShardTableStrategy::kShuffle) {
    const Table* anchor_t = *catalog_->GetTable(splan.anchor);
    auto kidx = anchor_t->ColumnIndex(anchor_dec.shuffle_column);
    if (kidx.ok()) {
      const auto& keys = anchor_t->column(*kidx);
      aux_ctx.ChargeHashOps(static_cast<int64_t>(keys.size()));  // count pass
      hot = DetectHotKeys(splan.anchor, anchor_dec.shuffle_column, keys,
                          sopts_.hotkey_threshold);
      // Keys registered by earlier queries are pre-diverted without waiting
      // for this pass to rediscover them.
      if (const HotKeySet* prev =
              hotkeys_.Find(splan.anchor, anchor_dec.shuffle_column)) {
        for (const auto& [k, c] : prev->keys) hot.keys.emplace(k, c);
      }
    }
    if (!hot.empty()) {
      hotkeys_.Record(hot, global_.feedback());  // CORDS/LEO stats path
      aux_ctx.counters().hot_keys +=
          static_cast<int64_t>(hot.keys.size());
      for (const auto& e : spec.joins) {
        const bool left_is_anchor = e.left_table == splan.anchor &&
                                    e.left_column == anchor_dec.shuffle_column;
        const bool right_is_anchor =
            e.right_table == splan.anchor &&
            e.right_column == anchor_dec.shuffle_column;
        if (!left_is_anchor && !right_is_anchor) continue;
        const std::string& partner =
            left_is_anchor ? e.right_table : e.left_table;
        auto pit = splan.decisions.find(partner);
        if (pit != splan.decisions.end() &&
            pit->second.strategy != ShardTableStrategy::kBroadcast) {
          hot_partners.insert(partner);
        }
      }
    }
  }

  // ---- exchange phase ------------------------------------------------------
  // Tables that move: every non-local decision, plus hot partners whose
  // decision was local (their hot rows must re-route to the side channel).
  std::map<std::string, ExchangeBuffers> buffers;
  auto ensure_overlay = [&](const std::string& table) -> ExchangeBuffers& {
    auto it = buffers.find(table);
    if (it != buffers.end()) return it->second;
    const Table* src = *catalog_->GetTable(table);
    auto [nit, _] = buffers.emplace(
        table, ExchangeBuffers(N, src->schema().num_columns()));
    for (int s = 0; s < N; ++s) {
      const Table* part =
          *shard_states_[static_cast<size_t>(s)].catalog->GetTable(table);
      std::vector<int64_t> ids(static_cast<size_t>(part->num_rows()));
      for (int64_t r = 0; r < part->num_rows(); ++r)
        ids[static_cast<size_t>(r)] = r;
      FlattenRows(*part, ids, &nit->second.mutable_owned(s));
    }
    return nit->second;
  };

  for (const auto& [table, dec] : splan.decisions) {
    const bool is_hot_partner = hot_partners.count(table) > 0;
    if (dec.strategy == ShardTableStrategy::kLocal && !is_hot_partner) {
      continue;
    }
    const Table* global_t = *catalog_->GetTable(table);
    const size_t ncols = global_t->schema().num_columns();
    auto [bit, _] = buffers.emplace(table, ExchangeBuffers(N, ncols));
    ExchangeBuffers& buf = bit->second;

    // Routing: shuffle traffic goes to the hash owner of the key; the
    // anchor's hot probe rows stay put; a hot partner's hot build rows take
    // the broadcast side channel. A local-but-hot partner routes every
    // non-hot row to its hash owner, which *is* its current shard (it was
    // aligned) — so only the hot rows actually move.
    const bool is_anchor = table == splan.anchor;
    std::string route_col = dec.strategy == ShardTableStrategy::kShuffle
                                ? dec.shuffle_column
                                : sopts_.partitions.at(table).column;
    auto kidx = global_t->ColumnIndex(route_col);
    if (!kidx.ok()) {
      return Status::NotFound("exchange key " + table + "." + route_col +
                              " not found");
    }
    const bool divert_hot = !hot.empty() && (is_anchor || is_hot_partner);
    RouteFn route = [&hot, divert_hot, is_anchor, N](int64_t key) {
      if (divert_hot && hot.Contains(key)) {
        return is_anchor ? kKeepLocal : kBroadcastAll;
      }
      return static_cast<int>(TablePartitioner::HashKey(key) %
                              static_cast<uint64_t>(N));
    };

    for (int s = 0; s < N; ++s) {
      ExecContext* ctx = sender_ctx[static_cast<size_t>(s)].get();
      const Table* part =
          *shard_states_[static_cast<size_t>(s)].catalog->GetTable(table);
      ExchangeChannel channel(&buf, ctx, sopts_.exchange_queue_pages);
      OperatorPtr op;
      if (dec.strategy == ShardTableStrategy::kBroadcast) {
        op = std::make_unique<BroadcastExchangeOp>(
            std::make_unique<TableScanOp>(part), &channel);
      } else {
        op = std::make_unique<ShuffleExchangeOp>(
            std::make_unique<TableScanOp>(part), *kidx, s, route, &channel);
      }
      std::vector<RowBatch> local;
      auto drained = DrainOperator(op.get(), ctx, &local);
      if (!drained.ok()) return drained.status();
      for (const RowBatch& b : local) {  // rows that never left the sender
        for (size_t r = 0; r < b.num_rows(); ++r) {
          buf.Append(s, b.row(r), /*broadcast=*/false);
        }
      }
    }
  }

  // ---- morsel stealing (straggler rebalance) -------------------------------
  // Deterministic pre-execution rebalance on the anchor's per-shard probe
  // volume: while the most loaded shard exceeds (1 + slack) * mean, move
  // steal-morsel-sized blocks from its tail to the least loaded shard. A
  // thief also receives a one-time copy of the victim's *owned* partitioned
  // build partitions (broadcast parts it already has), so every stolen probe
  // row still finds its build rows; a victim whose surplus is smaller than
  // that copy is not worth robbing (the benefit guard).
  std::vector<int64_t> load(static_cast<size_t>(N), 0);
  for (int s = 0; s < N; ++s) {
    auto it = buffers.find(splan.anchor);
    load[static_cast<size_t>(s)] =
        it != buffers.end()
            ? it->second.owned_rows(s) + it->second.broadcast_rows(s)
            : (*shard_states_[static_cast<size_t>(s)].catalog->GetTable(
                   splan.anchor))
                  ->num_rows();
  }
  std::vector<int64_t> stolen_received(static_cast<size_t>(N), 0);
  if (sopts_.morsel_stealing && N > 1) {
    std::vector<std::string> build_tables;
    for (const auto& [table, dec] : splan.decisions) {
      if (table != splan.anchor &&
          dec.strategy != ShardTableStrategy::kBroadcast) {
        build_tables.push_back(table);
      }
    }
    int64_t total = 0;
    for (int64_t l : load) total += l;
    const int64_t mean = total / N;
    std::vector<bool> ineligible(static_cast<size_t>(N), false);
    std::set<std::pair<int, int>> opened;
    const double hi_water = (1.0 + sopts_.steal_slack) *
                            static_cast<double>(mean);
    while (true) {
      int v = -1, t = -1;
      for (int s = 0; s < N; ++s) {
        if (is_pruned(s)) continue;  // neither victim nor thief
        if (!ineligible[static_cast<size_t>(s)] &&
            (v < 0 || load[static_cast<size_t>(s)] >
                          load[static_cast<size_t>(v)])) {
          v = s;
        }
        if (t < 0 ||
            load[static_cast<size_t>(s)] < load[static_cast<size_t>(t)]) {
          t = s;
        }
      }
      if (v < 0 || v == t) break;
      if (static_cast<double>(load[static_cast<size_t>(v)]) <= hi_water) {
        break;
      }
      const int64_t room = mean - load[static_cast<size_t>(t)];
      if (room < 1) break;
      if (opened.count({v, t}) == 0) {
        int64_t build_rows = 0;
        for (const std::string& table : build_tables) {
          auto it = buffers.find(table);
          build_rows +=
              it != buffers.end()
                  ? it->second.owned_rows(v)
                  : (*shard_states_[static_cast<size_t>(v)]
                          .catalog->GetTable(table))
                        ->num_rows();
        }
        if (load[static_cast<size_t>(v)] - mean <= build_rows) {
          ineligible[static_cast<size_t>(v)] = true;  // not worth robbing
          continue;
        }
        for (const std::string& table : build_tables) {
          ExchangeBuffers& bbuf = ensure_overlay(table);
          const std::vector<int64_t> copy = bbuf.owned(v);
          auto& dst = bbuf.mutable_owned(t);
          dst.insert(dst.end(), copy.begin(), copy.end());
          const int64_t rows = bbuf.num_cols() == 0
                                   ? 0
                                   : static_cast<int64_t>(copy.size() /
                                                          bbuf.num_cols());
          steal_ctx.ChargeExchange(rows, PagesOfRows(rows),
                                   /*broadcast=*/true);
        }
        opened.insert({v, t});
      }
      const int64_t block = std::min(
          {sopts_.steal_morsel_rows, load[static_cast<size_t>(v)] - mean,
           room});
      if (block < 1) break;
      ExchangeBuffers& abuf = ensure_overlay(splan.anchor);
      auto& vcells = abuf.mutable_owned(v);
      auto& tcells = abuf.mutable_owned(t);
      const size_t ncells = static_cast<size_t>(block) * abuf.num_cols();
      tcells.insert(tcells.end(), vcells.end() - ncells, vcells.end());
      vcells.resize(vcells.size() - ncells);
      steal_ctx.ChargeExchange(block, PagesOfRows(block),
                               /*broadcast=*/false);
      ++steal_ctx.counters().morsels_stolen;
      ++stolen_received[static_cast<size_t>(t)];
      load[static_cast<size_t>(v)] -= block;
      load[static_cast<size_t>(t)] += block;
    }
  }

  // ---- per-shard execution -------------------------------------------------
  // With any exchanged table, each shard runs against a per-query overlay
  // catalog (exchanged tables assembled from the buffers, the rest copied
  // from the persistent partitions, indexes rebuilt); a fully local plan
  // runs on the persistent shard engines directly. One plain std::thread per
  // shard: every shard engine owns an independent worker pool, so shard
  // fan-out must not run inside a pool phase itself.
  std::vector<std::unique_ptr<Catalog>> overlay_cats;
  std::vector<std::unique_ptr<Engine>> overlay_engines;
  std::vector<Engine*> run_engines(static_cast<size_t>(N));
  if (!buffers.empty()) {
    for (int s = 0; s < N; ++s) {
      if (is_pruned(s)) continue;  // never executes: no overlay needed
      auto cat = std::make_unique<Catalog>();
      for (const auto& ref : spec.tables) {
        const Table* global_t = *catalog_->GetTable(ref.table);
        const size_t ncols = global_t->schema().num_columns();
        Table* dst = *cat->AddTable(ref.table, global_t->schema());
        auto it = buffers.find(ref.table);
        if (it != buffers.end()) {
          const ExchangeBuffers& buf = it->second;
          const auto& own = buf.owned(s);
          const auto& bc = buf.broadcast(s);
          for (size_t c = 0; c < ncols; ++c) {
            std::vector<int64_t> data;
            data.reserve((own.size() + bc.size()) / ncols);
            for (size_t i = c; i < own.size(); i += ncols)
              data.push_back(own[i]);
            for (size_t i = c; i < bc.size(); i += ncols)
              data.push_back(bc[i]);
            dst->SetColumnData(c, std::move(data));
          }
        } else {
          const Table* part = *shard_states_[static_cast<size_t>(s)]
                                   .catalog->GetTable(ref.table);
          for (size_t c = 0; c < ncols; ++c) {
            dst->SetColumnData(c, part->column(c));
          }
        }
        for (const std::string& col : catalog_->IndexedColumns(ref.table)) {
          cat->BuildIndex(ref.table, col);
        }
      }
      EngineOptions so = eopts_;
      so.engine_tag_suffix = "s" + std::to_string(s);
      auto eng = std::make_unique<Engine>(cat.get(), std::move(so));
      eng->AnalyzeAll(analyze_opts_);
      run_engines[static_cast<size_t>(s)] = eng.get();
      overlay_cats.push_back(std::move(cat));
      overlay_engines.push_back(std::move(eng));
    }
  } else {
    for (int s = 0; s < N; ++s) {
      run_engines[static_cast<size_t>(s)] =
          shard_states_[static_cast<size_t>(s)].engine.get();
    }
  }

  std::vector<std::optional<StatusOr<QueryResult>>> shard_results(
      static_cast<size_t>(N));
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(N));
    for (int s = 0; s < N; ++s) {
      if (is_pruned(s)) continue;
      threads.emplace_back([&, s] {
        shard_results[static_cast<size_t>(s)].emplace(
            run_engines[static_cast<size_t>(s)]->Run(spec,
                                                     /*keep_rows=*/true));
      });
    }
    for (auto& th : threads) th.join();
  }
  for (int s = 0; s < N; ++s) {
    if (is_pruned(s)) continue;
    if (!shard_results[static_cast<size_t>(s)]->ok()) {
      return shard_results[static_cast<size_t>(s)]->status();
    }
  }

  // ---- merge ---------------------------------------------------------------
  QueryResult out;
  const bool aggregated = !spec.aggregates.empty();
  if (aggregated) {
    // All four aggregate functions are decomposable, so the per-shard
    // outputs are partial-aggregate rows: fold them into a FlatGroups with
    // the same AggFoldPartial the spill and parallel paths use, emitting in
    // SortedIds() key order — exactly the single-engine HashAgg emission
    // order, which is what makes aggregate results byte-identical at every
    // shard count.
    const size_t kw = spec.group_by.size();
    FlatGroups groups;
    groups.Reset(kw, spec.aggregates.size());
    int64_t in_rows = 0;
    for (int s = 0; s < N; ++s) {
      if (is_pruned(s)) continue;
      for (const RowBatch& b : shard_results[static_cast<size_t>(s)]
                                   ->value()
                                   .rows) {
        for (size_t r = 0; r < b.num_rows(); ++r) {
          const int64_t* row = b.row(r);
          AggFoldPartial(spec.aggregates, row + kw,
                         groups.UpsertAcc(row, spec.aggregates));
          ++in_rows;
        }
      }
    }
    merge_ctx.ChargeHashOps(in_rows);
    merge_ctx.ChargeRowCpu(in_rows);
    RowBatch batch;
    batch.Reset(kw + spec.aggregates.size());
    std::vector<int64_t> row(kw + spec.aggregates.size());
    for (const uint32_t g : groups.SortedIds()) {
      if (batch.full()) {
        out.rows.push_back(std::move(batch));
        batch.Reset(kw + spec.aggregates.size());
      }
      groups.CopyRow(g, row.data());
      batch.AppendRow(row);
    }
    if (!batch.empty()) out.rows.push_back(std::move(batch));
    out.output_rows = static_cast<int64_t>(groups.num_groups);
  } else {
    int64_t rows_total = 0;
    for (int s = 0; s < N; ++s) {
      if (is_pruned(s)) continue;
      auto& res = shard_results[static_cast<size_t>(s)]->value();
      rows_total += res.output_rows;
      for (RowBatch& b : res.rows) out.rows.push_back(std::move(b));
    }
    merge_ctx.ChargeRowCpu(rows_total);
    out.output_rows = rows_total;
  }

  // ---- clock and counter assembly ------------------------------------------
  double exchange_cost = 0, exchange_makespan = 0;
  ExecCounters total;
  for (int s = 0; s < N; ++s) {
    const ExecCounters& sc = sender_ctx[static_cast<size_t>(s)]->counters();
    exchange_cost += sc.cost_units;
    exchange_makespan = std::max(exchange_makespan, sc.cost_units);
    total.Merge(sc);
  }
  double shard_cost = 0, shard_elapsed_max = 0;
  bool plan_recorded = false;
  for (int s = 0; s < N; ++s) {
    if (is_pruned(s)) {
      // Skipped executor: a zeroed stats row keeps shard_stats addressable
      // by shard id; the sender-side exchange counters above still count.
      QueryResult::ShardStats st;
      st.shard = s;
      st.rows_shuffled =
          sender_ctx[static_cast<size_t>(s)]->counters().rows_shuffled;
      st.rows_broadcast =
          sender_ctx[static_cast<size_t>(s)]->counters().rows_broadcast;
      out.shard_stats.push_back(st);
      continue;
    }
    const QueryResult& res = shard_results[static_cast<size_t>(s)]->value();
    if (out.output_slots.empty()) out.output_slots = res.output_slots;
    shard_cost += res.cost;
    shard_elapsed_max = std::max(shard_elapsed_max, res.elapsed);
    total.Merge(res.counters);

    QueryResult::ShardStats st;
    st.shard = s;
    st.cost = res.cost;
    st.elapsed = res.elapsed;
    st.output_rows = res.output_rows;
    st.rows_shuffled =
        sender_ctx[static_cast<size_t>(s)]->counters().rows_shuffled;
    st.rows_broadcast =
        sender_ctx[static_cast<size_t>(s)]->counters().rows_broadcast;
    st.morsels_stolen = stolen_received[static_cast<size_t>(s)];
    st.spill_pages = res.counters.spill_pages;
    out.shard_stats.push_back(st);

    out.reoptimizations += res.reoptimizations;
    out.plans_considered += res.plans_considered;
    out.fuse_trips += res.fuse_trips;
    out.budget_aborts += res.budget_aborts;
    out.guardrail_retries += res.guardrail_retries;
    out.faults.Accumulate(res.faults);
    if (!plan_recorded) {  // first surviving shard
      out.first_plan = res.first_plan;
      out.final_plan = res.final_plan;
      plan_recorded = true;
    }
  }
  total.Merge(aux_ctx.counters());
  total.Merge(steal_ctx.counters());
  total.Merge(merge_ctx.counters());

  const double serial_cost = aux_ctx.cost() + steal_ctx.cost() +
                             merge_ctx.cost();
  out.cost = shard_cost + exchange_cost + serial_cost;
  out.elapsed =
      exchange_makespan + serial_cost + shard_elapsed_max;
  total.cost_units = out.cost;
  // Preserve the PR 3 invariant: simulated elapsed = cost_units -
  // parallel_saved_units, now with shard overlap folded in.
  total.parallel_saved_units = out.cost - out.elapsed;
  out.counters = total;
  out.shard_strategy = splan.Describe();
  if (!keep_rows) out.rows.clear();
  return out;
}

}  // namespace rqp
