#include "exec/parallel_ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "exec/scan_ops.h"

namespace rqp {

GatherOp::GatherOp(const Table* table, PredicatePtr filter, int scan_node_id,
                   std::vector<JoinStage> stages, std::optional<AggStage> agg,
                   ParallelOptions opts)
    : table_(table),
      filter_(std::move(filter)),
      scan_node_id_(scan_node_id),
      stages_(std::move(stages)),
      agg_(std::move(agg)),
      opts_(opts) {
  // Provisional pre-Open slot layout: parents (HashAggOp, MapOp) resolve
  // their inputs against output_slots() before Open runs, the same contract
  // every serial operator honors. Open recomputes and validates.
  std::vector<size_t> cols;
  (void)ResolveProjection(*table_, {}, &cols, &pipeline_slots_);
  for (const JoinStage& s : stages_) {
    const auto& bs = s.build_child->output_slots();
    pipeline_slots_.insert(pipeline_slots_.end(), bs.begin(), bs.end());
  }
  if (agg_.has_value()) {
    for (const auto& g : agg_->group_slots) output_slots_.push_back(g);
    for (const auto& a : agg_->aggregates) {
      output_slots_.push_back(a.output_name);
    }
  } else {
    output_slots_ = pipeline_slots_;
  }
}

GatherOp::~GatherOp() {
  ReleaseAllMemory();
  if (registered_ && broker_ != nullptr) broker_->Unregister(this);
}

Status GatherOp::Open(ExecContext* ctx) {
  ctx_ = ctx;
  broker_ = ctx->memory();
  ResetCount();
  delegate_.reset();
  stage_state_.clear();
  pipeline_slots_.clear();
  output_slots_.clear();
  merged_.Reset(0, 0);
  emit_order_.clear();
  emit_pos_ = 0;
  morsel_out_.clear();
  worker_groups_.clear();
  worker_pages_.clear();
  ledger_.clear();
  scan_produced_.store(0, std::memory_order_relaxed);
  stage_produced_ = std::make_unique<std::atomic<int64_t>[]>(stages_.size());
  first_error_ = Status::OK();
  emit_morsel_ = 0;
  emit_row_ = 0;
  emitting_groups_ = false;
  actuals_published_ = false;
  if (!registered_) {
    broker_->Register(this);
    registered_ = true;
  }

  // The parallel scan emits every column of the driving table, qualified —
  // the same layout a projection-free TableScanOp produces.
  std::vector<size_t> cols;
  RQP_RETURN_IF_ERROR(ResolveProjection(*table_, {}, &cols, &pipeline_slots_));
  program_.reset();
  if (filter_ != nullptr) {
    std::vector<std::string> all;
    for (size_t c = 0; c < table_->schema().num_columns(); ++c) {
      all.push_back(table_->schema().column(c).name);
    }
    auto program = PredicateProgram::Compile(filter_, all);
    if (!program.ok()) return program.status();
    program_ = std::move(program.value());
  }

  RQP_RETURN_IF_ERROR(MaterializeBuilds(ctx));
  if (agg_.has_value()) {
    RQP_RETURN_IF_ERROR(ResolveAgg());
  } else {
    output_slots_ = pipeline_slots_;
  }

  // Residency decision: the parallel probe needs every build side resident
  // at once (the tables are shared read-only across workers and cannot be
  // shed mid-phase). Ask for it in one grant; a shortfall or a broker
  // already over-committed by a mid-query capacity drop means memory is the
  // constraint, not CPU — degrade to the serial spilling tree, which
  // completes at a 1-page grant with byte-identical output.
  int64_t needed = 0;
  for (const StageState& ss : stage_state_) {
    int64_t rows = 0;
    for (const RowBatch& b : *ss.build_batches) {
      rows += static_cast<int64_t>(b.num_rows());
    }
    needed += (rows + kRowsPerPage - 1) / kRowsPerPage;
  }
  if (needed > 0) {
    const int64_t grant = broker_->Grant(needed);
    if (grant < needed || broker_->overcommitted()) {
      broker_->Release(grant);
      return BuildSerialFallback(ctx);
    }
    build_charged_pages_ = grant;
  }

  RQP_RETURN_IF_ERROR(BuildHashTables());
  return RunParallelPhase(ctx);
}

Status GatherOp::MaterializeBuilds(ExecContext* ctx) {
  for (JoinStage& spec : stages_) {
    StageState ss;
    ss.in_cols = pipeline_slots_.size();
    ss.build_batches = std::make_shared<std::vector<RowBatch>>();
    auto drained =
        DrainOperator(spec.build_child.get(), ctx, ss.build_batches.get());
    if (!drained.ok()) return drained.status();
    ss.build_slots = spec.build_child->output_slots();

    const int probe_idx = FindSlot(pipeline_slots_, spec.probe_key);
    if (probe_idx < 0) {
      return Status::InvalidArgument("probe key slot not found: " +
                                     spec.probe_key);
    }
    const int build_idx = FindSlot(ss.build_slots, spec.build_key);
    if (build_idx < 0) {
      return Status::InvalidArgument("build key slot not found: " +
                                     spec.build_key);
    }
    ss.probe_key_idx = static_cast<size_t>(probe_idx);
    ss.build_key_idx = static_cast<size_t>(build_idx);
    ss.out_cols = ss.in_cols + ss.build_slots.size();
    pipeline_slots_.insert(pipeline_slots_.end(), ss.build_slots.begin(),
                           ss.build_slots.end());
    stage_state_.push_back(std::move(ss));
  }
  return Status::OK();
}

Status GatherOp::BuildHashTables() {
  for (StageState& ss : stage_state_) {
    ss.build_rows.num_cols = ss.build_slots.size();
    for (const RowBatch& b : *ss.build_batches) {
      ss.build_rows.data.insert(ss.build_rows.data.end(), b.data().begin(),
                                b.data().end());
    }
    ss.table.Build(ss.build_rows, ss.build_key_idx);
    const auto rows = static_cast<int64_t>(ss.build_rows.num_rows());
    // Same accounting as HashJoinOp: one hash op per absorbed row plus the
    // build factor for table insertion.
    ctx_->ChargeHashOps(rows);
    ctx_->ChargeHashOps(static_cast<int64_t>(
        static_cast<double>(rows) * ctx_->cost_model().hash_build_factor));
  }
  return Status::OK();
}

Status GatherOp::BuildSerialFallback(ExecContext* ctx) {
  // Reconstruct the exact tree the builder produces at DOP 1, replaying the
  // already-materialized build rows, so output bytes and spill behavior are
  // the serial operators' own.
  OperatorPtr cur = std::make_unique<TableScanOp>(table_, filter_);
  cur->set_plan_node_id(scan_node_id_);
  for (size_t i = 0; i < stages_.size(); ++i) {
    auto build = std::make_unique<VectorSourceOp>(
        stage_state_[i].build_batches, stage_state_[i].build_slots);
    auto join =
        std::make_unique<HashJoinOp>(std::move(cur), std::move(build),
                                     stages_[i].probe_key, stages_[i].build_key);
    join->set_plan_node_id(stages_[i].node_id);
    cur = std::move(join);
  }
  if (agg_.has_value()) {
    auto aggop = std::make_unique<HashAggOp>(std::move(cur), agg_->group_slots,
                                             agg_->aggregates);
    aggop->set_plan_node_id(plan_node_id());
    cur = std::move(aggop);
  }
  delegate_ = std::move(cur);
  return delegate_->Open(ctx);
}

Status GatherOp::ResolveAgg() {
  group_idx_.clear();
  agg_idx_.clear();
  for (const auto& g : agg_->group_slots) {
    const int i = FindSlot(pipeline_slots_, g);
    if (i < 0) return Status::InvalidArgument("group slot not found: " + g);
    group_idx_.push_back(static_cast<size_t>(i));
    output_slots_.push_back(g);
  }
  for (const auto& a : agg_->aggregates) {
    if (a.fn == AggFn::kCount) {
      agg_idx_.push_back(0);  // unused
    } else {
      const int i = FindSlot(pipeline_slots_, a.slot);
      if (i < 0) {
        return Status::InvalidArgument("agg slot not found: " + a.slot);
      }
      agg_idx_.push_back(static_cast<size_t>(i));
    }
    output_slots_.push_back(a.output_name);
  }
  return Status::OK();
}

Status GatherOp::RunParallelPhase(ExecContext* ctx) {
  phase_start_cost_ = ctx->cost();
  cursor_ =
      std::make_unique<MorselCursor>(table_->num_rows(), opts_.morsel_rows);
  const int64_t num_morsels = cursor_->num_morsels();
  const int dop = std::max(1, opts_.num_threads);
  ledger_.assign(static_cast<size_t>(num_morsels), 0.0);
  if (agg_.has_value()) {
    merged_.Reset(group_idx_.size(), agg_idx_.size());
    worker_groups_.assign(static_cast<size_t>(dop), merged_);
    worker_pages_.assign(static_cast<size_t>(dop), 0);
  } else {
    morsel_out_.resize(static_cast<size_t>(num_morsels));
    for (RowBuffer& rb : morsel_out_) rb.num_cols = pipeline_slots_.size();
  }

  if (num_morsels > 0) {
    if (opts_.pool != nullptr && dop > 1) {
      opts_.pool->RunOnWorkers(dop, [this](int w) { WorkerLoop(w); });
    } else {
      WorkerLoop(0);
    }
  }

  {
    std::lock_guard<std::mutex> lock(error_mu_);
    RQP_RETURN_IF_ERROR(first_error_);
  }
  RQP_RETURN_IF_ERROR(ctx->CheckGuardrails());

  double total = 0;
  for (const double c : ledger_) total += c;
  const double makespan = ScheduleMakespan(ledger_, dop);
  ctx->RecordParallelPhase(num_morsels, total - makespan);

  if (agg_.has_value()) {
    // Fold the workers' partial tables (and anything revocation already
    // shed) into the merged table. The aggregate functions are commutative
    // and associative in exact int64 arithmetic, so merge order cannot
    // change the result; worker-id order keeps it deterministic anyway. The
    // merge itself is free on the cost clock: it is O(groups × DOP)
    // bookkeeping next to the probe work, and charging it would make total
    // work DOP-dependent, muddying the scaling tables.
    for (int w = 0; w < dop; ++w) {
      MergeIntoShared(worker_groups_[static_cast<size_t>(w)]);
      int64_t& pages = worker_pages_[static_cast<size_t>(w)];
      if (pages > 0) {
        broker_->Release(pages);
        pages = 0;
      }
    }
    worker_groups_.clear();
    if (group_idx_.empty() && merged_.num_groups == 0) {
      // Scalar aggregate over zero rows still yields one row.
      merged_.UpsertAcc(nullptr, agg_->aggregates);
    }
    // Residency for the merged table, in completion mode: keep granting
    // (the broker's 1-page progress minimum makes this terminate) even if
    // it over-commits — the phase is done and emission only shrinks state.
    const int64_t needed_pages =
        (static_cast<int64_t>(merged_.num_groups) + kRowsPerPage - 1) /
        kRowsPerPage;
    while (merged_charged_pages_ < needed_pages) {
      merged_charged_pages_ +=
          broker_->Grant(needed_pages - merged_charged_pages_);
    }
    emit_order_ = merged_.SortedIds();
    emitting_groups_ = true;
  }
  return Status::OK();
}

void GatherOp::WorkerLoop(int worker_id) {
  WorkerCharge charge(ctx_, phase_start_cost_);
  FlatGroups* local =
      agg_.has_value() ? &worker_groups_[static_cast<size_t>(worker_id)]
                       : nullptr;
  std::vector<int64_t> row(pipeline_slots_.size());
  std::vector<int64_t> key(group_idx_.size());
  std::vector<int64_t> stage_counts(stage_state_.size(), 0);
  std::vector<const int64_t*> col_ptrs(table_->schema().num_columns());
  SelectionVector sel;
  Morsel m;
  while (!ctx_->cancelled() && cursor_->Claim(&m)) {
    const Status s = ProcessMorsel(m, &charge, local, &row, &key,
                                   &stage_counts, &col_ptrs, &sel);
    ledger_[static_cast<size_t>(m.id)] = charge.cost();
    charge.Flush();
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (first_error_.ok()) first_error_ = s;
      }
      ctx_->CancelParallel();
      break;
    }
    // Report produced totals to the node fuses at the flush boundary: the
    // trip lags production by at most one morsel per worker — the same
    // batching tolerance as the serial per-batch check.
    if (scan_node_id_ >= 0) {
      ctx_->ObserveProducedParallel(
          scan_node_id_, scan_produced_.load(std::memory_order_relaxed));
    }
    for (size_t i = 0; i < stage_state_.size(); ++i) {
      if (stage_counts[i] == 0) continue;
      const int64_t total =
          stage_produced_[i].fetch_add(stage_counts[i],
                                       std::memory_order_relaxed) +
          stage_counts[i];
      stage_counts[i] = 0;
      if (stages_[i].node_id >= 0) {
        ctx_->ObserveProducedParallel(stages_[i].node_id, total);
      }
    }
    if (local != nullptr) {
      EnsureLocalCapacity(worker_id, *local);
      // Morsel-boundary revocation poll: a mid-query capacity drop is
      // honored by shedding this worker's partial-aggregate table into the
      // shared merged table and releasing its pages.
      if (local->num_groups > 0 && broker_->overcommitted()) {
        ShedLocalGroups(worker_id, local, &charge);
      }
    }
  }
  charge.Flush();
}

Status GatherOp::ProcessMorsel(const Morsel& m, WorkerCharge* charge,
                               FlatGroups* local_groups,
                               std::vector<int64_t>* row_storage,
                               std::vector<int64_t>* key_storage,
                               std::vector<int64_t>* stage_counts,
                               std::vector<const int64_t*>* col_ptrs,
                               SelectionVector* sel) {
  // Deterministic per-morsel fault point: the failure draw is keyed off the
  // morsel id, the fault window off the phase-start clock — identical at
  // every DOP and on every replay.
  double backoff = 0;
  const Status fault = ctx_->MaybeInjectMorselReadFault(
      table_->name(), phase_start_cost_, m.id, &backoff);
  if (backoff > 0) charge->AddCost(backoff);
  RQP_RETURN_IF_ERROR(fault);

  const int64_t rows = m.end - m.begin;
  // Morsels are whole pages (MorselCursor rounds up), so per-morsel page
  // charges sum exactly to the serial scan's total.
  charge->ChargeSeqPages((rows + kRowsPerPage - 1) / kRowsPerPage,
                         table_->name());
  charge->ChargeRowCpu(rows);

  std::vector<int64_t>& row = *row_storage;
  const size_t scan_cols = table_->schema().num_columns();
  RowBuffer* out =
      agg_.has_value() ? nullptr : &morsel_out_[static_cast<size_t>(m.id)];
  int64_t scan_count = 0;

  // Expands the probe chain depth-first. Stage widths nest, so one scratch
  // row serves every depth: [0, in_cols) is fixed by the caller and the
  // build columns of stage d land at [in_cols, out_cols).
  auto expand = [&](auto&& self, size_t depth) -> void {
    if (depth == stage_state_.size()) {
      if (local_groups != nullptr) {
        std::vector<int64_t>& key = *key_storage;
        for (size_t g = 0; g < group_idx_.size(); ++g) {
          key[g] = row[group_idx_[g]];
        }
        charge->ChargeHashOps(1);
        AggFoldInput(agg_->aggregates, agg_idx_, row.data(),
                     local_groups->UpsertAcc(key.data(), agg_->aggregates));
      } else {
        out->Append(row.data());
      }
      return;
    }
    const StageState& ss = stage_state_[depth];
    charge->ChargeHashOps(1);
    ss.table.ForEachMatch(
        ss.build_rows, ss.build_key_idx, row[ss.probe_key_idx],
        [&](size_t idx) {
          const int64_t* b = ss.build_rows.row(idx);
          std::copy(b, b + ss.build_slots.size(),
                    row.begin() + static_cast<long>(ss.in_cols));
          ++(*stage_counts)[depth];
          self(self, depth + 1);
        });
  };

  const auto emit_row = [&](int64_t r) {
    for (size_t c = 0; c < scan_cols; ++c) row[c] = table_->Value(c, r);
    ++scan_count;
    expand(expand, 0);
  };
  if (program_) {
    // Evals are charged per morsel and the selection is built straight over
    // the table's columns — only survivors get transposed into the
    // pipeline row.
    charge->ChargePredicateEvals(rows);
    std::vector<const int64_t*>& cols = *col_ptrs;
    for (size_t c = 0; c < scan_cols; ++c) {
      cols[c] = table_->column(c).data() + m.begin;
    }
    program_->BuildSelection(cols.data(), /*stride=*/1,
                             static_cast<size_t>(rows), sel);
    for (const uint32_t s : *sel) emit_row(m.begin + s);
  } else {
    for (int64_t r = m.begin; r < m.end; ++r) emit_row(r);
  }
  scan_produced_.fetch_add(scan_count, std::memory_order_relaxed);
  return Status::OK();
}

void GatherOp::EnsureLocalCapacity(int worker_id, const FlatGroups& local) {
  const int64_t needed =
      (static_cast<int64_t>(local.num_groups) + kRowsPerPage - 1) /
      kRowsPerPage;
  int64_t& pages = worker_pages_[static_cast<size_t>(worker_id)];
  // Grants may force over-commit (Grant never returns less than 1); the
  // shed branch at the next morsel boundary resolves it.
  while (pages < needed) pages += broker_->Grant(needed - pages);
}

void GatherOp::ShedLocalGroups(int worker_id, FlatGroups* local,
                               WorkerCharge* charge) {
  MergeIntoShared(*local);
  local->Reset(local->key_width, local->acc_width);
  int64_t& pages = worker_pages_[static_cast<size_t>(worker_id)];
  if (pages > 0) {
    broker_->Release(pages);
    pages = 0;
  }
  charge->CountRevocation();
}

void GatherOp::MergeIntoShared(const FlatGroups& local) {
  std::lock_guard<std::mutex> lock(merged_mu_);
  for (uint32_t g = 0; g < local.num_groups; ++g) {
    AggFoldPartial(agg_->aggregates, local.acc(g),
                   merged_.UpsertAcc(local.key(g), agg_->aggregates));
  }
}

Status GatherOp::Next(RowBatch* out) {
  if (delegate_ != nullptr) return delegate_->Next(out);
  out->Reset(output_slots_.size());
  RQP_RETURN_IF_ERROR(ctx_->CheckGuardrails());
  if (emitting_groups_) {
    std::vector<int64_t> row(output_slots_.size());
    while (emit_pos_ < emit_order_.size() && out->capacity_remaining() > 0) {
      merged_.CopyRow(emit_order_[emit_pos_++], row.data());
      out->AppendRow(row);
    }
    ctx_->ChargeRowCpu(static_cast<int64_t>(out->num_rows()));
  } else {
    // Morsel-id order == table order: byte-identical to the serial scan's
    // row stream regardless of which worker ran which morsel.
    while (emit_morsel_ < morsel_out_.size() &&
           out->capacity_remaining() > 0) {
      const RowBuffer& rb = morsel_out_[emit_morsel_];
      if (emit_row_ >= rb.num_rows()) {
        ++emit_morsel_;
        emit_row_ = 0;
        continue;
      }
      out->AppendRow(rb.row(emit_row_++));
    }
  }
  const bool eof = out->empty();
  if (eof && !actuals_published_) PublishActuals();
  CountProduced(ctx_, *out, eof);
  return Status::OK();
}

void GatherOp::PublishActuals() {
  actuals_published_ = true;
  auto& actuals = ctx_->actual_cardinalities();
  if (scan_node_id_ >= 0 && scan_node_id_ != plan_node_id()) {
    actuals[scan_node_id_] = scan_produced_.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < stages_.size(); ++i) {
    const int id = stages_[i].node_id;
    if (id >= 0 && id != plan_node_id()) {
      actuals[id] = stage_produced_[i].load(std::memory_order_relaxed);
    }
  }
}

void GatherOp::Close() {
  if (delegate_ != nullptr) delegate_->Close();
  ReleaseAllMemory();
  if (registered_ && broker_ != nullptr) {
    broker_->Unregister(this);
    registered_ = false;
  }
  broker_ = nullptr;  // the broker may not outlive this operator
}

void GatherOp::ReleaseAllMemory() {
  if (broker_ == nullptr) return;
  if (build_charged_pages_ > 0) {
    broker_->Release(build_charged_pages_);
    build_charged_pages_ = 0;
  }
  if (merged_charged_pages_ > 0) {
    broker_->Release(merged_charged_pages_);
    merged_charged_pages_ = 0;
  }
  for (int64_t& pages : worker_pages_) {
    if (pages > 0) {
      broker_->Release(pages);
      pages = 0;
    }
  }
}

}  // namespace rqp
