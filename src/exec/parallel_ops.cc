#include "exec/parallel_ops.h"

#include <algorithm>
#include <utility>

namespace rqp {

GatherOp::GatherOp(OperatorPtr serial, std::vector<HashJoinOp*> joins,
                   const TableScanOp* scan, std::optional<AggStage> agg,
                   ParallelOptions opts)
    : serial_(std::move(serial)),
      joins_(std::move(joins)),
      scan_(scan),
      table_(scan->table()),
      agg_(std::move(agg)),
      opts_(opts) {}

Status GatherOp::DoOpen(ExecContext* ctx) {
  merged_grant_ = MemoryGrant(ctx->memory());
  degraded_ = false;
  merged_.Reset(0, 0);
  emit_order_.clear();
  emit_pos_ = 0;
  morsel_out_.clear();
  worker_groups_.clear();
  worker_grants_.clear();
  ledger_.clear();
  scan_produced_.store(0, std::memory_order_relaxed);
  stage_produced_ = std::make_unique<std::atomic<int64_t>[]>(joins_.size());
  first_error_ = Status::OK();
  emit_morsel_ = 0;
  emit_row_ = 0;
  emitting_groups_ = false;
  actuals_published_ = false;

  // Serial build, top join first: the order the serial tree's Open builds in.
  for (auto j = joins_.rbegin(); j != joins_.rend(); ++j) {
    RQP_RETURN_IF_ERROR((*j)->OpenBuild(ctx));
  }
  // Residency decision: workers probe the partitions read-only and cannot
  // shed them mid-phase. A spilled partition, or a broker over-committed by
  // a mid-query capacity drop, means memory is the constraint, not CPU —
  // drain the serial tree instead. Its joins keep the builds above, so it
  // spills and charges exactly as DOP 1 does.
  bool resident = ctx->memory()->deficit() == 0;
  for (const HashJoinOp* j : joins_) {
    resident = resident && j->build_resident();
  }
  if (!resident) {
    degraded_ = true;
    return serial_->Open(ctx);
  }

  program_.reset();
  if (scan_->filter() != nullptr) {
    auto program = PredicateProgram::Compile(scan_->filter(), *table_);
    if (!program.ok()) return program.status();
    program_ = std::move(program.value());
  }
  probe_refs_.clear();
  for (const HashJoinOp* j : joins_) {
    probe_refs_.push_back(Resolve(j->probe_key_idx()));
  }
  if (agg_.has_value()) {
    // The aggregation input: the driving scan's layout, then each join's
    // build row.
    RQP_RETURN_IF_ERROR(ResolveFold(joins_.empty()
                                        ? scan_->output_slots()
                                        : joins_.back()->output_slots()));
  }
  return RunParallelPhase(ctx);
}

GatherOp::SlotRef GatherOp::Resolve(size_t pipeline_idx) const {
  const std::vector<size_t>& scan_cols = scan_->columns();
  if (pipeline_idx < scan_cols.size()) return {0, scan_cols[pipeline_idx]};
  size_t base = scan_cols.size();
  for (size_t j = 0; j < joins_.size(); ++j) {
    const size_t width = joins_[j]->build_width();
    if (pipeline_idx < base + width) return {j + 1, pipeline_idx - base};
    base += width;
  }
  return {};  // unreachable: callers pass indexes into the pipeline layout
}

Status GatherOp::ResolveFold(const std::vector<std::string>& pipeline) {
  fold_refs_.clear();
  fold_idx_.clear();
  for (const auto& g : agg_->group_slots) {
    const int i = FindSlot(pipeline, g);
    if (i < 0) return Status::InvalidArgument("group slot not found: " + g);
    fold_refs_.push_back(Resolve(static_cast<size_t>(i)));
  }
  for (const auto& a : agg_->aggregates) {
    if (a.fn == AggFn::kCount) {
      fold_idx_.push_back(0);  // unused
      continue;
    }
    const int i = FindSlot(pipeline, a.slot);
    if (i < 0) return Status::InvalidArgument("agg slot not found: " + a.slot);
    fold_idx_.push_back(fold_refs_.size());
    fold_refs_.push_back(Resolve(static_cast<size_t>(i)));
  }
  return Status::OK();
}

void GatherOp::Gather(const Worker& w, SlotRef ref, int64_t* out,
                      size_t stride) const {
  const size_t n = w.rows.size();
  if (ref.stage == 0) {
    const int64_t* col = table_->column(ref.col).data();
    for (size_t t = 0; t < n; ++t) out[t * stride] = col[w.rows[t]];
  } else {
    const std::vector<const int64_t*>& builds = w.builds[ref.stage - 1];
    for (size_t t = 0; t < n; ++t) out[t * stride] = builds[t][ref.col];
  }
}

Status GatherOp::RunParallelPhase(ExecContext* ctx) {
  phase_start_cost_ = ctx->cost();
  cursor_ =
      std::make_unique<MorselCursor>(table_->num_rows(), opts_.morsel_rows);
  const int64_t num_morsels = cursor_->num_morsels();
  const int dop = std::max(1, opts_.num_threads);
  ledger_.assign(static_cast<size_t>(num_morsels), 0.0);
  if (agg_.has_value()) {
    merged_.Reset(agg_->group_slots.size(), agg_->aggregates.size());
    worker_groups_.assign(static_cast<size_t>(dop), merged_);
    for (int w = 0; w < dop; ++w) worker_grants_.emplace_back(ctx->memory());
  } else {
    morsel_out_.resize(static_cast<size_t>(num_morsels));
    for (RowBuffer& rb : morsel_out_) rb.num_cols = output_slots().size();
  }

  if (num_morsels > 0) {
    if (opts_.pool != nullptr && dop > 1) {
      opts_.pool->RunOnWorkers(dop, [this](int w) { WorkerLoop(w); });
    } else {
      WorkerLoop(0);
    }
  }
  // The probe is over: release the builds, as each serial join does when
  // its probe input runs out.
  for (HashJoinOp* j : joins_) j->Close();

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
    // and associative (sums wrap in two's complement), so merge order cannot
    // change the result; worker-id order keeps it deterministic anyway. The
    // merge itself is free on the cost clock: it is O(groups × DOP)
    // bookkeeping next to the probe work, and charging it would make total
    // work DOP-dependent, muddying the scaling tables.
    for (int w = 0; w < dop; ++w) {
      MergeIntoShared(worker_groups_[static_cast<size_t>(w)]);
      worker_grants_[static_cast<size_t>(w)].Clear();
    }
    worker_groups_.clear();
    if (agg_->group_slots.empty() && merged_.num_groups == 0) {
      // Scalar aggregate over zero rows still yields one row.
      merged_.UpsertAcc(nullptr, agg_->aggregates);
    }
    // Residency for the merged table, in completion mode: keep granting
    // (the broker's 1-page progress minimum makes this terminate) even if
    // it over-commits — the phase is done and emission only shrinks state.
    const int64_t needed_pages =
        (static_cast<int64_t>(merged_.num_groups) + kRowsPerPage - 1) /
        kRowsPerPage;
    while (merged_grant_.pages() < needed_pages) {
      merged_grant_.Grow(needed_pages - merged_grant_.pages());
    }
    emit_order_ = merged_.SortedIds();
    emitting_groups_ = true;
  }
  return Status::OK();
}

void GatherOp::WorkerLoop(int worker_id) {
  WorkerCharge charge(ctx(), phase_start_cost_);
  FlatGroups* local =
      agg_.has_value() ? &worker_groups_[static_cast<size_t>(worker_id)]
                       : nullptr;
  Worker w;
  w.cols.resize(table_->schema().num_columns());
  w.builds.resize(joins_.size());
  w.next_builds.resize(joins_.size());
  w.stage_counts.assign(joins_.size(), 0);
  Morsel m;
  while (!ctx()->cancelled() && cursor_->Claim(&m)) {
    const Status s = ProcessMorsel(m, &charge, local, &w);
    ledger_[static_cast<size_t>(m.id)] = charge.cost();
    charge.Flush();
    if (!s.ok()) {
      {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (first_error_.ok()) first_error_ = s;
      }
      ctx()->CancelParallel();
      break;
    }
    // Report produced totals to the node fuses at the flush boundary: the
    // trip lags production by at most one morsel per worker — the same
    // batching tolerance as the serial per-batch check.
    if (scan_->plan_node_id() >= 0) {
      ctx()->ObserveProducedParallel(
          scan_->plan_node_id(),
          scan_produced_.load(std::memory_order_relaxed));
    }
    for (size_t i = 0; i < joins_.size(); ++i) {
      int64_t& count = w.stage_counts[i];
      if (count == 0) continue;
      const int64_t total =
          stage_produced_[i].fetch_add(count, std::memory_order_relaxed) +
          count;
      count = 0;
      if (joins_[i]->plan_node_id() >= 0) {
        ctx()->ObserveProducedParallel(joins_[i]->plan_node_id(), total);
      }
    }
    if (local != nullptr) {
      EnsureLocalCapacity(worker_id, *local);
      // Morsel-boundary revocation poll: a mid-query capacity drop is
      // honored by shedding this worker's partial-aggregate table into the
      // shared merged table and releasing its pages.
      if (local->num_groups > 0 && ctx()->memory()->deficit() > 0) {
        ShedLocalGroups(worker_id, local, &charge);
      }
    }
  }
  charge.Flush();
}

Status GatherOp::ProcessMorsel(const Morsel& m, WorkerCharge* charge,
                               FlatGroups* local_groups, Worker* w) {
  // Deterministic per-morsel fault point: the failure draw is keyed off the
  // morsel id, the fault window off the phase-start clock — identical at
  // every DOP and on every replay.
  double backoff = 0;
  const Status fault = ctx()->MaybeInjectMorselReadFault(
      table_->name(), phase_start_cost_, m.id, &backoff);
  if (backoff > 0) charge->AddCost(backoff);
  RQP_RETURN_IF_ERROR(fault);

  const int64_t rows = m.end - m.begin;
  // Morsels are whole pages (MorselCursor rounds up), so per-morsel page
  // charges sum exactly to the serial scan's total.
  charge->ChargeSeqPages((rows + kRowsPerPage - 1) / kRowsPerPage,
                         table_->name());
  charge->ChargeRowCpu(rows);

  w->rows.clear();
  if (program_) {
    // Evals are charged per morsel and the selection is built straight over
    // the table's columns.
    charge->ChargePredicateEvals(rows);
    for (size_t c = 0; c < w->cols.size(); ++c) {
      w->cols[c] = table_->column(c).data() + m.begin;
    }
    program_->BuildSelection(w->cols.data(), /*stride=*/1,
                             static_cast<size_t>(rows), &w->sel,
                             ctx()->simd());
    for (const uint32_t s : w->sel) w->rows.push_back(m.begin + s);
  } else {
    for (int64_t r = m.begin; r < m.end; ++r) w->rows.push_back(r);
  }
  scan_produced_.fetch_add(static_cast<int64_t>(w->rows.size()),
                           std::memory_order_relaxed);

  // Join stages: probe every tuple's key in one call, then carry each match
  // as its tuple plus this stage's build row. Matches come key-major and in
  // build-row order within a key, so the tuples stay in the serial joins'
  // emission order.
  for (size_t k = 0; k < joins_.size(); ++k) {
    const HashJoinOp& join = *joins_[k];
    const size_t n = w->rows.size();
    w->keys.resize(n);
    Gather(*w, probe_refs_[k], w->keys.data(), 1);
    charge->ChargeHashOps(static_cast<int64_t>(n));
    join.ProbeResident(w->keys.data(), n, ctx()->simd(), &w->probe);
    const auto& pairs = w->probe.pairs;
    w->next_rows.resize(pairs.size());
    for (size_t j = 0; j <= k; ++j) w->next_builds[j].resize(pairs.size());
    for (size_t p = 0; p < pairs.size(); ++p) {
      const auto [t, r] = pairs[p];
      w->next_rows[p] = w->rows[t];
      for (size_t j = 0; j < k; ++j) w->next_builds[j][p] = w->builds[j][t];
      w->next_builds[k][p] = join.BuildRow(w->probe.parts[t], r);
    }
    w->rows.swap(w->next_rows);
    w->builds.swap(w->next_builds);
    w->stage_counts[k] += static_cast<int64_t>(pairs.size());
  }

  const size_t n = w->rows.size();
  if (n == 0) return Status::OK();
  if (local_groups != nullptr) {
    // Gather only the fold cells, column by column, then fold the morsel in
    // one batch call.
    const size_t width = fold_refs_.size();
    w->keys.resize(n * width);
    for (size_t f = 0; f < width; ++f) {
      Gather(*w, fold_refs_[f], w->keys.data() + f, width);
    }
    charge->ChargeHashOps(static_cast<int64_t>(n));
    local_groups->FoldBatch(w->keys.data(), n, width, agg_->aggregates,
                            fold_idx_);
    return Status::OK();
  }
  // Whole pipeline rows: the scan's columns, then each stage's build row.
  RowBuffer& out = morsel_out_[static_cast<size_t>(m.id)];
  const size_t row_width = out.num_cols;
  out.data.resize(n * row_width);
  int64_t* dst = out.data.data();
  const size_t scan_width = scan_->columns().size();
  for (size_t c = 0; c < scan_width; ++c) {
    Gather(*w, Resolve(c), dst + c, row_width);
  }
  size_t base = scan_width;
  for (size_t j = 0; j < joins_.size(); ++j) {
    const size_t width = joins_[j]->build_width();
    for (size_t t = 0; t < n; ++t) {
      std::copy(w->builds[j][t], w->builds[j][t] + width,
                dst + t * row_width + base);
    }
    base += width;
  }
  return Status::OK();
}

void GatherOp::EnsureLocalCapacity(int worker_id, const FlatGroups& local) {
  const int64_t needed =
      (static_cast<int64_t>(local.num_groups) + kRowsPerPage - 1) /
      kRowsPerPage;
  MemoryGrant& grant = worker_grants_[static_cast<size_t>(worker_id)];
  // Grants may force over-commit (Grow never takes less than 1); the shed
  // branch at the next morsel boundary resolves it.
  while (grant.pages() < needed) grant.Grow(needed - grant.pages());
}

void GatherOp::ShedLocalGroups(int worker_id, FlatGroups* local,
                               WorkerCharge* charge) {
  MergeIntoShared(*local);
  local->Reset(local->key_width, local->acc_width);
  worker_grants_[static_cast<size_t>(worker_id)].Clear();
  charge->CountRevocation();
}

void GatherOp::MergeIntoShared(const FlatGroups& local) {
  std::lock_guard<std::mutex> lock(merged_mu_);
  for (uint32_t g = 0; g < local.num_groups; ++g) {
    AggFoldPartial(agg_->aggregates, local.acc(g),
                   merged_.UpsertAcc(local.key(g), agg_->aggregates));
  }
}

Status GatherOp::DoNext(RowBatch* out) {
  // Degraded: the serial root has this operator's plan node id and has
  // already counted the batch, so Next's second count of it reaches the
  // same total. Its fuse observation is then a no-op (the count is under
  // the limit, or the trip is already recorded), and at EOF it writes the
  // actual the root just wrote.
  if (degraded_) return serial_->Next(out);
  out->Reset(output_slots().size());
  RQP_RETURN_IF_ERROR(ctx()->CheckGuardrails());
  if (emitting_groups_) {
    std::vector<int64_t> row(output_slots().size());
    while (emit_pos_ < emit_order_.size() && out->capacity_remaining() > 0) {
      merged_.CopyRow(emit_order_[emit_pos_++], row.data());
      out->AppendRow(row);
    }
    ctx()->ChargeRowCpu(static_cast<int64_t>(out->num_rows()));
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
  if (out->empty() && !actuals_published_) PublishActuals();
  return Status::OK();
}

void GatherOp::PublishActuals() {
  actuals_published_ = true;
  auto& actuals = ctx()->actual_cardinalities();
  const int scan_id = scan_->plan_node_id();
  if (scan_id >= 0 && scan_id != plan_node_id()) {
    actuals[scan_id] = scan_produced_.load(std::memory_order_relaxed);
  }
  for (size_t i = 0; i < joins_.size(); ++i) {
    const int id = joins_[i]->plan_node_id();
    if (id >= 0 && id != plan_node_id()) {
      actuals[id] = stage_produced_[i].load(std::memory_order_relaxed);
    }
  }
}

void GatherOp::Close() {
  // A drained serial tree closes its joins as they finish; a parallel phase
  // closes them at its barrier. Closing again is a no-op, and covers
  // consumers that stop early.
  if (degraded_) serial_->Close();
  for (HashJoinOp* j : joins_) j->Close();
  merged_grant_.Clear();
  worker_grants_.clear();
}

}  // namespace rqp
