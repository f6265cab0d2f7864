#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "optimizer/builder.h"

namespace perfbench {

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

int64_t Recorder::Begin(const char* name, int64_t parent, int64_t request,
                        int64_t start_ns) {
  if (!trace_) return -1;
  spans_.push_back({parent, request, name, start_ns, -1});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Recorder::End(int64_t id, int64_t end_ns) {
  if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = end_ns;
}

void Recorder::Rename(int64_t id, const char* name) {
  if (id >= 0) spans_[static_cast<size_t>(id)].name = name;
}

void Recorder::Sample(const char* cls, double value) {
  samples_.emplace_back(cls, value);
}

void Recorder::Count(const std::string& name, double delta) {
  counts_[name] += delta;
}

void Recorder::Fact(const std::string& name, double value) {
  facts_[name] = value;
}

void Recorder::Fail(const std::string& kind, const std::string& message) {
  Count("failed." + kind);
  if (errors_.size() < 20) errors_.push_back(kind + ": " + message);
}

bool Recorder::WriteTo(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [cls, value] : samples_) {
    std::fprintf(f, "sample\t%s\t%.9g\n", cls, value);
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "span\t%zu\t%lld\t%lld\t%s\t%lld\t%lld\n", i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  for (const auto& [name, value] : counts_) {
    std::fprintf(f, "count\t%s\t%.17g\n", name.c_str(), value);
  }
  for (const auto& [name, value] : facts_) {
    std::fprintf(f, "fact\t%s\t%.17g\n", name.c_str(), value);
  }
  for (const auto& e : errors_) {
    std::string line = e;
    for (char& c : line) {
      if (c == '\n' || c == '\t') c = ' ';
    }
    std::fprintf(f, "error\t%s\n", line.c_str());
  }
  return std::fclose(f) == 0;
}

uint64_t RowSetChecksum(const std::vector<rqp::RowBatch>& batches) {
  uint64_t sum = 0;
  uint64_t rows = 0;
  for (const auto& b : batches) {
    for (size_t i = 0; i < b.num_rows(); ++i) {
      const int64_t* row = b.row(i);
      uint64_t h = 1469598103934665603ull;  // FNV-1a over the cells
      for (size_t c = 0; c < b.num_cols(); ++c) {
        h ^= static_cast<uint64_t>(row[c]);
        h *= 1099511628211ull;
      }
      // splitmix64 finalizer, so summing row hashes stays well mixed.
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ull;
      h ^= h >> 27;
      h *= 0x94d049bb133111ebull;
      h ^= h >> 31;
      sum += h;
      ++rows;
    }
  }
  return sum ^ (rows * 0x9e3779b97f4a7c15ull);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void CountResult(const rqp::QueryResult& r, Recorder* rec) {
  const rqp::ExecCounters& c = r.counters;
  rec->Count("queries");
  rec->Count("storage.spill_pages_written",
             static_cast<double>(c.spill_pages));
  rec->Count("storage.spill_pages_reread",
             static_cast<double>(c.spill_pages_reread));
  rec->Count("optimizer.plans_considered",
             static_cast<double>(r.plans_considered));
  rec->Count("engine.reopts", r.reoptimizations);
  rec->Count("engine.guardrail_retries", r.guardrail_retries);
  rec->Count("exec.rows_processed", static_cast<double>(c.rows_processed));
  rec->Count("exec.hash_ops", static_cast<double>(c.hash_ops));
  rec->Count("exec.morsels", static_cast<double>(c.morsels));
  rec->Count("exec.rows_materialized",
             static_cast<double>(c.rows_materialized));
  rec->Count("exec.transposes_elided",
             static_cast<double>(c.transposes_elided));
  rec->Count("expr.predicate_evals", static_cast<double>(c.predicate_evals));
  if (r.plan_cache_hit) rec->Count("engine.plan_cache_hits");
}

LayerReplay::LayerReplay(rqp::Engine* engine) : engine_(engine) {
  const rqp::EngineOptions& opts = engine->options();
  parallel_.num_threads = opts.num_threads > 1 ? opts.num_threads : 1;
  parallel_.morsel_rows = opts.morsel_rows;
  if (parallel_.num_threads > 1) {
    pool_ = std::make_unique<rqp::ThreadPool>(parallel_.num_threads);
    parallel_.pool = pool_.get();
  }
}

void LayerReplay::Replay(const rqp::QuerySpec& spec,
                         const rqp::QueryResult& run, int64_t run_ns,
                         int64_t request, int64_t parent, Recorder* rec) {
  const int64_t t_plan = NowNs();
  const int64_t plan_span =
      rec->Begin("optimizer.plan", parent, request, t_plan);
  auto plan = engine_->Plan(spec);
  const int64_t t_build = NowNs();
  rec->End(plan_span, t_build);
  if (!plan.ok()) {
    rec->Fail("replay", plan.status().ToString());
    return;
  }
  rec->Sample("optimizer.plan_us",
              static_cast<double>(t_build - t_plan) / 1e3);

  // The context outlives the operator tree: operators may hold spill files
  // owned by the context's spill manager.
  const rqp::EngineOptions& opts = engine_->options();
  rqp::ExecContext ctx(engine_->memory());
  ctx.set_cost_model(opts.cost_model);
  ctx.set_vectorized(engine_->vectorized());
  ctx.set_late_materialize(engine_->late_materialize());
  ctx.set_simd(engine_->simd_level());
  ctx.set_spill_dir(opts.spill_dir);
  ctx.set_query_id("replay-q" + std::to_string(seq_++));

  const int64_t build_span =
      rec->Begin("exec.build", parent, request, t_build);
  auto op = rqp::BuildExecutable(*plan.value(), engine_->catalog(),
                                 spec.params, &parallel_);
  const int64_t t_drain = NowNs();
  rec->End(build_span, t_drain);
  if (!op.ok()) {
    rec->Fail("replay", op.status().ToString());
    return;
  }
  const int64_t drain_span =
      rec->Begin("exec.drain", parent, request, t_drain);
  auto drained = rqp::DrainOperator(op.value().get(), &ctx, nullptr);
  const int64_t t_end = NowNs();
  rec->End(drain_span, t_end);
  if (!drained.ok()) {
    if (ctx.has_reopt_request()) {
      // A POP CHECK fired: the engine would re-optimize here, so this
      // drain is not one plan's execution. Counted, not timed.
      rec->Rename(drain_span, "exec.drain_check_fired");
      rec->Count("exec.pop_checks_fired");
      return;
    }
    rec->Fail("replay", drained.status().ToString());
    return;
  }
  if (*drained != run.output_rows) {
    rec->Fail("mismatch", "replayed plan returned " +
                              std::to_string(*drained) +
                              " rows, Run returned " +
                              std::to_string(run.output_rows));
    return;
  }
  rec->Sample("exec.drain_ms", NsToMs(t_end - t_drain));
  rec->Count("replay.rows_processed",
             static_cast<double>(ctx.counters().rows_processed));
  const bool single_plan = !run.result_cache_hit && !run.plan_cache_hit &&
                           run.reoptimizations == 0 &&
                           run.guardrail_retries == 0 &&
                           !run.hedged_fallback_used;
  if (single_plan) {
    rec->Sample("engine.overhead_us",
                static_cast<double>(run_ns - (t_end - t_plan)) / 1e3);
  }
}

std::vector<int64_t> Stratified(rqp::Rng* rng, int n, int64_t lo,
                                int64_t hi) {
  std::vector<int64_t> out;
  const double width = static_cast<double>(hi - lo + 1) / n;
  for (int i = 0; i < n; ++i) {
    const auto v = lo + static_cast<int64_t>((i + rng->NextDouble()) * width);
    out.push_back(std::min(v, hi));
  }
  for (int i = n - 1; i > 0; --i) {
    std::swap(out[static_cast<size_t>(i)],
              out[static_cast<size_t>(rng->Uniform(0, i))]);
  }
  return out;
}

void CheckAnswers(rqp::Engine* reference, const std::vector<PoolQuery>& pool,
                  const std::vector<Answer>& answers, Recorder* rec) {
  ScopedSpan span(rec, "bench.reference", -1, -1);
  std::vector<Answer> expected(pool.size(), Answer{0, -1, -1, 0});
  for (const Answer& a : answers) {
    Answer& e = expected[a.query];
    if (e.request < 0) {
      auto r = reference->Run(pool[a.query].spec, /*keep_rows=*/true);
      if (!r.ok()) {
        std::fprintf(stderr, "reference run failed: %s\n",
                     r.status().ToString().c_str());
        std::exit(2);
      }
      e = {a.query, a.request, r.value().output_rows,
           RowSetChecksum(r.value().rows)};
    }
    if (a.rows != e.rows || a.checksum != e.checksum) {
      rec->Fail("mismatch", "request " + std::to_string(a.request) +
                                " (pool query " + std::to_string(a.query) +
                                ") differs from the reference answer");
    }
  }
}

void WarmUp(rqp::Engine* engine, const std::vector<PoolQuery>& pool,
            int count) {
  for (int i = 0; i < count; ++i) {
    auto r = engine->Run(pool[static_cast<size_t>(i) % pool.size()].spec,
                         /*keep_rows=*/true);
    if (!r.ok()) {
      std::fprintf(stderr, "warm-up query failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(2);
    }
  }
}

std::vector<Answer> RunClosedLoop(rqp::Engine* engine,
                                  const std::vector<PoolQuery>& pool,
                                  const Config& cfg, int64_t min_requests,
                                  Recorder* rec) {
  LayerReplay replay(engine);
  std::vector<Answer> answers;
  const int64_t window_ns = static_cast<int64_t>(cfg.seconds * 1e9);
  const int64_t start = NowNs();
  int64_t last_done = start;
  int64_t completed = 0;
  for (int64_t n = 0;; ++n) {
    const int64_t now = NowNs();
    // Past the window, keep going only until the tail percentile has its
    // samples (a traced run reports no tail), and never past four windows.
    if (now - start >= 4 * window_ns) break;
    if (now - start >= window_ns &&
        (completed >= min_requests || rec->tracing())) {
      break;
    }

    const size_t query = static_cast<size_t>(n) % pool.size();
    const int64_t root = rec->Begin("request", -1, n, now);
    const int64_t t0 = NowNs();
    auto r = engine->Run(pool[query].spec, /*keep_rows=*/true);
    const int64_t t1 = NowNs();
    rec->End(rec->Begin("engine.run", root, n, t0), t1);
    rec->Count("attempted");
    if (!r.ok()) {
      rec->Fail("error", r.status().ToString());
    } else {
      ++completed;
      last_done = t1;
      answers.push_back({query, n, r.value().output_rows,
                         RowSetChecksum(r.value().rows)});
      rec->Sample("latency_ms", NsToMs(t1 - t0));
      rec->Count("completed");
      rec->Count("rows_read", static_cast<double>(pool[query].base_rows));
      CountResult(r.value(), rec);
      if (rec->tracing()) {
        replay.Replay(pool[query].spec, r.value(), t1 - t0, n, root, rec);
      }
    }
    rec->End(root);
  }
  rec->Fact("window_s", static_cast<double>(last_done - start) / 1e9);
  rec->Fact("peak_rss_mb", PeakRssMb());
  return answers;
}

}  // namespace perfbench
