#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "exec/thread_pool.h"

namespace perfbench {

/// Command-line configuration of one benchmark run.
struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_path;   ///< where the run record is written at exit
  std::string spill_dir;  ///< engine spill directory
};

/// Set-ups timed per run (their median is reported); the world of the last
/// one is measured.
constexpr int kSetupReps = 3;

/// Nanoseconds on the steady clock since the first call in the process.
int64_t NowNs();

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Everything one run observes, kept in memory and written out once at
/// exit as tab-separated lines that metrics.py reads:
///   sample <class> <value>                              one observation
///   span <id> <parent> <request> <name> <start> <end>   nanoseconds
///   count <name> <value>                                sum over the window
///   fact <name> <value>                                 single value
///   error <message>                                     first failures
/// Spans are only kept when tracing. Not thread-safe: each workload
/// records from one thread.
class Recorder {
 public:
  explicit Recorder(bool trace) : trace_(trace) {}

  bool tracing() const { return trace_; }

  /// Opens a span and returns its id, or -1 (and records nothing) when not
  /// tracing. `parent` is -1 for a root span.
  int64_t Begin(const char* name, int64_t parent, int64_t request,
                int64_t start_ns);
  int64_t Begin(const char* name, int64_t parent, int64_t request) {
    return Begin(name, parent, request, NowNs());
  }
  void End(int64_t id, int64_t end_ns);
  void End(int64_t id) { End(id, NowNs()); }
  /// Renames an open or closed span (e.g. a drain whose CHECK fired).
  void Rename(int64_t id, const char* name);

  void Sample(const char* cls, double value);
  void Count(const std::string& name, double delta = 1);
  void Fact(const std::string& name, double value);
  /// Counts one failed request under `failed.<kind>` and keeps the message.
  void Fail(const std::string& kind, const std::string& message);

  bool WriteTo(const std::string& path) const;

 private:
  struct Span {
    int64_t parent;
    int64_t request;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool trace_;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, double>> samples_;
  std::map<std::string, double> counts_;
  std::map<std::string, double> facts_;
  std::vector<std::string> errors_;
};

/// Closes a span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* rec, const char* name, int64_t parent, int64_t request)
      : rec_(rec), id_(rec->Begin(name, parent, request)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Recorder* rec_;
  int64_t id_;
};

/// Order-insensitive checksum of a result's rows: the same multiset of
/// rows gives the same value whatever order the plan emitted them in.
uint64_t RowSetChecksum(const std::vector<rqp::RowBatch>& batches);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Adds the per-query engine counters of a completed request to `rec`.
void CountResult(const rqp::QueryResult& r, Recorder* rec);

/// The traced replay of one request through the engine's layers, timed
/// from outside: Engine::Plan, BuildExecutable and a drain through
/// Open/Next/Close in an ExecContext configured like the engine's own.
class LayerReplay {
 public:
  explicit LayerReplay(rqp::Engine* engine);

  /// Replays `spec` under span `parent`. `run` is the engine's own result
  /// for the same request and `run_ns` its wall time; the replay checks its
  /// row count against it and, when the Run did one plan and one drain,
  /// records Run minus plan, build and drain as the engine's overhead.
  void Replay(const rqp::QuerySpec& spec, const rqp::QueryResult& run,
              int64_t run_ns, int64_t request, int64_t parent, Recorder* rec);

 private:
  rqp::Engine* engine_;
  rqp::ParallelOptions parallel_;
  std::unique_ptr<rqp::ThreadPool> pool_;
  int64_t seq_ = 0;
};

/// `n` seeded values in [lo, hi]: one uniform draw from each of `n` equal
/// strata of the range, in shuffled order. Different seeds give different
/// values with nearly the same spread, so a pool's cost mix, and with it
/// the latency percentiles, does not hinge on the luck of the draw.
std::vector<int64_t> Stratified(rqp::Rng* rng, int n, int64_t lo, int64_t hi);

/// A query of a closed-loop pool.
struct PoolQuery {
  rqp::QuerySpec spec;
  int64_t base_rows = 0;  ///< base-table rows the query reads
};

/// An answer served in the window, kept for checking after it.
struct Answer {
  size_t query;  ///< index into the pool
  int64_t request;
  int64_t rows;
  uint64_t checksum;  ///< RowSetChecksum
};

/// Checks every served answer against `reference`, an engine configured
/// independently of the one under test. Runs after the window, so neither
/// its time nor its memory shows in the measurement.
void CheckAnswers(rqp::Engine* reference, const std::vector<PoolQuery>& pool,
                  const std::vector<Answer>& answers, Recorder* rec);

/// Runs `count` pool queries on `engine` outside any measurement (warm-up).
void WarmUp(rqp::Engine* engine, const std::vector<PoolQuery>& pool,
            int count);

/// One client, closed loop: runs the pool in order, cycling, for
/// `cfg.seconds` and, unless tracing, until at least `min_requests`
/// completed (so the 99th percentile has ten samples beyond it). Returns
/// the answers for CheckAnswers. When tracing, each request is replayed
/// through LayerReplay after its timed Run. Records the peak RSS at the
/// end of the window.
std::vector<Answer> RunClosedLoop(rqp::Engine* engine,
                                  const std::vector<PoolQuery>& pool,
                                  const Config& cfg, int64_t min_requests,
                                  Recorder* rec);

/// Times one set-up (`build`, `analyze`, `warm`) kSetupReps times, keeping
/// the world of the last repetition. `build` runs under span
/// "storage.generate" and returns the world; analyze runs under
/// "stats.analyze" and warm-up under "bench.warmup".
template <typename World, typename Build, typename Analyze, typename Warm>
std::unique_ptr<World> TimedSetup(Recorder* rec, Build build,
                                  Analyze analyze, Warm warm) {
  std::unique_ptr<World> world;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    world.reset();  // free the previous repetition before building again
    const int64_t t0 = NowNs();
    const int64_t root = rec->Begin("setup", -1, -1, t0);
    int64_t t = NowNs();
    int64_t span = rec->Begin("storage.generate", root, -1, t);
    world = build();
    int64_t t_next = NowNs();
    rec->End(span, t_next);
    rec->Sample("setup.generate_ms", NsToMs(t_next - t));
    t = t_next;
    span = rec->Begin("stats.analyze", root, -1, t);
    analyze(world.get());
    t_next = NowNs();
    rec->End(span, t_next);
    rec->Sample("setup.analyze_ms", NsToMs(t_next - t));
    span = rec->Begin("bench.warmup", root, -1, t_next);
    warm(world.get());
    const int64_t t1 = NowNs();
    rec->End(span, t1);
    rec->End(root, t1);
    rec->Sample("setup_s", static_cast<double>(t1 - t0) / 1e9);
  }
  return world;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
