// The traced run's per-layer measurements.
//
// A traced run times calls into each module's public functions from
// the benchmark's own code (the program itself carries no tracing):
// io::load_*, build_tables + simd::bind_portfolio, the engines' sweep
// at nproc threads and on one thread, metrics::compute_metrics,
// metrics::evaluate_stopping, io::save_ylt, the serve codecs, the
// coordinator. Each call is a span; the per-layer metrics are derived
// from the spans plus the counts gathered in LayerFacts.
//
// Every traced run emits the full per-layer metric set. A layer the
// workload's path does not go through reports 0 with a sample count of
// 0 (e.g. the serve queue on book_dist, table binding on
// serve_quotes where the session's table cache is warm).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/engine.hpp"
#include "dist/coordinator.hpp"

namespace perfbench {

struct HostCeiling {
  double random_access_ns = 0.0;  ///< dependent pointer-chase step
  double stream_gb_per_s = 0.0;   ///< sequential read, all threads
  std::size_t array_bytes = 0;
  std::size_t llc_bytes = 0;
  std::size_t chase_steps = 0;
};

/// Dependent-load latency and streaming bandwidth over arrays of at
/// least four times the last-level cache (and at least 512 MiB).
HostCeiling probe_host(unsigned threads);

/// Counts and samples a workload gathers next to its spans.
struct LayerFacts {
  double yet_file_bytes = 0.0;
  double yet_resident_bytes = 0.0;
  double tables_bytes = 0.0;
  std::uint64_t lookups = 0;  ///< ELT lookups of one engine.sweep
  std::size_t shard_count = 0;  ///< 0 = no session run to count

  std::size_t stopping_trials_executed = 0;
  std::size_t stopping_trials_total = 0;
  std::size_t stopping_waves = 0;
  /// Largest relative error of the quote's estimates vs the full run.
  double stopping_error = 0.0;
  /// The quote at the library's default floor (replayed at set-up):
  /// its stop, its waves, and its largest disagreement with the full
  /// run in joint standard errors.
  std::size_t default_floor_trials = 0;
  std::size_t default_floor_waves = 0;
  double default_floor_z = 0.0;

  std::vector<double> serve_queue_ms;
  std::vector<double> serve_service_ms;
  std::vector<double> serve_transport_ms;
  std::vector<double> serve_codec_us;
  std::uint64_t serve_rejected = 0;
  bool has_serve = false;

  ara::dist::DistCounters dist;
  double dist_trials_per_s = 0.0;
  double single_thread_trials_per_s = 0.0;
  bool has_dist = false;

  /// End-to-end operation latency with tracing off and on (same
  /// process, back to back) — the tracing overhead.
  std::vector<double> untraced_latency_s;
  std::vector<double> traced_latency_s;
  /// Per traced operation: parent span minus its stage spans.
  std::vector<double> unattributed_s;

  /// Records the YET's size on disk (DIR/yet.bin) and in memory.
  void note_yet(const std::string& dir, const ara::Yet& yet);
};

/// What layer_pass() runs.
struct LayerPassSpec {
  ara::TrialRange trials{};      ///< default: every trial
  bool bind = true;              ///< time build_tables + bind (false: warm cache)
  bool single_thread = true;     ///< also time the one-thread sequential sweep
  std::string spill_path;        ///< non-empty: time io::save_ylt of the YLT
};

/// One traced pass over the kernel-side layers of (portfolio, yet):
/// tables.bind, engine.sweep (multicore_cpu at env.threads),
/// engine.sweep_1t (sequential_fused), metrics.reduce (MetricsSpec::all)
/// and io.spill. Fills the table and lookup counts; returns the YLT of
/// the sweep.
ara::Ylt layer_pass(Env& env, LayerFacts& facts,
                    const ara::Portfolio& portfolio, const ara::Yet& yet,
                    const LayerPassSpec& spec, std::uint64_t request_id);

/// Derives and reports every per-layer metric from the spans, the
/// facts and the host probe.
void report_layers(Env& env, const LayerFacts& facts, const HostCeiling& host);

/// One repeatable operation of a sequential (one-at-a-time) workload.
struct SequentialOp {
  /// Runs one operation. `tracer` is null in untraced runs; otherwise
  /// the operation's stage spans go under span `parent`.
  std::function<void(Tracer* tracer, long parent, std::uint64_t request_id)>
      run;
  /// Checks the last operation's output, outside the timed interval;
  /// returns an empty string when it is correct.
  std::function<std::string()> check;
  /// Traced runs: the per-layer pass after the `index`-th traced
  /// operation.
  std::function<void(std::uint64_t request_id, std::size_t index)> layers;
};

/// The standard measuring window: resets the peak resident set (the
/// caller has dropped its set-up data), one checked warm-up, then operations
/// for opt.seconds and at least kMinOps of them (so a median has ten
/// samples beyond it). In a traced run every untraced operation is
/// followed by a traced one under a root span `root_name` and by
/// op.layers; the two latency sets give the tracing overhead. Returns
/// the untraced latencies, seconds.
std::vector<double> run_window(Env& env, LayerFacts& facts,
                               const std::string& root_name,
                               const SequentialOp& op);

inline constexpr std::size_t kMinOps = 20;

/// Prints min, quartiles and max of a latency sample (seconds, shown in ms).
void note_spread(Env& env, const std::string& what,
                 const std::vector<double>& seconds);

/// The end-to-end metrics every workload reports in an untraced run.
/// `rss_mb` is the workload's peak resident set since its window
/// opened (its worker processes included).
void report_end_to_end(Env& env, const std::vector<double>& setup_s,
                       const std::vector<double>& latency_s,
                       double trials_per_s, std::size_t trial_samples,
                       double rss_mb);

// ---- workloads ----
// Each runs set-up, a warm-up and the timed window, checks every
// output, and reports its end-to-end metrics (untraced run) or fills
// `facts` and the tracer (traced run).

void run_paper_quote(Env& env, LayerFacts& facts);
void run_serve_quotes(Env& env, LayerFacts& facts);
void run_book_dist(Env& env, LayerFacts& facts);

}  // namespace perfbench
