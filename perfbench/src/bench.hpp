// Shared pieces of ara_perfbench: options, the metric report,
// the in-memory span tracer, and the small statistics helpers every
// workload uses.
//
// Timing model: every workload repeats one *operation* (an analysis
// from files, a quote, a served request, a distributed job) for the
// requested number of seconds after one untimed warm-up, and reports
// medians — single iterations on a shared host vary by well over 10 %,
// medians over dozens of iterations do not.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/layer.hpp"
#include "core/metrics/metrics_spec.hpp"
#include "core/metrics/stats.hpp"
#include "core/yet.hpp"
#include "core/ylt.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;   ///< scratch for generated inputs, sockets, spills
  std::string tracefile; ///< where the traced run writes its spans
};

/// An untraced run repeats its set-up at least kSetupReps times and
/// for at least kSetupSeconds; setup_s is the median repetition. (The
/// small set-ups take tens of milliseconds, and a few of those vary by
/// a third from run to run.)
inline constexpr unsigned kSetupReps = 5;
inline constexpr double kSetupSeconds = 1.0;

// ---- statistics ----

/// Median of a sample (ara::metrics::quantile, type 7); 0 when empty.
inline double median(std::span<const double> values) {
  return values.empty() ? 0.0 : ara::metrics::quantile(values, 0.5);
}

/// A percentile is only reported with at least this many samples
/// beyond it (above it, for an upper percentile).
inline constexpr double kMinSamplesBeyond = 10.0;

inline bool percentile_supported(std::size_t samples, double q) {
  return static_cast<double>(samples) * (1.0 - q) >= kMinSamplesBeyond;
}

/// Hands the allocator's free memory back to the system and resets
/// this process's resident-set high-water mark (so the peak that
/// follows is the program's, not the input generator's).
void reset_peak_rss();

/// Peak resident set of this process since the last reset_peak_rss(),
/// MiB (VmHWM).
double peak_rss_mb();

// ---- report ----

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind the value
};

class Report {
 public:
  void add(std::string name, std::string unit, double value,
           std::size_t samples);

  /// One operation attempted; `ok` = its output checked correct.
  void attempt(bool ok, const std::string& what = {});

  /// A failure outside the operation count (a set-up check).
  void fail(const std::string& what);

  std::size_t failed() const noexcept { return failed_; }

  void note(const std::string& line);

  /// Human-readable table, then the machine-readable result line
  /// ("PERFBENCH_RESULT {json}") run.py relays.
  void print(const Options& opt, unsigned threads,
             std::uint64_t inputs_digest) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

// ---- tracing ----

/// One recorded interval. Times are seconds since the tracer started.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;             ///< index of the enclosing span, -1 = root
  std::uint64_t request_id = 0; ///< shared by the spans of one operation
  double duration() const noexcept { return end - start; }
};

/// In-memory span recorder; thread-safe. Spans are written out once,
/// at exit (write()).
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  long begin(std::string name, long parent, std::uint64_t request_id);
  void end(long id);

  /// A span whose bounds were observed elsewhere (e.g. a duration the
  /// server reported), recorded after the fact.
  long record(std::string name, Clock::time_point start, double duration,
              long parent, std::uint64_t request_id);

  /// Durations of every closed span named `name`.
  std::vector<double> durations(const std::string& name) const;

  /// Sum of the durations of `id`'s direct children.
  double children_total(long id) const;
  double duration(long id) const;

  void write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer makes it a no-op, so the untraced path
/// pays one branch.
class Scope {
 public:
  Scope(Tracer* tracer, std::string name, long parent = -1,
        std::uint64_t request_id = 0)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), parent, request_id)
                   : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void close() {
    if (tracer_ != nullptr && !closed_) tracer_->end(id_);
    closed_ = true;
  }
  long id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  long id_;
  bool closed_ = false;
};

// ---- correctness helpers ----

/// Bitwise equality of two metric reports (every double compared by
/// its bit pattern, so -0.0 != 0.0 and NaN == same NaN).
bool same_bits(const ara::metrics::MetricsReport& a,
               const ara::metrics::MetricsReport& b);

/// Bitwise equality of two YLTs.
bool same_bits(const ara::Ylt& a, const ara::Ylt& b);

/// Layer labels in portfolio order (the labels the session uses).
std::vector<std::string> layer_labels(const ara::Portfolio& portfolio);

/// Everything a workload needs from main().
struct Env {
  Options opt;
  Report report;
  Tracer* tracer = nullptr;  ///< null in untraced runs
  std::uint64_t inputs_digest = 0;
  unsigned threads = 1;      ///< nproc: sessions, pools, the probe
};

/// Runs a workload's set-up `once` — once in a traced run, otherwise as
/// kSetupReps/kSetupSeconds say — and returns each repetition's wall
/// time, seconds.
template <typename F>
std::vector<double> timed_setup(const Env& env, F&& once) {
  std::vector<double> times;
  const auto start = Clock::now();
  do {
    const auto t0 = Clock::now();
    once();
    times.push_back(seconds_between(t0, Clock::now()));
  } while (env.tracer == nullptr &&
           (times.size() < kSetupReps ||
            seconds_between(start, Clock::now()) < kSetupSeconds));
  return times;
}

}  // namespace perfbench
