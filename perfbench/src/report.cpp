#include <malloc.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

void reset_peak_rss() {
  // The set-up's freed memory (the generator builds the YET from
  // thousands of per-trial vectors) stays resident in the allocator's
  // heaps unless handed back; it would otherwise set the peak.
  ::malloc_trim(0);
  // Writing 5 to clear_refs resets VmHWM to the current resident set.
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush()) {
    throw std::runtime_error("cannot reset the peak resident set");
  }
}

// VmHWM, not getrusage: ru_maxrss also keeps the peak of exited threads
// from before the last reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- report ----

void Report::add(std::string name, std::string unit, double value,
                 std::size_t samples) {
  metrics_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::attempt(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (!what.empty()) notes_.push_back("FAILED: " + what);
  }
}

void Report::fail(const std::string& what) {
  ++failed_;
  notes_.push_back("FAILED: " + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print(const Options& opt, unsigned threads,
                   std::uint64_t inputs_digest) const {
  std::printf("workload %s  seed %llu  trace %d  threads %u\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0, threads);
  for (const std::string& line : notes_) std::printf("  %s\n", line.c_str());
  std::printf("  %-28s %-8s %16s %8s\n", "metric", "unit", "value", "samples");
  for (const Metric& m : metrics_) {
    std::printf("  %-28s %-8s %16.6g %8zu\n", m.name.c_str(), m.unit.c_str(),
                m.value, m.samples);
  }
  std::printf("  attempted %zu  failed %zu\n", attempted_, failed_);

  std::printf("PERFBENCH_RESULT {\"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"inputs_digest\": \"%016llx\", "
              "\"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? 1 : 0,
              static_cast<unsigned long long>(inputs_digest), attempted_,
              failed_);
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                "\"samples\": %zu}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str(),
                m.samples);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- tracer ----

long Tracer::begin(std::string name, long parent, std::uint64_t request_id) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), now, now, parent, request_id});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::end(long id) {
  const double now = seconds_between(origin_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.at(static_cast<std::size_t>(id)).end = now;
}

long Tracer::record(std::string name, Clock::time_point start,
                    double duration, long parent, std::uint64_t request_id) {
  const double s = seconds_between(origin_, start);
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), s, s + duration, parent, request_id});
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.duration());
  }
  return out;
}

double Tracer::children_total(long id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) total += s.duration();
  }
  return total;
}

double Tracer::duration(long id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.at(static_cast<std::size_t>(id)).duration();
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  std::lock_guard<std::mutex> lock(mutex_);
  char line[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof line,
                  "{\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, "
                  "\"end\": %.9f, \"parent\": %ld, \"request_id\": %llu}\n",
                  i, s.name.c_str(), s.start, s.end, s.parent,
                  static_cast<unsigned long long>(s.request_id));
    out << line;
  }
}

// ---- correctness helpers ----

namespace {

bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i], b[i])) return false;
  }
  return true;
}

bool same(const ara::metrics::LayerMetrics& a,
          const ara::metrics::LayerMetrics& b) {
  if (a.label != b.label || a.trials != b.trials || !same(a.aal, b.aal) ||
      !same(a.std_dev, b.std_dev) || !same(a.max_annual, b.max_annual) ||
      a.quantiles.size() != b.quantiles.size() ||
      a.pml.size() != b.pml.size() || a.oep.size() != b.oep.size() ||
      !same(a.aep_curve, b.aep_curve) || !same(a.oep_curve, b.oep_curve)) {
    return false;
  }
  for (std::size_t i = 0; i < a.quantiles.size(); ++i) {
    const auto& x = a.quantiles[i];
    const auto& y = b.quantiles[i];
    if (!same(x.p, y.p) || !same(x.var, y.var) || !same(x.tvar, y.tvar)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.pml.size(); ++i) {
    if (!same(a.pml[i].years, b.pml[i].years) ||
        !same(a.pml[i].loss, b.pml[i].loss)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.oep.size(); ++i) {
    if (!same(a.oep[i].years, b.oep[i].years) ||
        !same(a.oep[i].loss, b.oep[i].loss)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool same_bits(const ara::metrics::MetricsReport& a,
               const ara::metrics::MetricsReport& b) {
  if (a.layers.size() != b.layers.size() ||
      a.portfolio.has_value() != b.portfolio.has_value()) {
    return false;
  }
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    if (!same(a.layers[i], b.layers[i])) return false;
  }
  if (a.portfolio) {
    const auto& x = *a.portfolio;
    const auto& y = *b.portfolio;
    if (!same(x.totals, y.totals) ||
        !same(x.diversification_benefit_tvar,
              y.diversification_benefit_tvar) ||
        !same(x.marginal_tvar, y.marginal_tvar) ||
        !same(x.capital_p, y.capital_p) ||
        x.capital_allocation != y.capital_allocation) {
      return false;
    }
  }
  return true;
}

bool same_bits(const ara::Ylt& a, const ara::Ylt& b) {
  return a.layer_count() == b.layer_count() &&
         a.trial_count() == b.trial_count() &&
         same(a.annual_raw(), b.annual_raw()) &&
         same(a.max_occurrence_raw(), b.max_occurrence_raw());
}

std::vector<std::string> layer_labels(const ara::Portfolio& portfolio) {
  std::vector<std::string> labels;
  labels.reserve(portfolio.layer_count());
  for (const ara::Layer& layer : portfolio.layers()) {
    labels.push_back(layer.name);
  }
  return labels;
}

}  // namespace perfbench
