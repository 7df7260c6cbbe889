#include "layers.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <random>
#include <thread>

#include "core/engine_factory.hpp"
#include "core/metrics/streaming.hpp"
#include "core/simd/bound_portfolio.hpp"
#include "core/trial_math.hpp"
#include "inputs.hpp"
#include "io/binary.hpp"
#include "parallel/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kLine = 64;
constexpr std::size_t kMinProbeBytes = std::size_t{512} << 20;

std::size_t llc_bytes() {
  const long l3 = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  const long l2 = ::sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<std::size_t>(l2) : std::size_t{32} << 20;
}

}  // namespace

HostCeiling probe_host(unsigned threads) {
  HostCeiling host;
  host.llc_bytes = llc_bytes();
  host.array_bytes = std::max(kMinProbeBytes, 4 * host.llc_bytes);
  host.array_bytes -= host.array_bytes % kLine;
  const std::size_t lines = host.array_bytes / kLine;
  const std::size_t words_per_line = kLine / sizeof(std::uint64_t);

  // One 64-byte line per node of a single random cycle (Sattolo), so
  // every step is a dependent load to a line the prefetchers cannot
  // predict.
  std::vector<std::uint64_t> buf(lines * words_per_line, 0);
  {
    std::vector<std::uint32_t> order(lines);
    std::iota(order.begin(), order.end(), 0u);
    std::mt19937_64 rng(2013);
    for (std::size_t i = lines - 1; i > 0; --i) {
      const std::size_t j = rng() % i;
      std::swap(order[i], order[j]);
    }
    for (std::size_t i = 0; i < lines; ++i) {
      buf[static_cast<std::size_t>(order[i]) * words_per_line] =
          order[(i + 1) % lines];
    }
  }

  host.chase_steps = std::size_t{1} << 22;
  std::uint64_t at = 0;
  const auto c0 = Clock::now();
  for (std::size_t i = 0; i < host.chase_steps; ++i) {
    at = buf[at * words_per_line];
  }
  const double chase_s = seconds_between(c0, Clock::now());
  host.random_access_ns =
      chase_s * 1e9 / static_cast<double>(host.chase_steps);
  if (at == ~std::uint64_t{0}) std::puts("");  // keep the chase live

  // Streaming read with every thread on its own slice; best of three.
  const unsigned n = std::max(1u, threads);
  double best_s = 1e30;
  std::vector<std::uint64_t> sums(n, 0);
  for (int pass = 0; pass < 3; ++pass) {
    const auto s0 = Clock::now();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < n; ++t) {
      workers.emplace_back([&, t] {
        const std::size_t begin = buf.size() * t / n;
        const std::size_t end = buf.size() * (t + 1) / n;
        std::uint64_t acc = 0;
        for (std::size_t i = begin; i < end; ++i) acc += buf[i];
        sums[t] += acc;
      });
    }
    for (std::thread& w : workers) w.join();
    best_s = std::min(best_s, seconds_between(s0, Clock::now()));
  }
  host.stream_gb_per_s =
      static_cast<double>(host.array_bytes) / best_s / 1e9;
  if (std::accumulate(sums.begin(), sums.end(), std::uint64_t{0}) == 1) {
    std::puts("");  // keep the reads live
  }
  return host;
}

void LayerFacts::note_yet(const std::string& dir, const ara::Yet& yet) {
  yet_file_bytes = static_cast<double>(std::filesystem::file_size(yet_path(dir)));
  yet_resident_bytes = static_cast<double>(yet.memory_bytes());
}

ara::Ylt layer_pass(Env& env, LayerFacts& facts,
                    const ara::Portfolio& portfolio, const ara::Yet& yet,
                    const LayerPassSpec& spec, std::uint64_t request_id) {
  Tracer* tr = env.tracer;
  Scope root(tr, "layers", -1, request_id);

  ara::TableStore<double> store;
  {
    Scope bind(spec.bind ? tr : nullptr, "tables.bind", root.id(),
               request_id);
    store = ara::build_tables<double>(portfolio);
    const ara::simd::BoundPortfolio<double> bound =
        ara::simd::bind_portfolio(portfolio, store);
    if (bound.layers != portfolio.layer_count()) {
      env.report.fail("bind_portfolio bound the wrong layer count");
    }
  }
  double table_bytes = 0.0;
  for (const auto& table : store.tables) {
    table_bytes += static_cast<double>(table.memory_bytes());
  }
  facts.tables_bytes = table_bytes;

  ara::parallel::ThreadPool pool(env.threads);
  ara::EngineContext ctx;
  ctx.tables_f64 = &store;
  ctx.pool = &pool;
  ctx.trials = spec.trials;

  const auto multicore = ara::make_engine(
      ara::ExecutionPolicy::with_engine(ara::EngineKind::kMultiCore));
  ara::SimulationResult swept;
  {
    Scope sweep(tr, "engine.sweep", root.id(), request_id);
    swept = multicore->run(portfolio, yet, ctx);
  }
  facts.lookups = swept.ops.elt_lookups;

  if (spec.single_thread) {
    const auto fused = ara::make_engine(
        ara::ExecutionPolicy::with_engine(ara::EngineKind::kSequentialFused));
    ara::SimulationResult one;
    {
      Scope sweep(tr, "engine.sweep_1t", root.id(), request_id);
      one = fused->run(portfolio, yet, ctx);
    }
    // The paper's speedup-over-sequential framing only means something
    // if both runs computed the same table.
    if (!same_bits(one.ylt, swept.ylt)) {
      env.report.fail("sequential_fused and multicore_cpu YLTs differ");
    }
    facts.single_thread_trials_per_s =
        static_cast<double>(one.ylt.trial_count()) / one.wall_seconds;
  }

  {
    Scope reduce(tr, "metrics.reduce", root.id(), request_id);
    const ara::metrics::MetricsReport report = ara::metrics::compute_metrics(
        swept.ylt, layer_labels(portfolio), ara::metrics::MetricsSpec::all());
    if (report.layers.size() != portfolio.layer_count()) {
      env.report.fail("compute_metrics returned the wrong layer count");
    }
  }

  if (!spec.spill_path.empty()) {
    Scope spill(tr, "io.spill", root.id(), request_id);
    ara::io::save_ylt(spec.spill_path, swept.ylt);
  }
  return std::move(swept.ylt);
}

void note_spread(Env& env, const std::string& what,
                 const std::vector<double>& seconds) {
  if (seconds.empty()) return;
  const auto quantile = [&](double q) {
    return ara::metrics::quantile(seconds, q);
  };
  char line[256];
  std::snprintf(line, sizeof line,
                "%s: %zu ops, ms min %.1f q1 %.1f median %.1f q3 %.1f max %.1f",
                what.c_str(), seconds.size(),
                quantile(0.0) * 1e3, quantile(0.25) * 1e3, quantile(0.5) * 1e3,
                quantile(0.75) * 1e3, quantile(1.0) * 1e3);
  env.report.note(line);
}

std::vector<double> run_window(Env& env, LayerFacts& facts,
                               const std::string& root_name,
                               const SequentialOp& op) {
  const auto checked = [&] {
    const std::string why = op.check();
    env.report.attempt(why.empty(), why);
  };
  const auto untraced = [&] {
    const auto t0 = Clock::now();
    op.run(nullptr, -1, 0);
    const double latency = seconds_between(t0, Clock::now());
    checked();
    return latency;
  };
  // From here on the peak resident set is the program's: set-up is
  // done and the workload holds only what its checks need.
  reset_peak_rss();
  untraced();  // warm-up: caches, page cache, lazy set-up

  std::vector<double> latency;
  const auto start = Clock::now();
  const auto open = [&] {
    return latency.size() < kMinOps ||
           seconds_between(start, Clock::now()) < env.opt.seconds;
  };
  if (env.tracer == nullptr) {
    while (open()) latency.push_back(untraced());
    note_spread(env, root_name, latency);
    return latency;
  }

  // Traced run: untraced and traced operations alternate, so the
  // tracing-overhead comparison sees the same host conditions.
  Tracer& tr = *env.tracer;
  for (std::size_t i = 0; open(); ++i) {
    latency.push_back(untraced());
    const std::uint64_t rid = i + 1;
    Scope root(&tr, root_name, -1, rid);
    op.run(&tr, root.id(), rid);
    root.close();
    const double total = tr.duration(root.id());
    facts.traced_latency_s.push_back(total);
    facts.unattributed_s.push_back(total - tr.children_total(root.id()));
    checked();
    op.layers(rid, i);
  }
  facts.untraced_latency_s = latency;
  note_spread(env, "untraced " + root_name, latency);
  env.report.note("traced " + root_name + ": " +
                  std::to_string(facts.traced_latency_s.size()) +
                  " ops, median " +
                  std::to_string(median(facts.traced_latency_s)) +
                  " s, of which not inside a stage span (median) " +
                  std::to_string(median(facts.unattributed_s)) + " s");
  return latency;
}

void report_end_to_end(Env& env, const std::vector<double>& setup_s,
                       const std::vector<double>& latency_s,
                       double trials_per_s, std::size_t trial_samples,
                       double rss_mb) {
  env.report.add("setup_s", "s", median(setup_s), setup_s.size());
  env.report.add("latency_p50_ms", "ms", median(latency_s) * 1e3,
                 latency_s.size());
  env.report.add("trials_per_s", "1/s", trials_per_s, trial_samples);
  env.report.add("peak_rss_mb", "MiB", rss_mb, 1);
}

namespace {

/// Median duration of the spans named `span`, reported as `name`; 0
/// with no samples when the span never ran.
double report_span(Env& env, const std::string& name, const std::string& span,
                   const std::string& unit) {
  const std::vector<double> d = env.tracer->durations(span);
  const double value = d.empty() ? 0.0 : median(d);
  env.report.add(name, unit, value, d.size());
  return value;
}

void report_samples(Env& env, const std::string& name, const std::string& unit,
                    const std::vector<double>& values, double q) {
  if (!values.empty() && !percentile_supported(values.size(), q)) {
    env.report.fail(name + ": only " + std::to_string(values.size()) +
                    " samples, too few for this percentile");
  }
  env.report.add(name, unit,
                 values.empty() ? 0.0 : ara::metrics::quantile(values, q),
                 values.size());
}

}  // namespace

void report_layers(Env& env, const LayerFacts& facts, const HostCeiling& host) {
  Report& r = env.report;
  const auto count = [&](const std::string& name, double value, bool seen) {
    r.add(name, "count", seen ? value : 0.0, seen ? 1 : 0);
  };

  // io
  const double load_yet_s = report_span(env, "io.load_yet_s", "io.load_yet", "s");
  report_span(env, "io.load_portfolio_s", "io.load_portfolio", "s");
  const std::size_t loads = env.tracer->durations("io.load_yet").size();
  r.add("io.yet_mb_per_s", "MB/s",
        load_yet_s > 0.0 ? facts.yet_file_bytes / 1e6 / load_yet_s : 0.0,
        loads);
  r.add("io.yet_resident_mb", "MB", facts.yet_resident_bytes / 1e6,
        facts.yet_resident_bytes > 0 ? 1 : 0);
  const double spill_s = report_span(env, "io.spill_s", "io.spill", "s");

  // core: tables, engines, simd
  const double bind_s = report_span(env, "tables.bind_s", "tables.bind", "s");
  const bool bound = !env.tracer->durations("tables.bind").empty();
  count("tables.bytes", facts.tables_bytes, bound);
  const double sweep_s =
      report_span(env, "engine.sweep_s", "engine.sweep", "s");
  const std::size_t sweeps = env.tracer->durations("engine.sweep").size();
  count("engine.lookups", static_cast<double>(facts.lookups), sweeps > 0);
  const double lookups_per_s =
      sweep_s > 0.0 ? static_cast<double>(facts.lookups) / sweep_s : 0.0;
  r.add("engine.lookups_per_s", "1/s", lookups_per_s, sweeps);
  const double sweep_1t_s =
      report_span(env, "engine.sweep_1t_s", "engine.sweep_1t", "s");

  // Host ceiling: the faster of the latency bound (one outstanding
  // miss per thread) and the line-bandwidth bound (one 64-byte line per
  // lookup). The dense tables often sit in the LLC, so the kernel can
  // beat this DRAM ceiling; a fraction above 1 says it does.
  r.add("host.random_access_ns", "ns", host.random_access_ns,
        host.chase_steps);
  r.add("host.stream_gb_per_s", "GB/s", host.stream_gb_per_s, 3);
  const double latency_bound =
      static_cast<double>(env.threads) * 1e9 / host.random_access_ns;
  const double bandwidth_bound = host.stream_gb_per_s * 1e9 / kLine;
  r.add("engine.ceiling_fraction", "ratio",
        lookups_per_s / std::max(latency_bound, bandwidth_bound), sweeps);

  // parallel
  const std::size_t pairs =
      std::min(sweeps, env.tracer->durations("engine.sweep_1t").size());
  const double speedup = pairs > 0 && sweep_s > 0.0 ? sweep_1t_s / sweep_s : 0.0;
  r.add("parallel.speedup", "ratio", speedup, pairs);
  r.add("parallel.efficiency", "ratio", speedup / env.threads, pairs);

  // core/metrics
  const double reduce_s =
      report_span(env, "metrics.reduce_s", "metrics.reduce", "s");
  const bool stopped = facts.stopping_trials_total > 0;
  count("stopping.trials_executed",
        static_cast<double>(facts.stopping_trials_executed), stopped);
  r.add("stopping.trials_saved_share", "ratio",
        stopped ? 1.0 - static_cast<double>(facts.stopping_trials_executed) /
                            static_cast<double>(facts.stopping_trials_total)
                : 0.0,
        stopped ? 1 : 0);
  count("stopping.waves", static_cast<double>(facts.stopping_waves), stopped);
  r.add("stopping.error_vs_full", "ratio", stopped ? facts.stopping_error : 0.0,
        stopped ? 1 : 0);
  count("stopping.default_floor_trials",
        static_cast<double>(facts.default_floor_trials), stopped);
  count("stopping.default_floor_waves",
        static_cast<double>(facts.default_floor_waves), stopped);
  r.add("stopping.default_floor_z", "sigma",
        stopped ? facts.default_floor_z : 0.0, stopped ? 1 : 0);
  report_span(env, "stopping.eval_s", "stopping.eval", "s");

  // core session
  const std::vector<double> runs = env.tracer->durations("session.run");
  const double run_s = report_span(env, "session.run_s", "session.run", "s");
  r.add("session.overhead_s", "s",
        runs.empty() ? 0.0 : run_s - (bind_s + sweep_s + reduce_s + spill_s),
        runs.size());
  count("shard.count", static_cast<double>(facts.shard_count),
        facts.shard_count > 0);

  // serve
  report_samples(env, "serve.queue_ms_p50", "ms", facts.serve_queue_ms, 0.5);
  report_samples(env, "serve.queue_ms_p95", "ms", facts.serve_queue_ms, 0.95);
  report_samples(env, "serve.service_ms_p50", "ms", facts.serve_service_ms,
                 0.5);
  report_samples(env, "serve.transport_ms_p50", "ms", facts.serve_transport_ms,
                 0.5);
  report_samples(env, "serve.codec_us", "us", facts.serve_codec_us, 0.5);
  count("serve.rejected", static_cast<double>(facts.serve_rejected),
        facts.has_serve);

  // dist
  report_span(env, "dist.run_s", "dist.run", "s");
  count("dist.leases_granted", static_cast<double>(facts.dist.leases_granted),
        facts.has_dist);
  count("dist.leases_reassigned",
        static_cast<double>(facts.dist.leases_reassigned), facts.has_dist);
  count("dist.blocks_accepted",
        static_cast<double>(facts.dist.blocks_accepted), facts.has_dist);
  count("dist.duplicate_blocks",
        static_cast<double>(facts.dist.duplicate_blocks), facts.has_dist);
  count("dist.local_shards", static_cast<double>(facts.dist.local_shards),
        facts.has_dist);
  const bool dist_eff =
      facts.has_dist && facts.single_thread_trials_per_s > 0.0;
  r.add("dist.efficiency", "ratio",
        dist_eff ? facts.dist_trials_per_s /
                       (2.0 * facts.single_thread_trials_per_s)
                 : 0.0,
        dist_eff ? 1 : 0);

  // tracing itself
  const double untraced = median(facts.untraced_latency_s);
  const double traced = median(facts.traced_latency_s);
  r.add("trace.overhead_share", "ratio",
        untraced > 0.0 && traced > 0.0 ? traced / untraced - 1.0 : 0.0,
        std::min(facts.untraced_latency_s.size(),
                 facts.traced_latency_s.size()));
  r.add("trace.unattributed_s", "s", median(facts.unattributed_s),
        facts.unattributed_s.size());
}

}  // namespace perfbench
