#include "core/session.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <new>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/failpoint.hpp"
#include "core/metrics/portfolio_rollup.hpp"
#include "core/metrics/streaming.hpp"
#include "io/yet_chunk.hpp"
#include "parallel/parallel_for.hpp"
#include "perf/stopwatch.hpp"

namespace ara {

namespace {

// Serialises shard blocks into the spill writer (YltChunkWriter seeks,
// so concurrent appends must not interleave).
class SpillSink : public YltBlockSink {
 public:
  explicit SpillSink(io::YltChunkWriter& writer) : writer_(writer) {}
  void consume(const Ylt& block, std::size_t trial_begin) override {
    std::lock_guard<std::mutex> lock(mutex_);
    writer_.append(block, trial_begin);
  }

 private:
  std::mutex mutex_;
  io::YltChunkWriter& writer_;
};

// Forwards each block to every attached sink (metric reducers + spill
// writer); the attached sinks serialise themselves.
class FanoutSink : public YltBlockSink {
 public:
  void attach(YltBlockSink* sink) { sinks_.push_back(sink); }
  void consume(const Ylt& block, std::size_t trial_begin) override {
    for (YltBlockSink* sink : sinks_) sink->consume(block, trial_begin);
  }

 private:
  std::vector<YltBlockSink*> sinks_;
};

std::vector<std::string> layer_labels(const Portfolio& portfolio) {
  std::vector<std::string> labels;
  labels.reserve(portfolio.layer_count());
  for (const Layer& layer : portfolio.layers()) labels.push_back(layer.name);
  return labels;
}

// An engine is reusable whenever kind + tunables + devices match; the
// key serialises exactly the fields make_engine consumes.
std::string engine_cache_key(EngineKind kind, const EngineConfig& c,
                             const ExecutionPolicy& p) {
  std::ostringstream key;
  key << engine_kind_name(kind) << '|' << c.cores << '|' << c.threads_per_core
      << '|' << c.block_threads << '|' << c.chunk_size << '|' << c.use_float
      << c.unroll << c.use_registers << c.chunking << c.profile_phases << '|'
      << static_cast<int>(c.simd) << ':' << c.simd_width << '|'
      << p.gpu_device.name << '|' << p.multi_gpu_device.name << '|'
      << p.gpu_count;
  return key.str();
}

// Runs `run_shard(i)` for every ranges[i] on `pool`: one task per
// shard, pulled dynamically so shards pipeline across the pool's
// workers. The one shard dispatch of every sharded path — fixed and
// adaptive waves, race arms, the reinstatement pass.
void run_shards(parallel::ThreadPool& pool, std::span<const TrialRange> ranges,
                const std::function<void(std::size_t)>& run_shard) {
  parallel::parallel_for(
      pool, ranges.size(),
      [&](parallel::Range shards) {
        for (std::size_t i = shards.begin; i < shards.end; ++i) {
          try {
            ARA_FAILPOINT("shard.worker_throw", {
              (void)ara_fp;
              throw std::runtime_error("injected shard worker fault");
            });
            run_shard(i);
          } catch (const DeadlineExceeded&) {
            // Typed: queue-level callers (the serve scheduler) turn it
            // into an explicit shed — wrapping would erase that.
            throw;
          } catch (const std::exception& e) {
            // Name the shard: a batch caller's future should say which
            // trial range failed, not just that "a worker" did.
            throw std::runtime_error(
                "shard [" + std::to_string(ranges[i].begin) + ", " +
                std::to_string(ranges[i].end) + ") failed: " + e.what());
          }
        }
      },
      parallel::Schedule::kDynamic, /*chunk=*/1);
}

}  // namespace

AnalysisSession::AnalysisSession(ExecutionPolicy default_policy,
                                 std::size_t workers)
    : default_policy_(std::move(default_policy)),
      workers_(workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency())) {}

parallel::ThreadPool& AnalysisSession::batch_pool() {
  // Built lazily: run()-only sessions (the CLI, most examples) never
  // pay for idle workers.
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (!pool_) pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  return *pool_;
}

parallel::ThreadPool& AnalysisSession::compute_pool() {
  // Separate from the batch dispatch pool: a request executing on a
  // dispatch worker barriers on this pool (parallel_for), and a
  // barrier on the pool the caller occupies would deadlock. Shared by
  // concurrent requests; engine results do not depend on partitioning.
  std::lock_guard<std::mutex> lock(compute_pool_mutex_);
  if (!compute_pool_) {
    compute_pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  }
  return *compute_pool_;
}

parallel::ThreadPool& AnalysisSession::shard_pool() {
  // Between the batch and compute pools in the layering: a request
  // (possibly on a batch worker) barriers on this pool for its trial
  // shards, and a shard task (on this pool) may barrier on the compute
  // pool — the multi-core engine's parallel_for. Sharing either
  // neighbour pool would let every worker block on work queued behind
  // itself.
  std::lock_guard<std::mutex> lock(shard_pool_mutex_);
  if (!shard_pool_) {
    shard_pool_ = std::make_unique<parallel::ThreadPool>(workers_);
  }
  return *shard_pool_;
}

EngineContext AnalysisSession::context_for(const Portfolio& portfolio,
                                           EngineKind kind,
                                           const EngineConfig& cfg,
                                           TablePins& pins) {
  // Which table precision the engine will bind (gpu_engines.cpp /
  // cpu_engines.cpp): only the optimised GPU kinds honour use_float.
  const bool wants_float =
      (kind == EngineKind::kGpuOptimized || kind == EngineKind::kMultiGpu) &&
      cfg.use_float;

  const std::size_t layers = portfolio.layer_count();
  const std::size_t elts = portfolio.elt_count();
  const void* elts_data = static_cast<const void*>(portfolio.elts().data());

  const auto cache_lookup = [&]() -> std::shared_ptr<void> {
    std::lock_guard<std::mutex> lock(tables_mutex_);
    const auto it = tables_.find(&portfolio);
    if (it == tables_.end()) return nullptr;
    PortfolioTables& entry = it->second;
    if (entry.layer_count != layers || entry.elt_count != elts ||
        entry.elts_data != elts_data) {
      // Address reuse: a different portfolio now lives where the
      // cached one did. Drop the stale entry and rebuild below.
      tables_.erase(it);
      return nullptr;
    }
    return wants_float ? std::shared_ptr<void>(entry.f32)
                       : std::shared_ptr<void>(entry.f64);
  };

  std::shared_ptr<void> cached = cache_lookup();
  if (!cached) {
    // Build outside the lock: concurrent requests against *different*
    // portfolios must not queue behind one expensive dense-table
    // build. A same-portfolio race builds twice; first insert wins.
    std::shared_ptr<void> built;
    if (wants_float) {
      built = std::make_shared<TableStore<float>>(
          build_tables<float>(portfolio));
    } else {
      built = std::make_shared<TableStore<double>>(
          build_tables<double>(portfolio));
    }
    std::lock_guard<std::mutex> lock(tables_mutex_);
    PortfolioTables& entry = tables_[&portfolio];
    if (entry.layer_count != layers || entry.elt_count != elts ||
        entry.elts_data != elts_data) {
      entry = PortfolioTables{};
      entry.layer_count = layers;
      entry.elt_count = elts;
      entry.elts_data = elts_data;
    }
    if (wants_float) {
      if (!entry.f32) {
        entry.f32 = std::static_pointer_cast<TableStore<float>>(built);
      }
      cached = entry.f32;
    } else {
      if (!entry.f64) {
        entry.f64 = std::static_pointer_cast<TableStore<double>>(built);
      }
      cached = entry.f64;
    }
  }

  EngineContext ctx;
  if (wants_float) {
    pins.f32 = std::static_pointer_cast<TableStore<float>>(cached);
    ctx.tables_f32 = pins.f32.get();
  } else {
    pins.f64 = std::static_pointer_cast<TableStore<double>>(cached);
    ctx.tables_f64 = pins.f64.get();
  }
  // Only the multi-core engine reads the context pool; attaching it
  // unconditionally would spawn a workers_-sized pool that sequential
  // and GPU-kind sessions never use.
  if (kind == EngineKind::kMultiCore) ctx.pool = &compute_pool();
  return ctx;
}

void AnalysisSession::invalidate_tables(const Portfolio& portfolio) {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  tables_.erase(&portfolio);
}

std::size_t AnalysisSession::cached_table_portfolios() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  return tables_.size();
}

std::size_t AnalysisSession::pending_requests() {
  // Dispatch-queue depth (batch requests queued or executing) plus
  // shard-queue depth (trial shards of in-flight sharded runs). An
  // admission controller in front of the session reads this instead of
  // guessing from its own submit counts — a request it never submitted
  // (another front-end, a direct run_batch_async caller) still shows
  // up here. Pools are built lazily; a pool that never existed has no
  // queue to count.
  std::size_t pending = 0;
  {
    std::lock_guard<std::mutex> lock(pool_mutex_);
    if (pool_) pending += pool_->pending();
  }
  {
    std::lock_guard<std::mutex> lock(shard_pool_mutex_);
    if (shard_pool_) pending += shard_pool_->pending();
  }
  return pending;
}

std::vector<EnginePrediction> AnalysisSession::predict(
    const Portfolio& portfolio, const Yet& yet,
    const ExecutionPolicy& policy) const {
  // A prediction is the engine's own accounting: a cost-only run of
  // the kind under the policy, so it equals the kind's
  // simulated_seconds bitwise. A workload the kind cannot run fails
  // the replay exactly as it would fail the run.
  EngineContext cost_ctx;
  cost_ctx.cost_only = true;
  std::vector<EnginePrediction> out;
  out.reserve(6);
  for (const EngineKind kind : all_engine_kinds()) {
    EnginePrediction& p = out.emplace_back();
    p.kind = kind;
    ExecutionPolicy concrete = policy;
    concrete.engine = kind;
    try {
      p.seconds =
          make_engine(concrete)->run(portfolio, yet, cost_ctx).simulated_seconds;
    } catch (const std::bad_alloc&) {
      p.feasible = false;
      p.note = "inputs exceed device memory";
    } catch (const std::exception& e) {
      p.feasible = false;
      p.note = e.what();
    }
  }
  return out;
}

EnginePrediction AnalysisSession::choose(const Portfolio& portfolio,
                                         const Yet& yet,
                                         const ExecutionPolicy& policy) const {
  const std::vector<EnginePrediction> predictions =
      predict(portfolio, yet, policy);
  const EnginePrediction* best = nullptr;
  for (const EnginePrediction& p : predictions) {
    if (!p.feasible) continue;
    if (!best || p.seconds < best->seconds) best = &p;
  }
  if (!best) {
    // The CPU kinds fail only on bad inputs; their note says which.
    throw std::runtime_error(
        "AnalysisSession::choose: no feasible engine for workload (" +
        predictions.front().note + ")");
  }
  return *best;
}

ShardPlan AnalysisSession::shard_plan(const Portfolio& portfolio,
                                      const Yet& yet,
                                      const ExecutionPolicy& policy) const {
  if (!policy.sharded()) {
    return ShardPlan{yet.trial_count(), yet.trial_count()};
  }
  return plan_shards(yet.trial_count(), policy.shard_trials,
                     policy.memory_budget_bytes,
                     shard_bytes_per_trial(portfolio.layer_count(),
                                           yet.mean_events_per_trial()));
}

const Engine& AnalysisSession::engine_for(EngineKind kind,
                                          const ExecutionPolicy& policy) {
  const EngineConfig cfg = resolved_config(policy, kind);
  const std::string key = engine_cache_key(kind, cfg, policy);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = engines_.find(key);
  if (it == engines_.end()) {
    ExecutionPolicy concrete = policy;
    concrete.engine = kind;
    concrete.config = cfg;
    it = engines_.emplace(key, make_engine(concrete)).first;
  }
  return *it->second;
}

AnalysisResult AnalysisSession::run(const AnalysisRequest& request) {
  // Deadline first, before any validation or table work: an expired
  // request must be shed with zero compute spent on it. For batch
  // submissions this runs when the dispatch pool picks the request up,
  // so a deadline that passes while the request queues surfaces as
  // DeadlineExceeded through its own future and the engines never see
  // the work.
  if (request.deadline &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    throw DeadlineExceeded("AnalysisSession: deadline expired before "
                           "dispatch for request \"" +
                           request.label + "\"");
  }
  if (request.portfolio == nullptr || request.yet == nullptr) {
    throw std::invalid_argument(
        "AnalysisSession::run: request needs a portfolio and a yet");
  }
  if (!request.core_simulation && !request.secondary_uncertainty &&
      request.reinstatement_terms.empty()) {
    throw std::invalid_argument(
        "AnalysisSession::run: request disables the core simulation but "
        "asks for no extension — nothing to run");
  }
  return run_resolved(request,
                      request.policy ? *request.policy : default_policy_);
}

AnalysisResult AnalysisSession::run_resolved(const AnalysisRequest& request,
                                             const ExecutionPolicy& policy) {
  const Portfolio& portfolio = *request.portfolio;
  const Yet& yet = *request.yet;

  // Validate the metric plan and retention before any work runs.
  request.metrics.validate();
  const bool spill = request.ylt_retention == YltRetention::kSpillToFile;
  if (spill && request.ylt_path.empty()) {
    throw std::invalid_argument(
        "AnalysisSession: YltRetention::kSpillToFile requires "
        "AnalysisRequest::ylt_path");
  }
  const bool will_simulate =
      request.core_simulation || request.secondary_uncertainty.has_value();
  if (request.stopping) {
    if (!will_simulate) {
      throw std::invalid_argument(
          "AnalysisSession: adaptive stopping needs the core simulation "
          "(or secondary uncertainty) — an extension-only request has no "
          "trial loop to stop");
    }
    request.stopping->validate();
    if (spill) {
      // The chunk writer pre-extends the file to the full fixed trial
      // count under a valid header; an early stop would leave the
      // unrun suffix reloading as silently-zero losses.
      throw std::invalid_argument(
          "AnalysisSession: adaptive stopping cannot spill the YLT — the "
          "spill format is sized for the fixed trial count");
    }
    if (!request.reinstatement_terms.empty()) {
      throw std::invalid_argument(
          "AnalysisSession: adaptive stopping does not compose with "
          "reinstatement pricing (the extension prices the fixed "
          "workload)");
    }
    if (portfolio.layer_count() == 0) {
      throw std::invalid_argument(
          "AnalysisSession: adaptive stopping needs at least one layer — "
          "the stopping rule watches the per-trial portfolio loss");
    }
  } else if (spill && !will_simulate) {
    // An extension-only run produces no YLT; silently writing nothing
    // would surface as a confusing open-failure at the caller's reload.
    throw std::invalid_argument(
        "AnalysisSession: YltRetention::kSpillToFile needs the core "
        "simulation (or secondary uncertainty) — an extension-only "
        "request produces no YLT to spill");
  }

  AnalysisResult result;
  result.label = request.label;
  const ShardPlan plan = shard_plan(portfolio, yet, policy);

  if (request.secondary_uncertainty) {
    // The extension is itself an Engine with a single implementation;
    // it replaces the policy's engine choice. It still draws the
    // session's cached double-precision tables, and shards like the
    // core engines (its damage draws are keyed by global trial index,
    // so shard boundaries do not move them).
    const ext::SecondaryUncertaintyEngine engine(*request.secondary_uncertainty);
    simulate(request, engine, EngineKind::kSequentialFused,
             resolved_config(policy, EngineKind::kSequentialFused), plan,
             result);
  } else if (request.core_simulation) {
    EngineKind kind;
    if (policy.engine) {
      kind = *policy.engine;
    } else {
      const EnginePrediction best = choose(portfolio, yet, policy);
      kind = best.kind;
      result.auto_selected = true;
      result.predicted_seconds = best.seconds;
    }
    result.engine = kind;
    simulate(request, engine_for(kind, policy), kind,
             resolved_config(policy, kind), plan, result);
  }

  if (!request.reinstatement_terms.empty()) {
    const ext::ReinstatementEngine engine(portfolio,
                                          request.reinstatement_terms);
    // The reinstatement pass draws the session's cached
    // double-precision tables like the core engines do, and shards the
    // same way (each trial's outcome is independent, so partial blocks
    // reassemble bitwise).
    TablePins pins;
    const TableStore<double>* tables =
        context_for(portfolio, EngineKind::kSequentialFused,
                    resolved_config(policy, EngineKind::kSequentialFused),
                    pins)
            .tables_f64;
    if (plan.shard_count() > 1) {
      ext::ReinstatementResult full(portfolio.layer_count(),
                                    yet.trial_count());
      const std::vector<TrialRange> ranges =
          shard_ranges(0, yet.trial_count(), plan.shard_trials);
      run_shards(shard_pool(), ranges, [&](std::size_t i) {
        // Disjoint trial blocks: concurrent merges write
        // non-overlapping rows.
        full.merge_trial_block(engine.run(yet, tables, ranges[i]),
                               ranges[i].begin);
      });
      result.reinstatements = std::move(full);
    } else {
      result.reinstatements = engine.run(yet, tables);
    }
  }
  return result;
}

void AnalysisSession::simulate(const AnalysisRequest& request,
                               const Engine& engine, EngineKind kind,
                               const EngineConfig& cfg, const ShardPlan& plan,
                               AnalysisResult& result) {
  const Portfolio& portfolio = *request.portfolio;
  const Yet& yet = *request.yet;
  const std::size_t total = yet.trial_count();
  const bool keep = request.ylt_retention == YltRetention::kKeep;

  perf::Stopwatch wall;
  // The context is shard-invariant (tables, compute pool); bind it
  // once and pin the tables for the whole run instead of paying the
  // cache lock per shard.
  TablePins pins;
  const EngineContext base_ctx = context_for(portfolio, kind, cfg, pins);

  if (!request.stopping && plan.shard_count() == 1) {
    // A fixed plan that collapses to one shard IS the monolithic run;
    // the merge copy and the cost-only replay would buy nothing.
    result.simulation = engine.run(portfolio, yet, base_ctx);
    result.trials_executed = total;
    finish_result(request, portfolio, result);
    return;
  }

  // Everything else runs as waves of shards: a fixed run is one wave
  // to the full trial count at the plan's shard size; an adaptive run
  // lets the stopping oracle grant waves (DESIGN.md §10) — at the
  // policy's shard size when it shards, else a sixteenth of the budget
  // so the schedule has room to stop early.
  std::optional<metrics::AdaptiveController> controller;
  std::size_t shard_trials = plan.shard_trials;
  if (request.stopping) {
    const metrics::StoppingSpec& spec = *request.stopping;
    const std::size_t budget =
        spec.max_trials != 0 ? std::min(spec.max_trials, total) : total;
    if (shard_trials == 0 || shard_trials >= total) {
      shard_trials = std::max<std::size_t>(1, (budget + 15) / 16);
    }
    controller.emplace(spec, total, shard_trials);
  }

  // A run that does not keep its YLT streams every shard block straight
  // into the metric reducer and/or the spill writer and drops it — the
  // layers x trials table is never allocated (DESIGN.md §6). The
  // reducer is sized for the whole budget; its reservoirs are exact
  // for any stopped prefix (streaming.hpp).
  struct SpillCleanup {
    // A failed spill must not leave its file behind: the chunk writer
    // pre-extends the file to full size under a valid header before
    // any shard completes, so a leftover from an aborted run would
    // reload as silently-zero losses. Disarmed once the file is whole.
    const char* path = nullptr;
    ~SpillCleanup() {
      if (path != nullptr) std::remove(path);
    }
  } spill_cleanup;
  std::optional<metrics::StreamingMetricsReducer> reducer;
  std::unique_ptr<io::YltChunkWriter> spill_writer;
  std::optional<SpillSink> spill_sink;
  FanoutSink fanout;
  if (!keep) {
    if (request.metrics.any() && portfolio.layer_count() > 0) {
      reducer.emplace(layer_labels(portfolio),
                      controller ? controller->max_trials() : total,
                      request.metrics);
      fanout.attach(&*reducer);
    }
    if (request.ylt_retention == YltRetention::kSpillToFile) {
      spill_writer = std::make_unique<io::YltChunkWriter>(
          request.ylt_path, portfolio.layer_count(), total);
      spill_cleanup.path = request.ylt_path.c_str();
      spill_sink.emplace(*spill_writer);
      fanout.attach(&*spill_sink);
    }
  }

  // A fixed run streams its partials into the merger as they complete
  // (materializing only for kKeep). An adaptive run's merged trial
  // count is unknown until the oracle stops, so its kept partials wait
  // in `partials` and merge after the last wave.
  std::optional<ShardMerger> merger;
  if (!controller) {
    merger.emplace(portfolio.layer_count(), total, keep ? nullptr : &fanout,
                   keep);
  }
  std::mutex mutex;  // guards the controller and `partials`
  std::vector<SimulationResult> partials;
  std::size_t executed = 0;
  std::size_t shards_run = 0;
  // Waves are sequential by construction: each one exists only because
  // the previous one failed to satisfy the stopping rule. Shards within
  // a wave run concurrently and land in completion order (the merge,
  // the reducers and the oracle are all order-independent).
  while (!controller || !controller->stopped()) {
    const std::size_t target = controller ? controller->frontier() : total;
    const std::vector<TrialRange> ranges =
        shard_ranges(executed, target, shard_trials);
    run_shards(shard_pool(), ranges, [&](std::size_t i) {
      EngineContext ctx = base_ctx;
      ctx.trials = ranges[i];
      SimulationResult partial = engine.run(portfolio, yet, ctx);
      if (merger) {
        merger->add(partial);
        return;
      }
      if (!keep) fanout.consume(partial.ylt, partial.trial_begin);
      const std::vector<double> sums =
          metrics::portfolio_trial_losses(partial.ylt);
      std::lock_guard<std::mutex> lock(mutex);
      controller->observe(partial.trial_begin, sums);
      if (keep) partials.push_back(std::move(partial));
    });
    shards_run += ranges.size();
    executed = target;
    if (!controller) break;
    controller->advance();
  }

  SimulationResult merged;
  if (merger) {
    merged = merger->finish();
  } else if (keep) {
    ShardMerger late(portfolio.layer_count(), executed);
    for (const SimulationResult& partial : partials) late.add(partial);
    merged = late.finish();
  }
  const double elapsed = wall.seconds();
  replay_accounting(engine, portfolio, yet, executed, merged);
  merged.wall_seconds = elapsed;

  result.simulation = std::move(merged);
  result.shard_count = shards_run;
  result.trials_executed = executed;
  if (controller) {
    result.stopped_early = executed < total;
    result.half_widths = controller->statuses();
  }
  finish_result(request, portfolio, result, reducer ? &*reducer : nullptr,
                spill_writer.get());
  spill_cleanup.path = nullptr;  // complete and coverage-checked
}

void finish_result(const AnalysisRequest& request, const Portfolio& portfolio,
                   AnalysisResult& result,
                   metrics::StreamingMetricsReducer* streamed_metrics,
                   io::YltChunkWriter* streamed_spill) {
  if (request.metrics.any() && portfolio.layer_count() > 0 &&
      result.trials_executed > 0) {
    result.metrics =
        streamed_metrics != nullptr
            ? streamed_metrics->finish(result.trials_executed)
            : metrics::compute_metrics(result.simulation.ylt,
                                       layer_labels(portfolio),
                                       request.metrics);
  }
  if (request.ylt_retention == YltRetention::kSpillToFile) {
    if (streamed_spill != nullptr) {
      streamed_spill->close();
    } else {
      // Resident table: spill it as one block. Same writer, same bytes
      // as the streamed path; a failed write must not leave a file
      // that reloads as silently-zero losses.
      const Ylt& ylt = result.simulation.ylt;
      io::YltChunkWriter writer(request.ylt_path, ylt.layer_count(),
                                ylt.trial_count());
      try {
        writer.append(ylt, 0);
        writer.close();
      } catch (...) {
        std::remove(request.ylt_path.c_str());
        throw;
      }
    }
    result.ylt_path = request.ylt_path;
  }
  if (request.ylt_retention != YltRetention::kKeep) {
    // Metric-only / spilled runs hand back an empty table; a streamed
    // run never allocated it in the first place.
    result.simulation.ylt = Ylt();
  }
}

RaceResult AnalysisSession::race(std::span<const RaceEntry> entries,
                                 const Yet& yet, const RaceSpec& spec) {
  if (entries.size() < 2) {
    throw std::invalid_argument(
        "AnalysisSession::race: need at least two candidates");
  }
  for (const RaceEntry& entry : entries) {
    if (entry.portfolio == nullptr || entry.portfolio->layer_count() == 0) {
      throw std::invalid_argument(
          "AnalysisSession::race: every entry needs a portfolio with at "
          "least one layer");
    }
  }
  // Reuse the StoppingSpec validation for the shared knobs (the race
  // has no tolerance — elimination is pairwise — so a placeholder 1.0
  // satisfies the range check).
  metrics::StoppingSpec shape;
  shape.targets = {spec.objective};
  shape.relative_tolerance = 1.0;
  shape.confidence = spec.confidence;
  shape.min_trials = spec.min_trials;
  shape.max_trials = spec.max_trials;
  shape.wave_growth = spec.wave_growth;
  shape.bootstrap_reps = spec.bootstrap_reps;
  shape.seed = spec.seed;
  shape.validate();

  const std::size_t total = yet.trial_count();
  if (total == 0) {
    throw std::invalid_argument("AnalysisSession::race: workload has no trials");
  }
  const std::size_t budget =
      spec.max_trials != 0 ? std::min(spec.max_trials, total) : total;
  const ExecutionPolicy& pol = spec.policy ? *spec.policy : default_policy_;
  const std::size_t wave =
      pol.shard_trials != 0 && pol.shard_trials < total
          ? pol.shard_trials
          : std::max<std::size_t>(1, (budget + 15) / 16);
  const auto clamp_to_wave = [&](std::size_t t) {
    if (t >= budget) return budget;
    const std::size_t waves = (t + wave - 1) / wave;
    if (waves > budget / wave) return budget;
    return std::min(budget, waves * wave);
  };

  // Family-wise confidence by union bound: each arm's interval runs at
  // 1 - (1 - c) / K, so the probability any of the K intervals misses
  // is at most 1 - c.
  const double per_arm_confidence =
      1.0 - (1.0 - spec.confidence) / static_cast<double>(entries.size());
  const double z = metrics::z_for_confidence(per_arm_confidence);

  struct ArmState {
    const Portfolio* portfolio = nullptr;
    const Engine* engine = nullptr;
    TablePins pins;
    EngineContext base_ctx;
    std::vector<double> losses;
    metrics::TargetStatus status;
    std::size_t executed = 0;
    bool active = true;
    std::size_t eliminated_at = 0;
  };
  std::vector<ArmState> arms(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    ArmState& arm = arms[k];
    arm.portfolio = entries[k].portfolio;
    const EngineKind kind =
        pol.engine ? *pol.engine : choose_engine(*arm.portfolio, yet, pol);
    arm.engine = &engine_for(kind, pol);
    arm.base_ctx = context_for(*arm.portfolio, kind,
                               resolved_config(pol, kind), arm.pins);
  }

  std::size_t frontier =
      clamp_to_wave(std::max<std::size_t>(spec.min_trials, 1));
  bool separated = false;
  for (;;) {
    // Extend every surviving arm to the shared frontier (common random
    // numbers: all arms price the same simulated years), flattened so
    // shards of different arms interleave freely on the pool.
    std::vector<TrialRange> ranges;
    std::vector<std::size_t> owners;  // arm index of each range
    for (std::size_t k = 0; k < arms.size(); ++k) {
      if (!arms[k].active) continue;
      arms[k].losses.resize(frontier);
      for (const TrialRange& r :
           shard_ranges(arms[k].executed, frontier, wave)) {
        ranges.push_back(r);
        owners.push_back(k);
      }
    }
    run_shards(shard_pool(), ranges, [&](std::size_t i) {
      ArmState& arm = arms[owners[i]];
      EngineContext ctx = arm.base_ctx;
      ctx.trials = ranges[i];
      const std::vector<double> sums = metrics::portfolio_trial_losses(
          arm.engine->run(*arm.portfolio, yet, ctx).ylt);
      // Disjoint slices per range: lock-free writes.
      std::copy(sums.begin(), sums.end(),
                arm.losses.begin() + ranges[i].begin);
    });

    std::size_t active = 0;
    for (std::size_t k = 0; k < arms.size(); ++k) {
      ArmState& arm = arms[k];
      if (!arm.active) continue;
      arm.executed = frontier;
      // Per-arm bootstrap substream: decorrelated across arms so a
      // re-ordering of the entries never changes another arm's SE.
      arm.status = metrics::evaluate_target(
          spec.objective, {arm.losses.data(), frontier}, z,
          /*relative_tolerance=*/1.0, spec.bootstrap_reps,
          spec.seed + (k + 1) * 0x9e3779b97f4a7c15ULL);
      ++active;
    }

    // Successive elimination. For minimization: the best possible arm
    // is the one with the smallest upper bound; any arm whose *lower*
    // bound clears it cannot be the winner at this confidence. The arm
    // attaining the best bound can never eliminate itself (its lower
    // bound is below its own upper bound), so one arm always survives.
    // A one-trial frontier has no spread estimate, so elimination
    // waits for n >= 2.
    if (frontier >= 2) {
      double best_bound = spec.minimize
                              ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
      for (const ArmState& arm : arms) {
        if (!arm.active) continue;
        if (spec.minimize) {
          best_bound =
              std::min(best_bound, arm.status.estimate + arm.status.half_width);
        } else {
          best_bound =
              std::max(best_bound, arm.status.estimate - arm.status.half_width);
        }
      }
      for (ArmState& arm : arms) {
        if (!arm.active) continue;
        const bool out =
            spec.minimize
                ? arm.status.estimate - arm.status.half_width > best_bound
                : arm.status.estimate + arm.status.half_width < best_bound;
        if (out) {
          arm.active = false;
          arm.eliminated_at = frontier;
          --active;
        }
      }
    }

    if (active <= 1) {
      separated = true;
      break;
    }
    if (frontier >= budget) break;
    const double grown =
        std::ceil(static_cast<double>(frontier) * spec.wave_growth);
    std::size_t next =
        grown >= static_cast<double>(budget)
            ? budget
            : std::max(frontier + 1, static_cast<std::size_t>(grown));
    next = clamp_to_wave(next);
    if (next <= frontier) next = clamp_to_wave(frontier + 1);
    frontier = next;
  }

  RaceResult result;
  result.separated = separated;
  result.arms.reserve(arms.size());
  const ArmState* best = nullptr;
  std::size_t best_index = 0;
  for (std::size_t k = 0; k < arms.size(); ++k) {
    const ArmState& arm = arms[k];
    RaceArm out;
    out.label = entries[k].label;
    out.estimate = arm.status.estimate;
    out.half_width = arm.status.half_width;
    out.trials_executed = arm.executed;
    out.eliminated = !arm.active;
    out.eliminated_at_trials = arm.eliminated_at;
    result.arms.push_back(std::move(out));
    result.total_trials += arm.executed;
    if (!arm.active) continue;
    const bool better =
        best == nullptr ||
        (spec.minimize ? arm.status.estimate < best->status.estimate
                       : arm.status.estimate > best->status.estimate);
    if (better) {
      best = &arm;
      best_index = k;
    }
  }
  result.winner = best_index;
  return result;
}

std::vector<std::future<AnalysisResult>> AnalysisSession::run_batch_async(
    std::span<const AnalysisRequest> requests) {
  std::vector<std::future<AnalysisResult>> futures;
  futures.reserve(requests.size());
  parallel::ThreadPool& pool = batch_pool();
  for (const AnalysisRequest& request : requests) {
    // Each request owns a promise: a failure resolves only its own
    // future, so concurrent batches on one session never observe each
    // other's exceptions (wait_idle's pool-wide error capture would).
    auto task = std::make_shared<std::packaged_task<AnalysisResult()>>(
        [this, request] { return run(request); });
    futures.push_back(task->get_future());
    pool.submit([task] { (*task)(); });
  }
  return futures;
}

std::vector<AnalysisResult> AnalysisSession::run_batch(
    std::span<const AnalysisRequest> requests) {
  std::vector<std::future<AnalysisResult>> futures = run_batch_async(requests);
  std::vector<AnalysisResult> results;
  results.reserve(futures.size());
  std::exception_ptr first_error;
  for (std::future<AnalysisResult>& f : futures) {
    try {
      results.push_back(f.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
      results.emplace_back();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace ara
