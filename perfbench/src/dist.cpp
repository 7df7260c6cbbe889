// book_dist — job to merged result on the lease fleet: the 16-layer
// book's files run by a ShardCoordinator with two spawned ara_worker
// processes on sequential_fused, as `ara_cli run --workers 2
// --lease-timeout-ms 200` does (the coordinator loads the inputs,
// listens on a unix socket, spawns and reaps the fleet). The only
// workload that measures the dist layer: the lease protocol,
// CRC-checked blocks, the merge and every worker's own file load. Its
// traced run also measures the kernel-side layers of the book: table
// binding, the sweep at nproc threads and on one, the reduction and
// the YLT spill.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include "core/engine_factory.hpp"
#include "core/session.hpp"
#include "dist/coordinator.hpp"
#include "inputs.hpp"
#include "io/binary.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kWorkers = 2;
/// Four leases per job.
constexpr std::size_t kLeaseTrials = kBookTrials / 4;
/// A worker that finds no free lease sleeps lease_timeout_ms / 4, and
/// one leaving joins a heartbeat thread that sleeps heartbeat_ms; the
/// job ends after both. With ara_cli's 1,000 ms and the protocol's
/// 100 ms those sleeps put job times on steps ~100 ms apart, and which
/// step holds the median moves with host speed. Shorter ones keep the
/// steps below the noise.
constexpr std::uint64_t kLeaseTimeoutMs = 200;
constexpr std::uint64_t kHeartbeatMs = 10;

/// Spawned ara_worker processes; the destructor kills and reaps any
/// still running, so no exit path leaves one behind.
class Fleet {
 public:
  Fleet(const std::string& endpoint, std::size_t workers) {
    for (std::size_t i = 0; i < workers; ++i) {
      const std::string id = "perfbench-" + std::to_string(i);
      const pid_t pid = ::fork();
      if (pid < 0) throw std::runtime_error("fork failed");
      if (pid == 0) {
        ::execl(ARA_WORKER_BIN, "ara_worker", "--connect", endpoint.c_str(),
                "--id", id.c_str(), static_cast<char*>(nullptr));
        ::_exit(127);
      }
      pids_.push_back(pid);
    }
  }
  ~Fleet() {
    for (const pid_t pid : pids_) ::kill(pid, SIGKILL);
    reap();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Waits for every worker; returns how many exited with a non-zero
  /// status.
  std::size_t reap() {
    std::size_t bad = 0;
    for (const pid_t pid : pids_) {
      int status = 0;
      rusage usage{};
      if (::wait4(pid, &status, 0, &usage) != pid) continue;
      if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) ++bad;
      peak_rss_mb_ += static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
    }
    pids_.clear();
    return bad;
  }

  /// Sum of the reaped workers' peak resident sets, MiB.
  double peak_rss_mb() const noexcept { return peak_rss_mb_; }

 private:
  std::vector<pid_t> pids_;
  double peak_rss_mb_ = 0.0;
};

}  // namespace

void run_book_dist(Env& env, LayerFacts& facts) {
  const std::string dir = env.opt.workdir + "/book";
  const std::string socket = env.opt.workdir + "/dist.sock";
  Dataset data;
  const std::vector<double> setup_s =
      timed_setup(env, [&] {
        data = book_dataset(kBookTrials, env.opt.seed);
        write_dataset(data, dir);
      });
  env.inputs_digest = digest_dataset(dir);

  // The monolithic run the merged result must equal bit for bit: the
  // YLT (multicore_cpu, bitwise equal to sequential_fused in scalar
  // mode) and sequential_fused's accounting.
  ara::SimulationResult mono;
  {
    ara::parallel::ThreadPool pool(env.threads);
    ara::EngineContext ctx;
    ctx.pool = &pool;
    mono = ara::make_engine(ara::ExecutionPolicy::with_engine(
                                ara::EngineKind::kMultiCore))
               ->run(data.portfolio, data.yet, ctx);
    ara::EngineContext cost;
    cost.cost_only = true;
    mono.ops = ara::make_engine(ara::ExecutionPolicy::with_engine(
                                    ara::EngineKind::kSequentialFused))
                   ->run(data.portfolio, data.yet, cost)
                   .ops;
  }

  const std::size_t layer_count = data.portfolio.layer_count();
  if (env.tracer == nullptr) data = Dataset{};  // the traced pass needs it

  ara::dist::DistResult last;
  std::size_t bad_exits = 0;
  std::vector<double> fleet_rss_mb;  // per job: its workers' peaks, summed
  SequentialOp op;
  op.run = [&](Tracer* tr, long parent, std::uint64_t rid) {
    ara::Yet yet;
    ara::Portfolio portfolio;
    {
      Scope s(tr, "io.load_yet", parent, rid);
      yet = ara::io::load_yet(yet_path(dir));
    }
    {
      Scope s(tr, "io.load_portfolio", parent, rid);
      portfolio = ara::io::load_portfolio(portfolio_path(dir));
    }
    const ara::ExecutionPolicy policy =
        ara::ExecutionPolicy::with_engine(ara::EngineKind::kSequentialFused);
    ara::dist::DistConfig config;
    config.endpoint = ara::serve::Endpoint::parse("unix:" + socket);
    config.job.workload = ara::dist::JobWorkload::kFiles;
    config.job.yet_path = yet_path(dir);
    config.job.portfolio_path = portfolio_path(dir);
    config.job.engine = ara::engine_kind_name(*policy.engine);
    config.job.simd = static_cast<std::uint8_t>(policy.simd);
    config.job.simd_width = policy.simd_width;
    config.job.trial_count = yet.trial_count();
    config.job.layer_count = portfolio.layer_count();
    config.expected_workers = kWorkers;
    config.job.heartbeat_ms = kHeartbeatMs;
    config.lease_trials = kLeaseTrials;
    config.lease_timeout_ms = kLeaseTimeoutMs;

    ara::dist::ShardCoordinator coordinator(config);
    Fleet fleet("unix:" + coordinator.endpoint().path, kWorkers);
    ara::AnalysisRequest request;
    request.metrics = ara::metrics::MetricsSpec::all();
    {
      Scope s(tr, "dist.run", parent, rid);
      last = coordinator.run(request);
    }
    Scope s(tr, "dist.reap", parent, rid);
    bad_exits = fleet.reap();
    fleet_rss_mb.push_back(fleet.peak_rss_mb());
  };
  op.check = [&]() -> std::string {
    const ara::dist::DistCounters& c = last.counters;
    if (bad_exits != 0) return "an ara_worker exited with an error";
    if (!same_bits(last.analysis.simulation.ylt, mono.ylt) ||
        !(last.analysis.simulation.ops == mono.ops)) {
      return "book_dist result differs from the monolithic run";
    }
    const std::uint64_t ranges = (kBookTrials + kLeaseTrials - 1) / kLeaseTrials;
    if (c.blocks_accepted != ranges) {
      return "book_dist accepted " + std::to_string(c.blocks_accepted) +
             " blocks for " + std::to_string(ranges) + " leases";
    }
    if (last.analysis.metrics.layers.size() != layer_count) {
      return "book_dist metric report is incomplete";
    }
    return {};
  };
  op.layers = [&](std::uint64_t rid, std::size_t index) {
    LayerPassSpec pass;
    pass.single_thread = index < 2;
    pass.spill_path = env.opt.workdir + "/book_layers_ylt.bin";
    layer_pass(env, facts, data.portfolio, data.yet, pass, rid);
  };

  const std::vector<double> latency =
      run_window(env, facts, "book_dist.job", op);
  const double trials_per_s =
      static_cast<double>(kBookTrials) / median(latency);
  if (env.tracer != nullptr) {
    facts.note_yet(dir, data.yet);
    facts.dist = last.counters;
    facts.dist_trials_per_s = trials_per_s;
    facts.has_dist = true;
    return;
  }
  // Every process of a job at its own peak: the coordinator's, plus
  // the workers' of a typical (median) job.
  const double coordinator_mb = peak_rss_mb();
  const double fleet_mb = median(fleet_rss_mb);
  env.report.note("peak resident set: coordinator " +
                  std::to_string(coordinator_mb) + " MiB, fleet " +
                  std::to_string(fleet_mb) + " MiB (median of " +
                  std::to_string(fleet_rss_mb.size()) + " jobs)");
  report_end_to_end(env, setup_s, latency, trials_per_s, latency.size(),
                    coordinator_mb + fleet_mb);
}

}  // namespace perfbench
