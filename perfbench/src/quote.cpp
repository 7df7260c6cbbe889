// paper_quote — time to a quote of stated accuracy from files: load the
// paper-shaped dataset and run it adaptively until AAL and TVaR 99 %
// of the portfolio loss are known to 5 % at 95 % confidence. Reading
// the YET dominates; the kernel runs on a stopped prefix, and the
// stopping layer (waves, bootstrap standard errors) is exercised only
// here.
#include <algorithm>
#include <cmath>
#include <span>

#include "core/metrics/stopping.hpp"
#include "core/session.hpp"
#include "inputs.hpp"
#include "io/binary.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

/// paper_scaled(100): 10,000 trials x ~1,000 events, 15 ELTs.
constexpr std::size_t kQuoteScale = 100;
/// Wave granularity of the adaptive run (its shard size).
constexpr std::size_t kWaveTrials = 500;
/// Two-sided 99.9 % normal critical value.
constexpr double kAgreementZ = 3.2905;

/// The quote's accuracy target at the library's default floor.
ara::metrics::StoppingSpec default_floor_spec() {
  ara::metrics::StoppingSpec spec;
  spec.targets = {{ara::metrics::StopMetric::kAal, 0.0},
                  {ara::metrics::StopMetric::kTvar, 0.99}};
  spec.relative_tolerance = 0.05;
  spec.confidence = 0.95;
  return spec;
}

/// The timed quote never decides on fewer than 4,000 trials. At the
/// default floor (1,000) the stopping point hops between waves (1,000
/// to 6,000 trials) from seed to seed, and with it the work of a quote;
/// the set-up replays that default decision instead (replay_stop).
ara::metrics::StoppingSpec quote_spec() {
  ara::metrics::StoppingSpec spec = default_floor_spec();
  spec.min_trials = 4000;
  return spec;
}

struct Stop {
  std::size_t trials = 0;  ///< the frontier the rule stopped at
  std::size_t waves = 0;   ///< barriers evaluated
  bool stopped = false;
};

/// Drives an AdaptiveController over the per-trial `losses` as the
/// session's wave loop does, barrier by barrier. The decision is a
/// pure function of the spec and the loss prefix, so this is the stop
/// an adaptive session.run makes on the same trials.
Stop replay_stop(const ara::metrics::StoppingSpec& spec,
                 std::span<const double> losses, std::size_t total) {
  ara::metrics::AdaptiveController controller(spec, total, kWaveTrials);
  Stop stop;
  while (!controller.stopped() && controller.frontier() <= losses.size()) {
    const std::size_t from = controller.observed();
    controller.observe(from,
                       losses.subspan(from, controller.frontier() - from));
    controller.advance();
    ++stop.waves;
  }
  stop.trials = controller.frontier();
  stop.stopped = controller.stopped();
  return stop;
}

/// Largest disagreement between a quote's estimates and the full run's,
/// in joint standard errors.
double disagreement_z(const std::vector<ara::metrics::TargetStatus>& quote,
                      const std::vector<ara::metrics::TargetStatus>& full) {
  double z = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    z = std::max(z, std::abs(quote[i].estimate - full[i].estimate) /
                        std::hypot(quote[i].std_error, full[i].std_error));
  }
  return z;
}

ara::metrics::MetricsSpec portfolio_spec() {
  ara::metrics::MetricsSpec spec;
  spec.portfolio = true;
  spec.quantiles = {0.99};
  return spec;
}

ara::ExecutionPolicy quote_policy() {
  ara::ExecutionPolicy policy =
      ara::ExecutionPolicy::with_engine(ara::EngineKind::kMultiCore);
  policy.shard_trials = kWaveTrials;
  return policy;
}

/// Per-trial portfolio loss, layers outer (the session's association).
std::vector<double> portfolio_losses(const ara::Ylt& ylt) {
  std::vector<double> sums(ylt.trial_count(), 0.0);
  for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
    const double* row = ylt.layer_annual(l);
    for (std::size_t t = 0; t < sums.size(); ++t) sums[t] += row[t];
  }
  return sums;
}

}  // namespace

void run_paper_quote(Env& env, LayerFacts& facts) {
  const std::string dir = env.opt.workdir + "/quote";
  Dataset data;
  const std::vector<double> setup_s =
      timed_setup(env, [&] {
        data = quote_dataset(kQuoteScale, env.opt.seed);
        write_dataset(data, dir);
      });
  env.inputs_digest = digest_dataset(dir);
  const std::size_t total = data.yet.trial_count();

  // What the quote is checked against: the same estimators over every
  // trial of the full fixed run.
  const ara::metrics::StoppingSpec spec = quote_spec();
  std::vector<ara::metrics::TargetStatus> full;
  {
    ara::AnalysisSession session(quote_policy(), env.threads);
    ara::AnalysisRequest request;
    request.portfolio = &data.portfolio;
    request.yet = &data.yet;
    const std::vector<double> losses =
        portfolio_losses(session.run(request).simulation.ylt);
    full = ara::metrics::evaluate_stopping(spec, losses);

    // The same quote at the library's default floor, decided over the
    // full run's losses: where it stops, and whether the full run
    // contradicts its claim. Reported, not gated (README.md).
    const ara::metrics::StoppingSpec floor = default_floor_spec();
    const Stop stop = replay_stop(floor, losses, total);
    facts.default_floor_trials = stop.trials;
    facts.default_floor_waves = stop.waves;
    facts.default_floor_z = disagreement_z(
        ara::metrics::evaluate_stopping(
            floor, std::span<const double>(losses).first(stop.trials)),
        full);
    env.report.note(
        "default floor (" + std::to_string(floor.min_trials) +
        "): stops at " + std::to_string(stop.trials) + " trials after " +
        std::to_string(stop.waves) + " waves; disagrees with the full run by " +
        std::to_string(facts.default_floor_z) + " joint standard errors" +
        (stop.stopped && facts.default_floor_z > kAgreementZ
             ? " -- FINDING: the full run contradicts its 95 % claim"
             : ""));
  }
  if (env.tracer == nullptr) data = Dataset{};  // the traced pass needs it

  ara::AnalysisResult last;
  double quote_error = 0.0;  // largest relative error vs the full run
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
    ara::AnalysisSession session(quote_policy(), env.threads);
    ara::AnalysisRequest request;
    request.portfolio = &portfolio;
    request.yet = &yet;
    request.metrics = portfolio_spec();
    request.stopping = spec;
    Scope s(tr, "session.run", parent, rid);
    last = session.run(request);
  };
  op.check = [&]() -> std::string {
    if (!last.stopped_early) return "paper_quote did not stop early";
    if (last.half_widths.size() != spec.targets.size()) {
      return "paper_quote reported the wrong targets";
    }
    for (const ara::metrics::TargetStatus& t : last.half_widths) {
      if (!t.satisfied) return "paper_quote stopped with a target unmet";
    }
    // Two estimates of one quantity, each with its standard error: they
    // must agree within their joint 99.9 % interval. (A quote's own
    // interval is only 95 %, so "within the tolerance" fails by design
    // on some seeds; the observed error is reported separately.)
    quote_error = 0.0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      quote_error = std::max(
          quote_error, std::abs(last.half_widths[i].estimate - full[i].estimate) /
                           std::abs(full[i].estimate));
    }
    if (!(disagreement_z(last.half_widths, full) <= kAgreementZ)) {
      return "paper_quote disagrees with the full run beyond their joint "
             "99.9 % interval";
    }
    return {};
  };
  op.layers = [&](std::uint64_t rid, std::size_t index) {
    LayerPassSpec pass;
    pass.trials = {0, last.trials_executed};
    pass.single_thread = index < 2;
    layer_pass(env, facts, data.portfolio, data.yet, pass, rid);

    // Replays the stopping oracle over the executed prefix: every wave
    // barrier's evaluate_stopping, as the session ran them.
    const std::vector<double> losses = portfolio_losses(last.simulation.ylt);
    Stop stop;
    {
      Scope s(env.tracer, "stopping.eval", -1, rid);
      stop = replay_stop(spec, losses, total);
    }
    if (!stop.stopped || stop.trials != last.trials_executed) {
      env.report.fail("stopping replay disagrees with the adaptive run");
    }
    facts.stopping_waves = stop.waves;
  };

  const std::vector<double> latency =
      run_window(env, facts, "paper_quote.quote", op);
  env.report.note("quote stopped at " + std::to_string(last.trials_executed) +
                  " of " + std::to_string(total) + " trials");
  if (env.tracer != nullptr) {
    facts.note_yet(dir, data.yet);
    facts.shard_count = last.shard_count;
    facts.stopping_trials_executed = last.trials_executed;
    facts.stopping_trials_total = total;
    facts.stopping_error = quote_error;
    return;
  }
  // A quote covers the dataset: trials_per_s is the dataset's trials
  // quoted per second.
  report_end_to_end(env, setup_s, latency,
                    static_cast<double>(total) / median(latency),
                    latency.size(), peak_rss_mb());
}

}  // namespace perfbench
