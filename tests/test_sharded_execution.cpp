// The sharding-identity wall: a trial-sharded run must be
// indistinguishable from the monolithic one — bitwise-identical YLT,
// identical op counts, bitwise-identical simulated seconds — for every
// engine kind, across shard sizes bracketing the edge cases (1 trial
// per shard, a size that does not divide the trial count, half, exact,
// and larger-than-the-YET), on portfolios whose layers share ELTs and
// whose layers hold distinct ELTs, and through the reinstatement and
// secondary-uncertainty extension paths. Sharding is exactly
// concatenative in the trial dimension (DESIGN.md §5); this suite is
// the contract.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/failpoint.hpp"
#include "core/session.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

constexpr std::size_t kTrials = 26;

std::vector<std::size_t> shard_sizes(std::size_t trials) {
  return {1, 7, trials / 2, trials, trials + 1};
}

// A portfolio whose two layers cover disjoint halves of the ELT pool
// (tiny()'s generated layers draw from a shared pool).
Portfolio distinct_elt_portfolio(const synth::Scenario& s) {
  std::vector<Elt> elts = s.portfolio.elts();
  Layer a;
  a.name = "distinct_a";
  a.elt_indices = {0, 1};
  a.terms = s.portfolio.layers()[0].terms;
  Layer b;
  b.name = "distinct_b";
  b.elt_indices = {2, 3};
  b.terms = s.portfolio.layers()[1].terms;
  return Portfolio(std::move(elts), {std::move(a), std::move(b)});
}

AnalysisRequest request_for(const Portfolio& portfolio, const Yet& yet) {
  AnalysisRequest request;
  request.portfolio = &portfolio;
  request.yet = &yet;
  return request;
}

ExecutionPolicy sharded_policy(EngineKind kind, std::size_t shard_trials) {
  ExecutionPolicy policy = ExecutionPolicy::with_engine(kind);
  policy.shard_trials = shard_trials;
  return policy;
}

void expect_identical(const SimulationResult& sharded,
                      const SimulationResult& mono, const char* what) {
  ASSERT_EQ(sharded.ylt.layer_count(), mono.ylt.layer_count()) << what;
  ASSERT_EQ(sharded.ylt.trial_count(), mono.ylt.trial_count()) << what;
  EXPECT_EQ(sharded.ylt.annual_raw(), mono.ylt.annual_raw()) << what;
  EXPECT_EQ(sharded.ylt.max_occurrence_raw(), mono.ylt.max_occurrence_raw())
      << what;
  EXPECT_EQ(sharded.ops, mono.ops) << what;
  // Bitwise, not approximate: the merge reconstitutes the monolithic
  // accounting as a pure function of the merged workload.
  EXPECT_EQ(sharded.simulated_seconds, mono.simulated_seconds) << what;
  EXPECT_EQ(sharded.engine_name, mono.engine_name) << what;
  EXPECT_EQ(sharded.devices, mono.devices) << what;
}

void run_identity_wall(const Portfolio& portfolio, const Yet& yet) {
  AnalysisSession session;
  for (const EngineKind kind : all_engine_kinds()) {
    AnalysisRequest mono_request = request_for(portfolio, yet);
    mono_request.policy = ExecutionPolicy::with_engine(kind);
    const AnalysisResult mono = session.run(mono_request);
    ASSERT_EQ(mono.shard_count, 1u);

    for (const std::size_t shard : shard_sizes(yet.trial_count())) {
      AnalysisRequest request = request_for(portfolio, yet);
      request.policy = sharded_policy(kind, shard);
      const AnalysisResult sharded = session.run(request);

      const std::string what = engine_kind_name(kind) + "/shard=" +
                               std::to_string(shard);
      expect_identical(sharded.simulation, mono.simulation, what.c_str());
      if (shard < yet.trial_count()) {
        EXPECT_GT(sharded.shard_count, 1u) << what;
      }
    }
  }
}

TEST(ShardedExecution, IdentityWallSharedEltPortfolio) {
  const synth::Scenario s = synth::tiny(kTrials, 7);
  run_identity_wall(s.portfolio, s.yet);
}

TEST(ShardedExecution, IdentityWallDistinctEltPortfolio) {
  const synth::Scenario s = synth::tiny(kTrials, 9);
  const Portfolio distinct = distinct_elt_portfolio(s);
  run_identity_wall(distinct, s.yet);
}

// A memory budget (rather than an explicit shard size) must take the
// same sharded path and produce the same bitwise-identical result.
TEST(ShardedExecution, MemoryBudgetShardingIsIdentical) {
  const synth::Scenario s = synth::tiny(kTrials, 11);
  AnalysisSession session;

  AnalysisRequest mono = request_for(s.portfolio, s.yet);
  mono.policy = ExecutionPolicy::with_engine(EngineKind::kMultiCore);

  AnalysisRequest budgeted = request_for(s.portfolio, s.yet);
  ExecutionPolicy policy =
      ExecutionPolicy::with_engine(EngineKind::kMultiCore);
  // Enough for a handful of trials per shard.
  policy.memory_budget_bytes = 2048;
  budgeted.policy = policy;

  const ShardPlan plan = session.shard_plan(s.portfolio, s.yet, policy);
  EXPECT_GT(plan.shard_count(), 1u);
  EXPECT_LT(plan.shard_trials, s.yet.trial_count());

  const AnalysisResult a = session.run(budgeted);
  const AnalysisResult b = session.run(mono);
  EXPECT_EQ(a.shard_count, plan.shard_count());
  expect_identical(a.simulation, b.simulation, "memory budget");
}

// Extension paths shard too: reinstatement outcomes are per-trial
// independent, and the secondary-uncertainty damage draws are keyed by
// the global trial index — shard boundaries must not move either.
TEST(ShardedExecution, ReinstatementPathIsIdentical) {
  const synth::Scenario s = synth::tiny(kTrials, 13);

  ext::ReinstatementTerms terms;
  terms.occ_retention = 500.0;
  terms.occ_limit = 20000.0;
  terms.reinstatements = 2;
  terms.premium_rate = 1.0;
  terms.upfront_premium = 1000.0;

  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.reinstatement_terms.assign(s.portfolio.layer_count(), terms);
  request.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);

  AnalysisSession session;
  const AnalysisResult mono = session.run(request);
  ASSERT_TRUE(mono.reinstatements.has_value());

  for (const std::size_t shard : shard_sizes(s.yet.trial_count())) {
    AnalysisRequest sharded_request = request;
    sharded_request.policy =
        sharded_policy(EngineKind::kSequentialFused, shard);
    const AnalysisResult sharded = session.run(sharded_request);

    expect_identical(sharded.simulation, mono.simulation, "reinstatement");
    ASSERT_TRUE(sharded.reinstatements.has_value());
    for (std::size_t a = 0; a < mono.reinstatements->layer_count(); ++a) {
      for (TrialId t = 0; t < mono.reinstatements->trial_count(); ++t) {
        const auto& lhs = sharded.reinstatements->at(a, t);
        const auto& rhs = mono.reinstatements->at(a, t);
        EXPECT_EQ(lhs.recovered, rhs.recovered);
        EXPECT_EQ(lhs.reinstated, rhs.reinstated);
        EXPECT_EQ(lhs.reinstatement_premium, rhs.reinstatement_premium);
      }
    }
  }
}

TEST(ShardedExecution, SecondaryUncertaintyPathIsIdentical) {
  const synth::Scenario s = synth::tiny(kTrials, 17);

  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.secondary_uncertainty = ext::SecondaryUncertaintyConfig{};

  AnalysisSession session;
  const AnalysisResult mono = session.run(request);

  for (const std::size_t shard : shard_sizes(s.yet.trial_count())) {
    AnalysisRequest sharded_request = request;
    ExecutionPolicy policy;
    policy.shard_trials = shard;
    sharded_request.policy = policy;
    const AnalysisResult sharded = session.run(sharded_request);
    expect_identical(sharded.simulation, mono.simulation,
                     "secondary uncertainty");
  }
}

// The metric passes operate on the merged YLT, so their outputs must
// be exactly the one-shot values.
TEST(ShardedExecution, DerivedMetricsMatchOneShot) {
  const synth::Scenario s = synth::tiny(kTrials, 19);

  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.metrics = MetricsSpec::all();
  request.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);

  AnalysisSession session;
  const AnalysisResult mono = session.run(request);

  AnalysisRequest sharded_request = request;
  sharded_request.policy = sharded_policy(EngineKind::kSequentialFused, 7);
  const AnalysisResult sharded = session.run(sharded_request);

  ASSERT_EQ(sharded.metrics.layers.size(), mono.metrics.layers.size());
  for (std::size_t a = 0; a < mono.metrics.layers.size(); ++a) {
    EXPECT_EQ(sharded.metrics.layers[a].aal, mono.metrics.layers[a].aal);
    EXPECT_EQ(sharded.metrics.layers[a].var_at(0.99),
              mono.metrics.layers[a].var_at(0.99));
    EXPECT_EQ(sharded.metrics.layers[a].tvar_at(0.99),
              mono.metrics.layers[a].tvar_at(0.99));
    EXPECT_EQ(sharded.metrics.layers[a].oep_at(100.0),
              mono.metrics.layers[a].oep_at(100.0));
  }
  ASSERT_TRUE(sharded.metrics.portfolio.has_value());
  ASSERT_TRUE(mono.metrics.portfolio.has_value());
  EXPECT_EQ(sharded.metrics.portfolio->totals.aal,
            mono.metrics.portfolio->totals.aal);
  EXPECT_EQ(sharded.metrics.portfolio->totals.tvar_at(0.99),
            mono.metrics.portfolio->totals.tvar_at(0.99));
}

// Engines also honour a trial range directly (the layer below the
// session): a partial run's rows equal the monolithic rows.
TEST(ShardedExecution, EnginePartialRunsMatchMonolithicRows) {
  const synth::Scenario s = synth::tiny(kTrials, 23);
  for (const EngineKind kind : all_engine_kinds()) {
    const auto engine = make_engine(ExecutionPolicy::with_engine(kind));
    const SimulationResult mono = engine->run(s.portfolio, s.yet);

    EngineContext ctx;
    ctx.trials = TrialRange{5, 17};
    const SimulationResult part = engine->run(s.portfolio, s.yet, ctx);
    ASSERT_EQ(part.trial_begin, 5u);
    ASSERT_EQ(part.ylt.trial_count(), 12u);
    for (std::size_t a = 0; a < mono.ylt.layer_count(); ++a) {
      for (TrialId t = 0; t < 12; ++t) {
        EXPECT_EQ(part.ylt.annual_loss(a, t), mono.ylt.annual_loss(a, t + 5))
            << engine_kind_name(kind);
        EXPECT_EQ(part.ylt.max_occurrence_loss(a, t),
                  mono.ylt.max_occurrence_loss(a, t + 5))
            << engine_kind_name(kind);
      }
    }
  }
}

// A worker that dies mid-shard must surface through the caller's
// future as an error naming the trial range it was running, not as an
// anonymous pool failure (the batch caller needs to know WHICH slice
// of the workload is missing). Fixed, adaptive and race runs share the
// shard dispatch, so all three name the range. Forced via the
// shard.worker_throw failpoint; skipped when failpoints are compiled
// out (Release).
TEST(ShardedExecution, WorkerFailureNamesTheShardRange) {
  if (!fail::compiled_in()) {
    GTEST_SKIP() << "failpoints compiled out";
  }
  const synth::Scenario s = synth::tiny(kTrials, 11);
  AnalysisSession session;
  AnalysisRequest request = request_for(s.portfolio, s.yet);
  request.policy = sharded_policy(EngineKind::kSequentialFused, 7);

  const auto expect_shard_named = [](const auto& run, const char* what) {
    fail::Registry::instance().arm("shard.worker_throw", 1.0, /*seed=*/1,
                                   /*value=*/0.0, /*max_fires=*/1);
    try {
      run();
      ADD_FAILURE() << what << ": injected worker fault did not surface";
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("shard ["), std::string::npos)
          << what << ": " << message;
      EXPECT_NE(message.find(") failed: injected shard worker fault"),
                std::string::npos)
          << what << ": " << message;
    }
    fail::Registry::instance().disarm_all();
  };

  expect_shard_named(
      [&] {
        std::vector<AnalysisRequest> batch{request};
        auto futures = session.run_batch_async(batch);
        futures[0].get();
      },
      "fixed");

  AnalysisRequest adaptive = request;
  adaptive.stopping.emplace();
  adaptive.stopping->min_trials = 7;
  expect_shard_named([&] { session.run(adaptive); }, "adaptive");

  const std::vector<RaceEntry> entries{{"a", &s.portfolio},
                                       {"b", &s.portfolio}};
  RaceSpec race;
  race.min_trials = 7;
  race.policy = sharded_policy(EngineKind::kSequentialFused, 7);
  expect_shard_named([&] { session.race(entries, s.yet, race); }, "race");

  // The session is not poisoned: the same request succeeds afterwards
  // and still matches the monolithic run bitwise.
  const AnalysisResult sharded = session.run(request);
  AnalysisRequest mono = request_for(s.portfolio, s.yet);
  mono.policy = ExecutionPolicy::with_engine(EngineKind::kSequentialFused);
  const AnalysisResult reference = session.run(mono);
  EXPECT_EQ(sharded.simulation.ylt.annual_raw(),
            reference.simulation.ylt.annual_raw());
}

}  // namespace
}  // namespace ara
