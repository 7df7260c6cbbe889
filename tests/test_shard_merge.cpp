// Property tests for the shard merge algebra (core/shard.hpp): the
// merge of partial SimulationResults is associative and independent of
// completion order (shards may finish in any interleaving), and risk
// measures computed from a merged YLT equal the one-shot values
// exactly. Plus the plan arithmetic the scheduler relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "core/cpu_engines.hpp"
#include "core/metrics/portfolio_rollup.hpp"
#include "core/metrics/risk_measures.hpp"
#include "core/shard.hpp"
#include "synth/scenarios.hpp"

namespace ara {
namespace {

// Partial results of one engine over a full shard partition.
std::vector<SimulationResult> make_partials(const synth::Scenario& s,
                                            std::size_t shard_trials) {
  const FusedSequentialEngine engine;
  std::vector<SimulationResult> partials;
  for (const TrialRange& r : shard_ranges(0, s.yet.trial_count(),
                                          shard_trials)) {
    EngineContext ctx;
    ctx.trials = r;
    partials.push_back(engine.run(s.portfolio, s.yet, ctx));
  }
  return partials;
}

SimulationResult merge_in_order(const synth::Scenario& s,
                                const std::vector<SimulationResult>& partials,
                                const std::vector<std::size_t>& order) {
  ShardMerger merger(s.portfolio.layer_count(), s.yet.trial_count());
  for (const std::size_t i : order) merger.add(partials[i]);
  return merger.finish();
}

TEST(ShardPlanArithmetic, CoversEveryTrialExactlyOnce) {
  for (const std::size_t total : {0u, 1u, 7u, 26u, 100u}) {
    for (const std::size_t shard : {1u, 3u, 7u, 26u, 101u}) {
      const ShardPlan plan{total, shard};
      const std::vector<TrialRange> ranges = shard_ranges(0, total, shard);
      // An empty workload is still one (empty) monolithic shard.
      EXPECT_EQ(std::max<std::size_t>(ranges.size(), 1), plan.shard_count())
          << total << "/" << shard;
      std::size_t covered = 0;
      std::size_t expected_begin = 0;
      for (const TrialRange& r : ranges) {
        EXPECT_EQ(r.begin, expected_begin);
        EXPECT_LE(r.end, total);
        covered += r.size();
        expected_begin = r.end;
      }
      EXPECT_EQ(covered, total) << total << "/" << shard;
    }
  }
}

TEST(ShardPlanArithmetic, BudgetDerivesShardSize) {
  const double per_trial = shard_bytes_per_trial(2, 20.0);
  EXPECT_GT(per_trial, 0.0);
  const ShardPlan plan = plan_shards(1000, 0, static_cast<std::size_t>(
                                                  per_trial * 50),
                                     per_trial);
  EXPECT_EQ(plan.shard_trials, 50u);
  // Explicit shard size wins over the budget.
  EXPECT_EQ(plan_shards(1000, 8, 1 << 20, per_trial).shard_trials, 8u);
  // No budget, no explicit size: monolithic.
  EXPECT_EQ(plan_shards(1000, 0, 0, per_trial).shard_count(), 1u);
  // A budget below one trial still makes progress.
  EXPECT_EQ(plan_shards(1000, 0, 1, per_trial).shard_trials, 1u);
}

TEST(ShardMergeAlgebra, CompletionOrderIsIrrelevant) {
  const synth::Scenario s = synth::tiny(26, 31);
  const std::vector<SimulationResult> partials = make_partials(s, 5);
  ASSERT_GT(partials.size(), 3u);

  std::vector<std::size_t> order(partials.size());
  std::iota(order.begin(), order.end(), 0);
  const SimulationResult forward = merge_in_order(s, partials, order);

  std::mt19937 rng(2026);
  for (int perm = 0; perm < 8; ++perm) {
    std::shuffle(order.begin(), order.end(), rng);
    const SimulationResult shuffled = merge_in_order(s, partials, order);
    EXPECT_EQ(shuffled.ylt.annual_raw(), forward.ylt.annual_raw());
    EXPECT_EQ(shuffled.ylt.max_occurrence_raw(),
              forward.ylt.max_occurrence_raw());
    EXPECT_EQ(shuffled.ops, forward.ops);
  }
}

TEST(ShardMergeAlgebra, MergeIsAssociative) {
  // Merging (A+B)+C+... equals A+(B+C+...): fold a sub-merger's
  // shards into a full merger in grouped order vs flat order.
  const synth::Scenario s = synth::tiny(24, 37);
  const std::vector<SimulationResult> partials = make_partials(s, 6);
  ASSERT_EQ(partials.size(), 4u);

  ShardMerger flat(s.portfolio.layer_count(), s.yet.trial_count());
  for (const SimulationResult& p : partials) flat.add(p);
  const SimulationResult lhs = flat.finish();

  // Grouped: merge {0,1} into a half-size intermediate result first,
  // then treat it as one partial next to {2,3}.
  ShardMerger head(s.portfolio.layer_count(),
                   partials[0].ylt.trial_count() +
                       partials[1].ylt.trial_count());
  SimulationResult shifted0 = partials[0];
  SimulationResult shifted1 = partials[1];
  const std::size_t base = shifted0.trial_begin;
  shifted0.trial_begin -= base;
  shifted1.trial_begin -= base;
  head.add(shifted0);
  head.add(shifted1);
  SimulationResult combined = head.finish();
  combined.trial_begin = base;

  ShardMerger grouped(s.portfolio.layer_count(), s.yet.trial_count());
  grouped.add(combined);
  grouped.add(partials[2]);
  grouped.add(partials[3]);
  const SimulationResult rhs = grouped.finish();

  EXPECT_EQ(lhs.ylt.annual_raw(), rhs.ylt.annual_raw());
  EXPECT_EQ(lhs.ylt.max_occurrence_raw(), rhs.ylt.max_occurrence_raw());
  EXPECT_EQ(lhs.ops, rhs.ops);
}

TEST(ShardMergeAlgebra, RiskMeasuresFromMergedYltMatchOneShot) {
  const synth::Scenario s = synth::tiny(26, 41);
  const FusedSequentialEngine engine;
  const SimulationResult mono = engine.run(s.portfolio, s.yet);

  const std::vector<SimulationResult> partials = make_partials(s, 7);
  std::vector<std::size_t> order(partials.size());
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(7);
  std::shuffle(order.begin(), order.end(), rng);
  const SimulationResult merged = merge_in_order(s, partials, order);

  ASSERT_EQ(merged.ylt.annual_raw(), mono.ylt.annual_raw());
  for (std::size_t a = 0; a < s.portfolio.layer_count(); ++a) {
    const metrics::LayerRiskSummary lhs =
        metrics::summarize_layer(merged.ylt, a);
    const metrics::LayerRiskSummary rhs =
        metrics::summarize_layer(mono.ylt, a);
    EXPECT_EQ(lhs.aal, rhs.aal);
    EXPECT_EQ(lhs.std_dev, rhs.std_dev);
    EXPECT_EQ(lhs.var_99, rhs.var_99);
    EXPECT_EQ(lhs.tvar_99, rhs.tvar_99);
    EXPECT_EQ(lhs.pml_100yr, rhs.pml_100yr);
    EXPECT_EQ(lhs.oep_100yr, rhs.oep_100yr);
    EXPECT_EQ(lhs.max_annual, rhs.max_annual);
  }
  const metrics::PortfolioRollup lhs = metrics::rollup_portfolio(merged.ylt);
  const metrics::PortfolioRollup rhs = metrics::rollup_portfolio(mono.ylt);
  EXPECT_EQ(lhs.aal, rhs.aal);
  EXPECT_EQ(lhs.var_99, rhs.var_99);
  EXPECT_EQ(lhs.tvar_99, rhs.tvar_99);
}

TEST(ShardMergeAlgebra, RejectsGapsOverlapsAndDoubleCoverage) {
  const synth::Scenario s = synth::tiny(20, 43);
  const std::vector<SimulationResult> partials = make_partials(s, 10);
  ASSERT_EQ(partials.size(), 2u);

  // Gap: finishing with half the trials missing throws.
  ShardMerger gap(s.portfolio.layer_count(), s.yet.trial_count());
  gap.add(partials[0]);
  EXPECT_EQ(gap.merged_trials(), 10u);
  EXPECT_THROW(gap.finish(), std::logic_error);

  // Overlap: the same shard twice is rejected at add.
  ShardMerger overlap(s.portfolio.layer_count(), s.yet.trial_count());
  overlap.add(partials[0]);
  EXPECT_THROW(overlap.add(partials[0]), std::logic_error);

  // Out-of-bounds placement is rejected by the block copy.
  ShardMerger bounds(s.portfolio.layer_count(), 5);
  EXPECT_THROW(bounds.add(partials[1]), std::invalid_argument);
}

TEST(ShardMergeAlgebra, ErrorsNameTheOffendingTrialRanges) {
  const synth::Scenario s = synth::tiny(20, 43);
  const std::vector<SimulationResult> partials = make_partials(s, 10);
  ASSERT_EQ(partials.size(), 2u);

  // Overlap names the range that was added twice.
  ShardMerger overlap(s.portfolio.layer_count(), s.yet.trial_count());
  overlap.add(partials[0]);
  try {
    overlap.add(partials[0]);
    FAIL() << "overlapping add did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[0, 10)"), std::string::npos) << what;
  }

  // A gap at finish names the uncovered range.
  ShardMerger gap(s.portfolio.layer_count(), s.yet.trial_count());
  gap.add(partials[0]);
  try {
    gap.finish();
    FAIL() << "finish over a gap did not throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[10, 20)"), std::string::npos) << what;
  }

  // Out-of-bounds names the shard's range too.
  ShardMerger bounds(s.portfolio.layer_count(), 5);
  try {
    bounds.add(partials[1]);
    FAIL() << "out-of-bounds add did not throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[10, 20)"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace ara
