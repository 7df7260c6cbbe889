// Seeded input generation. Every input comes from the library's synth
// module; the seed changes every loss, event and occurrence, while the
// *shape* of the work (layer structure, trial count, table sizes) is
// fixed, so a run's cost does not swing with the seed.
#pragma once

#include <cstdint>
#include <string>

#include "core/layer.hpp"
#include "core/yet.hpp"

namespace perfbench {

/// Trials of the book the distributed workload prices.
inline constexpr std::size_t kBookTrials = 500;

struct Dataset {
  ara::Yet yet;
  ara::Portfolio portfolio;
};

/// Events in the book's catalogue: its 40 dense ELT tables take 16 MB,
/// more than a core's L2, so lookups go to the shared LLC.
inline constexpr ara::EventId kBookCatalogue = 50000;

/// The multi-layer book: 16 layers drawing 3-30 distinct ELTs from a
/// 40-ELT Pareto pool over a `catalogue_events`-event catalogue,
/// Poisson years of ~800 events. The layer composition is
/// synth::multi_layer_book's default one; `seed` regenerates the YET
/// and every ELT's events and losses.
Dataset book_dataset(std::size_t trials, std::uint64_t seed,
                     ara::EventId catalogue_events = kBookCatalogue);

/// The paper's workload shape (1 layer x 15 ELTs, ~1,000 events per
/// trial), scaled down by `scale_down` as synth::paper_scaled does;
/// `seed` regenerates the YET, the portfolio is paper_scaled's default.
Dataset quote_dataset(std::size_t scale_down, std::uint64_t seed);

/// Writes DIR/yet.bin and DIR/portfolio.bin (the ara_cli layout).
void write_dataset(const Dataset& data, const std::string& dir);

inline std::string yet_path(const std::string& dir) { return dir + "/yet.bin"; }
inline std::string portfolio_path(const std::string& dir) {
  return dir + "/portfolio.bin";
}

/// FNV-1a over DIR/yet.bin and DIR/portfolio.bin (the self-test checks
/// that another seed gives other inputs).
std::uint64_t digest_dataset(const std::string& dir);

}  // namespace perfbench
