#include "inputs.hpp"

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/binary.hpp"
#include "synth/catalogue.hpp"
#include "synth/elt_generator.hpp"
#include "synth/portfolio_generator.hpp"
#include "synth/rng.hpp"
#include "synth/scenarios.hpp"
#include "synth/yet_generator.hpp"

namespace perfbench {

Dataset book_dataset(std::size_t trials, std::uint64_t seed,
                     ara::EventId catalogue_events) {
  // synth::multi_layer_book's recipe, with the layer composition drawn
  // from its default seed (77 + 1) and everything else from `seed`.
  constexpr std::uint64_t kCompositionSeed = 78;
  const ara::synth::Catalogue catalogue =
      ara::synth::Catalogue::make(catalogue_events, 6, 800.0);

  ara::synth::PortfolioGeneratorConfig pc;
  pc.elt_count = 40;
  pc.layer_count = 16;
  pc.min_elts_per_layer = 3;
  pc.max_elts_per_layer = 30;
  pc.elt.record_count = 500;
  pc.elt.mean_loss = 5.0e5;
  pc.elt.severity = ara::synth::SeverityModel::kPareto;
  pc.elt.terms.retention = 2.0e4;
  pc.elt.terms.limit = 1.0e8;
  pc.seed = kCompositionSeed;
  const ara::Portfolio shape = ara::synth::generate_portfolio(catalogue, pc);

  std::vector<ara::Elt> elts;
  elts.reserve(shape.elt_count());
  for (std::size_t i = 0; i < shape.elt_count(); ++i) {
    ara::synth::EltGeneratorConfig ec = pc.elt;
    ec.terms = shape.elts()[i].terms();
    ec.seed = ara::synth::substream(seed, 1000 + i);
    elts.push_back(ara::synth::generate_elt(catalogue, ec));
  }

  // Poisson years (multi_layer_book clusters them): a clustered year
  // count swings the book's total occurrences, and so the work of a
  // run, by several percent from seed to seed.
  ara::synth::YetGeneratorConfig yc;
  yc.trials = trials;
  yc.seed = ara::synth::substream(seed, 1);

  Dataset data;
  data.yet = ara::synth::generate_yet(catalogue, yc);
  data.portfolio = ara::Portfolio(std::move(elts), shape.layers());
  return data;
}

Dataset quote_dataset(std::size_t scale_down, std::uint64_t seed) {
  // synth::paper_scaled's recipe, with the portfolio (ELT losses and
  // terms) drawn from its default seed (2013 + 1) and the YET from
  // `seed`: how many trials a quote needs depends on the loss
  // distribution, so fixing it keeps the quote's work steady while
  // every run still sees other simulated years.
  constexpr std::uint64_t kPortfolioSeed = 2014;
  const ara::synth::WorkloadShape shape = ara::synth::paper_shape();
  const ara::synth::Catalogue catalogue = ara::synth::Catalogue::make(
      static_cast<ara::EventId>(shape.catalogue_size / scale_down), 6, 1000.0);

  ara::synth::PortfolioGeneratorConfig pc;
  pc.elt_count = shape.elts_per_layer;
  pc.layer_count = 1;
  pc.min_elts_per_layer = shape.elts_per_layer;
  pc.max_elts_per_layer = shape.elts_per_layer;
  pc.elt.record_count = shape.elt_records / scale_down;
  pc.elt.mean_loss = 2.0e6;
  pc.elt.cv = 2.5;
  pc.elt.terms.retention = 1.0e5;
  pc.elt.terms.limit = 5.0e8;
  pc.elt.terms.share = 0.8;
  pc.seed = kPortfolioSeed;

  ara::synth::YetGeneratorConfig yc;
  yc.trials = shape.trials / scale_down;
  yc.target_events_per_trial = shape.events_per_trial;
  yc.seed = seed;

  Dataset data;
  data.yet = ara::synth::generate_yet(catalogue, yc);
  data.portfolio = ara::synth::generate_portfolio(catalogue, pc);
  return data;
}

void write_dataset(const Dataset& data, const std::string& dir) {
  std::filesystem::create_directories(dir);
  ara::io::save_yet(yet_path(dir), data.yet);
  ara::io::save_portfolio(portfolio_path(dir), data.portfolio);
}

std::uint64_t digest_dataset(const std::string& dir) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::vector<char> buf(1 << 16);
  for (const std::string& path : {yet_path(dir), portfolio_path(dir)}) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path);
    while (in) {
      in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
      for (std::streamsize i = 0; i < in.gcount(); ++i) {
        digest ^= static_cast<unsigned char>(buf[static_cast<std::size_t>(i)]);
        digest *= 0x100000001b3ULL;
      }
    }
  }
  return digest;
}

}  // namespace perfbench
