#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/reference_engine.hpp"
#include "synth/scenarios.hpp"
#include "testdata.hpp"

namespace ara::io {
namespace {

TEST(BinaryIo, YetRoundTrip) {
  const synth::Scenario s = synth::tiny(32, 3);
  std::stringstream buf;
  write_yet(buf, s.yet);
  const Yet loaded = read_yet(buf);
  EXPECT_EQ(loaded.catalogue_size(), s.yet.catalogue_size());
  EXPECT_EQ(loaded.trial_count(), s.yet.trial_count());
  EXPECT_EQ(loaded.occurrences(), s.yet.occurrences());
  EXPECT_EQ(loaded.offsets(), s.yet.offsets());
}

TEST(BinaryIo, EltRoundTrip) {
  Elt elt({{3, 1.5}, {7, 2.25}}, {1.1, 10.0, 1e6, 0.75}, 100);
  std::stringstream buf;
  write_elt(buf, elt);
  const Elt loaded = read_elt(buf);
  EXPECT_EQ(loaded.records(), elt.records());
  EXPECT_EQ(loaded.terms(), elt.terms());
  EXPECT_EQ(loaded.catalogue_size(), 100u);
}

TEST(BinaryIo, PortfolioRoundTrip) {
  const synth::Scenario s = synth::tiny(4, 7);
  std::stringstream buf;
  write_portfolio(buf, s.portfolio);
  const Portfolio loaded = read_portfolio(buf);
  ASSERT_EQ(loaded.elt_count(), s.portfolio.elt_count());
  ASSERT_EQ(loaded.layer_count(), s.portfolio.layer_count());
  for (std::size_t i = 0; i < loaded.elt_count(); ++i) {
    EXPECT_EQ(loaded.elts()[i].records(), s.portfolio.elts()[i].records());
  }
  for (std::size_t i = 0; i < loaded.layer_count(); ++i) {
    EXPECT_EQ(loaded.layers()[i].name, s.portfolio.layers()[i].name);
    EXPECT_EQ(loaded.layers()[i].elt_indices,
              s.portfolio.layers()[i].elt_indices);
    EXPECT_EQ(loaded.layers()[i].terms, s.portfolio.layers()[i].terms);
  }
}

TEST(BinaryIo, YltRoundTrip) {
  const synth::Scenario s = synth::tiny(16, 2);
  ReferenceEngine engine;
  const Ylt ylt = engine.run(s.portfolio, s.yet).ylt;
  std::stringstream buf;
  write_ylt(buf, ylt);
  const Ylt loaded = read_ylt(buf);
  ASSERT_EQ(loaded.layer_count(), ylt.layer_count());
  ASSERT_EQ(loaded.trial_count(), ylt.trial_count());
  EXPECT_EQ(loaded.annual_raw(), ylt.annual_raw());
  EXPECT_EQ(loaded.max_occurrence_raw(), ylt.max_occurrence_raw());
}

TEST(BinaryIo, RejectsBadMagic) {
  std::stringstream buf;
  buf << "NOTAMAGICHEADER and some garbage";
  EXPECT_THROW(read_yet(buf), std::runtime_error);
}

TEST(BinaryIo, RejectsWrongTypeMagic) {
  const synth::Scenario s = synth::tiny(4, 1);
  std::stringstream buf;
  write_yet(buf, s.yet);
  EXPECT_THROW(read_elt(buf), std::runtime_error);  // YET magic, ELT reader
}

TEST(BinaryIo, RejectsTruncatedStream) {
  const synth::Scenario s = synth::tiny(16, 4);
  std::stringstream buf;
  write_yet(buf, s.yet);
  const std::string full = buf.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_yet(truncated), std::runtime_error);
}

TEST(BinaryIo, RejectsEmptyStream) {
  std::stringstream buf;
  EXPECT_THROW(read_portfolio(buf), std::runtime_error);
}

TEST(BinaryIo, FileHelpersRoundTrip) {
  const synth::Scenario s = synth::tiny(8, 5);
  // All fixture paths come from the shared helper, so the suite does
  // not depend on the build/working directory (tests/testdata.hpp).
  save_yet(testdata::scratch_path("binary_io_yet.bin"), s.yet);
  save_portfolio(testdata::scratch_path("binary_io_portfolio.bin"),
                 s.portfolio);
  const Yet yet = load_yet(testdata::scratch_path("binary_io_yet.bin"));
  const Portfolio p =
      load_portfolio(testdata::scratch_path("binary_io_portfolio.bin"));
  EXPECT_EQ(yet.occurrences(), s.yet.occurrences());
  EXPECT_EQ(p.layer_count(), s.portfolio.layer_count());
  EXPECT_THROW(load_yet(testdata::scratch_path("does_not_exist.bin")),
               std::runtime_error);
}

TEST(BinaryIo, YltTrailerDetectsBitFlips) {
  const synth::Scenario s = synth::tiny(16, 2);
  ReferenceEngine engine;
  const Ylt ylt = engine.run(s.portfolio, s.yet).ylt;
  std::stringstream buf;
  write_ylt(buf, ylt);
  std::string bytes = buf.str();
  // A flip anywhere in either table must fail the load with a message
  // naming the corrupted row. Header: 8 magic + 4 version + 2 x u64.
  const std::size_t header = 8 + 4 + 8 + 8;
  const std::size_t table_bytes =
      ylt.layer_count() * ylt.trial_count() * sizeof(double);
  for (const std::size_t offset :
       {header, header + table_bytes / 2, header + 2 * table_bytes - 1}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    std::stringstream in(corrupt);
    try {
      read_ylt(in);
      FAIL() << "flip at byte " << offset << " loaded silently";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
                std::string::npos)
          << e.what();
    }
  }
  // A flip inside the trailer itself must also refuse the load.
  std::string corrupt = bytes;
  corrupt.back() = static_cast<char>(corrupt.back() ^ 0x01);
  std::stringstream in(corrupt);
  EXPECT_THROW(read_ylt(in), std::runtime_error);
  // The unflipped bytes still load, and bitwise match.
  std::stringstream ok(bytes);
  EXPECT_EQ(read_ylt(ok).annual_raw(), ylt.annual_raw());
}

TEST(BinaryIo, YltTruncatedTrailerFailsLoudly) {
  const synth::Scenario s = synth::tiny(8, 1);
  ReferenceEngine engine;
  const Ylt ylt = engine.run(s.portfolio, s.yet).ylt;
  std::stringstream buf;
  write_ylt(buf, ylt);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 2);  // half a trailer CRC missing
  std::stringstream in(bytes);
  EXPECT_THROW(read_ylt(in), std::runtime_error);
}

TEST(BinaryIo, YltVersionOneFilesStillLoad) {
  // Files written before the CRC trailer (version 1: header + the two
  // tables, nothing after) must keep loading byte for byte.
  const synth::Scenario s = synth::tiny(12, 3);
  ReferenceEngine engine;
  const Ylt ylt = engine.run(s.portfolio, s.yet).ylt;
  std::stringstream v1;
  v1.write("ARAYLT01", 8);
  const std::uint32_t version = 1;
  v1.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint64_t layers = ylt.layer_count();
  const std::uint64_t trials = ylt.trial_count();
  v1.write(reinterpret_cast<const char*>(&layers), sizeof(layers));
  v1.write(reinterpret_cast<const char*>(&trials), sizeof(trials));
  v1.write(reinterpret_cast<const char*>(ylt.annual_raw().data()),
           static_cast<std::streamsize>(ylt.annual_raw().size() *
                                        sizeof(double)));
  v1.write(reinterpret_cast<const char*>(ylt.max_occurrence_raw().data()),
           static_cast<std::streamsize>(ylt.max_occurrence_raw().size() *
                                        sizeof(double)));
  const Ylt loaded = read_ylt(v1);
  EXPECT_EQ(loaded.annual_raw(), ylt.annual_raw());
  EXPECT_EQ(loaded.max_occurrence_raw(), ylt.max_occurrence_raw());
}

// A header count the remaining bytes cannot hold fails before it sizes
// an allocation: each decoder gets a well-formed file whose count field
// claims 2^50 records — at 8+ bytes a record, an allocation of
// petabytes.
TEST(BinaryIo, InflatedHeaderCountsFailBeforeAllocating) {
  const auto inflated = [](const std::string& bytes, std::size_t offset) {
    std::string patched = bytes;
    const std::uint64_t huge = std::uint64_t{1} << 50;
    std::memcpy(patched.data() + offset, &huge, sizeof(huge));
    return patched;
  };
  const auto bytes_of = [](const auto& write) {
    std::ostringstream os;
    write(os);
    return os.str();
  };
  const synth::Scenario s = synth::tiny(8, 4);
  // Header layouts: 8-byte magic, 4-byte version, then the fields.
  const std::string yet =
      bytes_of([&](std::ostream& os) { write_yet(os, s.yet); });
  const std::string elt = bytes_of(
      [&](std::ostream& os) { write_elt(os, s.portfolio.elts()[0]); });
  const std::string portfolio =
      bytes_of([&](std::ostream& os) { write_portfolio(os, s.portfolio); });
  const std::string ylt =
      bytes_of([&](std::ostream& os) { write_ylt(os, Ylt(2, 8)); });
  std::size_t layer_count_at = 12 + 8;
  for (const Elt& e : s.portfolio.elts()) {
    layer_count_at += bytes_of([&](std::ostream& os) { write_elt(os, e); })
                          .size();
  }

  const auto expect_rejected = [](const std::string& bytes, auto read,
                                   const char* what) {
    std::istringstream is(bytes);
    try {
      read(is);
      ADD_FAILURE() << what << ": inflated count accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bytes left in the stream"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  const auto yet_reader = [](std::istream& is) { return read_yet(is); };
  const auto elt_reader = [](std::istream& is) { return read_elt(is); };
  const auto portfolio_reader = [](std::istream& is) {
    return read_portfolio(is);
  };
  const auto ylt_reader = [](std::istream& is) { return read_ylt(is); };
  expect_rejected(inflated(yet, 16), yet_reader, "YET trials");
  expect_rejected(inflated(yet, 24), yet_reader, "YET occurrences");
  expect_rejected(inflated(elt, 48), elt_reader, "ELT records");
  expect_rejected(inflated(portfolio, 12), portfolio_reader, "portfolio ELTs");
  expect_rejected(inflated(portfolio, 12 + 8 + 48), portfolio_reader,
                  "portfolio ELT records");
  expect_rejected(inflated(portfolio, layer_count_at), portfolio_reader,
                  "portfolio layers");
  expect_rejected(inflated(ylt, 12), ylt_reader, "YLT layers");
  expect_rejected(inflated(ylt, 20), ylt_reader, "YLT trials");
}

TEST(BinaryIo, AnalysisReproducibleFromSavedInputs) {
  // Save -> load -> run must equal run on the originals (bitwise).
  const synth::Scenario s = synth::tiny(16, 6);
  std::stringstream ybuf, pbuf;
  write_yet(ybuf, s.yet);
  write_portfolio(pbuf, s.portfolio);
  const Yet yet = read_yet(ybuf);
  const Portfolio portfolio = read_portfolio(pbuf);
  ReferenceEngine engine;
  const Ylt a = engine.run(s.portfolio, s.yet).ylt;
  const Ylt b = engine.run(portfolio, yet).ylt;
  EXPECT_EQ(a.annual_raw(), b.annual_raw());
}

}  // namespace
}  // namespace ara::io
