#include "io/binary.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <streambuf>

#include "core/reference_engine.hpp"
#include "io/compressed_yet.hpp"
#include "io/yet_chunk.hpp"
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

  // The compressed format: a trial costs at least one varint byte.
  const std::string compressed =
      bytes_of([&](std::ostream& os) { write_yet_compressed(os, s.yet); });
  expect_rejected(inflated(compressed, 16),
                  [](std::istream& is) { return read_yet_compressed(is); },
                  "compressed YET trials");

  // The chunk reader sizes its resident offset index from the header;
  // a count of 2^64 - 1 would wrap trials + 1 to an empty index.
  const auto chunk_rejected = [&](const std::string& bytes,
                                  std::uint64_t count, const char* what) {
    std::string patched = bytes;
    std::memcpy(patched.data() + 16, &count, sizeof(count));
    const std::string path = testdata::scratch_path("binary_io_inflated.bin");
    std::ofstream(path, std::ios::binary) << patched;
    try {
      YetChunkReader reader(path);
      ADD_FAILURE() << what << ": inflated count accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("bytes left in the stream"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };
  const std::uint64_t all_ones = std::numeric_limits<std::uint64_t>::max();
  chunk_rejected(yet, std::uint64_t{1} << 50, "chunk reader trials");
  chunk_rejected(yet, all_ones, "chunk reader trials 2^64-1");
  chunk_rejected(compressed, std::uint64_t{1} << 50,
                 "chunk reader compressed trials");
  chunk_rejected(compressed, all_ones, "chunk reader compressed 2^64-1");
}

// ---- the format, pinned byte for byte --------------------------------

// Appends `v` as `n` little-endian bytes, independent of the host.
void put_le(std::string& out, std::uint64_t v, int n) {
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
void put_f64(std::string& out, double v) {
  put_le(out, std::bit_cast<std::uint64_t>(v), 8);
}

// A 3-trial YET over a 10-event catalogue, the middle trial empty.
Yet golden_yet() {
  return Yet({{{3, 1}, {5, 7}}, {}, {{2, 4}}}, 10);
}
std::string golden_yet_bytes() {
  std::string b = "ARAYET01";
  put_le(b, 1, 4);   // version
  put_le(b, 10, 4);  // catalogue
  put_le(b, 3, 8);   // trials
  put_le(b, 3, 8);   // occurrences
  for (const std::uint64_t off : {0, 2, 2, 3}) put_le(b, off, 8);
  for (const auto& [event, time] :
       {std::pair{3, 1}, std::pair{5, 7}, std::pair{2, 4}}) {
    put_le(b, event, 4);
    put_le(b, time, 4);
  }
  return b;
}

Elt golden_elt() {
  return Elt({{3, 1.5}, {7, 2.25}}, {1.1, 10.0, 1e6, 0.75}, 100);
}
std::string golden_elt_bytes() {
  std::string b = "ARAELT01";
  put_le(b, 1, 4);    // version
  put_le(b, 100, 4);  // catalogue
  for (const double term : {1.1, 10.0, 1e6, 0.75}) put_f64(b, term);
  put_le(b, 2, 8);  // records, 12 bytes each
  put_le(b, 3, 4);
  put_f64(b, 1.5);
  put_le(b, 7, 4);
  put_f64(b, 2.25);
  return b;
}

TEST(BinaryIo, WritersMatchGoldenBytes) {
  std::ostringstream yet;
  write_yet(yet, golden_yet());
  EXPECT_EQ(yet.str(), golden_yet_bytes());

  std::ostringstream elt;
  write_elt(elt, golden_elt());
  EXPECT_EQ(elt.str(), golden_elt_bytes());

  Layer layer;
  layer.name = "XL";
  layer.elt_indices = {0, 0};
  layer.terms = {5.0, 50.0, 0.5, 500.0};
  std::ostringstream portfolio;
  write_portfolio(portfolio, Portfolio({golden_elt()}, {layer}));
  std::string want = "ARAPRT01";
  put_le(want, 1, 4);  // version
  put_le(want, 1, 8);  // ELTs
  want += golden_elt_bytes();
  put_le(want, 1, 8);  // layers
  put_le(want, 2, 8);  // name length
  want += "XL";
  put_le(want, 2, 8);  // ELT indices
  put_le(want, 0, 8);
  put_le(want, 0, 8);
  for (const double term : {5.0, 50.0, 0.5, 500.0}) put_f64(want, term);
  EXPECT_EQ(portfolio.str(), want);

  // And the golden bytes decode back to the same values.
  std::istringstream in(golden_yet_bytes());
  const Yet loaded = read_yet(in);
  EXPECT_EQ(loaded.occurrences(), golden_yet().occurrences());
  EXPECT_EQ(loaded.offsets(), golden_yet().offsets());
  std::istringstream elt_in(golden_elt_bytes());
  EXPECT_EQ(read_elt(elt_in).records(), golden_elt().records());
}

// A stream that cannot seek or tell its position (like a pipe) and
// hands its bytes out five at a time, so every bulk read spans many
// refills of the buffer.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(5, bytes_.size() - pos_);
    char* at = bytes_.data() + pos_;
    setg(at, at, at + n);
    pos_ += n;
    return traits_type::to_int_type(*at);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
};

// Large enough that the unseekable decoder grows its arrays over
// several steps (the first is 64 KiB).
Yet many_occurrence_yet() {
  std::vector<std::vector<EventOccurrence>> trials(24);
  for (std::size_t t = 0; t < trials.size(); ++t) {
    for (std::uint32_t k = 0; k < 1000; ++k) {
      trials[t].push_back({static_cast<EventId>(1 + (t * 31 + k) % 500),
                           k / 4});
    }
  }
  return Yet(trials, 500);
}

TEST(BinaryIo, ReadYetThroughUnseekableStream) {
  const Yet yet = many_occurrence_yet();
  std::ostringstream os;
  write_yet(os, yet);
  ForwardOnlyBuf buf(os.str());
  std::istream is(&buf);
  ASSERT_EQ(is.tellg(), std::istream::pos_type(-1));
  const Yet loaded = read_yet(is);
  EXPECT_EQ(loaded.occurrences(), yet.occurrences());
  EXPECT_EQ(loaded.offsets(), yet.offsets());

  // Unbounded by the stream's length, an inflated count fails as
  // truncated once the bytes run out.
  std::string inflated = os.str();
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(inflated.data() + 24, &huge, sizeof(huge));
  ForwardOnlyBuf lying(inflated);
  std::istream lying_is(&lying);
  try {
    read_yet(lying_is);
    FAIL() << "inflated occurrence count accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
  }
}

TEST(BinaryIo, LoadYetEqualsWholeFileChunk) {
  const Yet yet = many_occurrence_yet();
  const std::string path = testdata::scratch_path("binary_io_chunk_eq.bin");
  save_yet(path, yet);
  const Yet loaded = load_yet(path);
  YetChunkReader reader(path);
  const Yet chunk = reader.read_chunk(0, reader.trial_count());
  EXPECT_EQ(loaded.occurrences(), chunk.occurrences());
  EXPECT_EQ(loaded.offsets(), chunk.offsets());
  EXPECT_EQ(loaded.catalogue_size(), chunk.catalogue_size());
  EXPECT_EQ(loaded.occurrences(), yet.occurrences());
}

TEST(BinaryIo, TruncatedOccurrenceArrayThrowsTruncated) {
  const std::string full = golden_yet_bytes();
  // Cut two bytes into the last occurrence record.
  const std::string cut = full.substr(0, full.size() - 6);
  const auto expect_truncated = [](std::istream& is, const char* what) {
    try {
      read_yet(is);
      ADD_FAILURE() << what << ": truncated YET accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << what << ": " << e.what();
    }
  };
  std::istringstream seekable(cut);
  expect_truncated(seekable, "seekable");
  ForwardOnlyBuf buf(cut);
  std::istream unseekable(&buf);
  expect_truncated(unseekable, "unseekable");
  const std::string path = testdata::scratch_path("binary_io_truncated.bin");
  std::ofstream(path, std::ios::binary) << cut;
  EXPECT_THROW(load_yet(path), std::runtime_error);
}

TEST(BinaryIo, InvalidRecordsAreRejectedByValidation) {
  // Occurrence records start after the 32-byte header and 4 offsets.
  const std::size_t records = 32 + 4 * 8;
  std::string zero_event = golden_yet_bytes();
  std::memset(zero_event.data() + records, 0, 4);  // first event id -> 0
  std::istringstream a(zero_event);
  EXPECT_THROW(read_yet(a), std::invalid_argument);

  std::string unordered = golden_yet_bytes();
  std::memset(unordered.data() + records + 12, 0, 4);  // time 7 -> 0 < 1
  std::istringstream b(unordered);
  EXPECT_THROW(read_yet(b), std::invalid_argument);
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
