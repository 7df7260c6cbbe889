#include "io/binary.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "core/crc32c.hpp"
#include "io/format.hpp"

namespace ara::io {

namespace {

using format::check_count;
using format::kEltMagic;
using format::kYltMagic;
using format::read_bytes;
using format::read_records;
using format::stream_end;
using format::write_pod;
using format::write_records;
constexpr const char (&kPortMagic)[8] = format::kPortfolioMagic;

template <typename T>
T read_pod(std::istream& is) {
  return format::read_pod<T>(is);
}

void write_magic(std::ostream& os, const char (&magic)[8]) {
  os.write(magic, 8);
  write_pod(os, kFormatVersion);
}

void check_magic(std::istream& is, const char (&magic)[8],
                 const char* what) {
  char buf[8];
  is.read(buf, 8);
  if (!is || std::memcmp(buf, magic, 8) != 0) {
    throw std::runtime_error(std::string("binary read: bad magic for ") +
                             what);
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != kFormatVersion) {
    throw std::runtime_error(std::string("binary read: unsupported ") + what +
                             " version " + std::to_string(version));
  }
}

void write_string(std::ostream& os, const std::string& s) {
  write_pod(os, static_cast<std::uint64_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::istream& is) {
  const auto n = read_pod<std::uint64_t>(is);
  if (n > (1ULL << 20)) {
    throw std::runtime_error("binary read: implausible string length");
  }
  std::string s(n, '\0');
  read_bytes(is, s.data(), n, "string");
  return s;
}

void write_terms(std::ostream& os, const FinancialTerms& t) {
  write_pod(os, t.fx_rate);
  write_pod(os, t.retention);
  write_pod(os, t.limit);
  write_pod(os, t.share);
}

// On-disk record sizes (lower bounds for the variable-length ones).
constexpr std::uint64_t kEltRecordBytes = sizeof(EventId) + sizeof(double);
// ELT records are 12 bytes on disk (u32 event, f64 loss) but 16 in
// memory (EventLoss is padded), so both codecs pass them through a
// fixed 4 KiB staging block of whole records on the stack: it adds
// nothing to the heap, and one stream call per 341 records already
// costs nothing next to the per-field calls it replaces.
constexpr std::size_t kEltBlockRecords = 4096 / kEltRecordBytes;
constexpr std::uint64_t kEltHeaderBytes =
    8 + sizeof(std::uint32_t) + sizeof(EventId) + 4 * sizeof(double) +
    sizeof(std::uint64_t);
constexpr std::uint64_t kLayerMinBytes =
    2 * sizeof(std::uint64_t) + 4 * sizeof(double);

FinancialTerms read_terms(std::istream& is) {
  FinancialTerms t;
  t.fx_rate = read_pod<double>(is);
  t.retention = read_pod<double>(is);
  t.limit = read_pod<double>(is);
  t.share = read_pod<double>(is);
  return t;
}

}  // namespace

void write_yet(std::ostream& os, const Yet& yet) {
  write_magic(os, format::kYetMagic);
  write_pod(os, yet.catalogue_size());
  write_pod(os, static_cast<std::uint64_t>(yet.trial_count()));
  write_pod(os, static_cast<std::uint64_t>(yet.occurrence_count()));
  write_records(os, yet.offsets());
  write_records(os, yet.occurrences());
}

Yet read_yet(std::istream& is) {
  const format::YetHeader h = format::read_yet_header(is);
  if (h.compressed) {
    throw std::runtime_error(
        "binary read: YET is in the compressed format (read_yet_compressed)");
  }
  // Both arrays are bounded before either is allocated: the trials by
  // the header parse, the occurrences here, after the offset index.
  check_count(is, h.end, h.occurrences, sizeof(EventOccurrence),
              "YET occurrence", (h.trials + 1) * sizeof(std::uint64_t));
  auto offsets = read_records<std::size_t>(is, h.end, h.trials + 1,
                                           "YET offsets");
  auto occ = read_records<EventOccurrence>(is, h.end, h.occurrences,
                                           "YET occurrences");
  return Yet(std::move(occ), std::move(offsets), h.catalogue);
}

void write_elt(std::ostream& os, const Elt& elt) {
  write_magic(os, kEltMagic);
  write_pod(os, elt.catalogue_size());
  write_terms(os, elt.terms());
  write_pod(os, static_cast<std::uint64_t>(elt.size()));
  const std::vector<EventLoss>& records = elt.records();
  char block[kEltBlockRecords * kEltRecordBytes];
  for (std::size_t at = 0; at < records.size(); at += kEltBlockRecords) {
    const std::size_t n = std::min(records.size() - at, kEltBlockRecords);
    char* p = block;
    for (std::size_t i = at; i < at + n; ++i, p += kEltRecordBytes) {
      std::memcpy(p, &records[i].event, sizeof(EventId));
      std::memcpy(p + sizeof(EventId), &records[i].loss, sizeof(double));
    }
    os.write(block, static_cast<std::streamsize>(n * kEltRecordBytes));
  }
}

namespace {

Elt read_elt_within(std::istream& is, std::uint64_t end) {
  check_magic(is, kEltMagic, "ELT");
  const auto catalogue = read_pod<EventId>(is);
  const FinancialTerms terms = read_terms(is);
  const auto n = read_pod<std::uint64_t>(is);
  check_count(is, end, n, kEltRecordBytes, "ELT record");
  // An unchecked count (a stream of unknown end) reserves nothing up
  // front; the records then grow only as fast as the stream supplies.
  std::vector<EventLoss> records;
  records.reserve(end == format::kUnknownEnd ? 0 : n);
  char block[kEltBlockRecords * kEltRecordBytes];
  for (std::uint64_t at = 0; at < n; at += kEltBlockRecords) {
    const auto k = static_cast<std::size_t>(
        std::min<std::uint64_t>(n - at, kEltBlockRecords));
    read_bytes(is, block, k * kEltRecordBytes, "ELT records");
    const char* p = block;
    for (std::size_t i = 0; i < k; ++i, p += kEltRecordBytes) {
      EventLoss r;
      std::memcpy(&r.event, p, sizeof(EventId));
      std::memcpy(&r.loss, p + sizeof(EventId), sizeof(double));
      records.push_back(r);
    }
  }
  return Elt(std::move(records), terms, catalogue);
}

}  // namespace

Elt read_elt(std::istream& is) { return read_elt_within(is, stream_end(is)); }

void write_portfolio(std::ostream& os, const Portfolio& portfolio) {
  write_magic(os, kPortMagic);
  write_pod(os, static_cast<std::uint64_t>(portfolio.elt_count()));
  for (const Elt& e : portfolio.elts()) write_elt(os, e);
  write_pod(os, static_cast<std::uint64_t>(portfolio.layer_count()));
  for (const Layer& l : portfolio.layers()) {
    write_string(os, l.name);
    write_pod(os, static_cast<std::uint64_t>(l.elt_indices.size()));
    write_records(os, l.elt_indices);
    write_pod(os, l.terms.occ_retention);
    write_pod(os, l.terms.occ_limit);
    write_pod(os, l.terms.agg_retention);
    write_pod(os, l.terms.agg_limit);
  }
}

Portfolio read_portfolio(std::istream& is) {
  check_magic(is, kPortMagic, "portfolio");
  const std::uint64_t end = stream_end(is);
  const auto elt_count = read_pod<std::uint64_t>(is);
  check_count(is, end, elt_count, kEltHeaderBytes, "portfolio ELT");
  std::vector<Elt> elts;
  elts.reserve(elt_count);
  for (std::uint64_t i = 0; i < elt_count; ++i) {
    elts.push_back(read_elt_within(is, end));
  }
  const auto layer_count = read_pod<std::uint64_t>(is);
  check_count(is, end, layer_count, kLayerMinBytes, "portfolio layer");
  std::vector<Layer> layers;
  layers.reserve(layer_count);
  for (std::uint64_t i = 0; i < layer_count; ++i) {
    Layer l;
    l.name = read_string(is);
    const auto n = read_pod<std::uint64_t>(is);
    l.elt_indices = read_records<std::size_t>(is, end, n, "layer ELT index");
    l.terms.occ_retention = read_pod<double>(is);
    l.terms.occ_limit = read_pod<double>(is);
    l.terms.agg_retention = read_pod<double>(is);
    l.terms.agg_limit = read_pod<double>(is);
    layers.push_back(std::move(l));
  }
  return Portfolio(std::move(elts), std::move(layers));
}

void write_ylt(std::ostream& os, const Ylt& ylt) {
  os.write(kYltMagic, 8);
  write_pod(os, format::kYltFormatVersion);
  write_pod(os, static_cast<std::uint64_t>(ylt.layer_count()));
  write_pod(os, static_cast<std::uint64_t>(ylt.trial_count()));
  // The raw vectors are already in file order (layer-major); one bulk
  // write per table replaces a write call per (layer, trial) double.
  os.write(reinterpret_cast<const char*>(ylt.annual_raw().data()),
           static_cast<std::streamsize>(ylt.annual_raw().size() *
                                        sizeof(double)));
  os.write(reinterpret_cast<const char*>(ylt.max_occurrence_raw().data()),
           static_cast<std::streamsize>(ylt.max_occurrence_raw().size() *
                                        sizeof(double)));
  // v2 trailer: one CRC32C per (table, layer) row, annual rows first.
  // The rows are contiguous in the raw vectors, so each CRC is one
  // pass over trial_count doubles.
  const std::size_t row_bytes = ylt.trial_count() * sizeof(double);
  for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
    write_pod(os, crc32c(0, ylt.annual_raw().data() + l * ylt.trial_count(),
                         row_bytes));
  }
  for (std::size_t l = 0; l < ylt.layer_count(); ++l) {
    write_pod(os, crc32c(0,
                         ylt.max_occurrence_raw().data() +
                             l * ylt.trial_count(),
                         row_bytes));
  }
}

Ylt read_ylt(std::istream& is) {
  char buf[8];
  is.read(buf, 8);
  if (!is || std::memcmp(buf, kYltMagic, 8) != 0) {
    throw std::runtime_error("binary read: bad magic for YLT");
  }
  const auto version = read_pod<std::uint32_t>(is);
  if (version != 1 && version != format::kYltFormatVersion) {
    throw std::runtime_error("binary read: unsupported YLT version " +
                             std::to_string(version));
  }
  const auto layers = read_pod<std::uint64_t>(is);
  const auto trials = read_pod<std::uint64_t>(is);
  if (layers > 0) {
    // Two tables of layers x trials doubles follow.
    const std::uint64_t end = stream_end(is);
    check_count(is, end, trials, 2 * sizeof(double), "YLT trial");
    check_count(is, end, layers,
                2 * sizeof(double) * std::max<std::uint64_t>(trials, 1),
                "YLT layer");
  }
  Ylt ylt(static_cast<std::size_t>(layers), static_cast<std::size_t>(trials));
  // Buffered per-layer rows: one read call per (table, layer) instead
  // of one per double; the on-disk layout is unchanged. Row CRCs are
  // accumulated on the way through and checked against the v2 trailer
  // after both tables, so a flipped bit anywhere in the data fails the
  // load naming the offending row.
  std::vector<double> row(layers > 0 ? trials : 0);
  std::vector<std::uint32_t> row_crcs;
  row_crcs.reserve(2 * layers);
  const auto read_row = [&](auto&& assign) {
    is.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(trials * sizeof(double)));
    if (!is) throw std::runtime_error("binary read: truncated YLT");
    row_crcs.push_back(crc32c(0, row.data(), trials * sizeof(double)));
    assign();
  };
  for (std::uint64_t l = 0; l < layers; ++l) {
    read_row([&] {
      for (std::uint64_t t = 0; t < trials; ++t) {
        ylt.annual_loss(l, static_cast<TrialId>(t)) = row[t];
      }
    });
  }
  for (std::uint64_t l = 0; l < layers; ++l) {
    read_row([&] {
      for (std::uint64_t t = 0; t < trials; ++t) {
        ylt.max_occurrence_loss(l, static_cast<TrialId>(t)) = row[t];
      }
    });
  }
  if (version >= 2) {
    for (std::uint64_t i = 0; i < 2 * layers; ++i) {
      const auto expected = read_pod<std::uint32_t>(is);
      if (!is) {
        throw std::runtime_error("binary read: truncated YLT trailer");
      }
      if (expected != row_crcs[i]) {
        const bool annual = i < layers;
        throw std::runtime_error(
            "binary read: YLT checksum mismatch in " +
            std::string(annual ? "annual" : "max-occurrence") + " row of layer " +
            std::to_string(annual ? i : i - layers) +
            " (file corrupt or truncated mid-row)");
      }
    }
  }
  return ylt;
}

namespace {
std::ofstream open_out(const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  return os;
}
std::ifstream open_in(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return is;
}
}  // namespace

void save_yet(const std::string& path, const Yet& yet) {
  auto os = open_out(path);
  write_yet(os, yet);
}
Yet load_yet(const std::string& path) {
  auto is = open_in(path);
  return read_yet(is);
}
void save_portfolio(const std::string& path, const Portfolio& portfolio) {
  auto os = open_out(path);
  write_portfolio(os, portfolio);
}
Portfolio load_portfolio(const std::string& path) {
  auto is = open_in(path);
  return read_portfolio(is);
}
void save_ylt(const std::string& path, const Ylt& ylt) {
  auto os = open_out(path);
  write_ylt(os, ylt);
}
Ylt load_ylt(const std::string& path) {
  auto is = open_in(path);
  return read_ylt(is);
}

}  // namespace ara::io
