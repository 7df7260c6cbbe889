#include "io/compressed_yet.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

#include "io/format.hpp"

namespace ara::io {

namespace {

// The shared format definition (io/format.hpp) supplies the magic,
// the varint codec and the fixed-width primitives, so this encoder
// can never drift from the chunked reader's decoder.
constexpr const char (&kMagic)[8] = format::kYetCompressedMagic;
constexpr std::uint32_t kVersion = format::kFormatVersion;

using format::read_varint;
using format::varint_size;
using format::write_pod;
using format::write_varint;

}  // namespace

void write_yet_compressed(std::ostream& os, const Yet& yet) {
  os.write(kMagic, 8);
  write_pod(os, kVersion);
  write_pod(os, yet.catalogue_size());
  write_pod(os, static_cast<std::uint64_t>(yet.trial_count()));
  for (TrialId t = 0; t < yet.trial_count(); ++t) {
    const auto trial = yet.trial(t);
    write_varint(os, trial.size());
    Timestamp prev = 0;
    for (const EventOccurrence& o : trial) {
      write_varint(os, o.event);
      write_varint(os, o.time - prev);  // non-decreasing: delta >= 0
      prev = o.time;
    }
  }
}

Yet read_yet_compressed(std::istream& is) {
  // The shared header parse bounds the trial count (at least one varint
  // byte a trial) before the offset index is sized from it; a stream of
  // unknown end reserves nothing and grows as trials decode.
  const format::YetHeader h = format::read_yet_header(is);
  if (!h.compressed) {
    throw std::runtime_error("compressed YET: bad magic");
  }
  const EventId catalogue = h.catalogue;

  std::vector<EventOccurrence> occurrences;
  std::vector<std::size_t> offsets;
  offsets.reserve(h.end == format::kUnknownEnd ? 1 : h.trials + 1);
  offsets.push_back(0);
  for (std::uint64_t t = 0; t < h.trials; ++t) {
    const std::uint64_t count = read_varint(is);
    Timestamp prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      EventOccurrence o;
      const std::uint64_t event = read_varint(is);
      const std::uint64_t delta = read_varint(is);
      if (event == 0 || event > catalogue) {
        throw std::runtime_error("compressed YET: event id out of range");
      }
      o.event = static_cast<EventId>(event);
      o.time = prev + static_cast<Timestamp>(delta);
      prev = o.time;
      occurrences.push_back(o);
    }
    offsets.push_back(occurrences.size());
  }
  return Yet(std::move(occurrences), std::move(offsets), catalogue);
}

std::uint64_t compressed_yet_bytes(const Yet& yet) {
  std::uint64_t total = 8 + 4 + 4 + 8;  // header
  for (TrialId t = 0; t < yet.trial_count(); ++t) {
    const auto trial = yet.trial(t);
    total += varint_size(trial.size());
    Timestamp prev = 0;
    for (const EventOccurrence& o : trial) {
      total += varint_size(o.event) + varint_size(o.time - prev);
      prev = o.time;
    }
  }
  return total;
}

void save_yet_compressed(const std::string& path, const Yet& yet) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open for writing: " + path);
  write_yet_compressed(os, yet);
}

Yet load_yet_compressed(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open for reading: " + path);
  return read_yet_compressed(is);
}

}  // namespace ara::io
