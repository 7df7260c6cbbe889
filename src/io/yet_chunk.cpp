#include "io/yet_chunk.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/crc32c.hpp"
#include "core/shard.hpp"
#include "io/format.hpp"

namespace ara::io {

using format::read_pod;
using format::read_varint;

YetChunkReader::YetChunkReader(std::string path) : path_(std::move(path)) {
  is_.open(path_, std::ios::binary);
  if (!is_) {
    throw std::runtime_error("YetChunkReader: cannot open " + path_);
  }
  // The one YET header parse (io/format.hpp) sniffs the format and
  // bounds the trial count by the file's length before the offset index
  // is sized from it.
  const format::YetHeader h = format::read_yet_header(is_);
  compressed_ = h.compressed;
  catalogue_ = h.catalogue;
  trial_count_ = static_cast<std::size_t>(h.trials);
  occurrences_ = h.occurrences;
  end_ = h.end;
  if (!compressed_) {
    offsets_ = format::read_records<std::uint64_t>(is_, end_, h.trials + 1,
                                                   "YET offsets");
    if (offsets_.empty() || offsets_.front() != 0 ||
        offsets_.back() != occurrences_ ||
        !std::is_sorted(offsets_.begin(), offsets_.end())) {
      throw std::runtime_error("YetChunkReader: corrupt offset index");
    }
  }
  data_start_ = is_.tellg();
}

std::size_t YetChunkReader::max_chunk_trials(std::size_t memory_budget_bytes,
                                             std::size_t layer_count) const {
  if (compressed_) {
    throw std::logic_error(
        "YetChunkReader::max_chunk_trials: compressed files do not record "
        "the occurrence count; pick the chunk size explicitly");
  }
  // The same resident-footprint model the session's memory-budget
  // sharding uses, so both paths derive the same chunk from a budget.
  const double per_trial =
      shard_bytes_per_trial(layer_count, mean_events_per_trial());
  const auto fit = static_cast<std::size_t>(
      static_cast<double>(memory_budget_bytes) / per_trial);
  return std::max<std::size_t>(1, fit);
}

Yet YetChunkReader::read_chunk(std::size_t begin, std::size_t end) {
  if (begin > end || end > trial_count_) {
    throw std::invalid_argument("YetChunkReader::read_chunk: bad range");
  }
  return compressed_ ? read_chunk_compressed(begin, end)
                     : read_chunk_binary(begin, end);
}

Yet YetChunkReader::read_chunk_binary(std::size_t begin, std::size_t end) {
  const std::uint64_t first = offsets_[begin];
  const std::uint64_t count = offsets_[end] - first;

  // One seek + one bulk read per chunk, through the same record
  // decoder as read_yet: the file bytes land directly in the vector
  // the Yet takes over.
  is_.clear();
  is_.seekg(data_start_ + static_cast<std::streamoff>(
                              first * sizeof(EventOccurrence)));
  auto occ = format::read_records<EventOccurrence>(is_, end_, count,
                                                   "YET occurrences");

  std::vector<std::size_t> local(end - begin + 1);
  for (std::size_t i = 0; i <= end - begin; ++i) {
    local[i] = static_cast<std::size_t>(offsets_[begin + i] - first);
  }

  peak_bytes_ = std::max(
      peak_bytes_, occ.size() * sizeof(EventOccurrence) +
                       local.size() * sizeof(std::size_t));
  // The Yet constructor re-validates event ids and timestamp order, so
  // corrupted record bytes fail here instead of polluting results.
  return Yet(std::move(occ), std::move(local), catalogue_);
}

void YetChunkReader::skip_compressed_trial() {
  const std::uint64_t count = read_varint(is_);
  for (std::uint64_t i = 0; i < count; ++i) {
    read_varint(is_);  // event id
    read_varint(is_);  // timestamp delta
  }
}

Yet YetChunkReader::read_chunk_compressed(std::size_t begin,
                                          std::size_t end) {
  // Varints are not seekable: decoding is forward-only from the last
  // cursor position, rewinding to the start of the data when a caller
  // asks for an earlier range.
  if (begin < cursor_) {
    is_.clear();
    is_.seekg(data_start_);
    cursor_ = 0;
  }
  while (cursor_ < begin) {
    skip_compressed_trial();
    ++cursor_;
  }

  std::vector<EventOccurrence> occ;
  std::vector<std::size_t> local;
  local.reserve(end - begin + 1);
  local.push_back(0);
  for (std::size_t t = begin; t < end; ++t) {
    const std::uint64_t count = read_varint(is_);
    Timestamp prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t event = read_varint(is_);
      const std::uint64_t delta = read_varint(is_);
      if (event == 0 || event > catalogue_) {
        throw std::runtime_error(
            "YetChunkReader: event id out of catalogue range");
      }
      EventOccurrence o;
      o.event = static_cast<EventId>(event);
      o.time = prev + static_cast<Timestamp>(delta);
      prev = o.time;
      occ.push_back(o);
    }
    local.push_back(occ.size());
    ++cursor_;
  }

  peak_bytes_ = std::max(
      peak_bytes_, occ.capacity() * sizeof(EventOccurrence) +
                       local.capacity() * sizeof(std::size_t));
  return Yet(std::move(occ), std::move(local), catalogue_);
}

// ---- YltChunkReader --------------------------------------------------------

using format::kYltHeaderBytes;

YltChunkReader::YltChunkReader(std::string path) : path_(std::move(path)) {
  is_.open(path_, std::ios::binary);
  if (!is_) {
    throw std::runtime_error("YltChunkReader: cannot open " + path_);
  }
  char magic[8];
  is_.read(magic, 8);
  if (!is_) throw std::runtime_error("YltChunkReader: truncated header");
  if (std::memcmp(magic, format::kYltMagic, 8) != 0) {
    throw std::runtime_error("YltChunkReader: not a YLT file: " + path_);
  }
  version_ = read_pod<std::uint32_t>(is_, "version");
  if (version_ != 1 && version_ != format::kYltFormatVersion) {
    throw std::runtime_error("YltChunkReader: unsupported YLT version " +
                             std::to_string(version_));
  }
  layer_count_ =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is_, "layer count"));
  trial_count_ =
      static_cast<std::size_t>(read_pod<std::uint64_t>(is_, "trial count"));

  if (version_ >= 2) {
    // Load the row-CRC trailer up front (2 x layers u32 — tiny); each
    // row is verified lazily the first time a block touches it.
    const auto body = static_cast<std::streamoff>(
        static_cast<std::uint64_t>(layer_count_) * trial_count_ * 2 *
        sizeof(double));
    is_.seekg(kYltHeaderBytes + body);
    row_crcs_.resize(2 * layer_count_);
    for (std::uint32_t& crc : row_crcs_) {
      crc = read_pod<std::uint32_t>(is_, "row checksum trailer");
    }
    row_verified_.assign(2 * layer_count_, false);
  }
}

void YltChunkReader::verify_row(std::size_t row) {
  if (version_ < 2 || row_verified_[row]) return;
  // Stream the whole row through the checksum in fixed-size pieces:
  // the scratch buffer is a constant, so bounded-memory block reads
  // stay bounded even when a row is far larger than any block.
  const std::size_t layer = row < layer_count_ ? row : row - layer_count_;
  const auto start =
      kYltHeaderBytes +
      static_cast<std::streamoff>(
          (static_cast<std::uint64_t>(row) * trial_count_) * sizeof(double));
  constexpr std::size_t kScratchBytes = 64 << 10;
  std::vector<char> scratch(
      std::min<std::size_t>(kScratchBytes,
                            std::max<std::size_t>(1, trial_count_ *
                                                         sizeof(double))));
  std::uint32_t crc = 0;
  std::size_t remaining = trial_count_ * sizeof(double);
  is_.clear();
  is_.seekg(start);
  while (remaining > 0) {
    const std::size_t n = std::min(remaining, scratch.size());
    is_.read(scratch.data(), static_cast<std::streamsize>(n));
    if (!is_) {
      throw std::runtime_error("YltChunkReader: truncated loss data");
    }
    crc = crc32c(crc, scratch.data(), n);
    remaining -= n;
  }
  if (crc != row_crcs_[row]) {
    throw std::runtime_error(
        "YltChunkReader: checksum mismatch in " +
        std::string(row < layer_count_ ? "annual" : "max-occurrence") +
        " row of layer " + std::to_string(layer) + " of " + path_ +
        " (file corrupt)");
  }
  row_verified_[row] = true;
}

Ylt YltChunkReader::read_block(std::size_t begin, std::size_t end) {
  if (begin > end || end > trial_count_) {
    throw std::invalid_argument("YltChunkReader::read_block: bad range");
  }
  const std::size_t n = end - begin;
  Ylt block(layer_count_, n);
  if (n == 0 || layer_count_ == 0) return block;
  const auto table_bytes = static_cast<std::streamoff>(
      static_cast<std::uint64_t>(layer_count_) * trial_count_ *
      sizeof(double));
  // One seek + one bulk read per (layer, table) row slice — the same
  // save_ylt layout YltChunkWriter::append seeks into. On v2 files the
  // first touch of a row checks its trailer CRC end to end.
  for (std::size_t l = 0; l < layer_count_; ++l) {
    verify_row(l);
    verify_row(layer_count_ + l);
    const auto row = static_cast<std::streamoff>(
        (static_cast<std::uint64_t>(l) * trial_count_ + begin) *
        sizeof(double));
    is_.clear();
    is_.seekg(kYltHeaderBytes + row);
    is_.read(reinterpret_cast<char*>(&block.annual_loss(l, 0)),
             static_cast<std::streamsize>(n * sizeof(double)));
    is_.seekg(kYltHeaderBytes + table_bytes + row);
    is_.read(reinterpret_cast<char*>(&block.max_occurrence_loss(l, 0)),
             static_cast<std::streamsize>(n * sizeof(double)));
    if (!is_) {
      throw std::runtime_error("YltChunkReader: truncated loss data");
    }
  }
  peak_bytes_ = std::max(
      peak_bytes_, layer_count_ * n * 2 * sizeof(double));
  return block;
}

// ---- YltChunkWriter --------------------------------------------------------

YltChunkWriter::YltChunkWriter(const std::string& path,
                               std::size_t layer_count,
                               std::size_t trial_count)
    : layer_count_(layer_count), trial_count_(trial_count) {
  os_.open(path, std::ios::binary | std::ios::trunc);
  if (!os_) throw std::runtime_error("YltChunkWriter: cannot open " + path);
  os_.write(format::kYltMagic, 8);
  format::write_pod(os_, format::kYltFormatVersion);
  format::write_pod(os_, static_cast<std::uint64_t>(layer_count_));
  format::write_pod(os_, static_cast<std::uint64_t>(trial_count_));

  // Fix the file's full extent up front so block writes can seek
  // anywhere within it regardless of append order.
  const std::uint64_t body = static_cast<std::uint64_t>(layer_count_) *
                             trial_count_ * 2 * sizeof(double);
  if (body > 0) {
    os_.seekp(kYltHeaderBytes + static_cast<std::streamoff>(body) - 1);
    os_.put('\0');
  }
  if (!os_) {
    // The open above already truncated whatever lived at `path`; a
    // constructor failure must not leave that half-written husk behind
    // (it would carry a valid-looking header over garbage extent).
    os_.close();
    std::remove(path.c_str());
    throw std::runtime_error("YltChunkWriter: write failed");
  }
}

YltChunkWriter::~YltChunkWriter() {
  // Close without the coverage check (it throws); callers that care
  // about completeness call close() themselves.
  if (os_.is_open()) os_.close();
}

void YltChunkWriter::append(const Ylt& partial, std::size_t trial_begin) {
  if (closed_) throw std::logic_error("YltChunkWriter::append after close");
  if (partial.layer_count() != layer_count_) {
    throw std::invalid_argument("YltChunkWriter::append: layer mismatch");
  }
  const std::size_t n = partial.trial_count();
  if (trial_begin + n > trial_count_) {
    throw std::invalid_argument("YltChunkWriter::append: range out of bounds");
  }
  if (!blocks_.try_reserve(trial_begin, trial_begin + n)) {
    throw std::invalid_argument("YltChunkWriter::append: overlapping block");
  }

  // Seek each layer's rows into place in both tables (annual losses
  // first, then max-occurrence — the save_ylt layout).
  const auto table_bytes = static_cast<std::streamoff>(
      static_cast<std::uint64_t>(layer_count_) * trial_count_ *
      sizeof(double));
  BlockCrcs crcs;
  crcs.begin = trial_begin;
  crcs.trials = n;
  crcs.rows.reserve(2 * layer_count_);
  for (std::size_t l = 0; l < layer_count_; ++l) {
    const auto row = static_cast<std::streamoff>(
        (static_cast<std::uint64_t>(l) * trial_count_ + trial_begin) *
        sizeof(double));
    os_.seekp(kYltHeaderBytes + row);
    os_.write(reinterpret_cast<const char*>(partial.layer_annual(l)),
              static_cast<std::streamsize>(n * sizeof(double)));
    os_.seekp(kYltHeaderBytes + table_bytes + row);
    os_.write(reinterpret_cast<const char*>(partial.layer_max_occurrence(l)),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  // Row-slice CRCs for the close() trailer (annual rows first, the
  // trailer's table order — not interleaved like the writes above).
  for (std::size_t l = 0; l < layer_count_; ++l) {
    crcs.rows.push_back(crc32c(0, partial.layer_annual(l),
                               n * sizeof(double)));
  }
  for (std::size_t l = 0; l < layer_count_; ++l) {
    crcs.rows.push_back(crc32c(0, partial.layer_max_occurrence(l),
                               n * sizeof(double)));
  }
  if (!os_) throw std::runtime_error("YltChunkWriter: write failed");
  block_crcs_.push_back(std::move(crcs));
  covered_ += n;
}

void YltChunkWriter::close() {
  if (closed_) return;
  if (covered_ != trial_count_) {
    throw std::runtime_error(
        "YltChunkWriter::close: blocks cover " + std::to_string(covered_) +
        " of " + std::to_string(trial_count_) + " trials");
  }
  // Fold the per-block row CRCs — sorted into trial order, whatever
  // order the blocks arrived in — into one CRC per (table, layer) row
  // and write the v2 trailer after the tables. crc32c_combine makes
  // this exact: the folded value equals the CRC of the contiguous row,
  // so the file stays byte-identical to save_ylt of the merged table.
  std::sort(block_crcs_.begin(), block_crcs_.end(),
            [](const BlockCrcs& a, const BlockCrcs& b) {
              return a.begin < b.begin;
            });
  const auto body = static_cast<std::streamoff>(
      static_cast<std::uint64_t>(layer_count_) * trial_count_ * 2 *
      sizeof(double));
  os_.seekp(kYltHeaderBytes + body);
  for (std::size_t row = 0; row < 2 * layer_count_; ++row) {
    std::uint32_t crc = 0;
    for (const BlockCrcs& block : block_crcs_) {
      crc = crc32c_combine(crc, block.rows[row],
                           block.trials * sizeof(double));
    }
    format::write_pod(os_, crc);
  }
  os_.close();
  if (os_.fail()) throw std::runtime_error("YltChunkWriter: close failed");
  closed_ = true;
}

}  // namespace ara::io
