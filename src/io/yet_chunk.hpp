// Streaming chunk IO for out-of-core analyses (DESIGN.md §5): a YET
// reader that materialises one trial range at a time with bounded
// memory, and a YLT writer that assembles a full on-disk YLT from
// partial trial blocks. Together they let a workload whose YET (and
// YLT) never fits in RAM run shard by shard and still produce a file
// bitwise identical to the monolithic `save_ylt` output.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/disjoint_ranges.hpp"
#include "core/yet.hpp"
#include "core/ylt.hpp"

namespace ara::io {

/// Streams trial ranges out of an on-disk YET — either the plain
/// binary format (`save_yet`, random access via the resident offset
/// index) or the compressed varint format (`save_yet_compressed`,
/// forward decoding; reading an earlier range rewinds and re-decodes).
/// Peak resident memory per read is one chunk's occurrences plus its
/// offsets — never the whole table — and `peak_resident_bytes()`
/// reports the high-water mark so budget compliance is testable.
///
/// Loud failure: a bad magic or version throws at construction;
/// truncated data, out-of-range event ids or unordered timestamps
/// throw from `read_chunk` (the chunk is validated by the Yet
/// constructor), so a corrupt file can never produce a silently wrong
/// YLT.
class YetChunkReader {
 public:
  explicit YetChunkReader(std::string path);

  std::size_t trial_count() const noexcept { return trial_count_; }
  EventId catalogue_size() const noexcept { return catalogue_; }
  bool compressed() const noexcept { return compressed_; }

  /// Total occurrences in the file. Exact for the binary format (from
  /// the header); 0 for the compressed format, whose header does not
  /// carry it.
  std::uint64_t occurrence_count() const noexcept { return occurrences_; }

  /// Mean events per trial (binary format only; 0 when unknown).
  double mean_events_per_trial() const noexcept {
    return trial_count_ == 0 ? 0.0
                             : static_cast<double>(occurrences_) /
                                   static_cast<double>(trial_count_);
  }

  /// Largest chunk (in trials) whose resident bytes — YET slice plus
  /// the YLT rows a `layer_count`-layer analysis of it produces — fit
  /// `memory_budget_bytes`, by the file's mean trial length; never
  /// below one trial. Binary format only (the compressed header lacks
  /// the occurrence count); throws std::logic_error otherwise.
  std::size_t max_chunk_trials(std::size_t memory_budget_bytes,
                               std::size_t layer_count) const;

  /// Materialises trials [begin, end) as a self-contained Yet whose
  /// local trial 0 is global trial `begin`.
  Yet read_chunk(std::size_t begin, std::size_t end);

  /// High-water mark of bytes resident in a chunk across all
  /// `read_chunk` calls so far (occurrences + local offsets).
  std::size_t peak_resident_bytes() const noexcept { return peak_bytes_; }

 private:
  Yet read_chunk_binary(std::size_t begin, std::size_t end);
  Yet read_chunk_compressed(std::size_t begin, std::size_t end);
  void skip_compressed_trial();

  std::string path_;
  std::ifstream is_;
  bool compressed_ = false;
  EventId catalogue_ = 0;
  std::size_t trial_count_ = 0;
  std::uint64_t occurrences_ = 0;

  // Binary format: the resident offset index (8 bytes per trial) and
  // where the occurrence records start.
  std::vector<std::uint64_t> offsets_;
  std::streamoff data_start_ = 0;
  std::uint64_t end_ = 0;  ///< file length, bounds every record read

  // Compressed format: the next trial the stream cursor sits before.
  std::size_t cursor_ = 0;

  std::size_t peak_bytes_ = 0;
};

/// Streams trial blocks back out of an on-disk binary YLT (the
/// `save_ylt` / YltChunkWriter format) — the read side of the
/// YltRetention::kSpillToFile round trip. `read_block` materialises a
/// trial range of every layer with bounded memory (one block's rows,
/// never the whole table), so a spilled YLT can be re-reduced into
/// metrics, re-sharded, or verified without ever loading it whole.
/// Loud failure like YetChunkReader: bad magic/version throws at
/// construction, truncated data throws from read_block.
class YltChunkReader {
 public:
  explicit YltChunkReader(std::string path);

  std::size_t layer_count() const noexcept { return layer_count_; }
  std::size_t trial_count() const noexcept { return trial_count_; }

  /// Materialises trials [begin, end) of every layer as a Ylt whose
  /// local trial 0 is global trial `begin`.
  Ylt read_block(std::size_t begin, std::size_t end);

  /// High-water mark of bytes resident in a block across all
  /// `read_block` calls so far.
  std::size_t peak_resident_bytes() const noexcept { return peak_bytes_; }

 private:
  /// v2 files: checks the row's CRC32C against the trailer the first
  /// time any slice of it is read (the whole row is streamed through
  /// the checksum in fixed-size pieces — resident memory stays
  /// bounded). `row` indexes annual rows 0..layers-1, then
  /// max-occurrence rows layers..2*layers-1.
  void verify_row(std::size_t row);

  std::string path_;
  std::ifstream is_;
  std::uint32_t version_ = 0;
  std::size_t layer_count_ = 0;
  std::size_t trial_count_ = 0;
  std::size_t peak_bytes_ = 0;
  std::vector<std::uint32_t> row_crcs_;  ///< v2 trailer (2 x layers)
  std::vector<bool> row_verified_;
};

/// Writes a binary YLT file (the `save_ylt` format, byte for byte)
/// from partial trial blocks appended in any order. The file's shape
/// is fixed up front; `append` seeks each layer's rows into place, so
/// an out-of-core run can emit each shard's YLT as it completes and
/// never hold the full table. `close` verifies every trial row was
/// covered exactly once and throws otherwise — a partial file is an
/// error, not a product.
class YltChunkWriter {
 public:
  YltChunkWriter(const std::string& path, std::size_t layer_count,
                 std::size_t trial_count);
  ~YltChunkWriter();

  YltChunkWriter(const YltChunkWriter&) = delete;
  YltChunkWriter& operator=(const YltChunkWriter&) = delete;

  /// Writes `partial`'s rows (all layers) at global trials
  /// [trial_begin, trial_begin + partial.trial_count()). Blocks must
  /// not overlap.
  void append(const Ylt& partial, std::size_t trial_begin);

  /// Trials written so far.
  std::size_t trials_written() const noexcept { return covered_; }

  /// Flushes and closes; throws std::runtime_error unless all trials
  /// were covered or on stream failure. Writes the v2 CRC trailer:
  /// per-block row CRCs recorded by `append` are folded — in trial
  /// order, regardless of append order — into one CRC per (table,
  /// layer) row with crc32c_combine, so the trailer is bitwise
  /// identical to the one save_ylt computes over contiguous rows.
  void close();

 private:
  /// CRC32C of each row slice of one appended block (annual rows
  /// first), plus where the block sits in the trial dimension.
  struct BlockCrcs {
    std::size_t begin = 0;
    std::size_t trials = 0;
    std::vector<std::uint32_t> rows;  ///< 2 x layer_count
  };

  std::ofstream os_;
  std::size_t layer_count_ = 0;
  std::size_t trial_count_ = 0;
  std::size_t covered_ = 0;
  DisjointRangeSet blocks_;
  std::vector<BlockCrcs> block_crcs_;
  bool closed_ = false;
};

}  // namespace ara::io
