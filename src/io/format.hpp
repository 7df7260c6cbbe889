// The single definition of the on-disk format shared by the whole io
// layer: magic tags, the format version, header sizes, the fixed-width
// / varint primitives, and the one YET header parse and bulk record
// decoder. io/binary.cpp, io/compressed_yet.cpp and io/yet_chunk.cpp
// all encode and decode through this header, so a format change
// (version bump, layout change) cannot leave one of them silently
// speaking the old dialect.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <ios>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "core/types.hpp"

namespace ara::io::format {

// Every fixed-width field and record array is little-endian on disk,
// and the codecs below copy host bytes straight to and from it (bulk
// arrays included), so they are only right on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "ara's binary formats are little-endian");
// A YET occurrence record on disk is a u32 event then a u32 time, and
// the offset index is u64: both match the in-memory arrays byte for
// byte, so they are read and written as whole arrays.
static_assert(sizeof(EventOccurrence) == 8 &&
              offsetof(EventOccurrence, time) == 4);
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

/// One version for every type tag; a bump here is the only way to
/// change it anywhere in the io layer.
inline constexpr std::uint32_t kFormatVersion = 1;

/// YLT files carry their own version: v2 appends a CRC32C trailer —
/// one u32 per (table, layer) row, annual rows first, then
/// max-occurrence rows — so corruption of a spilled/streamed table
/// fails loudly at read time instead of poisoning metrics. v1 files
/// (no trailer) remain readable; both writers (save_ylt and
/// YltChunkWriter) emit v2 and stay byte-identical to each other.
inline constexpr std::uint32_t kYltFormatVersion = 2;

/// Trailer size of a v2 YLT: 2 tables x layer_count rows x u32.
inline constexpr std::uint64_t ylt_trailer_bytes(std::uint64_t layer_count) {
  return 2 * layer_count * sizeof(std::uint32_t);
}

inline constexpr char kYetMagic[8] = {'A', 'R', 'A', 'Y', 'E', 'T', '0', '1'};
inline constexpr char kEltMagic[8] = {'A', 'R', 'A', 'E', 'L', 'T', '0', '1'};
inline constexpr char kPortfolioMagic[8] = {'A', 'R', 'A', 'P', 'R', 'T',
                                            '0', '1'};
inline constexpr char kYltMagic[8] = {'A', 'R', 'A', 'Y', 'L', 'T', '0', '1'};
inline constexpr char kYetCompressedMagic[8] = {'A', 'R', 'A', 'Y', 'E', 'T',
                                                'C', '1'};

/// Bytes before a binary YLT's annual-loss table: magic, u32 version,
/// u64 layer count, u64 trial count (write_ylt's layout).
inline constexpr std::streamoff kYltHeaderBytes = 8 + 4 + 8 + 8;

template <typename T>
inline void write_pod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof v);
}

template <typename T>
inline T read_pod(std::istream& is, const char* what = "stream") {
  T v;
  is.read(reinterpret_cast<char*>(&v), sizeof v);
  if (!is) {
    throw std::runtime_error(std::string("binary read: truncated ") + what);
  }
  return v;
}

/// Writes a whole array of fixed-size records as one bulk write.
template <typename T>
inline void write_records(std::ostream& os, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(T)));
}

/// stream_end's answer for a stream that cannot tell where it ends.
inline constexpr std::uint64_t kUnknownEnd =
    std::numeric_limits<std::uint64_t>::max();

/// Where the stream ends, as an offset from its start; kUnknownEnd
/// when the stream cannot tell (not seekable). Taken once per decoder
/// call, so bounding a header count costs no per-record work.
std::uint64_t stream_end(std::istream& is);

/// Rejects a header count before it sizes an allocation: `count`
/// records of at least `record_bytes` each must fit between the read
/// position plus `skip` bytes and `end`. A corrupt or hostile header
/// would otherwise size an allocation of up to 2^64 records before the
/// first read could fail. No-op when `end` is kUnknownEnd.
void check_count(std::istream& is, std::uint64_t end, std::uint64_t count,
                 std::uint64_t record_bytes, const char* what,
                 std::uint64_t skip = 0);

/// One `is.read` of `bytes` bytes; throws "binary read: truncated
/// <what>" on a short read.
void read_bytes(std::istream& is, void* dst, std::uint64_t bytes,
                const char* what);

/// Reads `count` fixed-size records whose file bytes equal their
/// in-memory bytes, bounded first by check_count. When the stream's
/// end is known that is one allocation and one `is.read` straight into
/// the vector the caller keeps. A stream that cannot say where it ends
/// has not bounded `count`, so the vector grows in doubling steps from
/// 64 KiB and a lying header fails as truncated having committed at
/// most twice what the stream supplied.
template <typename T>
std::vector<T> read_records(std::istream& is, std::uint64_t end,
                            std::uint64_t count, const char* what) {
  static_assert(std::is_trivially_copyable_v<T>);
  check_count(is, end, count, sizeof(T), what);
  const std::uint64_t first_step =
      end == kUnknownEnd ? (std::uint64_t{64} << 10) / sizeof(T) : count;
  std::vector<T> out;
  while (out.size() < count) {
    const std::size_t at = out.size();
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(
        count - at, std::max<std::uint64_t>(first_step, at)));
    out.resize(at + n);
    read_bytes(is, out.data() + at, n * sizeof(T), what);
  }
  return out;
}

/// The header of a YET file in either format: magic, u32 version, u32
/// catalogue size, u64 trial count and — binary format only — u64
/// occurrence count, after which the binary format carries trials + 1
/// u64 offsets and then the 8-byte occurrence records.
struct YetHeader {
  bool compressed = false;
  EventId catalogue = 0;
  std::uint64_t trials = 0;
  std::uint64_t occurrences = 0;  ///< binary format only
  std::uint64_t end = kUnknownEnd;  ///< stream_end at the header
};

/// Parses a YET header of either format and bounds its trial count
/// against the bytes left in the stream (a trial needs at least 8
/// offset bytes in the binary format, 1 varint byte in the compressed
/// one). Throws std::runtime_error on a bad magic, version or count.
YetHeader read_yet_header(std::istream& is);

inline void write_varint(std::ostream& os, std::uint64_t v) {
  while (v >= 0x80) {
    os.put(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  os.put(static_cast<char>(v));
}

inline std::uint64_t read_varint(std::istream& is) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int byte = is.get();
    if (byte == std::char_traits<char>::eof()) {
      throw std::runtime_error("binary read: truncated varint");
    }
    if (shift >= 63 && (byte & 0x7E) != 0) {
      throw std::runtime_error("binary read: varint overflow");
    }
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      // A continuation past the top bit would shift by >= 64 next
      // iteration — undefined behaviour, not a decode.
      throw std::runtime_error("binary read: varint overflow");
    }
  }
}

inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

}  // namespace ara::io::format
