#include "io/format.hpp"

#include <cstring>

namespace ara::io::format {

std::uint64_t stream_end(std::istream& is) {
  const std::istream::pos_type at = is.tellg();
  if (at == std::istream::pos_type(-1)) return kUnknownEnd;
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.clear();
  is.seekg(at);
  if (end == std::istream::pos_type(-1)) return kUnknownEnd;
  return static_cast<std::uint64_t>(end);
}

void check_count(std::istream& is, std::uint64_t end, std::uint64_t count,
                 std::uint64_t record_bytes, const char* what,
                 std::uint64_t skip) {
  if (end == kUnknownEnd) return;
  const std::istream::pos_type at = is.tellg();
  if (at == std::istream::pos_type(-1)) return;
  const auto pos = static_cast<std::uint64_t>(at);
  const std::uint64_t left = end - std::min(end, pos);
  const std::uint64_t room = left - std::min(left, skip);
  if (count > room / record_bytes) {
    throw std::runtime_error("binary read: truncated or corrupt: " +
                             std::string(what) + " count " +
                             std::to_string(count) + " exceeds the " +
                             std::to_string(room) +
                             " bytes left in the stream");
  }
}

void read_bytes(std::istream& is, void* dst, std::uint64_t bytes,
                const char* what) {
  is.read(static_cast<char*>(dst), static_cast<std::streamsize>(bytes));
  if (!is) {
    throw std::runtime_error(std::string("binary read: truncated ") + what);
  }
}

YetHeader read_yet_header(std::istream& is) {
  YetHeader h;
  char magic[8];
  is.read(magic, 8);
  if (is && std::memcmp(magic, kYetCompressedMagic, 8) == 0) {
    h.compressed = true;
  } else if (!is || std::memcmp(magic, kYetMagic, 8) != 0) {
    throw std::runtime_error("binary read: bad magic for YET");
  }
  const auto version = read_pod<std::uint32_t>(is, "YET version");
  if (version != kFormatVersion) {
    throw std::runtime_error("binary read: unsupported YET version " +
                             std::to_string(version));
  }
  h.catalogue = read_pod<EventId>(is, "YET catalogue size");
  h.trials = read_pod<std::uint64_t>(is, "YET trial count");
  if (!h.compressed) {
    h.occurrences = read_pod<std::uint64_t>(is, "YET occurrence count");
  }
  h.end = stream_end(is);
  // A trial costs at least 8 offset bytes in the binary format and one
  // varint byte in the compressed one. This bounds trials well below
  // 2^64, so the binary format's trials + 1 offsets cannot wrap. The
  // occurrence count is bounded where the records are read, so a file
  // cut short in its occurrence data still opens for chunked reads of
  // the trials it does hold.
  check_count(is, h.end, h.trials, h.compressed ? 1 : sizeof(std::uint64_t),
              h.compressed ? "compressed YET trial" : "YET trial");
  return h;
}

}  // namespace ara::io::format
