#ifndef DBLSH_UTIL_BYTES_H_
#define DBLSH_UTIL_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "util/status.h"

/// Byte-level helpers shared by every on-disk format: the DbLsh index file
/// (core/db_lsh_io.cc), the vector-store codec (dataset/vector_store.h) and
/// the durability artifacts (durability/). All formats are host-endian,
/// single-machine artifacts.
namespace dblsh::util {

/// FNV-1a 64-bit: cheap, order-sensitive, byte-exact. Every checksum in
/// the persisted formats is this hash; `seed` chains a hash over several
/// ranges.
inline uint64_t Fnv1a64(const uint8_t* data, size_t len,
                        uint64_t seed = 1469598103934665603ull) {
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Fnv1a64 over a byte span.
inline uint64_t Fnv1a64(std::span<const uint8_t> bytes) {
  return Fnv1a64(bytes.data(), bytes.size());
}

/// The object representation of `values`, for checksums and appends.
template <typename T>
std::span<const uint8_t> BytesOf(const std::vector<T>& values) {
  return {reinterpret_cast<const uint8_t*>(values.data()),
          values.size() * sizeof(T)};
}

/// Appends a raw byte range to `out`. A zero-length range is a no-op
/// even with a null `data` (an empty shard's row region has no buffer).
inline void AppendBytes(std::vector<uint8_t>* out, const void* data,
                        size_t len) {
  if (len == 0) return;
  const size_t at = out->size();
  out->resize(at + len);
  std::memcpy(out->data() + at, data, len);
}

/// Appends a byte span to `out`.
inline void AppendBytes(std::vector<uint8_t>* out,
                        std::span<const uint8_t> bytes) {
  AppendBytes(out, bytes.data(), bytes.size());
}

/// Appends `v`'s bytes (host order) to `out`.
template <typename T>
inline void AppendPod(std::vector<uint8_t>* out, const T& v) {
  AppendBytes(out, &v, sizeof(T));
}

/// Bounds-checked sequential POD reader over a byte buffer; every Read
/// returns false instead of running past the end, so truncated or lying
/// files can never drive an out-of-bounds read or an oversized allocation.
class PodReader {
 public:
  PodReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  size_t remaining() const { return len_ - pos_; }
  size_t position() const { return pos_; }

  template <typename T>
  bool Read(T* out) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool ReadBytes(void* out, size_t len) {
    if (remaining() < len) return false;
    if (len > 0) std::memcpy(out, data_ + pos_, len);  // null dst when empty
    pos_ += len;
    return true;
  }

  /// Reads `count` values into `out`, checking the length against the
  /// bytes left *before* allocating: a header that claims more elements
  /// than the buffer holds fails here instead of in the allocator.
  template <typename T>
  bool ReadVector(uint64_t count, std::vector<T>* out) {
    if (count > remaining() / sizeof(T)) return false;
    out->resize(static_cast<size_t>(count));
    return ReadBytes(out->data(), out->size() * sizeof(T));
  }

  bool Skip(size_t len) {
    if (remaining() < len) return false;
    pos_ += len;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Reads the whole file at `path`. NotFound when it cannot be opened,
/// IoError when the read fails.
Result<std::vector<uint8_t>> ReadFileBytes(const std::string& path);

}  // namespace dblsh::util

#endif  // DBLSH_UTIL_BYTES_H_
