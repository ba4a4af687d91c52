// Byte-buffer helpers: little-endian fixed-width encode/decode and varint
// encoding used by the storage layer for cell payloads and WAL records.
// (Key encodings, which must be memcmp-ordered, live in
// storage/key_encoding.h and are big-endian.)
#ifndef MICRONN_COMMON_BYTES_H_
#define MICRONN_COMMON_BYTES_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace micronn {

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void EncodeFixed32(char* dst, uint32_t v) { std::memcpy(dst, &v, 4); }
inline void EncodeFixed64(char* dst, uint64_t v) { std::memcpy(dst, &v, 8); }

/// Appends a LEB128 varint.
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

/// Reads a varint from [*p, limit); advances *p. Returns false on overrun
/// or malformed input.
inline bool GetVarint64(const char** p, const char* limit, uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (*p < limit && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(**p);
    ++*p;
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return true;
    }
    shift += 7;
  }
  return false;
}

/// Appends a length-prefixed string (varint length + bytes).
inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

/// Reads a length-prefixed string; advances *p. Returns false on overrun.
inline bool GetLengthPrefixed(const char** p, const char* limit,
                              std::string_view* out) {
  uint64_t len = 0;
  if (!GetVarint64(p, limit, &len)) return false;
  if (static_cast<uint64_t>(limit - *p) < len) return false;
  *out = std::string_view(*p, len);
  *p += len;
  return true;
}

/// FNV-1a 64-bit hash: the checksum of WAL formats v2/v3, kept only to
/// recover logs an older build wrote (their file headers and "WNNM"
/// frames). Byte-serial and ~30x slower than CRC32C (common/crc32c.h),
/// which checksums everything written today.
inline uint64_t Hash64(const void* data, size_t n, uint64_t seed = 0) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t h = 14695981039346656037ULL ^ seed;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace micronn

#endif  // MICRONN_COMMON_BYTES_H_
