// CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the page-integrity
// checksum of DB format v4 (docs/DURABILITY.md "Integrity & degraded
// modes") and the checksum of WAL format v4 frames and file headers
// (docs/DURABILITY.md "WAL format v4"). Those WAL values are pinned by
// V4OnDiskChecksumsArePinned (tests/wal_recovery_test.cc), so a kernel
// change cannot silently change the WAL format. Runtime-dispatched: the
// SSE4.2 CRC32 instruction where the CPU has it (~0.23 us per 4 KiB page
// on an x86-64 Xeon), a software slice-by-8 loop otherwise. The dispatch matters: checksum
// verification runs on every cold page read and on every WAL frame
// written or read, and CI gates the tax at <= 5% of cold-cache QPS
// (BENCH_io.json "checksum") — a byte-at-a-time loop alone costs ~40%.
#ifndef MICRONN_COMMON_CRC32C_H_
#define MICRONN_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace micronn {

/// Extends `crc` (a previous Crc32c result, or 0 for a fresh run) with
/// `n` bytes at `data`.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// CRC32C of a buffer.
inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

}  // namespace micronn

#endif  // MICRONN_COMMON_CRC32C_H_
