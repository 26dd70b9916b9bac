#ifndef PKGM_UTIL_CRC32C_H_
#define PKGM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace pkgm {

/// CRC32C (Castagnoli) over `len` bytes; `crc` seeds chained computation
/// (pass 0 to start). Dispatches once per process to the hardware CRC32C
/// instructions where available (SSE4.2 on x86-64, the ARMv8 CRC
/// extension) and to the table-driven software implementation otherwise;
/// setting PKGM_CRC32C=sw in the environment pins the software path. The
/// SSE4.2 path runs three interleaved crc32 streams over 3 x 8 KiB, then
/// 3 x 256 B blocks, joined by table-driven shifts, and one stream over
/// the rest. All paths produce identical values — the checksum guards
/// every wire frame and every section of the on-disk files
/// (util/section_file.h), and the software implementation is kept as the
/// parity oracle the hardware paths are tested against.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

/// The table-driven reference implementation (always available).
uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t crc = 0);

/// Name of the CRC32C implementation Crc32c() dispatches to: "sse4.2",
/// "armv8-crc" or "software".
const char* Crc32cImplName();

}  // namespace pkgm

#endif  // PKGM_UTIL_CRC32C_H_
