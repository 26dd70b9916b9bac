#include "util/crc32c.h"

#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__linux__)
#include <arm_acle.h>
#include <sys/auxv.h>
#endif

namespace pkgm {
namespace {

constexpr uint32_t kCrc32cPoly = 0x82f63b78;  // Castagnoli, reflected

struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
      }
      entries[i] = crc;
    }
  }
};

#if defined(__x86_64__) || defined(__i386__)
// Advances a raw (uninverted) CRC32C register past `len` zero bytes, i.e.
// multiplies it by x^(8 len) mod P, for `len` a power of two. The map is
// linear over GF(2): it is built at compile time by squaring the map of one
// zero bit, and tabulated on each of the register's four bytes.
struct Crc32cShift {
  uint32_t table[4][256] = {};

  explicit constexpr Crc32cShift(size_t len) {
    uint32_t map[32];  // map[b]: the image of register bit b
    map[0] = kCrc32cPoly;
    for (int b = 1; b < 32; ++b) map[b] = 1u << (b - 1);
    for (size_t bits = 1; bits < 8 * len; bits *= 2) {
      uint32_t squared[32];
      for (int b = 0; b < 32; ++b) squared[b] = Apply(map, map[b]);
      for (int b = 0; b < 32; ++b) map[b] = squared[b];
    }
    for (int k = 0; k < 4; ++k) {
      for (uint32_t n = 0; n < 256; ++n) {
        table[k][n] = Apply(map, n << (8 * k));
      }
    }
  }

  uint32_t operator()(uint32_t crc) const {
    return table[0][crc & 0xff] ^ table[1][(crc >> 8) & 0xff] ^
           table[2][(crc >> 16) & 0xff] ^ table[3][crc >> 24];
  }

 private:
  static constexpr uint32_t Apply(const uint32_t* map, uint32_t v) {
    uint32_t image = 0;
    for (int b = 0; v != 0; ++b, v >>= 1) {
      if (v & 1) image ^= map[b];
    }
    return image;
  }
};

// Three-stream block sizes: the long blocks cover large frames, the short
// ones most of what is left below 3 x 8 KiB.
constexpr size_t kCrcLongBlock = 8192;
constexpr size_t kCrcShortBlock = 256;
constexpr Crc32cShift kCrcLongShift(kCrcLongBlock);
constexpr Crc32cShift kCrcShortShift(kCrcShortBlock);

// Runs the register `crc` over as many 3 x `block`-byte blocks as `*len`
// holds. The crc32 instruction has a three-cycle latency and a throughput
// of one per cycle, so each block is split into thirds that run as three
// independent streams, and the two later thirds' registers are joined by
// shifting the earlier register past them. (Mark Adler's crc32c.c.)
__attribute__((target("sse4.2")))
uint64_t Crc32cThreeStreams(uint64_t crc, size_t block,
                            const Crc32cShift& shift, const uint8_t** data,
                            size_t* len) {
  const uint8_t* p = *data;
  for (; *len >= 3 * block; *len -= 3 * block, p += 3 * block) {
    uint64_t crc1 = 0, crc2 = 0;
    for (size_t i = 0; i < block; i += 8) {
      uint64_t w0, w1, w2;
      std::memcpy(&w0, p + i, 8);
      std::memcpy(&w1, p + block + i, 8);
      std::memcpy(&w2, p + 2 * block + i, 8);
      crc = _mm_crc32_u64(crc, w0);
      crc1 = _mm_crc32_u64(crc1, w1);
      crc2 = _mm_crc32_u64(crc2, w2);
    }
    crc = shift(static_cast<uint32_t>(crc)) ^ crc1;
    crc = shift(static_cast<uint32_t>(crc)) ^ crc2;
  }
  *data = p;
  return crc;
}

// SSE4.2 path: the dedicated crc32 instruction, three streams over 3 x 8 KiB
// and 3 x 256 B blocks, then one stream of 8-byte words and the last
// bytes. Compiled with a per-function target attribute so the TU itself
// needs no -msse4.2; only ever called after the runtime
// __builtin_cpu_supports check below.
__attribute__((target("sse4.2")))
uint32_t Crc32cSse42(const void* data, size_t len, uint32_t crc) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t c = ~crc;
  c = Crc32cThreeStreams(c, kCrcLongBlock, kCrcLongShift, &bytes, &len);
  c = Crc32cThreeStreams(c, kCrcShortBlock, kCrcShortShift, &bytes, &len);
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    c = _mm_crc32_u64(c, word);
    bytes += 8;
    len -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (len > 0) {
    c32 = _mm_crc32_u8(c32, *bytes);
    ++bytes;
    --len;
  }
  return ~c32;
}
#elif defined(__aarch64__) && defined(__linux__)
// ARMv8 CRC extension path; gated at runtime on HWCAP_CRC32.
__attribute__((target("+crc")))
uint32_t Crc32cArmv8(const void* data, size_t len, uint32_t crc) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, bytes, sizeof(word));
    c = __crc32cd(c, word);
    bytes += 8;
    len -= 8;
  }
  while (len > 0) {
    c = __crc32cb(c, *bytes);
    ++bytes;
    --len;
  }
  return ~c;
}
#endif

using Crc32cFn = uint32_t (*)(const void*, size_t, uint32_t);

struct Crc32cImpl {
  Crc32cFn fn;
  const char* name;
};

Crc32cImpl PickCrc32cImpl() {
  const char* env = std::getenv("PKGM_CRC32C");
  if (env != nullptr && std::string_view(env) == "sw") {
    return {&Crc32cSoftware, "software"};
  }
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) {
    return {&Crc32cSse42, "sse4.2"};
  }
#elif defined(__aarch64__) && defined(__linux__)
  if ((getauxval(AT_HWCAP) & HWCAP_CRC32) != 0) {
    return {&Crc32cArmv8, "armv8-crc"};
  }
#endif
  return {&Crc32cSoftware, "software"};
}

const Crc32cImpl& ActiveCrc32c() {
  static const Crc32cImpl impl = PickCrc32cImpl();
  return impl;
}

}  // namespace

uint32_t Crc32cSoftware(const void* data, size_t len, uint32_t crc) {
  static const Crc32cTable table;
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  crc = ~crc;
  for (size_t i = 0; i < len; ++i) {
    crc = table.entries[(crc ^ bytes[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  return ActiveCrc32c().fn(data, len, crc);
}

const char* Crc32cImplName() { return ActiveCrc32c().name; }

}  // namespace pkgm
