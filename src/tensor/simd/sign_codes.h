#ifndef PKGM_TENSOR_SIMD_SIGN_CODES_H_
#define PKGM_TENSOR_SIMD_SIGN_CODES_H_

// The s' code pair of the kernel tables (KernelTable::pack_sign_codes)
// outside the scalar TU: the scalar reference, which tables without a
// vector version of their own point at, and the bit spread the x86 tables
// build a code word from their compare masks with.

#include <cstddef>
#include <cstdint>

namespace pkgm::simd::internal {

void ScalarPackSignCodes(size_t n, const float* x, char* codes);
void ScalarUnpackSignCodes(size_t n, const char* codes, float* out);

/// Bit i of the 16-bit `m` moved to bit 2i, every odd bit zero: BMI2's
/// pdep with mask 0x55555555, in shifts and masks.
inline uint32_t SpreadBits16(uint32_t m) {
  m = (m | m << 8) & 0x00ff00ffu;
  m = (m | m << 4) & 0x0f0f0f0fu;
  m = (m | m << 2) & 0x33333333u;
  return (m | m << 1) & 0x55555555u;
}

}  // namespace pkgm::simd::internal

#endif  // PKGM_TENSOR_SIMD_SIGN_CODES_H_
