// Seeded input mutation shared by the parser mutation tests (dist_test's
// parameter-server frames and blobs, net_test's serving request frames).
#ifndef PKGM_TESTS_MUTATION_H_
#define PKGM_TESTS_MUTATION_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/rng.h"

namespace pkgm {

/// Mutations each input gets, after one pass over the valid input.
constexpr int kMutationsPerInput = 2000;

/// One random mutation of `in`: bit flips, a truncation, a splice of a
/// prefix of `in` onto a suffix of `other`, or an inflated u32 at one of
/// `fields` (the offsets of counts, row sizes and lengths).
inline std::string Mutate(const std::string& in, const std::string& other,
                          const std::vector<size_t>& fields, Rng* rng) {
  std::string out = in;
  switch (rng->Uniform(4)) {
    case 0:
      for (uint64_t f = rng->Uniform(3); f < 3 && !out.empty(); ++f) {
        out[rng->Uniform(out.size())] ^=
            static_cast<char>(1u << rng->Uniform(8));
      }
      break;
    case 1:
      out.resize(rng->Uniform(out.size() + 1));
      break;
    case 2:
      out = in.substr(0, rng->Uniform(in.size() + 1)) +
            other.substr(rng->Uniform(other.size() + 1));
      break;
    default: {
      const size_t at = fields[rng->Uniform(fields.size())];
      if (at + 4 > out.size()) break;
      uint32_t v;
      std::memcpy(&v, &out[at], sizeof(v));
      const uint32_t inflated[] = {v + 1,        2 * v + 1,   v + 0x10000u,
                                   0x40000000u, 0x7fffffffu, 0xffffffffu};
      v = inflated[rng->Uniform(6)];
      std::memcpy(&out[at], &v, sizeof(v));
      break;
    }
  }
  return out;
}

}  // namespace pkgm

#endif  // PKGM_TESTS_MUTATION_H_
