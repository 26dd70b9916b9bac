#include "core/gradients.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/ops.h"
#include "util/logging.h"

namespace pkgm::core {

namespace {

std::vector<float>& GetOrInit(
    std::unordered_map<uint32_t, std::vector<float>>* map, uint32_t id,
    uint32_t size) {
  auto [it, inserted] = map->try_emplace(id);
  if (inserted) it->second.assign(size, 0.0f);
  return it->second;
}

// Accumulates the gradient of sign_factor * f(triple) into grad.
void AccumulateScoreGradients(const PkgmModel& model, const kg::Triple& t,
                              float sign_factor, SparseGrad* grad) {
  const uint32_t d = model.dim();
  const float* h = model.entity(t.head);
  const float* r = model.relation(t.relation);
  const float* tl = model.entity(t.tail);

  // Triple query module gradients, per scoring family.
  std::vector<float>& gh = grad->Entity(t.head, d);
  std::vector<float>& gr = grad->Relation(t.relation, d);
  std::vector<float>& gt = grad->Entity(t.tail, d);
  switch (model.scorer()) {
    case TripleScorerKind::kTransE: {
      // f = ||h + r - t||_1, subgradient s = sign(h + r - t); vectorized
      // as diff = h + r - t, s = sign(diff), three Axpy accumulations.
      std::vector<float> diff(d), s(d);
      Add(d, h, r, diff.data());
      Sub(d, diff.data(), tl, diff.data());
      SignOf(d, diff.data(), s.data());
      Axpy(d, sign_factor, s.data(), gh.data());
      Axpy(d, sign_factor, s.data(), gr.data());
      Axpy(d, -sign_factor, s.data(), gt.data());
      break;
    }
    case TripleScorerKind::kDistMult:
      // f = -sum h r t.
      for (uint32_t i = 0; i < d; ++i) {
        gh[i] -= sign_factor * r[i] * tl[i];
        gr[i] -= sign_factor * h[i] * tl[i];
        gt[i] -= sign_factor * h[i] * r[i];
      }
      break;
    case TripleScorerKind::kTransH: {
      // f = ||u||_1 with u = (h - w<w,h>) + r - (t - w<w,t>). With
      // s = sign(u) and alpha = <w,h> - <w,t>:
      //   dh = s - w<w,s>, dt = -(s - w<w,s>), dr = s,
      //   dw = -(alpha * s + <s,w> * (h - t)).
      const float* w = model.hyperplane(t.relation);
      const float wh = Dot(d, w, h);
      const float wt = Dot(d, w, tl);
      const float alpha = wh - wt;
      std::vector<float> u(d), sgn(d);
      for (uint32_t i = 0; i < d; ++i) {
        u[i] = (h[i] - wh * w[i]) + r[i] - (tl[i] - wt * w[i]);
      }
      SignOf(d, u.data(), sgn.data());
      const float ws = Dot(d, w, sgn.data());
      std::vector<float>& gw = grad->Hyperplane(t.relation, d);
      for (uint32_t i = 0; i < d; ++i) {
        const float dh_i = sgn[i] - w[i] * ws;
        gh[i] += sign_factor * dh_i;
        gt[i] -= sign_factor * dh_i;
        gr[i] += sign_factor * sgn[i];
        gw[i] -= sign_factor * (alpha * sgn[i] + ws * (h[i] - tl[i]));
      }
      break;
    }
    case TripleScorerKind::kComplEx: {
      // f = -Re<h, r, conj(t)> with layout [real(0..d/2); imag(d/2..d)].
      const uint32_t half = d / 2;
      const float* h_re = h;
      const float* h_im = h + half;
      const float* r_re = r;
      const float* r_im = r + half;
      const float* t_re = tl;
      const float* t_im = tl + half;
      for (uint32_t i = 0; i < half; ++i) {
        gh[i] -= sign_factor * (r_re[i] * t_re[i] + r_im[i] * t_im[i]);
        gh[half + i] -=
            sign_factor * (r_re[i] * t_im[i] - r_im[i] * t_re[i]);
        gr[i] -= sign_factor * (h_re[i] * t_re[i] + h_im[i] * t_im[i]);
        gr[half + i] -=
            sign_factor * (h_re[i] * t_im[i] - h_im[i] * t_re[i]);
        gt[i] -= sign_factor * (h_re[i] * r_re[i] - h_im[i] * r_im[i]);
        gt[half + i] -=
            sign_factor * (h_re[i] * r_im[i] + h_im[i] * r_re[i]);
      }
      break;
    }
  }

  // Relation query module: u = M_r h - r, s' = sign(u).
  if (model.use_relation_module()) {
    const float* m = model.transfer(t.relation);
    std::vector<float> u(d);
    GemvRaw(d, d, m, h, u.data());
    for (uint32_t i = 0; i < d; ++i) u[i] -= r[i];

    std::vector<float> s2(d);
    SignOf(d, u.data(), s2.data());

    std::vector<float>& gm = grad->Transfer(t.relation, d * d);
    for (uint32_t i = 0; i < d; ++i) {
      if (s2[i] == 0.0f) continue;
      // dM_r row i += sign_factor * s2[i] * h
      Axpy(d, sign_factor * s2[i], h, gm.data() + i * d);
    }
    // dh += sign_factor * M_r^T s2
    std::vector<float> mts(d);
    GemvTransposedRaw(d, d, m, s2.data(), mts.data());
    Axpy(d, sign_factor, mts.data(), gh.data());
    // dr -= sign_factor * s2
    Axpy(d, -sign_factor, s2.data(), gr.data());
  }
}

}  // namespace

std::vector<float>& SparseGrad::Entity(uint32_t id, uint32_t dim) {
  return GetOrInit(&entities_, id, dim);
}
std::vector<float>& SparseGrad::Relation(uint32_t id, uint32_t dim) {
  return GetOrInit(&relations_, id, dim);
}
std::vector<float>& SparseGrad::Transfer(uint32_t id, uint32_t dim) {
  return GetOrInit(&transfers_, id, dim);
}
std::vector<float>& SparseGrad::Hyperplane(uint32_t id, uint32_t dim) {
  return GetOrInit(&hyperplanes_, id, dim);
}

void SparseGrad::Clear() {
  entities_.clear();
  relations_.clear();
  transfers_.clear();
  hyperplanes_.clear();
}

float AccumulateHingeGradients(const PkgmModel& model, const kg::Triple& pos,
                               const kg::Triple& neg, float margin,
                               SparseGrad* grad) {
  const float f_pos = model.Score(pos);
  const float f_neg = model.Score(neg);
  const float hinge = f_pos + margin - f_neg;
  if (hinge <= 0.0f) return 0.0f;
  if (grad != nullptr) {
    AccumulateScoreGradients(model, pos, +1.0f, grad);
    AccumulateScoreGradients(model, neg, -1.0f, grad);
  }
  return hinge;
}

namespace {

// Multiplicative hash: the entropy lands in the high bits, which is where
// the power-of-two mask looks after the shift.
inline size_t SlotHash(uint32_t id) {
  return static_cast<size_t>((static_cast<uint64_t>(id) *
                              UINT64_C(0x9E3779B97F4A7C15)) >>
                             32);
}

}  // namespace

float* GradSlab::Row(uint32_t id, uint32_t row_size) {
  if (keys_.empty()) {
    keys_.assign(256, 0);
    pos_.assign(256, 0);
  }
  if (row_size_ == 0) row_size_ = row_size;
  PKGM_CHECK_EQ(row_size_, row_size);

  size_t mask = keys_.size() - 1;
  size_t slot = SlotHash(id) & mask;
  while (true) {
    const uint32_t k = keys_[slot];
    if (k == id + 1) return slab_.data() + pos_[slot] * row_size_;
    if (k == 0) break;
    slot = (slot + 1) & mask;
  }

  // Insert at 3/4 max load; rehashing moves the free slot, so probe again.
  if ((ids_.size() + 1) * 4 > keys_.size() * 3) {
    Rehash(keys_.size() * 2);
    mask = keys_.size() - 1;
    slot = SlotHash(id) & mask;
    while (keys_[slot] != 0) slot = (slot + 1) & mask;
  }
  keys_[slot] = id + 1;
  pos_[slot] = static_cast<uint32_t>(ids_.size());
  used_slots_.push_back(static_cast<uint32_t>(slot));
  ids_.push_back(id);
  const size_t needed = ids_.size() * row_size_;
  if (slab_.size() < needed) {
    // Growth zero-fills; rows below the watermark were zeroed by Clear.
    slab_.resize(std::max(needed, slab_.size() * 2), 0.0f);
  }
  return slab_.data() + (ids_.size() - 1) * row_size_;
}

void GradSlab::Rehash(size_t new_capacity) {
  keys_.assign(new_capacity, 0);
  pos_.assign(new_capacity, 0);
  used_slots_.clear();
  const size_t mask = new_capacity - 1;
  for (size_t i = 0; i < ids_.size(); ++i) {
    size_t slot = SlotHash(ids_[i]) & mask;
    while (keys_[slot] != 0) slot = (slot + 1) & mask;
    keys_[slot] = ids_[i] + 1;
    pos_[slot] = static_cast<uint32_t>(i);
    used_slots_.push_back(static_cast<uint32_t>(slot));
  }
}

void GradSlab::Clear() {
  // Rows are claimed consecutively from the front, so the touched region
  // is exactly the first size() rows. Index slots can't be cleared while
  // probing (that would break linear-probe chains mid-scan), which is why
  // they were recorded at insert time.
  if (!ids_.empty()) {
    std::memset(slab_.data(), 0, ids_.size() * row_size_ * sizeof(float));
  }
  for (uint32_t s : used_slots_) keys_[s] = 0;
  used_slots_.clear();
  ids_.clear();
}

void RebuildTransferRow(const simd::KernelTable& k, uint32_t dim,
                        size_t count, const float* signs,
                        const float* const* s2, const float* const* heads,
                        float* out) {
  std::memset(out, 0, static_cast<size_t>(dim) * dim * sizeof(float));
  k.ger_multi(count, dim, dim, signs, s2, heads, out);
}

void TransferFactors::AddGroup(uint32_t rel, uint32_t dim, size_t count,
                               const float* signs, const float* const* s2,
                               const float* const* heads,
                               const simd::KernelTable& k) {
  if (relations_.empty()) {
    dim_ = dim;
    kernels_ = &k;
  }
  PKGM_CHECK_EQ(dim_, dim);
  PKGM_CHECK(kernels_ == &k);
  const size_t first = signs_.size();
  relations_.push_back(rel);
  ends_.push_back(static_cast<uint32_t>(first + count));
  signs_.insert(signs_.end(), signs, signs + count);
  // values_ only grows (Clear keeps it), so a steady-state batch neither
  // allocates nor zero-fills it.
  const size_t needed = (first + count) * 2 * static_cast<size_t>(dim);
  if (values_.size() < needed) {
    values_.resize(std::max(needed, values_.size() * 2));
  }
  for (size_t q = 0; q < count; ++q) {
    float* item = values_.data() + (first + q) * 2 * static_cast<size_t>(dim);
    std::memcpy(item, s2[q], dim * sizeof(float));
    std::memcpy(item + dim, heads[q], dim * sizeof(float));
  }
}

const float* TransferFactors::Rebuild(size_t g,
                                      TransferRebuildScratch* scratch) const {
  scratch->s2.clear();
  scratch->heads.clear();
  for (size_t q = begin(g); q < end(g); ++q) {
    scratch->s2.push_back(s2(q));
    scratch->heads.push_back(head(q));
  }
  scratch->row.resize(static_cast<size_t>(dim_) * dim_);
  RebuildTransferRow(*kernels_, dim_, end(g) - begin(g),
                     signs_.data() + begin(g), scratch->s2.data(),
                     scratch->heads.data(), scratch->row.data());
  return scratch->row.data();
}

void TransferFactors::Clear() {
  relations_.clear();
  ends_.clear();
  signs_.clear();
}

void GradArena::Clear() {
  entities_.Clear();
  relations_.Clear();
  transfers_.Clear();
  hyperplanes_.Clear();
  transfer_factors_.Clear();
}

// --------------------------------------------- GradArena serialization --

namespace {

// Little-endian blob plumbing. Rows move as raw f32 runs (a memcpy on
// little-endian hosts), so serialize → deserialize reproduces payloads
// bit-for-bit, -0.0f and all.
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
constexpr bool kBlobHostLittleEndian = true;
#else
constexpr bool kBlobHostLittleEndian = false;
#endif

void BlobPutU16(uint16_t v, std::string* out) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void BlobPutU32(uint32_t v, std::string* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void BlobPutF32Run(const float* v, size_t n, std::string* out) {
  if (n == 0) return;
  if (kBlobHostLittleEndian) {
    out->append(reinterpret_cast<const char*>(v), n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint32_t bits;
      std::memcpy(&bits, &v[i], sizeof(bits));
      BlobPutU32(bits, out);
    }
  }
}

uint32_t BlobLoadU32(const char* p) {
  const auto* b = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

// Whether f32 fields at `p` can be read in place: on a little-endian host
// at a 4-byte aligned address. The received bytes then are the floats; they
// were written by read()/memcpy, never through another type, as with the
// mmap'd stores' float views. Every blob field is 4 bytes wide, so all the
// rows (and h vectors) of one section share the answer.
bool BlobInPlace(const char* p) {
  return kBlobHostLittleEndian &&
         reinterpret_cast<uintptr_t>(p) % alignof(float) == 0;
}

// Copies the `n` f32 fields at `p` into `out` and returns it.
const float* CopyF32Run(const char* p, size_t n, float* out) {
  if (kBlobHostLittleEndian) {
    std::memcpy(out, p, n * sizeof(float));
    return out;
  }
  for (size_t j = 0; j < n; ++j) {
    const uint32_t bits = BlobLoadU32(p + 4 * j);
    std::memcpy(&out[j], &bits, sizeof(float));
  }
  return out;
}

// Rows written for `slab` under the id % num_shards == shard filter
// (num_shards == 1 keeps every row).
uint32_t SlabRowCount(const GradSlab& slab, uint32_t shard,
                      uint32_t num_shards) {
  if (num_shards <= 1) return static_cast<uint32_t>(slab.size());
  uint32_t count = 0;
  for (size_t i = 0; i < slab.size(); ++i) {
    if (slab.id_at(i) % num_shards == shard) ++count;
  }
  return count;
}

void SerializeSlabRows(const GradSlab& slab, uint32_t shard,
                       uint32_t num_shards, std::string* out) {
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint32_t id = slab.id_at(i);
    if (num_shards > 1 && id % num_shards != shard) continue;
    BlobPutU32(id, out);
    BlobPutF32Run(slab.row_at(i), slab.row_size(), out);
  }
}

constexpr size_t kBlobHeaderBytes = 8;
constexpr size_t kSlabHeaderBytes = 8;  // also the factor section header
constexpr size_t kGroupHeaderBytes = 8;
constexpr uint32_t kCodesPerWord = 16;  // 2-bit s' codes per u32
constexpr uint32_t kSignPlusOneBits = 0x3f800000u;
constexpr uint32_t kSignMinusOneBits = 0xbf800000u;

uint32_t CodeWords(uint32_t dim) {
  return (dim + kCodesPerWord - 1) / kCodesPerWord;
}

// Bytes of one factor item: the sign, the s' code words and h.
uint64_t FactorItemBytes(uint32_t dim) {
  return 4 + 4 * static_cast<uint64_t>(CodeWords(dim)) +
         4 * static_cast<uint64_t>(dim);
}

void SerializeFactorItem(float sign, const float* s2, const float* h,
                         uint32_t dim, std::string* out) {
  BlobPutF32Run(&sign, 1, out);
  for (uint32_t w = 0; w < CodeWords(dim); ++w) {
    uint32_t word = 0;
    const uint32_t stop = std::min(dim, (w + 1) * kCodesPerWord);
    for (uint32_t i = w * kCodesPerWord; i < stop; ++i) {
      const uint32_t code = s2[i] > 0.0f ? 1u : (s2[i] < 0.0f ? 2u : 0u);
      word |= code << (2 * (i % kCodesPerWord));
    }
    BlobPutU32(word, out);
  }
  BlobPutF32Run(h, dim, out);
}

// Why the encoded factor item at `p` is refused, or nullptr: the sign must
// be exactly ±1.0f, and no s' code may be 3 or sit past coordinate dim.
const char* FactorItemDefect(const char* p, uint32_t dim) {
  const uint32_t sign = BlobLoadU32(p);
  if (sign != kSignPlusOneBits && sign != kSignMinusOneBits) {
    return "factor sign is not +1 or -1";
  }
  for (uint32_t w = 0; w < CodeWords(dim); ++w) {
    const uint32_t word = BlobLoadU32(p + 4 + 4 * w);
    if ((word & (word >> 1) & 0x55555555u) != 0) return "s' code 3";
    const uint32_t used = std::min(dim - w * kCodesPerWord, kCodesPerWord);
    if (used < kCodesPerWord && (word >> (2 * used)) != 0) {
      return "non-zero s' padding bits";
    }
  }
  return nullptr;
}

// Why the `count` factor items at `p`, with `bytes_left` bytes from `p` to
// the end of the input, are refused, or nullptr. The count is checked
// against the bytes left before any item is read.
const char* FactorItemsDefect(const char* p, size_t bytes_left, uint32_t dim,
                              uint32_t count) {
  if (count == 0) return "empty factor group";
  const uint64_t item_bytes = FactorItemBytes(dim);
  if (item_bytes > bytes_left / count) {
    return "factor count exceeds byte budget";
  }
  for (uint32_t q = 0; q < count; ++q, p += item_bytes) {
    if (const char* defect = FactorItemDefect(p, dim)) return defect;
  }
  return nullptr;
}

void DecodeSignCodes(const char* p, uint32_t dim, float* out) {
  static constexpr float kValue[4] = {0.0f, 1.0f, -1.0f, 0.0f};
  for (uint32_t w = 0; w < CodeWords(dim); ++w) {
    uint32_t word = BlobLoadU32(p + 4 * w);
    const uint32_t stop = std::min(dim, (w + 1) * kCodesPerWord);
    for (uint32_t i = w * kCodesPerWord; i < stop; ++i, word >>= 2) {
      out[i] = kValue[word & 3];
    }
  }
}

Status BlobCorruption(const char* what) {
  return Status::Corruption(std::string("GradArena blob: ") + what);
}

}  // namespace

size_t GradArenaBlobBytes(const uint32_t counts[4],
                          const uint32_t row_sizes[4]) {
  size_t bytes = kBlobHeaderBytes;
  for (int t = 0; t < 4; ++t) {
    const size_t entry_bytes = 4 + 4 * static_cast<size_t>(row_sizes[t]);
    bytes += kSlabHeaderBytes + counts[t] * entry_bytes;
  }
  return bytes + kSlabHeaderBytes;  // the empty factor section
}

size_t FactorGroupBlobBytes(uint32_t dim, size_t count) {
  return kGroupHeaderBytes + count * FactorItemBytes(dim);
}

size_t TransferFactorCrossover(uint32_t dim) {
  // The largest count with FactorGroupBlobBytes(dim, count) < dense.
  const uint64_t dense = 4 + 4 * static_cast<uint64_t>(dim) * dim;
  const uint64_t least = kGroupHeaderBytes + 1;
  return dense < least ? 0 : (dense - least) / FactorItemBytes(dim);
}

size_t SerializeGradArena(const GradArena& arena, std::string* out) {
  return SerializeGradArena(arena, 0, 1, out);
}

size_t SerializeGradArena(const GradArena& arena, uint32_t shard,
                          uint32_t num_shards, std::string* out) {
  PKGM_CHECK_GT(num_shards, 0u);
  PKGM_CHECK_LT(shard, num_shards);
  const GradSlab* slabs[4] = {&arena.entities(), &arena.relations(),
                              &arena.transfers(), &arena.hyperplanes()};
  const TransferFactors& tf = arena.transfer_factors();
  const uint32_t d = tf.dim();
  const size_t crossover = tf.empty() ? 0 : TransferFactorCrossover(d);
  const auto owned = [&](uint32_t id) {
    return num_shards <= 1 || id % num_shards == shard;
  };
  const auto as_factors = [&](size_t g) {
    return tf.end(g) - tf.begin(g) <= crossover;
  };

  uint32_t counts[4], row_sizes[4];
  for (int t = 0; t < 4; ++t) {
    counts[t] = SlabRowCount(*slabs[t], shard, num_shards);
    row_sizes[t] = counts[t] == 0 ? 0 : slabs[t]->row_size();
  }
  // The smaller form of each owned group: a dense row joins the transfer
  // slab, factors go to the factor section.
  uint32_t dense_groups = 0, factor_groups = 0;
  size_t factor_bytes = 0;
  for (size_t g = 0; g < tf.num_groups(); ++g) {
    if (!owned(tf.relation(g))) continue;
    if (as_factors(g)) {
      ++factor_groups;
      factor_bytes += FactorGroupBlobBytes(d, tf.end(g) - tf.begin(g));
    } else {
      ++dense_groups;
    }
  }
  if (dense_groups > 0) {
    if (counts[2] > 0) {
      PKGM_CHECK_EQ(row_sizes[2], d * d);
    }
    row_sizes[2] = d * d;
    counts[2] += dense_groups;
  }
  out->reserve(out->size() + GradArenaBlobBytes(counts, row_sizes) +
               factor_bytes);
  BlobPutU32(kGradArenaBlobMagic, out);
  out->push_back(static_cast<char>(kGradArenaBlobVersion));
  out->push_back(static_cast<char>(5));  // num_sections
  BlobPutU16(0, out);                    // reserved
  size_t rows = factor_groups;
  for (int t = 0; t < 4; ++t) {
    BlobPutU32(row_sizes[t], out);
    BlobPutU32(counts[t], out);
    SerializeSlabRows(*slabs[t], shard, num_shards, out);
    rows += counts[t];
    if (t != 2 || dense_groups == 0) continue;
    TransferRebuildScratch scratch;
    for (size_t g = 0; g < tf.num_groups(); ++g) {
      if (!owned(tf.relation(g)) || as_factors(g)) continue;
      BlobPutU32(tf.relation(g), out);
      BlobPutF32Run(tf.Rebuild(g, &scratch), d * d, out);
    }
  }
  BlobPutU32(factor_groups == 0 ? 0 : d, out);
  BlobPutU32(factor_groups, out);
  for (size_t g = 0; g < tf.num_groups(); ++g) {
    if (!owned(tf.relation(g)) || !as_factors(g)) continue;
    BlobPutU32(tf.relation(g), out);
    BlobPutU32(static_cast<uint32_t>(tf.end(g) - tf.begin(g)), out);
    for (size_t q = tf.begin(g); q < tf.end(g); ++q) {
      SerializeFactorItem(tf.sign(q), tf.s2(q), tf.head(q), d, out);
    }
  }
  return rows;
}

Status VisitGradArenaBlob(std::string_view blob,
                          const GradBlobRowVisitor& visit_row,
                          const GradBlobGroupVisitor& visit_group) {
  if (blob.size() < kBlobHeaderBytes) {
    return BlobCorruption("truncated header");
  }
  const char* p = blob.data();
  if (BlobLoadU32(p) != kGradArenaBlobMagic) return BlobCorruption("bad magic");
  if (static_cast<uint8_t>(p[4]) != kGradArenaBlobVersion) {
    return BlobCorruption("unsupported version");
  }
  if (static_cast<uint8_t>(p[5]) != 5) {
    return BlobCorruption("unexpected section count");
  }
  if (p[6] != 0 || p[7] != 0) return BlobCorruption("non-zero reserved bits");

  // Structure first: every slab header and byte budget, then every factor
  // group and item, then trailing bytes, so nothing is visited in a blob
  // that will be refused.
  struct SlabSpan {
    uint32_t row_size;
    uint32_t count;
    size_t offset;  // first row
  };
  SlabSpan slabs[4];
  size_t pos = kBlobHeaderBytes;
  for (SlabSpan& slab : slabs) {
    if (blob.size() - pos < kSlabHeaderBytes) {
      return BlobCorruption("truncated slab header");
    }
    slab.row_size = BlobLoadU32(p + pos);
    slab.count = BlobLoadU32(p + pos + 4);
    pos += kSlabHeaderBytes;
    slab.offset = pos;
    if (slab.count == 0) continue;
    if (slab.row_size == 0) return BlobCorruption("zero row size");
    // Rows of (4-byte id + row_size floats) must fit in the bytes left.
    // Division keeps the guard overflow-proof.
    const uint64_t entry_bytes = 4 + static_cast<uint64_t>(slab.row_size) * 4;
    if (entry_bytes > (blob.size() - pos) / slab.count) {
      return BlobCorruption("slab count exceeds byte budget");
    }
    pos += static_cast<size_t>(entry_bytes * slab.count);
  }
  if (blob.size() - pos < kSlabHeaderBytes) {
    return BlobCorruption("truncated factor section header");
  }
  const uint32_t dim = BlobLoadU32(p + pos);
  const uint32_t num_groups = BlobLoadU32(p + pos + 4);
  pos += kSlabHeaderBytes;
  const size_t groups_offset = pos;
  if (num_groups > 0) {
    if (dim == 0) return BlobCorruption("zero factor dim");
    // A group rebuilds into a dim^2-float row, whose size is a u32.
    if (dim > 0xffffu) return BlobCorruption("factor dim too large");
  }
  const uint64_t item_bytes = FactorItemBytes(dim);
  for (uint32_t g = 0; g < num_groups; ++g) {
    if (blob.size() - pos < kGroupHeaderBytes) {
      return BlobCorruption("truncated factor group header");
    }
    const uint32_t count = BlobLoadU32(p + pos + 4);
    pos += kGroupHeaderBytes;
    if (const char* defect =
            FactorItemsDefect(p + pos, blob.size() - pos, dim, count)) {
      return BlobCorruption(defect);
    }
    pos += static_cast<size_t>(item_bytes * count);
  }
  if (pos != blob.size()) return BlobCorruption("trailing bytes");

  std::vector<float> copy;
  for (uint32_t t = 0; t < 4; ++t) {
    const SlabSpan& slab = slabs[t];
    const size_t entry_bytes = 4 + 4 * static_cast<size_t>(slab.row_size);
    const bool in_place = BlobInPlace(p + slab.offset);
    if (!in_place && slab.count > 0) copy.resize(slab.row_size);
    for (uint32_t i = 0; i < slab.count; ++i) {
      const char* entry = p + slab.offset + i * entry_bytes;
      const float* row =
          in_place ? reinterpret_cast<const float*>(entry + 4)
                   : CopyF32Run(entry + 4, slab.row_size, copy.data());
      PKGM_RETURN_IF_ERROR(
          visit_row(t, BlobLoadU32(entry), row, slab.row_size));
    }
  }
  pos = groups_offset;
  for (uint32_t g = 0; g < num_groups; ++g) {
    BlobFactorGroup group;
    group.relation = BlobLoadU32(p + pos);
    group.dim = dim;
    group.count = BlobLoadU32(p + pos + 4);
    group.items = p + pos + kGroupHeaderBytes;
    pos += kGroupHeaderBytes + static_cast<size_t>(item_bytes * group.count);
    PKGM_RETURN_IF_ERROR(visit_group(group));
  }
  return Status::Ok();
}

const float* RebuildTransferRow(const BlobFactorGroup& group,
                                const simd::KernelTable& k,
                                TransferRebuildScratch* scratch) {
  const size_t d = group.dim;
  const size_t count = group.count;
  const size_t item_bytes = static_cast<size_t>(FactorItemBytes(group.dim));
  const size_t h_offset = 4 + 4 * static_cast<size_t>(CodeWords(group.dim));
  // values holds every item's decoded s', then, when h cannot be read in
  // place, every item's copied-out h.
  const bool in_place = BlobInPlace(group.items);
  scratch->signs.resize(count);
  scratch->values.resize((in_place ? 1 : 2) * count * d);
  scratch->s2.resize(count);
  scratch->heads.resize(count);
  for (size_t q = 0; q < count; ++q) {
    const char* item = group.items + q * item_bytes;
    const uint32_t sign_bits = BlobLoadU32(item);
    std::memcpy(&scratch->signs[q], &sign_bits, sizeof(float));
    float* s2 = scratch->values.data() + q * d;
    DecodeSignCodes(item + 4, group.dim, s2);
    scratch->s2[q] = s2;
    const char* h = item + h_offset;
    scratch->heads[q] =
        in_place ? reinterpret_cast<const float*>(h)
                 : CopyF32Run(h, d, scratch->values.data() + (count + q) * d);
  }
  scratch->row.resize(d * d);
  RebuildTransferRow(k, group.dim, count, scratch->signs.data(),
                     scratch->s2.data(), scratch->heads.data(),
                     scratch->row.data());
  return scratch->row.data();
}

void ApplyTransferGroup(const BlobFactorGroup& group, float alpha,
                        const simd::KernelTable& k,
                        TransferRebuildScratch* scratch, float* row) {
  k.axpy(static_cast<size_t>(group.dim) * group.dim, alpha,
         RebuildTransferRow(group, k, scratch), row);
}

void AppendTransferLogRecord(float alpha, const BlobFactorGroup& group,
                             std::string* out) {
  BlobPutF32Run(&alpha, 1, out);
  BlobPutU32(group.count, out);
  out->append(group.items,
              FactorGroupBlobBytes(group.dim, group.count) - kGroupHeaderBytes);
}

size_t TransferLogRecordBytes(const char* record, uint32_t dim) {
  return FactorGroupBlobBytes(dim, BlobLoadU32(record + 4));
}

Status VisitTransferLog(std::string_view log, uint32_t relation, uint32_t dim,
                        const TransferLogVisitor& visit) {
  PKGM_CHECK(dim > 0 && dim <= 0xffffu);
  const char* p = log.data();
  for (size_t pos = 0; pos < log.size();) {
    if (log.size() - pos < kGroupHeaderBytes) {
      return Status::Corruption("transfer log: truncated record header");
    }
    const uint32_t count = BlobLoadU32(p + pos + 4);
    pos += kGroupHeaderBytes;
    if (const char* defect =
            FactorItemsDefect(p + pos, log.size() - pos, dim, count)) {
      return Status::Corruption(std::string("transfer log: ") + defect);
    }
    pos += static_cast<size_t>(FactorItemBytes(dim) * count);
  }
  for (size_t pos = 0; pos < log.size();) {
    float alpha;
    CopyF32Run(p + pos, 1, &alpha);
    BlobFactorGroup group;
    group.relation = relation;
    group.dim = dim;
    group.count = BlobLoadU32(p + pos + 4);
    group.items = p + pos + kGroupHeaderBytes;
    pos += FactorGroupBlobBytes(dim, group.count);
    PKGM_RETURN_IF_ERROR(visit(alpha, group));
  }
  return Status::Ok();
}

Status DeserializeGradArena(std::string_view blob, GradArena* arena,
                            uint64_t* rows_applied) {
  GradSlab* slabs[4] = {&arena->entities(), &arena->relations(),
                        &arena->transfers(), &arena->hyperplanes()};
  uint64_t applied = 0;
  const auto accumulate = [&](uint32_t t, uint32_t id, const float* row,
                              uint32_t row_size) -> Status {
    GradSlab* slab = slabs[t];
    if (!slab->empty() && slab->row_size() != row_size) {
      return BlobCorruption("row size disagrees with target arena");
    }
    const size_t before = slab->size();
    float* dst = slab->Row(id, row_size);
    if (slab->size() > before) {
      // Fresh row: copy, so the round trip is bit-exact (+= into the
      // zero-initialized row would flush -0.0f payloads to +0.0f).
      std::memcpy(dst, row, row_size * sizeof(float));
    } else {
      for (uint32_t j = 0; j < row_size; ++j) dst[j] += row[j];
    }
    ++applied;
    return Status::Ok();
  };
  TransferRebuildScratch scratch;
  PKGM_RETURN_IF_ERROR(VisitGradArenaBlob(
      blob, accumulate, [&](const BlobFactorGroup& group) -> Status {
        return accumulate(2, group.relation,
                          RebuildTransferRow(group, simd::Active(), &scratch),
                          group.dim * group.dim);
      }));
  if (rows_applied != nullptr) *rows_applied = applied;
  return Status::Ok();
}

void HingeWorkspace::EnsureDim(uint32_t d) {
  if (diff_pos.size() >= d) return;
  diff_pos.resize(d);
  diff_neg.resize(d);
  u_pos.resize(d);
  u_neg.resize(d);
  sgn.resize(d);
  mts.resize(d);
}

namespace {

// Forward score of one triple under table `k`, parking the residuals the
// backward pass reuses: `diff` = h + r - t (TransE), `u` = M_r h (relation
// module; the "- r" happens in the backward so the forward can use the
// fused l1_distance reduction). Arithmetic mirrors PkgmModel::Score
// composition-for-composition, so the value is bit-identical when `k` is
// the active table.
float FusedForward(const PkgmModel& model, const kg::Triple& t,
                   const simd::KernelTable& k, float* diff, float* u) {
  const uint32_t d = model.dim();
  const float* h = model.entity(t.head);
  const float* r = model.relation(t.relation);
  const float* tl = model.entity(t.tail);
  float f = 0.0f;
  switch (model.scorer()) {
    case TripleScorerKind::kTransE:
      k.residual(d, h, r, tl, diff);
      f = k.l1_norm(d, diff);
      break;
    case TripleScorerKind::kDistMult: {
      float acc = 0.0f;
      for (uint32_t i = 0; i < d; ++i) acc += h[i] * r[i] * tl[i];
      f = -acc;
      break;
    }
    case TripleScorerKind::kComplEx: {
      const uint32_t half = d / 2;
      const float* h_re = h;
      const float* h_im = h + half;
      const float* r_re = r;
      const float* r_im = r + half;
      const float* t_re = tl;
      const float* t_im = tl + half;
      float acc = 0.0f;
      for (uint32_t i = 0; i < half; ++i) {
        acc += (h_re[i] * r_re[i] - h_im[i] * r_im[i]) * t_re[i] +
               (h_re[i] * r_im[i] + h_im[i] * r_re[i]) * t_im[i];
      }
      f = -acc;
      break;
    }
    case TripleScorerKind::kTransH: {
      const float* w = model.hyperplane(t.relation);
      const float wh = k.dot(d, w, h);
      const float wt = k.dot(d, w, tl);
      float acc = 0.0f;
      for (uint32_t i = 0; i < d; ++i) {
        acc += std::fabs((h[i] - wh * w[i]) + r[i] - (tl[i] - wt * w[i]));
      }
      f = acc;
      break;
    }
  }
  if (model.use_relation_module()) {
    k.gemv_raw(d, d, model.transfer(t.relation), h, u);
    f += k.l1_distance(d, u, r);
  }
  return f;
}

// Claims every arena row a side-item's backward touches, in the order the
// fused path has always claimed them; the dense transfer row only when
// `dense_transfer` (the batch engine records factors instead). A claim can
// grow its slab and move earlier rows of the same slab, so the backward
// fetches its row pointers only once all of a side-item's rows (or a whole
// batch's) exist.
void ClaimRows(const PkgmModel& model, const kg::Triple& t,
               bool dense_transfer, GradArena* grad) {
  const uint32_t d = model.dim();
  grad->Entity(t.head, d);
  grad->Entity(t.tail, d);
  grad->Relation(t.relation, d);
  if (dense_transfer && model.use_relation_module()) {
    grad->Transfer(t.relation, d * d);
  }
  if (model.scorer() == TripleScorerKind::kTransH) {
    grad->Hyperplane(t.relation, d);
  }
}

// The relation module's matrix half of the backward, for `count`
// side-items sharing relation `rel`: finishes each forward residual in
// place, u_q = M_r h_q - r -> s'_q = sign(u_q), and writes
// mts_q = M_r^T s'_q. When `gm` (rel's claimed transfer row) is non-null
// it also accumulates dM_r += signs[q] s'_q h_q^T in q order (rows with
// s'[i] == 0 skipped): the one ger_multi call RebuildTransferRow repeats.
void RelationMatrixBackward(const PkgmModel& model, uint32_t rel,
                            size_t count, const float* const* heads,
                            float* const* u, float* const* mts,
                            const float* signs, const simd::KernelTable& k,
                            float* gm) {
  const uint32_t d = model.dim();
  const float* r = model.relation(rel);
  for (size_t q = 0; q < count; ++q) {
    k.sub(d, u[q], r, u[q]);
    k.sign_of(d, u[q], u[q]);
  }
  if (gm != nullptr) k.ger_multi(count, d, d, signs, u, heads, gm);
  k.gemv_t_multi(count, d, d, model.transfer(rel), u, mts);
}

// The row half of the backward of sign_factor * f(t): the triple module's
// gradients into the head, tail and relation (and TransH hyperplane) rows,
// then, with the relation module, dh += sign_factor M_r^T s' and
// dr -= sign_factor s' from the matrix half's `s2` and `mts`. Accumulation
// order matches AccumulateScoreGradients exactly. The rows must already be
// claimed; `scratch` holds d floats.
void RowBackward(const PkgmModel& model, const kg::Triple& t,
                 float sign_factor, const simd::KernelTable& k,
                 const float* diff, const float* s2, const float* mts,
                 float* scratch, GradArena* grad) {
  const uint32_t d = model.dim();
  const float* h = model.entity(t.head);
  const float* r = model.relation(t.relation);
  const float* tl = model.entity(t.tail);
  float* gh = grad->Entity(t.head, d);
  float* gt = grad->Entity(t.tail, d);
  float* gr = grad->Relation(t.relation, d);

  switch (model.scorer()) {
    case TripleScorerKind::kTransE: {
      float* s = scratch;
      k.sign_of(d, diff, s);
      k.axpy(d, sign_factor, s, gh);
      k.axpy(d, sign_factor, s, gr);
      k.axpy(d, -sign_factor, s, gt);
      break;
    }
    case TripleScorerKind::kDistMult:
      for (uint32_t i = 0; i < d; ++i) {
        gh[i] -= sign_factor * r[i] * tl[i];
        gr[i] -= sign_factor * h[i] * tl[i];
        gt[i] -= sign_factor * h[i] * r[i];
      }
      break;
    case TripleScorerKind::kTransH: {
      const float* w = model.hyperplane(t.relation);
      const float wh = k.dot(d, w, h);
      const float wt = k.dot(d, w, tl);
      const float alpha = wh - wt;
      // The projected difference, then its sign in place.
      float* s = scratch;
      for (uint32_t i = 0; i < d; ++i) {
        s[i] = (h[i] - wh * w[i]) + r[i] - (tl[i] - wt * w[i]);
      }
      k.sign_of(d, s, s);
      const float ws_dot = k.dot(d, w, s);
      float* gw = grad->Hyperplane(t.relation, d);
      for (uint32_t i = 0; i < d; ++i) {
        const float dh_i = s[i] - w[i] * ws_dot;
        gh[i] += sign_factor * dh_i;
        gt[i] -= sign_factor * dh_i;
        gr[i] += sign_factor * s[i];
        gw[i] -= sign_factor * (alpha * s[i] + ws_dot * (h[i] - tl[i]));
      }
      break;
    }
    case TripleScorerKind::kComplEx: {
      const uint32_t half = d / 2;
      const float* h_re = h;
      const float* h_im = h + half;
      const float* r_re = r;
      const float* r_im = r + half;
      const float* t_re = tl;
      const float* t_im = tl + half;
      for (uint32_t i = 0; i < half; ++i) {
        gh[i] -= sign_factor * (r_re[i] * t_re[i] + r_im[i] * t_im[i]);
        gh[half + i] -=
            sign_factor * (r_re[i] * t_im[i] - r_im[i] * t_re[i]);
        gr[i] -= sign_factor * (h_re[i] * t_re[i] + h_im[i] * t_im[i]);
        gr[half + i] -=
            sign_factor * (h_re[i] * t_im[i] - h_im[i] * t_re[i]);
        gt[i] -= sign_factor * (h_re[i] * r_re[i] - h_im[i] * r_im[i]);
        gt[half + i] -=
            sign_factor * (h_re[i] * r_im[i] + h_im[i] * r_re[i]);
      }
      break;
    }
  }

  if (model.use_relation_module()) {
    // dh += sign_factor * M_r^T s'.
    k.axpy(d, sign_factor, mts, gh);
    // dr -= sign_factor * s'.
    k.axpy(d, -sign_factor, s2, gr);
  }
}

// Backward pass of sign_factor * f(t) into the arena, reusing the forward
// residuals: the matrix half as a group of one, then the row half.
void FusedBackward(const PkgmModel& model, const kg::Triple& t,
                   float sign_factor, const simd::KernelTable& k,
                   const float* diff, float* u, HingeWorkspace* ws,
                   GradArena* grad) {
  ClaimRows(model, t, /*dense_transfer=*/true, grad);
  float* mts = ws->mts.data();
  if (model.use_relation_module()) {
    const uint32_t d = model.dim();
    const float* h = model.entity(t.head);
    RelationMatrixBackward(model, t.relation, 1, &h, &u, &mts, &sign_factor,
                           k, grad->Transfer(t.relation, d * d));
  }
  RowBackward(model, t, sign_factor, k, diff, u, mts, ws->sgn.data(), grad);
}

}  // namespace

float FusedHingeGradients(const PkgmModel& model, const kg::Triple& pos,
                          const kg::Triple& neg, float margin,
                          const simd::KernelTable& k, HingeWorkspace* ws,
                          GradArena* grad) {
  const uint32_t d = model.dim();
  ws->EnsureDim(d);
  const float f_pos =
      FusedForward(model, pos, k, ws->diff_pos.data(), ws->u_pos.data());
  const float f_neg =
      FusedForward(model, neg, k, ws->diff_neg.data(), ws->u_neg.data());
  const float hinge = f_pos + margin - f_neg;
  if (hinge <= 0.0f) return 0.0f;
  if (grad != nullptr) {
    FusedBackward(model, pos, +1.0f, k, ws->diff_pos.data(),
                  ws->u_pos.data(), ws, grad);
    FusedBackward(model, neg, -1.0f, k, ws->diff_neg.data(),
                  ws->u_neg.data(), ws, grad);
  }
  return hinge;
}

void FusedBatchHingeGradients(const PkgmModel& model, const kg::Triple* pos,
                              const NegativeSample* neg, size_t n,
                              float margin, const simd::KernelTable& k,
                              BatchHingeWorkspace* ws, GradArena* grad,
                              float* hinges) {
  const uint32_t d = model.dim();
  const size_t items = 2 * n;
  const auto side = [&](size_t q) -> const kg::Triple& {
    return q % 2 == 0 ? pos[q / 2] : neg[q / 2].triple;
  };
  const auto sign = [](size_t q) { return q % 2 == 0 ? 1.0f : -1.0f; };
  // resize() keeps capacity, so a steady-state batch allocates nothing.
  ws->score.resize(items);
  ws->diff.resize(items * d);
  ws->u.resize(items * d);
  ws->mts.resize(items * d);
  ws->sgn.resize(d);
  ws->order.resize(items);
  float* const diff = ws->diff.data();
  float* const u = ws->u.data();
  float* const mts = ws->mts.data();

  // 1. Group the side-items by relation: a stable counting sort, so each
  // group keeps pair order (pos before neg) — the order the per-pair loop
  // applies its dM_r updates in. group_end[r] ends up one past r's group.
  std::vector<uint32_t>& group_end = ws->group_end;
  group_end.assign(model.num_relations(), 0);
  for (size_t q = 0; q < items; ++q) ++group_end[side(q).relation];
  uint32_t offset = 0;
  for (uint32_t& e : group_end) {
    const uint32_t count = e;
    e = offset;
    offset += count;
  }
  for (size_t q = 0; q < items; ++q) {
    ws->order[group_end[side(q).relation]++] = static_cast<uint32_t>(q);
  }

  // 2. Forward, one relation group after another, so each transfer matrix
  // is read for all its side-items while it is in cache.
  for (const uint32_t q : ws->order) {
    ws->score[q] = FusedForward(model, side(q), k, diff + q * d, u + q * d);
  }

  // 3. Hinges in pair order.
  for (size_t i = 0; i < n; ++i) {
    const float hinge = ws->score[2 * i] + margin - ws->score[2 * i + 1];
    hinges[i] = hinge <= 0.0f ? 0.0f : hinge;
  }
  if (grad == nullptr) return;
  // A NaN hinge counts as active, as in the per-pair loop.
  const auto active = [&](size_t q) { return hinges[q / 2] != 0.0f; };

  // 4. Claim rows in pair order: the arena's row order is the per-pair
  // loop's, and no later lookup can move a row.
  for (size_t q = 0; q < items; ++q) {
    if (active(q)) ClaimRows(model, side(q), /*dense_transfer=*/false, grad);
  }

  // 5. The relation module's matrix half, once per relation group over the
  // group's active side-items, in group (= pair) order; dM_r is recorded
  // as the group's factors (sign, s', h).
  if (model.use_relation_module()) {
    TransferFactors& factors = grad->transfer_factors();
    PKGM_CHECK(factors.empty());  // one group per relation
    size_t begin = 0;
    while (begin < items) {
      const uint32_t rel = side(ws->order[begin]).relation;
      const size_t stop = group_end[rel];
      ws->heads.clear();
      ws->group_u.clear();
      ws->group_mts.clear();
      ws->group_signs.clear();
      for (size_t j = begin; j < stop; ++j) {
        const uint32_t q = ws->order[j];
        if (!active(q)) continue;
        ws->heads.push_back(model.entity(side(q).head));
        ws->group_u.push_back(u + q * d);
        ws->group_mts.push_back(mts + q * d);
        ws->group_signs.push_back(sign(q));
      }
      if (!ws->heads.empty()) {
        RelationMatrixBackward(model, rel, ws->heads.size(),
                               ws->heads.data(), ws->group_u.data(),
                               ws->group_mts.data(), ws->group_signs.data(),
                               k, /*gm=*/nullptr);
        factors.AddGroup(rel, d, ws->heads.size(), ws->group_signs.data(),
                         ws->group_u.data(), ws->heads.data(), k);
      }
      begin = stop;
    }
  }

  // 6. Every entity, relation and hyperplane row in pair order: each
  // row's contributions arrive in the per-pair loop's sequence.
  for (size_t q = 0; q < items; ++q) {
    if (!active(q)) continue;
    RowBackward(model, side(q), sign(q), k, diff + q * d, u + q * d,
                mts + q * d, ws->sgn.data(), grad);
  }
}

}  // namespace pkgm::core
