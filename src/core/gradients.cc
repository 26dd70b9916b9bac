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

void GradArena::Clear() {
  entities_.Clear();
  relations_.Clear();
  transfers_.Clear();
  hyperplanes_.Clear();
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

void SerializeSlab(const GradSlab& slab, uint32_t count, uint32_t shard,
                   uint32_t num_shards, std::string* out) {
  const uint32_t n = slab.row_size();
  BlobPutU32(count == 0 ? 0 : n, out);
  BlobPutU32(count, out);
  for (size_t i = 0; i < slab.size(); ++i) {
    const uint32_t id = slab.id_at(i);
    if (num_shards > 1 && id % num_shards != shard) continue;
    BlobPutU32(id, out);
    BlobPutF32Run(slab.row_at(i), n, out);
  }
}

constexpr size_t kBlobHeaderBytes = 8;
constexpr size_t kSlabHeaderBytes = 8;

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
  return bytes;
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
  uint32_t counts[4], row_sizes[4];
  size_t rows = 0;
  for (int t = 0; t < 4; ++t) {
    counts[t] = SlabRowCount(*slabs[t], shard, num_shards);
    row_sizes[t] = slabs[t]->row_size();
    rows += counts[t];
  }
  out->reserve(out->size() + GradArenaBlobBytes(counts, row_sizes));
  BlobPutU32(kGradArenaBlobMagic, out);
  out->push_back(static_cast<char>(kGradArenaBlobVersion));
  out->push_back(static_cast<char>(4));  // num_slabs
  BlobPutU16(0, out);                    // reserved
  for (int t = 0; t < 4; ++t) {
    SerializeSlab(*slabs[t], counts[t], shard, num_shards, out);
  }
  return rows;
}

Status VisitGradArenaBlob(std::string_view blob,
                          const GradBlobRowVisitor& visit) {
  if (blob.size() < kBlobHeaderBytes) {
    return BlobCorruption("truncated header");
  }
  const char* p = blob.data();
  if (BlobLoadU32(p) != kGradArenaBlobMagic) return BlobCorruption("bad magic");
  if (static_cast<uint8_t>(p[4]) != kGradArenaBlobVersion) {
    return BlobCorruption("unsupported version");
  }
  if (static_cast<uint8_t>(p[5]) != 4) {
    return BlobCorruption("unexpected slab count");
  }
  if (p[6] != 0 || p[7] != 0) return BlobCorruption("non-zero reserved bits");

  // Structure first: every slab header and byte budget, then trailing
  // bytes, so no row is visited in a blob that will be refused.
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
  if (pos != blob.size()) return BlobCorruption("trailing bytes");

  std::vector<float> copy;
  for (uint32_t t = 0; t < 4; ++t) {
    const SlabSpan& slab = slabs[t];
    const size_t entry_bytes = 4 + 4 * static_cast<size_t>(slab.row_size);
    for (uint32_t i = 0; i < slab.count; ++i) {
      const char* entry = p + slab.offset + i * entry_bytes;
      const char* values = entry + 4;
      const float* row;
      if (kBlobHostLittleEndian &&
          reinterpret_cast<uintptr_t>(values) % alignof(float) == 0) {
        // The received bytes are the row: no copy. The bytes were written
        // by read()/memcpy, never through another type, as with the mmap'd
        // stores' float views.
        row = reinterpret_cast<const float*>(values);
      } else {
        copy.resize(slab.row_size);
        for (uint32_t j = 0; j < slab.row_size; ++j) {
          const uint32_t bits = BlobLoadU32(values + 4 * j);
          std::memcpy(&copy[j], &bits, sizeof(float));
        }
        row = copy.data();
      }
      PKGM_RETURN_IF_ERROR(visit(t, BlobLoadU32(entry), row, slab.row_size));
    }
  }
  return Status::Ok();
}

Status DeserializeGradArena(std::string_view blob, GradArena* arena,
                            uint64_t* rows_applied) {
  GradSlab* slabs[4] = {&arena->entities(), &arena->relations(),
                        &arena->transfers(), &arena->hyperplanes()};
  uint64_t applied = 0;
  PKGM_RETURN_IF_ERROR(VisitGradArenaBlob(
      blob, [&](uint32_t t, uint32_t id, const float* row,
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
// fused path has always claimed them. A claim can grow its slab and move
// earlier rows of the same slab, so the backward fetches its row pointers
// only once all of a side-item's rows (or a whole batch's) exist.
void ClaimRows(const PkgmModel& model, const kg::Triple& t, GradArena* grad) {
  const uint32_t d = model.dim();
  grad->Entity(t.head, d);
  grad->Entity(t.tail, d);
  grad->Relation(t.relation, d);
  if (model.use_relation_module()) grad->Transfer(t.relation, d * d);
  if (model.scorer() == TripleScorerKind::kTransH) {
    grad->Hyperplane(t.relation, d);
  }
}

// The relation module's matrix half of the backward, for `count`
// side-items sharing relation `rel`: finishes each forward residual in
// place, u_q = M_r h_q - r -> s'_q = sign(u_q), then accumulates
// dM_r += signs[q] s'_q h_q^T in q order (rows with s'[i] == 0 skipped)
// and writes mts_q = M_r^T s'_q. `gm` is rel's claimed transfer row.
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
  k.ger_multi(count, d, d, signs, u, heads, gm);
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
  ClaimRows(model, t, grad);
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
    if (active(q)) ClaimRows(model, side(q), grad);
  }

  // 5. The relation module's matrix half, once per relation group over the
  // group's active side-items, in group (= pair) order.
  if (model.use_relation_module()) {
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
                               k, grad->Transfer(rel, d * d));
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
