#ifndef PKGM_CORE_GRADIENTS_H_
#define PKGM_CORE_GRADIENTS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "kg/triple.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/status.h"

namespace pkgm::core {

/// One table of the flat arena accumulator: gradient rows live in a single
/// contiguous slab in first-touch order, found through an open-addressed
/// (linear probing) index of (id+1, position) pairs. All storage is reused
/// across batches — Clear() zeroes only the touched prefix of the slab and
/// the probe slots recorded at insert time, so a steady-state training
/// batch performs no allocation at all.
///
/// Pointer stability: Row() may grow the slab, invalidating previously
/// returned pointers for THIS slab. Callers that hold several rows of one
/// slab first claim them all, then re-fetch the pointers (a re-fetch of an
/// existing row never grows).
class GradSlab {
 public:
  /// The gradient row for `id` (length `row_size`), zero on first touch.
  /// `row_size` must be the same for every call on one slab between Clears.
  float* Row(uint32_t id, uint32_t row_size);

  /// Number of distinct rows touched since the last Clear.
  size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  uint32_t row_size() const { return row_size_; }
  /// Rows are indexed in first-touch order.
  uint32_t id_at(size_t i) const { return ids_[i]; }
  float* row_at(size_t i) { return slab_.data() + i * row_size_; }
  const float* row_at(size_t i) const { return slab_.data() + i * row_size_; }

  /// O(touched): zeroes the used slab prefix and the used index slots.
  void Clear();

 private:
  void Rehash(size_t new_capacity);

  uint32_t row_size_ = 0;
  std::vector<uint32_t> keys_;  // id + 1, 0 = empty; capacity is a power of 2
  std::vector<uint32_t> pos_;   // parallel to keys_: row index in the slab
  std::vector<uint32_t> used_slots_;  // probe slots claimed since Clear
  std::vector<uint32_t> ids_;         // row ids in first-touch order
  std::vector<float> slab_;           // ids_.size() rows of row_size_ floats
};

/// Reusable scratch for rebuilding dense transfer rows from factors (or
/// applying them): the one d x d row every rebuild writes, so it stays hot
/// in cache from group to group, plus the kernel's operand arrays.
struct TransferRebuildScratch {
  std::vector<float> row;
  std::vector<float> signs;
  std::vector<float> values;  // decoded s' (and h copied out of a blob)
  std::vector<const float*> s2, heads;
};

/// The rebuild contract: zeroes `out` (dim x dim floats), then makes the
/// batch engine's one k.ger_multi(count, dim, dim, signs, s2, heads, out)
/// call for the group, so `out` holds exactly the bytes a freshly claimed
/// dense arena row would hold after the group's dM_r += sign s' h^T.
void RebuildTransferRow(const simd::KernelTable& k, uint32_t dim,
                        size_t count, const float* signs,
                        const float* const* s2, const float* const* heads,
                        float* out);

/// One relation group's transfer-matrix gradient as sufficient factors,
/// borrowed: dM_r = sum over q < count of signs[q] s2[q] heads[q]^T, each
/// vector `dim` floats.
struct FactorGroup {
  uint32_t relation = 0;
  uint32_t dim = 0;
  size_t count = 0;
  const float* signs = nullptr;
  const float* const* s2 = nullptr;
  const float* const* heads = nullptr;
};

/// The SGD step on one transfer row straight from its factors: row +=
/// alpha * dM_r in one k.ger_multi_axpy, the bytes of RebuildTransferRow
/// on `k` followed by one k.axpy of the rebuilt row. Every SGD transfer
/// update goes through it: the in-process trainer's, a parameter server's
/// push apply and a worker's replay of the server's log.
void ApplyTransferGroup(const FactorGroup& group, float alpha,
                        const simd::KernelTable& k, float* row);

/// A batch's transfer-matrix gradients as sufficient factors (Xie et al.,
/// arXiv:1511.08486). dM_r is the sum of sign_q s'_q h_q^T over the
/// relation's active side-items, so FusedBatchHingeGradients records each
/// item's sign, s' = sign(M_r h - r) and h instead of a dense d x d row:
/// one group per relation, items in group (= pair) order. h is copied,
/// because the model row can change before the group is applied: another
/// DistTrainer worker's pull can refresh the replica between backward and
/// push. Storage is reused across Clears, like the slabs'.
class TransferFactors {
 public:
  /// Appends relation `rel`'s group of `count` items: item q has sign
  /// signs[q] (exactly +1 or -1), s2[q] (dim floats in {0, +1, -1}) and
  /// heads[q] (dim floats), all copied. `k` is the table the factors were
  /// computed on; Rebuild runs on it.
  void AddGroup(uint32_t rel, uint32_t dim, size_t count, const float* signs,
                const float* const* s2, const float* const* heads,
                const simd::KernelTable& k);

  size_t num_groups() const { return relations_.size(); }
  bool empty() const { return relations_.empty(); }
  uint32_t dim() const { return dim_; }
  uint32_t relation(size_t g) const { return relations_[g]; }
  /// Group g holds items [begin(g), end(g)).
  size_t begin(size_t g) const { return g == 0 ? 0 : ends_[g - 1]; }
  size_t end(size_t g) const { return ends_[g]; }
  float sign(size_t item) const { return signs_[item]; }
  const float* s2(size_t item) const {
    return values_.data() + item * 2 * static_cast<size_t>(dim_);
  }
  const float* head(size_t item) const { return s2(item) + dim_; }

  /// Group g's dense dM_r (dim x dim floats), rebuilt into scratch->row
  /// under the rebuild contract.
  const float* Rebuild(size_t g, TransferRebuildScratch* scratch) const;

  void Clear();

 private:
  uint32_t dim_ = 0;
  const simd::KernelTable* kernels_ = nullptr;
  std::vector<uint32_t> relations_;  // per group
  std::vector<uint32_t> ends_;       // per group: one past its last item
  std::vector<float> signs_;         // per item
  std::vector<float> values_;        // per item: s' then h, dim floats each
};

/// The four parameter tables' gradient slabs plus the transfer-matrix
/// factors. Drop-in accumulate target for the trainers; entity ids double
/// as the batch's touched-entity set (a row exists iff some active pair
/// touched that entity). The batch engine leaves the transfer slab empty
/// and records factors; the per-pair FusedHingeGradients and
/// DeserializeGradArena fill dense transfer rows.
class GradArena {
 public:
  float* Entity(uint32_t id, uint32_t dim) { return entities_.Row(id, dim); }
  float* Relation(uint32_t id, uint32_t dim) {
    return relations_.Row(id, dim);
  }
  float* Transfer(uint32_t id, uint32_t dim_sq) {
    return transfers_.Row(id, dim_sq);
  }
  float* Hyperplane(uint32_t id, uint32_t dim) {
    return hyperplanes_.Row(id, dim);
  }

  GradSlab& entities() { return entities_; }
  GradSlab& relations() { return relations_; }
  GradSlab& transfers() { return transfers_; }
  GradSlab& hyperplanes() { return hyperplanes_; }
  const GradSlab& entities() const { return entities_; }
  const GradSlab& relations() const { return relations_; }
  const GradSlab& transfers() const { return transfers_; }
  const GradSlab& hyperplanes() const { return hyperplanes_; }
  TransferFactors& transfer_factors() { return transfer_factors_; }
  const TransferFactors& transfer_factors() const {
    return transfer_factors_;
  }

  void Clear();
  bool empty() const {
    return entities_.empty() && relations_.empty() && transfers_.empty() &&
           hyperplanes_.empty() && transfer_factors_.empty();
  }

 private:
  GradSlab entities_;
  GradSlab relations_;
  GradSlab transfers_;
  GradSlab hyperplanes_;
  TransferFactors transfer_factors_;
};

// --------------------------------------------- GradArena serialization --

/// First four bytes of a serialized GradArena blob ("PGRD" little-endian).
constexpr uint32_t kGradArenaBlobMagic = 0x44524750;
constexpr uint8_t kGradArenaBlobVersion = 2;

/// Appends the touched rows and transfer factors of `arena` to `out` as a
/// self-describing little-endian blob (version 2):
///
///   u32 magic, u8 version, u8 num_sections (= 5), u16 reserved (= 0);
///   per dense slab (entities, relations, transfers, hyperplanes, in order):
///     u32 row_size, u32 count, count * {u32 id, row_size * f32}
///   the transfer factor section:
///     u32 dim, u32 num_groups, per group:
///       u32 relation, u32 count (>= 1), per item:
///         f32 sign (exactly +1.0f or -1.0f),
///         ceil(dim / 16) u32 words of 2-bit s' codes (coordinate i at bits
///           2 (i % 16) of word i / 16; 0 = +0, 1 = +1, 2 = -1; code 3 and
///           non-zero padding bits are refused; the kernel table's
///           pack_sign_codes / unpack_sign_codes convert them),
///         dim * f32 h
///
/// An empty slab or section serializes as 0, 0. Every field is 4 bytes wide
/// after the 8-byte header, so rows and h vectors stay 4-byte aligned
/// relative to the blob. Rows keep their first-touch order, so serialize →
/// deserialize of dense rows into an empty arena is a bit-exact
/// reproduction (including row order and -0.0f payloads).
///
/// Each factor group is written in the smaller form: as factors while it
/// has at most TransferFactorCrossover(dim) items, else rebuilt (on the
/// table it was recorded with) into a dense row appended to the transfer
/// slab. So no group costs more bytes than its dense row, and a blob never
/// outgrows GradArenaBlobBytes of its dense-row counts. A relation must not
/// have both a dense transfer row and a factor group in one arena.
///
/// `out` is grown once, to the blob's exact size. Returns the number of
/// rows written, a factor group counting as the one row it updates (a
/// worker skips the push entirely when its shard's slice is empty).
size_t SerializeGradArena(const GradArena& arena, std::string* out);

/// Shard-filtered variant: only rows whose id satisfies
/// `id % num_shards == shard` are written (entity rows keyed by entity id;
/// relation, transfer and hyperplane rows and factor groups keyed by
/// relation id). This is the per-parameter-server slice a distributed
/// worker pushes.
size_t SerializeGradArena(const GradArena& arena, uint32_t shard,
                          uint32_t num_shards, std::string* out);

/// Bytes of a blob whose slab t holds counts[t] dense rows of row_sizes[t]
/// floats (slabs in serialization order) and no factor group.
size_t GradArenaBlobBytes(const uint32_t counts[4],
                          const uint32_t row_sizes[4]);

/// Bytes of one factor group of `count` items at `dim` in a blob.
size_t FactorGroupBlobBytes(uint32_t dim, size_t count);

/// The most items SerializeGradArena writes as factors: with one more, the
/// dense transfer entry (4 + 4 dim^2 bytes) is smaller. 59 at dim 64.
size_t TransferFactorCrossover(uint32_t dim);

/// Called for each row of a GradArena blob, in blob order: `slab` is the
/// slab index (0 entities, 1 relations, 2 transfers, 3 hyperplanes) and
/// `row` holds `row_size` floats, valid only during the call. A non-OK
/// return stops the visit and is returned by VisitGradArenaBlob.
using GradBlobRowVisitor = std::function<Status(
    uint32_t slab, uint32_t id, const float* row, uint32_t row_size)>;

/// One factor group of a blob VisitGradArenaBlob has checked: `count`
/// (>= 1) items encoded at `items` as the blob layout describes, valid only
/// during the visit.
struct BlobFactorGroup {
  uint32_t relation = 0;
  uint32_t dim = 0;
  uint32_t count = 0;
  const char* items = nullptr;
};

/// Called for each factor group of a blob, after every dense row, in blob
/// order. A non-OK return stops the visit.
using GradBlobGroupVisitor =
    std::function<Status(const BlobFactorGroup& group)>;

/// Decodes a visited factor group and rebuilds its dense dM_r on `k` into
/// scratch->row (the rebuild contract); returns scratch->row's data. On a
/// little-endian host each h is read in place when 4-byte aligned in the
/// blob, otherwise copied out first.
const float* RebuildTransferRow(const BlobFactorGroup& group,
                                const simd::KernelTable& k,
                                TransferRebuildScratch* scratch);

/// Decodes a visited factor group and applies it to `row` on `k` as the
/// FactorGroup overload does. A parameter server applies pushed factor
/// groups with it and a worker replays the server's log records with it,
/// so on the same table the two rows stay byte-identical.
void ApplyTransferGroup(const BlobFactorGroup& group, float alpha,
                        const simd::KernelTable& k,
                        TransferRebuildScratch* scratch, float* row);

// ------------------------------------------ transfer-row update logs --
//
// A parameter server keeps each transfer row's recent SGD updates as log
// records, and a kRows reply carries a run of them. A record is one applied
// factor group: f32 alpha (the step's -lr * scale), u32 count (>= 1), then
// the group's `count` factor items exactly as in a blob. A record is as
// long as FactorGroupBlobBytes(dim, count).

/// Appends the record of `group` applied with `alpha` to `out`.
void AppendTransferLogRecord(float alpha, const BlobFactorGroup& group,
                             std::string* out);

/// Bytes of the record starting at `record` (a record this process wrote).
size_t TransferLogRecordBytes(const char* record, uint32_t dim);

/// Called for each record of a log, in order; `group.relation` is the
/// relation VisitTransferLog was given. A non-OK return stops the visit.
using TransferLogVisitor =
    std::function<Status(float alpha, const BlobFactorGroup& group)>;

/// The log parser. Checks the whole run of records at `dim` (1 to 65535)
/// first, with the blob parser's item checks: a truncated record header, a
/// count of 0 or one exceeding the bytes left (checked before any item is
/// read), a sign other than ±1.0f, an s' code of 3 or non-zero padding bits
/// each return a Corruption status without visiting anything. Then visits
/// every record.
Status VisitTransferLog(std::string_view log, uint32_t relation, uint32_t dim,
                        const TransferLogVisitor& visit);

/// The GradArena blob parser. Checks the whole blob first — bad
/// magic/version, non-zero reserved bits, a zero row size or dim, a dim
/// whose square overflows u32, a count that exceeds the bytes left (before
/// any allocation), an empty factor group, a sign other than ±1.0f, an s'
/// code of 3 or non-zero padding bits, truncation, trailing bytes — and
/// returns a Corruption status without visiting anything; then calls
/// `visit_row` for every dense row and `visit_group` for every factor
/// group. On a little-endian host a row is passed as a pointer into `blob`
/// whenever it is 4-byte aligned there (no copy); otherwise it is copied
/// out first.
Status VisitGradArenaBlob(std::string_view blob,
                          const GradBlobRowVisitor& visit_row,
                          const GradBlobGroupVisitor& visit_group);

/// Parses a blob produced by SerializeGradArena and ACCUMULATES its rows
/// into `arena` (fresh rows are copied bit-exactly; rows already present
/// are added element-wise, so several workers' blobs merge like local
/// accumulation). Factor groups are rebuilt on simd::Active() into dense
/// transfer rows, one dim x dim row each. Rejects what VisitGradArenaBlob
/// rejects, and a row size disagreeing with a non-empty target slab, with
/// a Corruption status; on failure `arena` may hold a prefix of the blob's
/// rows. `rows_applied`, when non-null, receives the number of rows
/// accumulated (a factor group counts as one).
Status DeserializeGradArena(std::string_view blob, GradArena* arena,
                            uint64_t* rows_applied = nullptr);

/// Reusable per-thread scratch for FusedHingeGradients: the forward pass
/// parks the residuals the backward pass needs (TransE h + r - t; relation
/// module M_r h), so nothing is recomputed and nothing is allocated.
struct HingeWorkspace {
  std::vector<float> diff_pos, diff_neg;  // triple-module residuals
  std::vector<float> u_pos, u_neg;        // relation-module residuals → s'
  std::vector<float> sgn;                 // sign-vector scratch
  std::vector<float> mts;                 // M_r^T s'

  void EnsureDim(uint32_t d);
};

/// Computes the margin-ranking hinge for one (positive, negative) pair
/// (Eq. 4): L = max(0, f(pos) + margin - f(neg)), and — when the hinge is
/// active and `grad` is non-null — accumulates its exact subgradients into
/// the flat arena. Returns the hinge value.
///
/// One fused forward+backward over the pair, lowered onto the kernel table
/// `k` (sign-vector compute, dM_r += s' h^T via ger_multi, dh += M_r^T s'
/// via gemv_t_multi, each with k = 1). The forward residuals are kept in
/// `ws` and reused by the backward pass, so the transfer-matrix GEMV runs
/// once per triple instead of twice. The trainers and MeanHinge run the
/// batch form below; this one is the batch engine's per-pair parity
/// reference, and perfbench's fwd/bwd layer replays it.
///
/// When `k` is the process-wide simd::Active() table, the result is
/// bit-identical to the map-of-vectors reference in
/// tests/reference_gradients.h, which spells the subgradients out: every
/// composition here mirrors the reference arithmetic within a table
/// (residual == add∘sub, gemv_t == the axpy row accumulation, ger row i ==
/// axpy(alpha*x[i]), and l1_norm(h + r - t) == l1_distance(h + r, t)).
float FusedHingeGradients(const PkgmModel& model, const kg::Triple& pos,
                          const kg::Triple& neg, float margin,
                          const simd::KernelTable& k, HingeWorkspace* ws,
                          GradArena* grad);

/// Reusable per-worker scratch for FusedBatchHingeGradients: a batch's
/// per-side-item residuals and backward vectors plus its relation grouping.
/// Grows to the largest batch seen (3 x 2n x d floats plus about 36 bytes
/// per side-item; 0.82 MB at d = 64, n = 512), then allocates nothing.
/// Recorded into the arena, a batch's TransferFactors copy of s' and h is
/// at most 2n x (2d + 1) floats more (0.53 MB), against the 2.06 MB of
/// dense transfer rows a batch of the bench KG's 126 relations used to
/// claim.
struct BatchHingeWorkspace {
  std::vector<float> score;  // f of each side-item
  std::vector<float> diff;   // TransE residual h + r - t, d per side-item
  std::vector<float> u;      // relation-module residual M_r h, then s'
  std::vector<float> mts;    // M_r^T s'
  std::vector<float> sgn;    // row-half sign scratch (d)
  std::vector<uint32_t> order;      // side-items, stably sorted by relation
  std::vector<uint32_t> group_end;  // counting-sort cursors, per relation
  // One relation group's kernel operands (its active side-items).
  std::vector<const float*> heads;
  std::vector<float*> group_u, group_mts;
  std::vector<float> group_signs;
};

/// Takes each relation group's transfer-matrix factors from
/// FusedBatchHingeGradients in place of grad->transfer_factors(). The
/// group's pointers are valid only during the call.
using TransferGroupSink = std::function<void(const FactorGroup& group)>;

/// The batch form of FusedHingeGradients: hinges[i] = the hinge of pair
/// (pos[i], neg[i].triple) for i in [0, n), with every gradient of the
/// active pairs accumulated into `grad` (nothing is touched when `grad` is
/// null). Side-item q is pos[q / 2] for even q and neg[q / 2] for odd q.
///
/// The engine groups the 2n side-items by relation (a stable counting
/// sort) and runs the forward once per group, so a transfer matrix stays
/// in cache for all its side-items; a negative with its positive's head
/// and relation (a tail corruption) copies the positive's M_r h, which the
/// stable sort computed first. It computes the hinges and claims entity,
/// relation and hyperplane rows in pair order; it runs the relation
/// module's matrix half (s' = sign(M_r h - r), M_r^T s' on
/// `gemv_t_multi`) once per group and, instead of claiming a dense
/// transfer row, hands the group's dM_r as factors to `take_group` right
/// after its gemv_t_multi, while M_r is in L1 — or, when `take_group` is
/// empty, records them in grad->transfer_factors(); last, it accumulates
/// every entity, relation and hyperplane row in pair order. Those rows
/// read no transfer matrix, so `take_group` may update M_r in place. The
/// hinges, the dense slabs' row order and every gradient byte equal n
/// FusedHingeGradients calls in pair order on the same table `k`, and each
/// group rebuilt equals that loop's dense dM_r row byte for byte. One
/// group per relation: `grad`'s factors must be empty on entry.
void FusedBatchHingeGradients(const PkgmModel& model, const kg::Triple* pos,
                              const NegativeSample* neg, size_t n,
                              float margin, const simd::KernelTable& k,
                              BatchHingeWorkspace* ws, GradArena* grad,
                              float* hinges,
                              const TransferGroupSink& take_group = {});

}  // namespace pkgm::core

#endif  // PKGM_CORE_GRADIENTS_H_
