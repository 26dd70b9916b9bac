#ifndef PKGM_CORE_PKGM_MODEL_H_
#define PKGM_CORE_PKGM_MODEL_H_

#include <cstdint>
#include <utility>

#include "core/embedding_source.h"
#include "kg/triple.h"
#include "tensor/vec.h"
#include "util/rng.h"

namespace pkgm::core {

/// Model hyper-parameters (paper §III-A2: d = 64, Adam lr 1e-4, batch 1000,
/// 1 negative per edge; our defaults are scaled for laptop-size graphs).
/// TripleScorerKind (the triple query module's scoring family) lives in
/// core/embedding_source.h alongside the parameter-access seam.
struct PkgmModelOptions {
  uint32_t num_entities = 0;
  uint32_t num_relations = 0;
  /// Embedding dimension d. Must be even for kComplEx.
  uint32_t dim = 64;
  /// Triple query module scoring family.
  TripleScorerKind scorer = TripleScorerKind::kTransE;
  /// If false the model degrades to the bare triple scorer (used by the
  /// ablation bench to isolate the relation query module's contribution).
  bool use_relation_module = true;
  uint64_t seed = 7;
};

/// The model's four parameter tables. Values are the parameter-server
/// frames' table bytes (net::ParamTable) and the GradArena blob's slab
/// order; keep them dense and stable.
enum class ParamTable : uint8_t {
  kEntity = 0,
  kRelation = 1,
  kTransfer = 2,
  kHyperplane = 3,
};

/// The Pre-trained Knowledge Graph Model (paper §II).
///
/// Parameters:
///   * entity embeddings   E  : num_entities  x d
///   * relation embeddings R  : num_relations x d
///   * transfer matrices   M_r: num_relations x (d x d), row-major per r
///
/// Score functions (L1 norms, Table I):
///   * triple   query module  f_T(h,r,t) = ||h + r - t||
///   * relation query module  f_R(h,r)   = ||M_r h - r||
///   * joint                  f(h,r,t)   = f_T + f_R          (Eq. 3)
///
/// Serving functions (Table I):
///   * S_T(h,r) = h + r        — predicted tail embedding      (Eq. 6)
///   * S_R(h,r) = M_r h - r    — ~0 iff h has / should have r  (Eq. 7)
///
/// The model owns plain dense tables so trainers can update rows in place;
/// thread-safety during training is the trainer's concern (hogwild-style
/// benign races or per-shard locking).
///
/// As an EmbeddingSource it hands out zero-copy fp32 row pointers, so the
/// serving path (ServiceVectorProvider, KnowledgeServer) works identically
/// over a live training model and over a memory-mapped store export.
class PkgmModel : public EmbeddingSource {
 public:
  /// Allocates and randomly initializes all parameters (TransE-style init
  /// for embeddings, near-identity for transfer matrices).
  explicit PkgmModel(const PkgmModelOptions& options);

  /// Adopts already-filled tables, running no initialization. Every shape
  /// is checked against `options`: `transfers` has 0 rows of dim^2 floats
  /// without the relation module, and `hyperplanes` 0 rows of dim floats
  /// unless the scorer is kTransH. `options.seed` is unused.
  PkgmModel(const PkgmModelOptions& options, Mat entities, Mat relations,
            Mat transfers, Mat hyperplanes);

  PkgmModel(const PkgmModel&) = delete;
  PkgmModel& operator=(const PkgmModel&) = delete;
  PkgmModel(PkgmModel&&) = default;
  PkgmModel& operator=(PkgmModel&&) = default;

  uint32_t num_entities() const override { return options_.num_entities; }
  uint32_t num_relations() const override { return options_.num_relations; }
  uint32_t dim() const override { return options_.dim; }
  TripleScorerKind scorer() const override { return options_.scorer; }
  bool use_relation_module() const { return options_.use_relation_module; }
  bool has_relation_module() const override {
    return options_.use_relation_module;
  }

  /// EmbeddingSource row accessors — direct pointers into the heap tables;
  /// `scratch` is never used.
  const float* EntityRow(uint32_t e, float* /*scratch*/) const override {
    return entity(e);
  }
  const float* EntityRowsBlock(uint32_t first, uint32_t /*count*/,
                               float* /*scratch*/) const override {
    // The heap table is row-major and contiguous: a block of rows is just
    // a pointer to the first one.
    return entity(first);
  }
  const float* RelationRow(uint32_t r, float* /*scratch*/) const override {
    return relation(r);
  }
  const float* TransferRow(uint32_t r, float* /*scratch*/) const override {
    return transfer(r);
  }
  const float* HyperplaneRow(uint32_t r, float* /*scratch*/) const override {
    return hyperplane(r);
  }

  /// Embedding row accessors (length dim()).
  float* entity(uint32_t e) { return entities_.Row(e); }
  const float* entity(uint32_t e) const { return entities_.Row(e); }
  float* relation(uint32_t r) { return relations_.Row(r); }
  const float* relation(uint32_t r) const { return relations_.Row(r); }
  /// Transfer matrix M_r, row-major dim() x dim() (length dim()^2).
  float* transfer(uint32_t r) { return transfers_.Row(r); }
  const float* transfer(uint32_t r) const { return transfers_.Row(r); }
  /// TransH hyperplane normal w_r (length dim()); only allocated when the
  /// scorer is kTransH.
  float* hyperplane(uint32_t r) { return hyperplanes_.Row(r); }
  const float* hyperplane(uint32_t r) const { return hyperplanes_.Row(r); }

  Mat& entity_table() { return entities_; }
  Mat& relation_table() { return relations_; }
  Mat& transfer_table() { return transfers_; }
  Mat& hyperplane_table() { return hyperplanes_; }
  const Mat& entity_table() const { return entities_; }
  const Mat& relation_table() const { return relations_; }
  const Mat& transfer_table() const { return transfers_; }
  /// The table `t` names: rows keyed by entity id (kEntity) or relation id.
  /// Inline: the trainers look a table up for every applied row.
  const Mat& table(ParamTable t) const {
    switch (t) {
      case ParamTable::kEntity:
        return entities_;
      case ParamTable::kRelation:
        return relations_;
      case ParamTable::kTransfer:
        return transfers_;
      case ParamTable::kHyperplane:
        break;
    }
    return hyperplanes_;
  }
  Mat& table(ParamTable t) {
    return const_cast<Mat&>(std::as_const(*this).table(t));
  }
  /// Row length of table `t`, or 0 when these options have no such table
  /// (transfer without the relation module, hyperplane without TransH).
  uint32_t row_size(ParamTable t) const;

  /// Triple-module score, smaller = more plausible. TransE: Eq. 1; see
  /// TripleScorerKind for the other families.
  float TripleScore(const kg::Triple& t) const;

  /// The tail-query vector q(h, r) such that a candidate tail's score is
  /// TailDistance(q, tail embedding): TransE q = h + r (Eq. 6), DistMult
  /// q = h .* r, ComplEx q = h (*) r (complex Hadamard, conjugate folded in).
  void TripleQueryVector(kg::EntityId h, kg::RelationId r, float* out) const;

  /// Distance of a candidate tail embedding from a query vector, under the
  /// model's scorer: L1 for TransE (TransH projects the tail onto the
  /// relation's hyperplane first, hence the relation argument), negative
  /// dot product for DistMult / ComplEx. Equals TripleScore on the
  /// corresponding triple.
  float TailDistance(kg::RelationId r, const float* query,
                     const float* tail) const;

  /// f_R(h,r) = ||M_r h - r||_1 (Eq. 2). Returns 0 when the relation
  /// module is disabled.
  float RelationScore(kg::EntityId h, kg::RelationId r) const;

  /// f = f_T + f_R (Eq. 3).
  float Score(const kg::Triple& t) const;

  /// Triple query service vector S_T(h,r) (Eq. 6) — identical to
  /// TripleQueryVector; kept as the paper-facing name.
  void TripleService(kg::EntityId h, kg::RelationId r, float* out) const;

  /// S_R(h,r) = M_r h - r into out[0..dim) (Eq. 7). Zero-fills when the
  /// relation module is disabled.
  void RelationService(kg::EntityId h, kg::RelationId r, float* out) const;

  /// Renormalizes an entity embedding onto the L2 unit ball if it escaped
  /// (TransE's constraint; keeps the margin meaningful).
  void NormalizeEntity(uint32_t e);

  /// Renormalizes a TransH hyperplane normal to exactly unit length (the
  /// hard ||w_r|| = 1 constraint of TransH). No-op for other scorers.
  void NormalizeHyperplane(uint32_t r);

 private:
  PkgmModelOptions options_;
  Mat entities_;     // num_entities x dim
  Mat relations_;    // num_relations x dim
  Mat transfers_;    // num_relations x dim*dim (row-major d x d per relation)
  Mat hyperplanes_;  // num_relations x dim (TransH only)
};

}  // namespace pkgm::core

#endif  // PKGM_CORE_PKGM_MODEL_H_
