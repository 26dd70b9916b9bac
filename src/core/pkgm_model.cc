#include "core/pkgm_model.h"

#include <cmath>
#include <utility>
#include <vector>

#include "core/service_math.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/logging.h"

namespace pkgm::core {

namespace {

// Rows of the transfer and hyperplane tables: 0 when `o` has no such table.
size_t TransferRows(const PkgmModelOptions& o) {
  return o.use_relation_module ? o.num_relations : 0;
}
size_t HyperplaneRows(const PkgmModelOptions& o) {
  return o.scorer == TripleScorerKind::kTransH ? o.num_relations : 0;
}

// Checks `o` and that each table has the shape `o` gives it.
void CheckShapes(const PkgmModelOptions& o, const Mat& entities,
                 const Mat& relations, const Mat& transfers,
                 const Mat& hyperplanes) {
  PKGM_CHECK_GT(o.num_entities, 0u);
  PKGM_CHECK_GT(o.num_relations, 0u);
  PKGM_CHECK_GT(o.dim, 0u);
  if (o.scorer == TripleScorerKind::kComplEx) {
    PKGM_CHECK_EQ(o.dim % 2, 0u) << "ComplEx needs an even dimension";
  }
  const auto check_shape = [](const Mat& table, size_t rows, size_t cols) {
    PKGM_CHECK_EQ(table.rows(), rows);
    PKGM_CHECK_EQ(table.cols(), cols);
  };
  check_shape(entities, o.num_entities, o.dim);
  check_shape(relations, o.num_relations, o.dim);
  check_shape(transfers, TransferRows(o), static_cast<size_t>(o.dim) * o.dim);
  check_shape(hyperplanes, HyperplaneRows(o), o.dim);
}

}  // namespace

PkgmModel::PkgmModel(const PkgmModelOptions& options)
    : options_(options),
      entities_(options.num_entities, options.dim),
      relations_(options.num_relations, options.dim),
      transfers_(TransferRows(options),
                 static_cast<size_t>(options.dim) * options.dim),
      hyperplanes_(HyperplaneRows(options), options.dim) {
  CheckShapes(options, entities_, relations_, transfers_, hyperplanes_);
  Rng rng(options.seed);
  const uint32_t d = options.dim;
  for (uint32_t e = 0; e < options.num_entities; ++e) {
    TransEInit(d, &rng, entities_.Row(e));
  }
  for (uint32_t r = 0; r < options.num_relations; ++r) {
    TransEInit(d, &rng, relations_.Row(r));
  }
  if (options.scorer == TripleScorerKind::kTransH) {
    for (uint32_t r = 0; r < options.num_relations; ++r) {
      TransEInit(d, &rng, hyperplanes_.Row(r));  // unit-norm normals
    }
  }
  if (options.use_relation_module) {
    // Near-identity init: M_r h starts close to h, so f_R starts in a
    // gentle regime rather than a random projection.
    for (uint32_t r = 0; r < options.num_relations; ++r) {
      float* m = transfers_.Row(r);
      for (uint32_t i = 0; i < d; ++i) {
        for (uint32_t j = 0; j < d; ++j) {
          m[i * d + j] = (i == j ? 1.0f : 0.0f) + rng.Normal(0.0f, 0.02f);
        }
      }
    }
  }
}

PkgmModel::PkgmModel(const PkgmModelOptions& options, Mat entities,
                     Mat relations, Mat transfers, Mat hyperplanes)
    : options_(options),
      entities_(std::move(entities)),
      relations_(std::move(relations)),
      transfers_(std::move(transfers)),
      hyperplanes_(std::move(hyperplanes)) {
  CheckShapes(options, entities_, relations_, transfers_, hyperplanes_);
}

uint32_t PkgmModel::row_size(ParamTable t) const {
  const Mat& rows = table(t);
  return rows.rows() > 0 ? static_cast<uint32_t>(rows.cols()) : 0;
}

float PkgmModel::TripleScore(const kg::Triple& t) const {
  const uint32_t d = options_.dim;
  const float* h = entity(t.head);
  const float* r = relation(t.relation);
  const float* tl = entity(t.tail);
  switch (options_.scorer) {
    case TripleScorerKind::kTransE: {
      // q = h + r, then the fused L1 kernel — the same arithmetic the
      // serving/eval path applies to (query, candidate) pairs.
      thread_local std::vector<float> q;
      if (q.size() < d) q.resize(d);
      Add(d, h, r, q.data());
      return L1Distance(d, q.data(), tl);
    }
    case TripleScorerKind::kDistMult: {
      float acc = 0.0f;
      for (uint32_t i = 0; i < d; ++i) acc += h[i] * r[i] * tl[i];
      return -acc;
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
      return -acc;
    }
    case TripleScorerKind::kTransH: {
      const float* w = hyperplane(t.relation);
      const float wh = Dot(d, w, h);
      const float wt = Dot(d, w, tl);
      float acc = 0.0f;
      for (uint32_t i = 0; i < d; ++i) {
        acc += std::fabs((h[i] - wh * w[i]) + r[i] - (tl[i] - wt * w[i]));
      }
      return acc;
    }
  }
  return 0.0f;
}

void PkgmModel::TripleQueryVector(kg::EntityId h_id, kg::RelationId r_id,
                                  float* out) const {
  const float* w = options_.scorer == TripleScorerKind::kTransH
                       ? hyperplane(r_id)
                       : nullptr;
  TripleQueryFromRows(options_.scorer, options_.dim, entity(h_id),
                      relation(r_id), w, out);
}

float PkgmModel::TailDistance(kg::RelationId r, const float* query,
                              const float* tail) const {
  const uint32_t d = options_.dim;
  const float* w = options_.scorer == TripleScorerKind::kTransH
                       ? hyperplane(r)
                       : nullptr;
  // Scratch is only touched for TransH (candidate projection); thread_local
  // keeps this allocation-free on the per-candidate hot path.
  thread_local std::vector<float> scratch;
  if (w != nullptr && scratch.size() < d) scratch.resize(d);
  return TailDistanceFromRows(options_.scorer, d, w, query, tail,
                              scratch.data());
}

float PkgmModel::RelationScore(kg::EntityId h, kg::RelationId r) const {
  if (!options_.use_relation_module) return 0.0f;
  const uint32_t d = options_.dim;
  std::vector<float> mh(d);
  GemvRaw(d, d, transfer(r), entity(h), mh.data());
  return L1Distance(d, mh.data(), relation(r));
}

float PkgmModel::Score(const kg::Triple& t) const {
  return TripleScore(t) + RelationScore(t.head, t.relation);
}

void PkgmModel::TripleService(kg::EntityId h, kg::RelationId r,
                              float* out) const {
  TripleQueryVector(h, r, out);
}

void PkgmModel::RelationService(kg::EntityId h, kg::RelationId r,
                                float* out) const {
  const uint32_t d = options_.dim;
  if (!options_.use_relation_module) {
    for (uint32_t i = 0; i < d; ++i) out[i] = 0.0f;
    return;
  }
  RelationServiceFromRows(d, transfer(r), entity(h), relation(r), out);
}

void PkgmModel::NormalizeEntity(uint32_t e) {
  ProjectToUnitBall(options_.dim, entity(e));
}

void PkgmModel::NormalizeHyperplane(uint32_t r) {
  if (options_.scorer != TripleScorerKind::kTransH) return;
  float* w = hyperplane(r);
  const float norm = L2Norm(options_.dim, w);
  if (norm > 0.0f) Scale(options_.dim, 1.0f / norm, w);
}

}  // namespace pkgm::core
