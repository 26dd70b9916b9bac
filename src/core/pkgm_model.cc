#include "core/pkgm_model.h"

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/service_math.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::core {

namespace {
// Checkpoint magic/version for corruption detection.
constexpr uint32_t kMagic = 0x504b474du;  // "PKGM"
constexpr uint32_t kVersion = 2;
}  // namespace

PkgmModel::PkgmModel(const PkgmModelOptions& options)
    : options_(options),
      entities_(options.num_entities, options.dim),
      relations_(options.num_relations, options.dim),
      transfers_(options.use_relation_module ? options.num_relations : 0,
                 static_cast<size_t>(options.dim) * options.dim),
      hyperplanes_(
          options.scorer == TripleScorerKind::kTransH ? options.num_relations
                                                      : 0,
          options.dim) {
  PKGM_CHECK_GT(options.num_entities, 0u);
  PKGM_CHECK_GT(options.num_relations, 0u);
  PKGM_CHECK_GT(options.dim, 0u);
  if (options.scorer == TripleScorerKind::kComplEx) {
    PKGM_CHECK_EQ(options.dim % 2, 0u) << "ComplEx needs an even dimension";
  }

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

namespace {

Status WriteBlock(std::FILE* f, const void* data, size_t bytes) {
  if (std::fwrite(data, 1, bytes, f) != bytes) {
    return Status::IoError("short write");
  }
  return Status::Ok();
}

Status ReadBlock(std::FILE* f, void* data, size_t bytes) {
  if (std::fread(data, 1, bytes, f) != bytes) {
    return Status::IoError("short read");
  }
  return Status::Ok();
}

}  // namespace

Status PkgmModel::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for writing", path.c_str()));
  }
  uint32_t header[7] = {kMagic,
                        kVersion,
                        options_.num_entities,
                        options_.num_relations,
                        options_.dim,
                        options_.use_relation_module ? 1u : 0u,
                        static_cast<uint32_t>(options_.scorer)};
  Status s = WriteBlock(f, header, sizeof(header));
  if (s.ok()) s = WriteBlock(f, entities_.data(), entities_.size() * sizeof(float));
  if (s.ok()) s = WriteBlock(f, relations_.data(), relations_.size() * sizeof(float));
  if (s.ok() && options_.use_relation_module) {
    s = WriteBlock(f, transfers_.data(), transfers_.size() * sizeof(float));
  }
  if (s.ok() && options_.scorer == TripleScorerKind::kTransH) {
    s = WriteBlock(f, hyperplanes_.data(),
                   hyperplanes_.size() * sizeof(float));
  }
  std::fclose(f);
  return s;
}

StatusOr<PkgmModel> PkgmModel::LoadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open %s for reading", path.c_str()));
  }
  uint32_t header[7];
  Status s = ReadBlock(f, header, sizeof(header));
  if (!s.ok()) {
    std::fclose(f);
    return Status::Corruption(
        StrFormat("%s: too short to hold a checkpoint header", path.c_str()));
  }
  if (header[0] != kMagic) {
    std::fclose(f);
    return Status::Corruption("bad magic in checkpoint");
  }
  if (header[1] != kVersion) {
    std::fclose(f);
    return Status::Corruption(StrFormat("unsupported checkpoint version %u", header[1]));
  }
  PkgmModelOptions opt;
  opt.num_entities = header[2];
  opt.num_relations = header[3];
  opt.dim = header[4];
  opt.use_relation_module = header[5] != 0;
  if (header[6] > static_cast<uint32_t>(TripleScorerKind::kTransH)) {
    std::fclose(f);
    return Status::Corruption("unknown scorer kind in checkpoint");
  }
  opt.scorer = static_cast<TripleScorerKind>(header[6]);
  // Validate the header against the actual file size *before* allocating
  // tables from its counts: a flipped header byte must yield a clean
  // Status, not a multi-gigabyte allocation or a model built from
  // uninitialized bytes after a short read.
  if (opt.num_entities == 0 || opt.num_relations == 0 || opt.dim == 0) {
    std::fclose(f);
    return Status::Corruption("checkpoint header has zero-sized tables");
  }
  if (opt.scorer == TripleScorerKind::kComplEx && opt.dim % 2 != 0) {
    std::fclose(f);
    return Status::Corruption("ComplEx checkpoint with odd dimension");
  }
  uint64_t expected = sizeof(header);
  const uint64_t d = opt.dim;
  expected += static_cast<uint64_t>(opt.num_entities) * d * sizeof(float);
  expected += static_cast<uint64_t>(opt.num_relations) * d * sizeof(float);
  if (opt.use_relation_module) {
    expected += static_cast<uint64_t>(opt.num_relations) * d * d * sizeof(float);
  }
  if (opt.scorer == TripleScorerKind::kTransH) {
    expected += static_cast<uint64_t>(opt.num_relations) * d * sizeof(float);
  }
  if (fseeko(f, 0, SEEK_END) != 0) {
    std::fclose(f);
    return Status::IoError(StrFormat("cannot stat %s", path.c_str()));
  }
  const uint64_t actual = static_cast<uint64_t>(ftello(f));
  if (actual != expected) {
    std::fclose(f);
    return Status::Corruption(StrFormat(
        "checkpoint %s is truncated or corrupt: header implies %llu bytes, "
        "file has %llu",
        path.c_str(), static_cast<unsigned long long>(expected),
        static_cast<unsigned long long>(actual)));
  }
  fseeko(f, sizeof(header), SEEK_SET);
  PkgmModel model(opt);
  s = ReadBlock(f, model.entities_.data(), model.entities_.size() * sizeof(float));
  if (s.ok()) {
    s = ReadBlock(f, model.relations_.data(), model.relations_.size() * sizeof(float));
  }
  if (s.ok() && opt.use_relation_module) {
    s = ReadBlock(f, model.transfers_.data(), model.transfers_.size() * sizeof(float));
  }
  if (s.ok() && opt.scorer == TripleScorerKind::kTransH) {
    s = ReadBlock(f, model.hyperplanes_.data(),
                  model.hyperplanes_.size() * sizeof(float));
  }
  std::fclose(f);
  if (!s.ok()) return s;
  return model;
}

}  // namespace pkgm::core
