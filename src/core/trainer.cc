#include "core/trainer.h"

#include <cmath>

#include "core/gradients.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pkgm::core {

namespace {
NegativeSampler::Options FillNegativeOptions(NegativeSampler::Options neg,
                                             const PkgmModel& model) {
  if (neg.num_entities == 0) neg.num_entities = model.num_entities();
  if (neg.num_relations == 0) neg.num_relations = model.num_relations();
  return neg;
}
}  // namespace

Trainer::Trainer(PkgmModel* model, const kg::TripleSource* store,
                 const TrainerOptions& options)
    : model_(model),
      store_(store),
      options_(options),
      sampler_(FillNegativeOptions(options.negative, *model), store),
      rng_(options.seed),
      // Validation draws negatives from a stream derived from — but
      // independent of — the training seed, so EvaluateMeanHinge calls
      // never advance rng_ (see the eval-RNG regression test).
      eval_rng_(options.seed ^ UINT64_C(0xBADD1CE5FEEDFACE)),
      kernels_(simd::Active()) {
  PKGM_CHECK(model != nullptr);
  PKGM_CHECK(store != nullptr);
  PKGM_CHECK_GT(options.batch_size, 0u);
  if (options_.optimizer == OptimizerKind::kAdam) {
    m_entities_ = Mat(model->num_entities(), model->dim());
    v_entities_ = Mat(model->num_entities(), model->dim());
    m_relations_ = Mat(model->num_relations(), model->dim());
    v_relations_ = Mat(model->num_relations(), model->dim());
    if (model->use_relation_module()) {
      const size_t dd = static_cast<size_t>(model->dim()) * model->dim();
      m_transfers_ = Mat(model->num_relations(), dd);
      v_transfers_ = Mat(model->num_relations(), dd);
    }
    if (model->scorer() == TripleScorerKind::kTransH) {
      m_hyperplanes_ = Mat(model->num_relations(), model->dim());
      v_hyperplanes_ = Mat(model->num_relations(), model->dim());
    }
  }
}

EpochStats Trainer::RunEpoch() {
  Stopwatch sw;
  std::vector<kg::Triple> triples;
  store_->AppendTriples(&triples);
  rng_.Shuffle(&triples);

  EpochStats stats;
  stats.total_pairs = triples.size();
  double hinge_sum = 0.0;

  size_t batch_start = 0;
  while (batch_start < triples.size()) {
    const size_t batch_end =
        std::min(batch_start + options_.batch_size, triples.size());
    arena_.Clear();
    const size_t count = batch_end - batch_start;
    negatives_.resize(count);
    hinges_.resize(count);
    sampler_.SampleBatch(triples.data() + batch_start, count, &rng_,
                         negatives_.data());
    FusedBatchHingeGradients(*model_, triples.data() + batch_start,
                             negatives_.data(), count, options_.margin,
                             kernels_, &batch_workspace_, &arena_,
                             hinges_.data());
    uint64_t batch_active = 0;
    for (const float hinge : hinges_) {
      if (hinge > 0.0f) {
        ++batch_active;
        hinge_sum += hinge;
      }
    }
    stats.active_pairs += batch_active;
    if (!arena_.empty()) {
      ++step_;
      // Average over the batch so the learning rate is scale free.
      ApplyGradients(arena_,
                     1.0f / static_cast<float>(batch_end - batch_start));
      if (options_.normalize_entities) {
        // The arena's entity rows are exactly the entities touched by
        // active pairs this batch.
        const GradSlab& ge = arena_.entities();
        for (size_t i = 0; i < ge.size(); ++i) {
          model_->NormalizeEntity(ge.id_at(i));
        }
      }
    }
    batch_start = batch_end;
  }

  stats.mean_hinge =
      stats.total_pairs > 0 ? hinge_sum / static_cast<double>(stats.total_pairs) : 0.0;
  stats.seconds = sw.ElapsedSeconds();
  stats.triples_per_second =
      stats.seconds > 0 ? static_cast<double>(stats.total_pairs) / stats.seconds : 0.0;
  return stats;
}

EpochStats Trainer::Train(uint32_t n) {
  EpochStats last;
  for (uint32_t i = 0; i < n; ++i) last = RunEpoch();
  return last;
}

double Trainer::EvaluateMeanHinge(const std::vector<kg::Triple>& triples) {
  if (triples.empty()) return 0.0;
  double sum = 0.0;
  for (const kg::Triple& pos : triples) {
    NegativeSample neg = sampler_.Sample(pos, &eval_rng_);
    sum += FusedHingeGradients(*model_, pos, neg.triple, options_.margin,
                               kernels_, &workspace_, nullptr);
  }
  return sum / static_cast<double>(triples.size());
}

void Trainer::ApplyGradients(const GradArena& grad, float scale) {
  const bool adam = options_.optimizer == OptimizerKind::kAdam;
  const float b1 = options_.adam_beta1;
  const float b2 = options_.adam_beta2;
  const float eps = options_.adam_epsilon;
  float alpha = 0.0f;
  if (adam) {
    const double t = static_cast<double>(step_);
    const float corr1 = 1.0f - static_cast<float>(std::pow(b1, t));
    const float corr2 = 1.0f - static_cast<float>(std::pow(b2, t));
    alpha = options_.learning_rate * std::sqrt(corr2) / corr1;
  }
  const float sgd_alpha = -options_.learning_rate * scale;

  const auto apply_row = [&](uint32_t id, const float* g, uint32_t n,
                             Mat* table, Mat* m, Mat* v) {
    float* row = table->Row(id);
    if (adam) {
      kernels_.adam_row(n, g, scale, b1, b2, alpha, eps, row, m->Row(id),
                        v->Row(id));
    } else {
      kernels_.axpy(n, sgd_alpha, g, row);
    }
  };
  const auto apply_slab = [&](const GradSlab& slab, Mat* table, Mat* m,
                              Mat* v) {
    for (size_t i = 0; i < slab.size(); ++i) {
      apply_row(slab.id_at(i), slab.row_at(i), slab.row_size(), table, m, v);
    }
  };

  apply_slab(grad.entities(), &model_->entity_table(), &m_entities_,
             &v_entities_);
  apply_slab(grad.relations(), &model_->relation_table(), &m_relations_,
             &v_relations_);
  // Each transfer gradient is rebuilt from its factors into one scratch
  // row, then applied like a dense row.
  const TransferFactors& factors = grad.transfer_factors();
  for (size_t g = 0; g < factors.num_groups(); ++g) {
    apply_row(factors.relation(g), factors.Rebuild(g, &rebuild_scratch_),
              factors.dim() * factors.dim(), &model_->transfer_table(),
              &m_transfers_, &v_transfers_);
  }
  const GradSlab& gw = grad.hyperplanes();
  if (!gw.empty()) {
    apply_slab(gw, &model_->hyperplane_table(), &m_hyperplanes_,
               &v_hyperplanes_);
    // TransH's hard constraint: hyperplane normals stay unit length.
    for (size_t i = 0; i < gw.size(); ++i) {
      model_->NormalizeHyperplane(gw.id_at(i));
    }
  }
}

}  // namespace pkgm::core
