#include "core/trainer.h"

#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "util/logging.h"

namespace pkgm::core {

namespace {

// Enough row-lock stripes that two workers almost never collide; a power
// of two, so StripeOf can mask.
constexpr size_t kNumStripes = 1024;

// Table tags keep e.g. entity row 7 and relation row 7 on different
// stripes.
size_t StripeOf(ParamTable table, uint32_t row) {
  const uint64_t key =
      (static_cast<uint64_t>(row) << 2) | static_cast<uint32_t>(table);
  return static_cast<size_t>((key * UINT64_C(0x9E3779B97F4A7C15)) >> 32) &
         (kNumStripes - 1);
}

}  // namespace

// One cache line per stripe so contending row locks never false-share.
struct alignas(64) Trainer::Stripe {
  std::atomic<bool> locked{false};

  void Lock() {
    int spins = 0;
    while (locked.exchange(true, std::memory_order_acquire)) {
      // Spin on a plain load so the cache line stays shared until release;
      // yield occasionally in case the holder is descheduled.
      while (locked.load(std::memory_order_relaxed)) {
        if (++spins >= 256) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
  }
  void Unlock() { locked.store(false, std::memory_order_release); }
};

/// Publishes each row of a batch's gradients to the shared model under its
/// stripe lock: each transfer group as the batch's backward hands it over,
/// the entity, relation and hyperplane rows in Apply.
class Trainer::LocalWorker : public EpochWorker {
 public:
  explicit LocalWorker(Trainer* trainer) : t_(trainer) {}

  bool TakesTransferGroups() const override { return true; }

  // SGD applies the factors straight into M_r; Adam rebuilds dM_r first,
  // outside the lock.
  void ApplyTransferGroup(const FactorGroup& group, float scale) override {
    const OptimizerStep& step = Step(scale);
    const bool adam = t_->options_.optimizer == OptimizerKind::kAdam;
    if (adam) {
      rebuilt_.resize(static_cast<size_t>(group.dim) * group.dim);
      RebuildTransferRow(kernels_, group.dim, group.count, group.signs,
                         group.s2, group.heads, rebuilt_.data());
    }
    Stripe& stripe =
        t_->stripes_[StripeOf(ParamTable::kTransfer, group.relation)];
    stripe.Lock();
    if (adam) {
      t_->optimizer_.ApplyRow(step, ParamTable::kTransfer, group.relation,
                              rebuilt_.data());
    } else {
      core::ApplyTransferGroup(group, step.sgd_alpha, kernels_,
                               t_->model_->transfer(group.relation));
    }
    stripe.Unlock();
  }

  Status Apply(const GradArena& grad, float scale) override {
    const OptimizerStep step = Step(scale);
    step_.reset();
    const auto apply_slab = [&](const GradSlab& slab, ParamTable table) {
      for (size_t i = 0; i < slab.size(); ++i) {
        Stripe& stripe = t_->stripes_[StripeOf(table, slab.id_at(i))];
        stripe.Lock();
        t_->optimizer_.ApplyRow(step, table, slab.id_at(i), slab.row_at(i));
        stripe.Unlock();
      }
    };
    apply_slab(grad.entities(), ParamTable::kEntity);
    apply_slab(grad.relations(), ParamTable::kRelation);
    apply_slab(grad.hyperplanes(), ParamTable::kHyperplane);
    return Status::Ok();
  }

 private:
  // The batch's step, begun by its first transfer group or by Apply,
  // whichever comes first; a batch with no active pair begins none.
  const OptimizerStep& Step(float scale) {
    if (!step_) step_ = t_->optimizer_.BeginStep(scale);
    return *step_;
  }

  Trainer* t_;
  // The engine's table, which RowOptimizer uses too.
  const simd::KernelTable& kernels_ = simd::Active();
  std::optional<OptimizerStep> step_;
  std::vector<float> rebuilt_;  // Adam's dM_r
};

Trainer::Trainer(PkgmModel* model, const kg::TripleSource* store,
                 const TrainerOptions& options)
    : model_(model),
      store_(store),
      options_(options),
      sampler_(FillNegativeOptions(options.negative, *model), store),
      rng_(options.seed),
      eval_rng_(EvalRng(options.seed)),
      optimizer_(model, options),
      stripes_(std::make_unique<Stripe[]>(kNumStripes)) {
  PKGM_CHECK(model != nullptr);
  PKGM_CHECK(store != nullptr);
  PKGM_CHECK_GT(options.num_workers, 0u);
  PKGM_CHECK_GT(options.batch_size, 0u);
}

Trainer::~Trainer() = default;

EpochStats Trainer::RunEpoch() {
  optimizer_.AllocateMoments();
  EpochPlan plan;
  plan.model = model_;
  plan.store = store_;
  plan.sampler = &sampler_;
  plan.batch_size = options_.batch_size;
  plan.margin = options_.margin;
  plan.num_workers = options_.num_workers;
  EpochStats stats;
  const Status st = RunPipelinedEpoch(
      plan, &rng_, [this] { return std::make_unique<LocalWorker>(this); },
      &stats);
  PKGM_CHECK(st.ok()) << st.ToString();  // local workers never fail
  return stats;
}

EpochStats Trainer::Train(uint32_t n) {
  EpochStats last;
  for (uint32_t i = 0; i < n; ++i) last = RunEpoch();
  return last;
}

double Trainer::EvaluateMeanHinge(const std::vector<kg::Triple>& triples) {
  return MeanHinge(*model_, sampler_, triples, options_.margin, &eval_rng_);
}

}  // namespace pkgm::core
