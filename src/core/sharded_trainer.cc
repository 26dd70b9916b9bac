#include "core/sharded_trainer.h"

#include <algorithm>
#include <thread>

#include "core/gradients.h"
#include "core/pair_batch.h"
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

// Enough row-lock stripes that two workers almost never collide; a power
// of two, so StripeOf can mask.
constexpr size_t kNumStripes = 1024;

}  // namespace

ShardedTrainer::ShardedTrainer(PkgmModel* model, const kg::TripleSource* store,
                               const ShardedTrainerOptions& options)
    : model_(model),
      store_(store),
      options_(options),
      sampler_(FillNegativeOptions(options.negative, *model), store),
      epoch_rng_(options.seed),
      kernels_(simd::Active()) {
  PKGM_CHECK(model != nullptr);
  PKGM_CHECK(store != nullptr);
  PKGM_CHECK_GT(options.num_workers, 0u);
  PKGM_CHECK_GT(options.batch_size, 0u);
  stripes_ = std::make_unique<Stripe[]>(kNumStripes);
  stripe_mask_ = kNumStripes - 1;
}

size_t ShardedTrainer::StripeOf(uint32_t table_tag, uint32_t row) const {
  const uint64_t key = (static_cast<uint64_t>(row) << 2) | table_tag;
  return static_cast<size_t>((key * UINT64_C(0x9E3779B97F4A7C15)) >> 32) &
         stripe_mask_;
}

void ShardedTrainer::LockStripe(Stripe& s) {
  int spins = 0;
  while (s.locked.exchange(true, std::memory_order_acquire)) {
    // Spin on a plain load so the cache line stays shared until release;
    // yield occasionally in case the holder is descheduled.
    while (s.locked.load(std::memory_order_relaxed)) {
      if (++spins >= 256) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  }
}

void ShardedTrainer::ApplyWorkerGradients(const GradArena& grad, float scale,
                                          TransferRebuildScratch* scratch) {
  const float lr = options_.learning_rate * scale;

  // Publish each touched row under its stripe lock. Reads during gradient
  // computation are unlocked, so workers see slightly stale parameters —
  // exactly the asynchronous PS training regime. Table tags keep e.g.
  // entity row 7 and relation row 7 on different stripes.
  const auto apply_slab = [&](const GradSlab& slab, uint32_t tag,
                              auto&& update_row) {
    const uint32_t n = slab.row_size();
    for (size_t i = 0; i < slab.size(); ++i) {
      const uint32_t id = slab.id_at(i);
      Stripe& stripe = stripes_[StripeOf(tag, id)];
      LockStripe(stripe);
      update_row(id, slab.row_at(i), n);
      stripe.locked.store(false, std::memory_order_release);
    }
  };

  apply_slab(grad.entities(), 0, [&](uint32_t id, const float* g,
                                     uint32_t n) {
    kernels_.axpy(n, -lr, g, model_->entity(id));
    if (options_.normalize_entities) model_->NormalizeEntity(id);
  });
  apply_slab(grad.relations(), 1,
             [&](uint32_t id, const float* g, uint32_t n) {
               kernels_.axpy(n, -lr, g, model_->relation(id));
             });
  // A transfer gradient is rebuilt from its factors outside the lock; only
  // the axpy runs under it.
  const TransferFactors& factors = grad.transfer_factors();
  const uint32_t dd = factors.dim() * factors.dim();
  for (size_t g = 0; g < factors.num_groups(); ++g) {
    const uint32_t id = factors.relation(g);
    const float* row = factors.Rebuild(g, scratch);
    Stripe& stripe = stripes_[StripeOf(2, id)];
    LockStripe(stripe);
    kernels_.axpy(dd, -lr, row, model_->transfer(id));
    stripe.locked.store(false, std::memory_order_release);
  }
  apply_slab(grad.hyperplanes(), 3,
             [&](uint32_t id, const float* g, uint32_t n) {
               kernels_.axpy(n, -lr, g, model_->hyperplane(id));
               model_->NormalizeHyperplane(id);
             });
}

EpochStats ShardedTrainer::RunEpoch() {
  Stopwatch sw;
  std::vector<kg::Triple> triples;
  store_->AppendTriples(&triples);
  epoch_rng_.Shuffle(&triples);

  EpochStats stats;
  stats.total_pairs = triples.size();
  if (triples.empty()) return stats;

  const size_t n = triples.size();
  const size_t batch_size = options_.batch_size;
  const size_t num_batches = (n + batch_size - 1) / batch_size;
  const uint32_t workers = options_.num_workers;

  // Stat slots indexed by batch id: whichever worker runs a batch writes
  // its slot, and the reduction below runs in batch order — a
  // deterministic merge regardless of scheduling.
  std::vector<double> batch_hinge(num_batches, 0.0);
  std::vector<uint64_t> batch_active(num_batches, 0);

  // Double-buffered batch pool: 2 in-flight batches per worker, recycled
  // through free_q so the epoch allocates nothing after warm-up.
  const size_t pool_size = 2 * static_cast<size_t>(workers);
  std::vector<std::unique_ptr<PairBatch>> pool;
  BatchQueue work_q(pool_size), free_q(pool_size);
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    pool.push_back(std::make_unique<PairBatch>());
    free_q.Push(pool.back().get());
  }

  // The producer owns negative sampling: one RNG, batches filled in batch
  // order, so the (pos, neg) stream for a fixed seed does not depend on
  // worker scheduling.
  Rng producer_rng = epoch_rng_.Fork();
  std::thread producer([&] {
    for (size_t b = 0; b < num_batches; ++b) {
      PairBatch* pb = nullptr;
      if (!free_q.Pop(&pb)) return;
      const size_t begin = b * batch_size;
      const size_t end = std::min(n, begin + batch_size);
      pb->index = b;
      pb->pos.assign(triples.begin() + begin, triples.begin() + end);
      pb->neg.resize(pb->pos.size());
      sampler_.SampleBatch(pb->pos.data(), pb->pos.size(), &producer_rng,
                           pb->neg.data());
      if (!work_q.Push(pb)) return;
    }
    work_q.Close();
  });

  auto worker_fn = [&] {
    GradArena arena;
    BatchHingeWorkspace ws;
    TransferRebuildScratch rebuild_scratch;
    std::vector<float> hinges;
    PairBatch* pb = nullptr;
    while (work_q.Pop(&pb)) {
      hinges.resize(pb->pos.size());
      FusedBatchHingeGradients(*model_, pb->pos.data(), pb->neg.data(),
                               pb->pos.size(), options_.margin, kernels_,
                               &ws, &arena, hinges.data());
      double hinge_sum = 0.0;
      uint64_t active = 0;
      for (const float hinge : hinges) {
        if (hinge > 0.0f) {
          ++active;
          hinge_sum += hinge;
        }
      }
      if (!arena.empty()) {
        ApplyWorkerGradients(arena, 1.0f / static_cast<float>(pb->pos.size()),
                             &rebuild_scratch);
        arena.Clear();
      }
      batch_hinge[pb->index] = hinge_sum;
      batch_active[pb->index] = active;
      free_q.Push(pb);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) threads.emplace_back(worker_fn);
  for (auto& t : threads) t.join();
  free_q.Close();
  producer.join();

  double hinge_sum = 0.0;
  for (size_t b = 0; b < num_batches; ++b) {
    hinge_sum += batch_hinge[b];
    stats.active_pairs += batch_active[b];
  }
  stats.mean_hinge = hinge_sum / static_cast<double>(stats.total_pairs);
  stats.seconds = sw.ElapsedSeconds();
  stats.triples_per_second =
      stats.seconds > 0 ? static_cast<double>(stats.total_pairs) / stats.seconds
                        : 0.0;
  return stats;
}

EpochStats ShardedTrainer::Train(uint32_t n) {
  EpochStats last;
  for (uint32_t i = 0; i < n; ++i) last = RunEpoch();
  return last;
}

}  // namespace pkgm::core
