#include "core/epoch_engine.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "tensor/simd/kernel_dispatch.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pkgm::core {

namespace {

/// FIFO of recycled batch pointers. Only the pool's batches ever enter it,
/// so Push never waits. Close() wakes all poppers once the producer is
/// done; Pop drains remaining batches first.
class BatchQueue {
 public:
  void Push(PairBatch* b) {
    std::lock_guard<std::mutex> lock(mu_);
    q_.push_back(b);
    not_empty_.notify_one();
  }

  bool Pop(PairBatch** out) {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return !q_.empty() || closed_; });
    if (q_.empty()) return false;
    *out = q_.front();
    q_.pop_front();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<PairBatch*> q_;
  bool closed_ = false;
};

}  // namespace

Status RunPipelinedEpoch(
    const EpochPlan& plan, Rng* epoch_rng,
    const std::function<std::unique_ptr<EpochWorker>()>& make_worker,
    EpochStats* stats) {
  PKGM_CHECK_GT(plan.batch_size, 0u);
  PKGM_CHECK_GT(plan.num_workers, 0u);
  PKGM_CHECK_LT(plan.proc, plan.num_procs);
  Stopwatch sw;
  *stats = EpochStats();
  std::vector<kg::Triple> triples;
  plan.store->AppendTriples(&triples);
  epoch_rng->Shuffle(&triples);
  if (triples.empty()) return Status::Ok();

  const size_t n = triples.size();
  const size_t batch_size = plan.batch_size;
  const size_t num_batches = (n + batch_size - 1) / batch_size;
  std::vector<double> batch_hinge(num_batches, 0.0);
  std::vector<uint64_t> batch_active(num_batches, 0);
  std::vector<uint64_t> batch_pairs(num_batches, 0);

  // A worker holds its batch and the next one; the third per worker lets
  // the producer stay ahead of both.
  const size_t pool_size = 3 * static_cast<size_t>(plan.num_workers);
  std::vector<PairBatch> pool(pool_size);
  BatchQueue work_q, free_q;
  for (PairBatch& batch : pool) free_q.Push(&batch);

  std::vector<std::unique_ptr<EpochWorker>> workers;
  for (uint32_t w = 0; w < plan.num_workers; ++w) {
    workers.push_back(make_worker());
  }
  Rng producer_rng = epoch_rng->Fork();
  std::thread producer([&] {
    for (size_t b = plan.proc; b < num_batches; b += plan.num_procs) {
      PairBatch* pb = nullptr;
      if (!free_q.Pop(&pb)) return;
      const size_t begin = b * batch_size;
      const size_t end = std::min(n, begin + batch_size);
      pb->index = b;
      pb->pos.assign(triples.begin() + begin, triples.begin() + end);
      pb->neg.resize(pb->pos.size());
      plan.sampler->SampleBatch(pb->pos.data(), pb->pos.size(), &producer_rng,
                                pb->neg.data());
      work_q.Push(pb);
    }
    work_q.Close();
  });

  std::vector<Status> status(plan.num_workers, Status::Ok());
  const auto work = [&](uint32_t w) {
    EpochWorker& worker = *workers[w];
    const simd::KernelTable& kernels = simd::Active();
    GradArena arena;
    BatchHingeWorkspace ws;
    std::vector<float> hinges;
    float scale = 1.0f;
    TransferGroupSink take_group;
    if (worker.TakesTransferGroups()) {
      take_group = [&](const FactorGroup& group) {
        worker.ApplyTransferGroup(group, scale);
      };
    }
    const auto run_batch = [&](const PairBatch& pb) -> Status {
      const size_t count = pb.pos.size();
      hinges.resize(count);
      scale = 1.0f / static_cast<float>(count);
      FusedBatchHingeGradients(*plan.model, pb.pos.data(), pb.neg.data(),
                               count, plan.margin, kernels, &ws, &arena,
                               hinges.data(), take_group);
      double hinge_sum = 0.0;
      uint64_t active = 0;
      for (const float hinge : hinges) {
        if (hinge > 0.0f) {
          ++active;
          hinge_sum += hinge;
        }
      }
      batch_hinge[pb.index] = hinge_sum;
      batch_active[pb.index] = active;
      batch_pairs[pb.index] = count;
      if (arena.empty()) return Status::Ok();
      Status st = worker.Apply(arena, scale);
      arena.Clear();
      return st;
    };
    // One batch ahead: the next batch is taken and prefetched after the
    // current one's Prepare, before its forward/backward.
    PairBatch* pb = nullptr;
    for (bool have = work_q.Pop(&pb); have;) {
      if (status[w].ok()) status[w] = worker.Prepare(*pb);
      PairBatch* next = nullptr;
      const bool have_next = work_q.Pop(&next);
      if (status[w].ok() && have_next) status[w] = worker.Prefetch(*next);
      if (status[w].ok()) status[w] = run_batch(*pb);
      free_q.Push(pb);
      pb = next;
      have = have_next;
    }
    Status st = worker.Finish();
    if (status[w].ok()) status[w] = st;
  };

  std::vector<std::thread> threads;
  threads.reserve(plan.num_workers);
  for (uint32_t w = 0; w < plan.num_workers; ++w) threads.emplace_back(work, w);
  for (std::thread& t : threads) t.join();
  free_q.Close();
  producer.join();

  for (const Status& st : status) PKGM_RETURN_IF_ERROR(st);
  double hinge_sum = 0.0;
  for (size_t b = 0; b < num_batches; ++b) {
    hinge_sum += batch_hinge[b];
    stats->active_pairs += batch_active[b];
    stats->total_pairs += batch_pairs[b];
  }
  if (stats->total_pairs > 0) {
    stats->mean_hinge = hinge_sum / static_cast<double>(stats->total_pairs);
  }
  stats->seconds = sw.ElapsedSeconds();
  stats->triples_per_second =
      stats->seconds > 0
          ? static_cast<double>(stats->total_pairs) / stats->seconds
          : 0.0;
  return Status::Ok();
}

NegativeSampler::Options FillNegativeOptions(NegativeSampler::Options neg,
                                             const PkgmModel& model) {
  if (neg.num_entities == 0) neg.num_entities = model.num_entities();
  if (neg.num_relations == 0) neg.num_relations = model.num_relations();
  return neg;
}

double MeanHinge(const PkgmModel& model, const NegativeSampler& sampler,
                 const std::vector<kg::Triple>& triples, float margin,
                 Rng* rng) {
  if (triples.empty()) return 0.0;
  // Chunks of the trainers' default batch. SampleBatch draws what
  // per-triple Sample calls draw, and the batch engine's hinges are the
  // per-pair path's, so the sum is the per-pair loop's bit for bit.
  constexpr size_t kChunk = 512;
  const simd::KernelTable& kernels = simd::Active();
  BatchHingeWorkspace ws;
  std::vector<NegativeSample> neg(std::min(kChunk, triples.size()));
  std::vector<float> hinges(neg.size());
  double sum = 0.0;
  for (size_t begin = 0; begin < triples.size(); begin += kChunk) {
    const size_t n = std::min(kChunk, triples.size() - begin);
    sampler.SampleBatch(triples.data() + begin, n, rng, neg.data());
    FusedBatchHingeGradients(model, triples.data() + begin, neg.data(), n,
                             margin, kernels, &ws, /*grad=*/nullptr,
                             hinges.data());
    for (size_t i = 0; i < n; ++i) sum += hinges[i];
  }
  return sum / static_cast<double>(triples.size());
}

}  // namespace pkgm::core
