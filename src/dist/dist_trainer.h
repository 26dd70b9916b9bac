#ifndef PKGM_DIST_DIST_TRAINER_H_
#define PKGM_DIST_DIST_TRAINER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/negative_sampler.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "dist/replica.h"
#include "kg/triple_source.h"
#include "net/net_client.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"
#include "util/status.h"

namespace pkgm::dist {

struct DistTrainerOptions {
  /// One "host:port" per parameter-server shard, in shard order: the
  /// endpoint at position s must announce shard_index == s.
  std::vector<std::string> shard_endpoints;
  /// Local hogwild worker threads sharing this process's replica.
  uint32_t num_workers = 2;
  /// Multi-process data parallelism: this process trains the batches with
  /// index % num_worker_processes == worker_process_index of every epoch's
  /// (identically seeded) shuffle, and the shards hold each epoch barrier
  /// until all processes arrive.
  uint32_t worker_process_index = 0;
  uint32_t num_worker_processes = 1;
  uint32_t batch_size = 512;
  /// Cross-checked against every shard's announcement; the shards apply
  /// the learning rate, the workers only ship raw gradients.
  float learning_rate = 0.02f;
  float margin = 2.0f;
  core::NegativeSampler::Options negative;
  uint64_t seed = 17;
  /// Staleness bound: at most this many unacknowledged pushes per shard
  /// per worker before the worker blocks on the oldest ack. 0 = fully
  /// synchronous (each push waits for its ack before the next pull), the
  /// mode whose 1-worker trajectory is bit-identical to the in-process
  /// trainer.
  uint32_t max_inflight_pushes = 4;
  /// Per remote call (pull / ack / info); barriers wait forever is wrong,
  /// so they use this bound too — size it to cover the slowest peer's
  /// epoch tail.
  int io_timeout_ms = 60000;
};

/// The worker half of distributed parameter-server training: connects to
/// the shard daemons, keeps a full local replica (bit-identical init by
/// shared seed, refreshed row-by-row through pulls), and runs the same
/// pipelined hogwild epoch as the in-process ShardedTrainer — producer
/// thread drawing negatives in batch order, workers computing fused SIMD
/// hinge gradients — except that each batch's touched rows are pulled from
/// their shards first, and the batch's GradArena is pushed back shard-
/// sliced with a bounded number of acks outstanding (the staleness bound).
///
/// Determinism: the shuffle / negative stream mirrors ShardedTrainer for a
/// fixed seed, and per-batch stats land in batch-indexed slots merged in
/// batch order, so epoch telemetry is reproducible regardless of worker
/// scheduling. With one worker and max_inflight_pushes == 0 the whole
/// trajectory is bit-exact vs the in-process trainer (see dist_test.cc).
class DistTrainer {
 public:
  /// `store` must outlive the trainer.
  DistTrainer(const kg::TripleSource* store, DistTrainerOptions options);
  ~DistTrainer();

  DistTrainer(const DistTrainer&) = delete;
  DistTrainer& operator=(const DistTrainer&) = delete;

  /// Connects to every shard, validates the announcements (position,
  /// shard count, identical model shape / seed / optimizer / learning
  /// rate across shards and vs the local options) and builds the replica.
  Status Connect();

  /// One distributed epoch over this process's share of the batches,
  /// ending with an epoch barrier across all worker processes.
  StatusOr<core::EpochStats> RunEpoch();

  /// Runs n epochs, returning the last epoch's stats.
  StatusOr<core::EpochStats> Train(uint32_t n);

  /// Refreshes every replica row from its shard (frames chunked to the
  /// frame cap), so the replica can be checkpointed / exported / evaluated.
  Status PullFullModel();

  /// Mean hinge over the store's triples on the current replica, drawing
  /// negatives from the same dedicated validation stream as
  /// Trainer::EvaluateMeanHinge (identical replica => identical number).
  double EvaluateMeanHinge();

  /// Valid after Connect().
  core::PkgmModel* replica();
  const net::ShardInfo& shard_info() const { return info_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(options_.shard_endpoints.size());
  }

  /// Wire-traffic counters for the bench harness.
  uint64_t pulls() const { return pulls_.load(); }
  uint64_t rows_pulled() const { return rows_pulled_.load(); }
  uint64_t pushes() const { return pushes_.load(); }
  uint64_t rows_pushed() const { return rows_pushed_.load(); }

 private:
  struct BatchScratch;

  /// Pulls the rows named by `ent_ids` / `rel_ids` (sorted unique, split
  /// per shard inside) into the replica.
  Status PullBatchRows(BatchScratch* scratch);
  /// Pulls `shard_ents[s]` / `shard_rels[s]` from every shard s into the
  /// replica, in as many kRows frames per shard as the client's frame cap
  /// requires. Transfer rows are pulled versioned from the shards in
  /// replay_kernels_.
  Status PullShardRows(BatchScratch* scratch);
  /// Sends the epoch barrier to every shard and waits for the releases.
  Status EpochBarrier(uint32_t epoch);

  const kg::TripleSource* store_;
  const DistTrainerOptions options_;
  const simd::KernelTable& kernels_;
  Rng epoch_rng_;
  Rng eval_rng_;
  uint32_t epoch_index_ = 0;

  std::vector<std::unique_ptr<net::NetClient>> clients_;  // one per shard
  net::ShardInfo info_;
  std::unique_ptr<Replica> replica_;
  /// Per shard: the shard's kernel table, when its transfer rows are pulled
  /// versioned and their log records replayed on it; else nullptr.
  std::vector<const simd::KernelTable*> replay_kernels_;
  std::unique_ptr<core::NegativeSampler> sampler_;

  std::atomic<uint64_t> pulls_{0};
  std::atomic<uint64_t> rows_pulled_{0};
  std::atomic<uint64_t> pushes_{0};
  std::atomic<uint64_t> rows_pushed_{0};
};

}  // namespace pkgm::dist

#endif  // PKGM_DIST_DIST_TRAINER_H_
