#include "dist/dist_trainer.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <utility>

#include "core/gradients.h"
#include "core/optimizer.h"
#include "net/socket_util.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pkgm::dist {

namespace {

/// How long a worker waits for any one remote reply (pull, ack, shard
/// info, barrier). Barriers wait on the slowest peer's epoch tail too, so
/// it is sized far above one epoch.
constexpr std::chrono::milliseconds kIoTimeout{60000};

/// Resolves one CallFrame future within kIoTimeout; a pending future past
/// the deadline is abandoned (the promise side is still owned by the
/// client's reader thread, which satisfies it whenever the frame — or the
/// connection teardown — arrives).
StatusOr<net::Frame> Await(std::future<StatusOr<net::Frame>>& fut) {
  if (fut.wait_for(kIoTimeout) != std::future_status::ready) {
    return Status::IoError("remote call timed out");
  }
  return fut.get();
}

/// Await + require the reply to be of `want` type.
StatusOr<net::Frame> AwaitType(std::future<StatusOr<net::Frame>>& fut,
                               net::FrameType want) {
  StatusOr<net::Frame> reply = Await(fut);
  if (!reply.ok()) return reply;
  if (reply.value().type != want) {
    return Status::IoError(
        StrFormat("unexpected reply frame type %u",
                  static_cast<unsigned>(reply.value().type)));
  }
  return reply;
}

}  // namespace

/// Per-worker reusable scratch: the touched ids of the batch being pulled
/// split per shard (sorted unique), how far the rounds sent so far reach
/// into them, and the round in flight. Everything keeps its capacity
/// across batches.
struct DistTrainer::BatchScratch {
  std::vector<std::vector<uint32_t>> shard_ents;  // per shard
  std::vector<std::vector<uint32_t>> shard_rels;
  std::vector<size_t> next_ent, next_rel;  // per shard: ids already sent
  bool more = false;  // ids are left after the round in flight
  std::vector<std::vector<net::PullSection>> requests;  // per shard
  std::vector<size_t> pull_shards;  // the shard of each pull future
  std::vector<std::future<StatusOr<net::Frame>>> pull_futures;
  Replica::Scratch apply;
};

DistTrainer::DistTrainer(const kg::TripleSource* store,
                         DistTrainerOptions options)
    : store_(store),
      options_(std::move(options)),
      epoch_rng_(options_.seed),
      eval_rng_(core::EvalRng(options_.seed)) {
  PKGM_CHECK(store != nullptr);
  PKGM_CHECK_GT(options_.num_workers, 0u);
  PKGM_CHECK_GT(options_.batch_size, 0u);
  PKGM_CHECK_GT(options_.num_worker_processes, 0u);
  PKGM_CHECK_LT(options_.worker_process_index,
                options_.num_worker_processes);
}

DistTrainer::~DistTrainer() = default;

Status DistTrainer::Connect() {
  const size_t num_shards = options_.shard_endpoints.size();
  if (num_shards == 0) {
    return Status::InvalidArgument("no shard endpoints configured");
  }
  clients_.clear();
  std::vector<net::ShardInfo> infos(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    std::string host;
    uint16_t port = 0;
    PKGM_RETURN_IF_ERROR(
        net::ParseHostPort(options_.shard_endpoints[s], &host, &port));
    net::NetClientOptions copt;
    // As many pipelined connections as local workers. CallFrame picks one
    // round-robin per frame, so every worker's frames share every
    // connection; no connection belongs to one worker.
    copt.num_connections = options_.num_workers;
    auto client = net::NetClient::Connect(host, port, copt);
    if (!client.ok()) return client.status();
    clients_.push_back(std::move(client).value());

    const uint64_t cid = clients_[s]->NextCorrelationId();
    auto fut = clients_[s]->CallFrame(
        cid, net::EncodeControl(net::FrameType::kShardInfo, cid));
    StatusOr<net::Frame> reply =
        AwaitType(fut, net::FrameType::kShardInfoReply);
    if (!reply.ok()) return reply.status();
    PKGM_RETURN_IF_ERROR(
        net::DecodeShardInfoReply(reply.value().payload, &infos[s]));
    if (infos[s].shard_index != s) {
      return Status::InvalidArgument(StrFormat(
          "endpoint %s announces shard %u, expected %u",
          options_.shard_endpoints[s].c_str(),
          static_cast<unsigned>(infos[s].shard_index),
          static_cast<unsigned>(s)));
    }
    if (infos[s].num_shards != num_shards) {
      return Status::InvalidArgument(StrFormat(
          "shard %u believes in %u shards, worker is configured for %u",
          static_cast<unsigned>(s),
          static_cast<unsigned>(infos[s].num_shards),
          static_cast<unsigned>(num_shards)));
    }
    const net::ShardInfo& a = infos[0];
    const net::ShardInfo& b = infos[s];
    if (b.num_entities != a.num_entities ||
        b.num_relations != a.num_relations || b.dim != a.dim ||
        b.scorer != a.scorer ||
        b.use_relation_module != a.use_relation_module ||
        b.optimizer != a.optimizer || b.learning_rate != a.learning_rate ||
        b.model_seed != a.model_seed) {
      return Status::InvalidArgument(StrFormat(
          "shard %u's model configuration disagrees with shard 0",
          static_cast<unsigned>(s)));
    }
  }
  info_ = infos[0];
  if (info_.learning_rate != options_.learning_rate) {
    return Status::InvalidArgument(StrFormat(
        "shards apply lr %g but the worker was configured with %g",
        static_cast<double>(info_.learning_rate),
        static_cast<double>(options_.learning_rate)));
  }

  core::PkgmModelOptions mopt;
  mopt.num_entities = info_.num_entities;
  mopt.num_relations = info_.num_relations;
  mopt.dim = info_.dim;
  mopt.scorer = static_cast<core::TripleScorerKind>(info_.scorer);
  mopt.use_relation_module = info_.use_relation_module;
  mopt.seed = info_.model_seed;
  // Same options + same seed as every shard: the replica starts
  // bit-identical, so rows never pulled (because never touched) are still
  // exactly the shards' values, and every transfer row is at version 0 on
  // both sides.
  replica_ = std::make_unique<Replica>(mopt);
  sampler_ = std::make_unique<core::NegativeSampler>(
      core::FillNegativeOptions(options_.negative, replica_->model()), store_);
  // Transfer rows are pulled versioned from an SGD shard whose kernel table
  // this host can run, so its log records replay exactly; otherwise dense.
  replay_kernels_.assign(num_shards, nullptr);
  for (size_t s = 0; s < num_shards; ++s) {
    if (info_.use_relation_module &&
        infos[s].optimizer == static_cast<uint8_t>(core::OptimizerKind::kSgd)) {
      replay_kernels_[s] = simd::KernelsForIsa(
          static_cast<simd::KernelIsa>(infos[s].kernel_isa));
    }
  }
  return Status::Ok();
}

core::PkgmModel* DistTrainer::replica() {
  return replica_ == nullptr ? nullptr : &replica_->model();
}

Status DistTrainer::StartPull(BatchScratch* sc) {
  sc->next_ent.assign(clients_.size(), 0);
  sc->next_rel.assign(clients_.size(), 0);
  return SendPullRound(sc);
}

Status DistTrainer::SendPullRound(BatchScratch* sc) {
  const core::PkgmModel& model = replica_->model();
  const size_t num_shards = clients_.size();
  const bool transfers = model.use_relation_module();
  const bool hyperplanes = model.scorer() == core::TripleScorerKind::kTransH;
  // kRows bytes per pulled id: the id plus its row, and for a relation id
  // its transfer and hyperplane rows too. A versioned transfer answer is
  // budgeted at its dense size, so frames split whatever the logs hold.
  const size_t dim = model.dim();
  const size_t ent_bytes = 4 + 4 * dim;
  const size_t rel_bytes = (4 + 4 * dim) + (transfers ? 4 + 4 * dim * dim : 0) +
                           (hyperplanes ? 4 + 4 * dim : 0);
  // A reply must fit the client decoder's cap (NetClientOptions default),
  // less the section count and up to four section headers.
  const size_t budget =
      net::kDefaultMaxFrameBytes - 4 - 4 * net::kRowsSectionHeaderBytes;

  // One frame per shard in flight at a time, so a shard never queues more
  // than one reply per worker.
  sc->requests.resize(num_shards);
  sc->more = false;
  sc->pull_shards.clear();
  sc->pull_futures.clear();
  for (size_t s = 0; s < num_shards; ++s) {
    const std::vector<uint32_t>& ents = sc->shard_ents[s];
    const std::vector<uint32_t>& rels = sc->shard_rels[s];
    size_t& e = sc->next_ent[s];
    size_t& r = sc->next_rel[s];
    if (e == ents.size() && r == rels.size()) continue;
    const bool versioned = replay_kernels_[s] != nullptr;
    const size_t shard_rel_bytes =
        rel_bytes + (versioned ? net::kAnswerHeaderBytes : 0);
    const size_t ne = std::min(ents.size() - e, budget / ent_bytes);
    const size_t nr = std::min(rels.size() - r,
                               (budget - ne * ent_bytes) / shard_rel_bytes);
    if (ne == 0 && nr == 0) {
      return Status::InvalidArgument(
          "one pulled row exceeds the frame size cap");
    }
    std::vector<net::PullSection>& sections = sc->requests[s];
    sections.clear();
    if (ne > 0) {
      sections.push_back({net::ParamTable::kEntity,
                          {ents.begin() + e, ents.begin() + e + ne}});
    }
    if (nr > 0) {
      const std::vector<uint32_t> ids(rels.begin() + r,
                                      rels.begin() + r + nr);
      sections.push_back({net::ParamTable::kRelation, ids});
      if (transfers) {
        net::PullSection sec{net::ParamTable::kTransfer, ids};
        if (versioned) {
          for (uint32_t id : ids) {
            sec.versions.push_back(replica_->transfer_version(id));
          }
        }
        sections.push_back(std::move(sec));
      }
      if (hyperplanes) {
        sections.push_back({net::ParamTable::kHyperplane, ids});
      }
    }
    e += ne;
    r += nr;
    sc->more = sc->more || e < ents.size() || r < rels.size();
    const uint64_t cid = clients_[s]->NextCorrelationId();
    sc->pull_shards.push_back(s);
    sc->pull_futures.push_back(
        clients_[s]->CallFrame(cid, net::EncodePullRows(cid, sections)));
    ++pulls_;
  }
  return Status::Ok();
}

Status DistTrainer::FinishPull(BatchScratch* sc) {
  while (true) {
    for (size_t f = 0; f < sc->pull_futures.size(); ++f) {
      const size_t s = sc->pull_shards[f];
      const Stopwatch wait;
      StatusOr<net::Frame> reply =
          AwaitType(sc->pull_futures[f], net::FrameType::kRows);
      pull_wait_ns_.fetch_add(
          static_cast<uint64_t>(wait.ElapsedSeconds() * 1e9));
      if (!reply.ok()) return reply.status();
      uint64_t rows = 0;
      PKGM_RETURN_IF_ERROR(replica_->Apply(reply.value().payload,
                                           sc->requests[s], replay_kernels_[s],
                                           &sc->apply, &rows));
      rows_pulled_.fetch_add(rows);
    }
    if (!sc->more) return Status::Ok();
    PKGM_RETURN_IF_ERROR(SendPullRound(sc));
  }
}

Status DistTrainer::EpochBarrier(uint32_t epoch) {
  std::vector<std::future<StatusOr<net::Frame>>> futures;
  futures.reserve(clients_.size());
  for (auto& client : clients_) {
    const uint64_t cid = client->NextCorrelationId();
    futures.push_back(client->CallFrame(
        cid, net::EncodeBarrier(cid, epoch,
                                options_.num_worker_processes)));
  }
  for (auto& fut : futures) {
    StatusOr<net::Frame> reply = AwaitType(fut, net::FrameType::kBarrierReply);
    if (!reply.ok()) return reply.status();
    uint32_t got_epoch = 0, arrived = 0;
    PKGM_RETURN_IF_ERROR(
        net::DecodeBarrierReply(reply.value().payload, &got_epoch, &arrived));
    if (got_epoch != epoch) {
      return Status::IoError("barrier reply for the wrong epoch");
    }
  }
  return Status::Ok();
}

/// One engine worker thread of a DistTrainer epoch: pulls each batch's
/// rows before its forward/backward and pushes its gradients after it.
/// Under a staleness bound the next batch's first pull round is sent
/// before the current batch's forward, so its round trip overlaps compute.
class DistTrainer::RemoteWorker : public core::EpochWorker {
 public:
  RemoteWorker(DistTrainer* trainer, uint32_t epoch)
      : t_(trainer), epoch_(epoch), inflight_(trainer->clients_.size()) {}

  /// Pulls every row the batch will read from its shard, finishing the
  /// pull Prefetch started when there was one.
  Status Prepare(const core::PairBatch& batch) override {
    if (!prefetched_) {
      CollectIds(batch);
      PKGM_RETURN_IF_ERROR(t_->StartPull(&scratch_));
    }
    prefetched_ = false;
    return t_->FinishPull(&scratch_);
  }

  /// Sends the first round of `next`'s pull. Its rows are read before this
  /// batch's push, one batch older than a pull at Prepare would read them,
  /// so only a worker already running under a staleness bound prefetches.
  Status Prefetch(const core::PairBatch& next) override {
    if (t_->options_.max_inflight_pushes == 0) return Status::Ok();
    CollectIds(next);
    prefetched_ = true;
    return t_->StartPull(&scratch_);
  }

  /// Pushes the arena shard-sliced, with at most max_inflight_pushes acks
  /// outstanding per shard. Transfer gradients travel as factors (or as a
  /// dense row, when smaller).
  Status Apply(const core::GradArena& grad, float scale) override {
    const size_t num_shards = t_->clients_.size();
    for (size_t s = 0; s < num_shards; ++s) {
      // The shard's slice is serialized straight into the frame, which is
      // reused: CallFrame has sent every byte by the time it returns.
      push_frame_.clear();
      net::NetClient& client = *t_->clients_[s];
      const uint64_t cid = client.NextCorrelationId();
      const size_t start =
          net::BeginPushGrads(cid, scale, epoch_, &push_frame_);
      if (core::SerializeGradArena(grad, static_cast<uint32_t>(s),
                                   static_cast<uint32_t>(num_shards),
                                   &push_frame_) == 0) {
        continue;
      }
      net::FinishFrame(start, &push_frame_);
      auto fut = client.CallFrame(cid, push_frame_);
      ++t_->pushes_;
      if (t_->options_.max_inflight_pushes == 0) {
        PKGM_RETURN_IF_ERROR(WaitAck(fut));
        continue;
      }
      inflight_[s].push_back(std::move(fut));
      if (inflight_[s].size() > t_->options_.max_inflight_pushes) {
        Status st = WaitAck(inflight_[s].front());
        inflight_[s].pop_front();
        PKGM_RETURN_IF_ERROR(st);
      }
    }
    // A factor group counts as the one transfer row it updates.
    t_->rows_pushed_.fetch_add(grad.entities().size() +
                               grad.relations().size() +
                               grad.transfer_factors().num_groups() +
                               grad.hyperplanes().size());
    return Status::Ok();
  }

  /// Every push must be acknowledged before the epoch barrier (an ack
  /// means the shard applied it).
  Status Finish() override {
    Status first = Status::Ok();
    for (auto& q : inflight_) {
      while (!q.empty()) {
        Status st = WaitAck(q.front());
        q.pop_front();
        if (first.ok()) first = st;
      }
    }
    return first;
  }

 private:
  /// Fills the scratch's per-shard id lists with the rows `batch` reads.
  void CollectIds(const core::PairBatch& batch) {
    const size_t num_shards = t_->clients_.size();
    std::vector<std::vector<uint32_t>>& ents = scratch_.shard_ents;
    std::vector<std::vector<uint32_t>>& rels = scratch_.shard_rels;
    ents.resize(num_shards);
    rels.resize(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      ents[s].clear();
      rels[s].clear();
    }
    for (size_t i = 0; i < batch.pos.size(); ++i) {
      for (const kg::Triple& t : {batch.pos[i], batch.neg[i].triple}) {
        ents[t.head % num_shards].push_back(t.head);
        ents[t.tail % num_shards].push_back(t.tail);
        rels[t.relation % num_shards].push_back(t.relation);
      }
    }
    for (auto* lists : {&ents, &rels}) {
      for (std::vector<uint32_t>& ids : *lists) {
        std::sort(ids.begin(), ids.end());
        ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      }
    }
  }

  Status WaitAck(std::future<StatusOr<net::Frame>>& fut) {
    StatusOr<net::Frame> reply = AwaitType(fut, net::FrameType::kPushAck);
    if (!reply.ok()) return reply.status();
    uint32_t rows_applied = 0;
    return net::DecodePushAck(reply.value().payload, &rows_applied);
  }

  DistTrainer* t_;
  const uint32_t epoch_;
  BatchScratch scratch_;
  bool prefetched_ = false;  // scratch_ holds the next batch's started pull
  std::string push_frame_;
  // Per shard: the unacknowledged pushes, oldest first.
  std::vector<std::deque<std::future<StatusOr<net::Frame>>>> inflight_;
};

StatusOr<core::EpochStats> DistTrainer::RunEpoch() {
  if (replica_ == nullptr) {
    return Status::FailedPrecondition("Connect() has not succeeded");
  }
  Stopwatch sw;
  const uint32_t epoch = epoch_index_++;
  core::EpochPlan plan;
  plan.model = &replica_->model();
  plan.store = store_;
  plan.sampler = sampler_.get();
  plan.batch_size = options_.batch_size;
  plan.margin = options_.margin;
  plan.num_workers = options_.num_workers;
  plan.proc = options_.worker_process_index;
  plan.num_procs = options_.num_worker_processes;
  core::EpochStats stats;
  PKGM_RETURN_IF_ERROR(core::RunPipelinedEpoch(
      plan, &epoch_rng_,
      [&] { return std::make_unique<RemoteWorker>(this, epoch); }, &stats));

  // All of this process's pushes are acked; the barrier holds until every
  // other process's are too, so the next epoch (and any post-epoch pull)
  // reads a fully merged model.
  PKGM_RETURN_IF_ERROR(EpochBarrier(epoch));
  stats.seconds = sw.ElapsedSeconds();
  stats.triples_per_second =
      stats.seconds > 0
          ? static_cast<double>(stats.total_pairs) / stats.seconds
          : 0.0;
  return stats;
}

StatusOr<core::EpochStats> DistTrainer::Train(uint32_t n) {
  core::EpochStats last;
  for (uint32_t i = 0; i < n; ++i) {
    StatusOr<core::EpochStats> stats = RunEpoch();
    if (!stats.ok()) return stats;
    last = stats.value();
  }
  return last;
}

Status DistTrainer::PullFullModel() {
  if (replica_ == nullptr) {
    return Status::FailedPrecondition("Connect() has not succeeded");
  }
  const size_t num_shards = clients_.size();
  BatchScratch sc;
  sc.shard_ents.resize(num_shards);
  sc.shard_rels.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    for (uint32_t e = static_cast<uint32_t>(s);
         e < replica_->model().num_entities();
         e += static_cast<uint32_t>(num_shards)) {
      sc.shard_ents[s].push_back(e);
    }
    for (uint32_t r = static_cast<uint32_t>(s);
         r < replica_->model().num_relations();
         r += static_cast<uint32_t>(num_shards)) {
      sc.shard_rels[s].push_back(r);
    }
  }
  PKGM_RETURN_IF_ERROR(StartPull(&sc));
  return FinishPull(&sc);
}

double DistTrainer::EvaluateMeanHinge() {
  PKGM_CHECK(replica_ != nullptr);
  std::vector<kg::Triple> triples;
  store_->AppendTriples(&triples);
  return core::MeanHinge(replica_->model(), *sampler_, triples,
                         options_.margin, &eval_rng_);
}

}  // namespace pkgm::dist
