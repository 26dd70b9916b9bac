#include "dist/dist_trainer.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <future>
#include <string_view>
#include <thread>
#include <utility>

#include "core/gradients.h"
#include "core/pair_batch.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pkgm::dist {

namespace {

core::NegativeSampler::Options FillNegativeOptions(
    core::NegativeSampler::Options neg, const core::PkgmModel& model) {
  if (neg.num_entities == 0) neg.num_entities = model.num_entities();
  if (neg.num_relations == 0) neg.num_relations = model.num_relations();
  return neg;
}

Status ParseEndpoint(const std::string& endpoint, std::string* host,
                     uint16_t* port) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("bad shard endpoint: " + endpoint);
  }
  *host = endpoint.substr(0, colon);
  const long p = std::strtol(endpoint.c_str() + colon + 1, nullptr, 10);
  if (p <= 0 || p > 65535) {
    return Status::InvalidArgument("bad shard port in: " + endpoint);
  }
  *port = static_cast<uint16_t>(p);
  return Status::Ok();
}

/// Resolves one CallFrame future within the deadline; a pending future
/// past the deadline is abandoned (the promise side is still owned by the
/// client's reader thread, which satisfies it whenever the frame — or the
/// connection teardown — arrives).
StatusOr<net::Frame> Await(std::future<StatusOr<net::Frame>>& fut,
                           int timeout_ms) {
  if (fut.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    return Status::IoError("remote call timed out");
  }
  return fut.get();
}

/// Await + require the reply to be of `want` type.
StatusOr<net::Frame> AwaitType(std::future<StatusOr<net::Frame>>& fut,
                               net::FrameType want, int timeout_ms) {
  StatusOr<net::Frame> reply = Await(fut, timeout_ms);
  if (!reply.ok()) return reply;
  if (reply.value().type != want) {
    return Status::IoError(
        StrFormat("unexpected reply frame type %u",
                  static_cast<unsigned>(reply.value().type)));
  }
  return reply;
}

}  // namespace

/// Per-worker reusable scratch: the touched-id sets of the current batch
/// and their per-shard split, plus the in-flight pulls. Everything keeps
/// its capacity across batches.
struct DistTrainer::BatchScratch {
  std::vector<uint32_t> ent_ids, rel_ids;              // sorted unique
  std::vector<std::vector<uint32_t>> shard_ents;       // per shard
  std::vector<std::vector<uint32_t>> shard_rels;
  std::vector<std::vector<net::PullSection>> requests;  // per shard
  std::vector<size_t> pull_shards;  // the shard of each pull future
  std::vector<std::future<StatusOr<net::Frame>>> pull_futures;
  Replica::Scratch apply;
};

DistTrainer::DistTrainer(const kg::TripleSource* store,
                         DistTrainerOptions options)
    : store_(store),
      options_(std::move(options)),
      kernels_(simd::Active()),
      epoch_rng_(options_.seed),
      // Same derivation as Trainer's validation stream, so an identical
      // replica evaluates to the identical number.
      eval_rng_(options_.seed ^ UINT64_C(0xBADD1CE5FEEDFACE)) {
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
        ParseEndpoint(options_.shard_endpoints[s], &host, &port));
    net::NetClientOptions copt;
    // One pipelined connection per local worker, so workers do not
    // head-of-line block each other's pulls.
    copt.num_connections = options_.num_workers;
    auto client = net::NetClient::Connect(host, port, copt);
    if (!client.ok()) return client.status();
    clients_.push_back(std::move(client).value());

    const uint64_t cid = clients_[s]->NextCorrelationId();
    auto fut = clients_[s]->CallFrame(
        cid, net::EncodeControl(net::FrameType::kShardInfo, cid));
    StatusOr<net::Frame> reply =
        AwaitType(fut, net::FrameType::kShardInfoReply, options_.io_timeout_ms);
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
      FillNegativeOptions(options_.negative, replica_->model()), store_);
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

Status DistTrainer::PullBatchRows(BatchScratch* sc) {
  const size_t num_shards = clients_.size();
  sc->shard_ents.resize(num_shards);
  sc->shard_rels.resize(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    sc->shard_ents[s].clear();
    sc->shard_rels[s].clear();
  }
  for (uint32_t e : sc->ent_ids) sc->shard_ents[e % num_shards].push_back(e);
  for (uint32_t r : sc->rel_ids) sc->shard_rels[r % num_shards].push_back(r);
  return PullShardRows(sc);
}

Status DistTrainer::PullShardRows(BatchScratch* sc) {
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

  sc->requests.resize(num_shards);
  std::vector<size_t> next_ent(num_shards, 0), next_rel(num_shards, 0);
  for (bool more = true; more;) {
    // One frame per shard in flight at a time, so a shard never queues
    // more than one reply per worker.
    more = false;
    sc->pull_shards.clear();
    sc->pull_futures.clear();
    for (size_t s = 0; s < num_shards; ++s) {
      const std::vector<uint32_t>& ents = sc->shard_ents[s];
      const std::vector<uint32_t>& rels = sc->shard_rels[s];
      size_t& e = next_ent[s];
      size_t& r = next_rel[s];
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
      more = more || e < ents.size() || r < rels.size();
      const uint64_t cid = clients_[s]->NextCorrelationId();
      sc->pull_shards.push_back(s);
      sc->pull_futures.push_back(
          clients_[s]->CallFrame(cid, net::EncodePullRows(cid, sections)));
      ++pulls_;
    }
    for (size_t f = 0; f < sc->pull_futures.size(); ++f) {
      const size_t s = sc->pull_shards[f];
      StatusOr<net::Frame> reply = AwaitType(
          sc->pull_futures[f], net::FrameType::kRows, options_.io_timeout_ms);
      if (!reply.ok()) return reply.status();
      uint64_t rows = 0;
      PKGM_RETURN_IF_ERROR(replica_->Apply(reply.value().payload,
                                           sc->requests[s], replay_kernels_[s],
                                           &sc->apply, &rows));
      rows_pulled_.fetch_add(rows);
    }
  }
  return Status::Ok();
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
    StatusOr<net::Frame> reply =
        AwaitType(fut, net::FrameType::kBarrierReply, options_.io_timeout_ms);
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

StatusOr<core::EpochStats> DistTrainer::RunEpoch() {
  if (replica_ == nullptr) {
    return Status::FailedPrecondition("Connect() has not succeeded");
  }
  Stopwatch sw;
  const uint32_t epoch = epoch_index_++;

  std::vector<kg::Triple> triples;
  store_->AppendTriples(&triples);
  epoch_rng_.Shuffle(&triples);

  core::EpochStats stats;
  if (triples.empty()) return stats;

  const size_t n = triples.size();
  const size_t batch_size = options_.batch_size;
  const size_t num_batches = (n + batch_size - 1) / batch_size;
  const uint32_t workers = options_.num_workers;
  const uint32_t procs = options_.num_worker_processes;
  const uint32_t proc = options_.worker_process_index;
  const size_t num_shards = clients_.size();

  std::vector<double> batch_hinge(num_batches, 0.0);
  std::vector<uint64_t> batch_active(num_batches, 0);
  std::vector<uint64_t> batch_pairs(num_batches, 0);

  const size_t pool_size = 2 * static_cast<size_t>(workers);
  std::vector<std::unique_ptr<core::PairBatch>> pool;
  core::BatchQueue work_q(pool_size), free_q(pool_size);
  pool.reserve(pool_size);
  for (size_t i = 0; i < pool_size; ++i) {
    pool.push_back(std::make_unique<core::PairBatch>());
    free_q.Push(pool.back().get());
  }

  // The producer mirrors ShardedTrainer: one forked RNG drawing negatives
  // in batch order. Other processes' batches are skipped without drawing,
  // so each process's pair stream is deterministic on its own; with one
  // process the stream is identical to the in-process trainer's.
  Rng producer_rng = epoch_rng_.Fork();
  std::thread producer([&] {
    for (size_t b = 0; b < num_batches; ++b) {
      if (b % procs != proc) continue;
      core::PairBatch* pb = nullptr;
      if (!free_q.Pop(&pb)) return;
      const size_t begin = b * batch_size;
      const size_t end = std::min(n, begin + batch_size);
      pb->index = b;
      pb->pos.assign(triples.begin() + begin, triples.begin() + end);
      pb->neg.resize(pb->pos.size());
      sampler_->SampleBatch(pb->pos.data(), pb->pos.size(), &producer_rng,
                            pb->neg.data());
      if (!work_q.Push(pb)) return;
    }
    work_q.Close();
  });

  std::vector<Status> worker_status(workers, Status::Ok());
  auto worker_fn = [&](uint32_t w) {
    core::GradArena arena;
    core::BatchHingeWorkspace ws;
    std::vector<float> hinges;
    BatchScratch scratch;
    // Reused across batches and shards: CallFrame has sent every byte by
    // the time it returns.
    std::string push_frame;
    // Per-shard ack queue: the staleness bound. An entry is an
    // unacknowledged push; front() is always the oldest.
    std::vector<std::deque<std::future<StatusOr<net::Frame>>>> inflight(
        num_shards);

    const auto wait_ack =
        [&](std::future<StatusOr<net::Frame>>& fut) -> Status {
      StatusOr<net::Frame> reply =
          AwaitType(fut, net::FrameType::kPushAck, options_.io_timeout_ms);
      if (!reply.ok()) return reply.status();
      uint32_t rows_applied = 0;
      return net::DecodePushAck(reply.value().payload, &rows_applied);
    };

    const auto run_batch = [&](core::PairBatch* pb) -> Status {
      // 1. Pull every row this batch will read, fresh from its shard.
      scratch.ent_ids.clear();
      scratch.rel_ids.clear();
      for (size_t i = 0; i < pb->pos.size(); ++i) {
        const kg::Triple& p = pb->pos[i];
        const kg::Triple& g = pb->neg[i].triple;
        scratch.ent_ids.push_back(p.head);
        scratch.ent_ids.push_back(p.tail);
        scratch.ent_ids.push_back(g.head);
        scratch.ent_ids.push_back(g.tail);
        scratch.rel_ids.push_back(p.relation);
        scratch.rel_ids.push_back(g.relation);
      }
      std::sort(scratch.ent_ids.begin(), scratch.ent_ids.end());
      scratch.ent_ids.erase(
          std::unique(scratch.ent_ids.begin(), scratch.ent_ids.end()),
          scratch.ent_ids.end());
      std::sort(scratch.rel_ids.begin(), scratch.rel_ids.end());
      scratch.rel_ids.erase(
          std::unique(scratch.rel_ids.begin(), scratch.rel_ids.end()),
          scratch.rel_ids.end());
      PKGM_RETURN_IF_ERROR(PullBatchRows(&scratch));

      // 2. Fused forward/backward on the replica.
      hinges.resize(pb->pos.size());
      core::FusedBatchHingeGradients(replica_->model(), pb->pos.data(),
                                     pb->neg.data(), pb->pos.size(),
                                     options_.margin, kernels_, &ws, &arena,
                                     hinges.data());
      double hinge_sum = 0.0;
      uint64_t active = 0;
      for (const float hinge : hinges) {
        if (hinge > 0.0f) {
          ++active;
          hinge_sum += hinge;
        }
      }

      // 3. Push the arena shard-sliced, bounded acks outstanding. Transfer
      // gradients travel as factors (or as a dense row, when smaller).
      if (!arena.empty()) {
        const float scale = 1.0f / static_cast<float>(pb->pos.size());
        for (size_t s = 0; s < num_shards; ++s) {
          // The shard's slice is serialized straight into the frame.
          push_frame.clear();
          const uint64_t cid = clients_[s]->NextCorrelationId();
          const size_t start =
              net::BeginPushGrads(cid, scale, epoch, &push_frame);
          if (core::SerializeGradArena(
                  arena, static_cast<uint32_t>(s),
                  static_cast<uint32_t>(num_shards), &push_frame) == 0) {
            continue;
          }
          net::FinishFrame(start, &push_frame);
          auto fut = clients_[s]->CallFrame(cid, push_frame);
          ++pushes_;
          if (options_.max_inflight_pushes == 0) {
            PKGM_RETURN_IF_ERROR(wait_ack(fut));
          } else {
            inflight[s].push_back(std::move(fut));
            if (inflight[s].size() > options_.max_inflight_pushes) {
              Status st = wait_ack(inflight[s].front());
              inflight[s].pop_front();
              PKGM_RETURN_IF_ERROR(st);
            }
          }
        }
        // A factor group counts as the one transfer row it updates.
        rows_pushed_.fetch_add(arena.entities().size() +
                               arena.relations().size() +
                               arena.transfer_factors().num_groups() +
                               arena.hyperplanes().size());
        arena.Clear();
      }

      batch_hinge[pb->index] = hinge_sum;
      batch_active[pb->index] = active;
      batch_pairs[pb->index] = pb->pos.size();
      return Status::Ok();
    };

    core::PairBatch* pb = nullptr;
    while (work_q.Pop(&pb)) {
      // A failed worker keeps popping and recycling (without processing)
      // so the producer never starves for free batches.
      if (worker_status[w].ok()) {
        Status st = run_batch(pb);
        if (!st.ok()) worker_status[w] = st;
      }
      free_q.Push(pb);
    }
    // Drain: every push must be acknowledged before the epoch barrier
    // (an ack means the shard applied it).
    for (auto& q : inflight) {
      while (!q.empty()) {
        Status st = wait_ack(q.front());
        q.pop_front();
        if (!st.ok() && worker_status[w].ok()) worker_status[w] = st;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (uint32_t w = 0; w < workers; ++w) threads.emplace_back(worker_fn, w);
  for (auto& t : threads) t.join();
  free_q.Close();
  work_q.Close();
  producer.join();

  for (const Status& st : worker_status) {
    if (!st.ok()) return st;
  }

  // All of this process's pushes are acked; the barrier holds until every
  // other process's are too, so the next epoch (and any post-epoch pull)
  // reads a fully merged model.
  PKGM_RETURN_IF_ERROR(EpochBarrier(epoch));

  double hinge_sum = 0.0;
  for (size_t b = 0; b < num_batches; ++b) {
    hinge_sum += batch_hinge[b];
    stats.active_pairs += batch_active[b];
    stats.total_pairs += batch_pairs[b];
  }
  stats.mean_hinge =
      stats.total_pairs > 0
          ? hinge_sum / static_cast<double>(stats.total_pairs)
          : 0.0;
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
  return PullShardRows(&sc);
}

double DistTrainer::EvaluateMeanHinge() {
  PKGM_CHECK(replica_ != nullptr);
  std::vector<kg::Triple> triples;
  store_->AppendTriples(&triples);
  if (triples.empty()) return 0.0;
  core::HingeWorkspace ws;
  double sum = 0.0;
  for (const kg::Triple& pos : triples) {
    core::NegativeSample neg = sampler_->Sample(pos, &eval_rng_);
    sum += core::FusedHingeGradients(replica_->model(), pos, neg.triple,
                                     options_.margin, kernels_, &ws,
                                     nullptr);
  }
  return sum / static_cast<double>(triples.size());
}

}  // namespace pkgm::dist
