// End-to-end tests for the distributed parameter-server training
// subsystem: ParamServer shards behind real epoll NetServers on loopback,
// driven over TCP by raw CallFrame probes and by the DistTrainer. The core
// acceptance property mirrors the serving tests' parity bar: with one
// worker and synchronous pushes the distributed trajectory is BIT-EXACT vs
// the in-process Trainer (SGD over two shards, Adam over one), and with
// hogwild workers and pipelined pushes the final mean hinge lands within 2%
// of it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/gradients.h"
#include "core/pkgm_model.h"
#include "core/sharded_trainer.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/param_server.h"
#include "dist/replica.h"
#include "flat_json.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_store.h"
#include "mutation.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/wire.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pkgm::dist {
namespace {

using net::Frame;
using net::FrameType;
using net::ParamTable;
using net::PullSection;
using net::RowsSection;

/// `shard`'s kStats snapshot over idle transport counters, parsed; an
/// empty document (failing the test) when it is not JSON.
FlatJson ShardStats(const ParamServer& shard) {
  const std::string json = shard.StatsJson(serve::NetCounters{});
  std::optional<FlatJson> doc = FlatJson::Parse(json);
  EXPECT_TRUE(doc.has_value()) << "not JSON: " << json;
  return doc.value_or(FlatJson());
}

core::PkgmModelOptions TestModelOptions() {
  core::PkgmModelOptions mo;
  mo.num_entities = 30;
  mo.num_relations = 4;
  mo.dim = 8;
  mo.seed = 77;
  return mo;
}

/// In-process shard cluster over real loopback TCP.
struct Cluster {
  std::vector<std::unique_ptr<ParamServer>> shards;
  std::vector<std::unique_ptr<net::NetServer>> servers;
  std::vector<std::string> endpoints;
  std::vector<uint16_t> ports;

  void Start(uint32_t num_shards, ParamServerOptions base) {
    for (uint32_t s = 0; s < num_shards; ++s) {
      ParamServerOptions opt = base;
      opt.shard_index = s;
      opt.num_shards = num_shards;
      shards.push_back(std::make_unique<ParamServer>(opt));
      net::NetServerOptions nopt;
      nopt.bind_address = "127.0.0.1";
      nopt.max_frame_bytes = std::max(nopt.max_frame_bytes,
                                      shards.back()->MaxPushPayloadBytes());
      servers.push_back(
          std::make_unique<net::NetServer>(shards.back().get(), nopt));
      ASSERT_TRUE(servers.back()->Start().ok());
      ports.push_back(servers.back()->port());
      endpoints.push_back(StrFormat("127.0.0.1:%u", servers.back()->port()));
    }
  }

  void Stop() {
    // Parked barrier responds count as outstanding frames: abort before
    // the drain waits on them.
    for (auto& shard : shards) shard->AbortBarriers();
    for (auto& server : servers) server->Stop();
  }

  ~Cluster() { Stop(); }
};

/// One round-tripped CallFrame; the correlation id rides at header
/// offset 8 of the encoded frame.
StatusOr<Frame> Call(net::NetClient* client, std::string frame_bytes) {
  uint64_t cid = 0;
  std::memcpy(&cid, frame_bytes.data() + 8, sizeof(cid));
  return client->CallFrame(cid, std::move(frame_bytes)).get();
}

std::unique_ptr<net::NetClient> MustConnect(uint16_t port,
                                            net::NetClientOptions copt = {}) {
  auto client = net::NetClient::Connect("127.0.0.1", port, copt);
  EXPECT_TRUE(client.ok());
  return std::move(client.value());
}

/// 20 triples over the 30-entity test model: heads 0..19, tails 20..29.
kg::TripleStore ChainKg() {
  kg::TripleStore store;
  for (uint32_t i = 0; i < 20; ++i) {
    store.Add(i, i % 4, 20 + (i * 7) % 10);
  }
  return store;
}

TEST(ParamServerTest, ShardInfoAnnouncesConfiguration) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kAdam;
  base.learning_rate = 1e-4f;
  Cluster cluster;
  cluster.Start(2, base);

  auto client = MustConnect(cluster.ports[1]);
  const uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodeControl(FrameType::kShardInfo, cid));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kShardInfoReply);

  net::ShardInfo info;
  ASSERT_TRUE(net::DecodeShardInfoReply(reply->payload, &info).ok());
  EXPECT_EQ(info.shard_index, 1u);
  EXPECT_EQ(info.num_shards, 2u);
  EXPECT_EQ(info.num_entities, 30u);
  EXPECT_EQ(info.num_relations, 4u);
  EXPECT_EQ(info.dim, 8u);
  EXPECT_EQ(info.optimizer,
            static_cast<uint8_t>(core::OptimizerKind::kAdam));
  EXPECT_EQ(info.learning_rate, 1e-4f);
  EXPECT_EQ(info.model_seed, 77u);
}

TEST(ParamServerTest, PullReturnsModelBytesAndRejectsUnowned) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  Cluster cluster;
  cluster.Start(2, base);
  // Same options + seed => the shard's table bytes are reproducible
  // locally.
  core::PkgmModel local(TestModelOptions());

  auto client = MustConnect(cluster.ports[0]);
  std::vector<PullSection> sections(3);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {0, 2, 28};
  sections[1].table = ParamTable::kRelation;
  sections[1].ids = {0, 2};
  sections[2].table = ParamTable::kTransfer;
  sections[2].ids = {2};
  uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kRows);

  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  ASSERT_EQ(rows.size(), 3u);
  const uint32_t dim = local.dim();
  for (size_t i = 0; i < rows[0].ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(rows[0].values.data() + i * dim,
                          local.entity(rows[0].ids[i]),
                          dim * sizeof(float)),
              0);
  }
  for (size_t i = 0; i < rows[1].ids.size(); ++i) {
    EXPECT_EQ(std::memcmp(rows[1].values.data() + i * dim,
                          local.relation(rows[1].ids[i]),
                          dim * sizeof(float)),
              0);
  }
  EXPECT_EQ(rows[2].row_size, dim * dim);
  EXPECT_EQ(std::memcmp(rows[2].values.data(), local.transfer(2),
                        dim * dim * sizeof(float)),
            0);

  // Unowned (odd ids belong to shard 1) and out-of-range pulls refused.
  std::vector<PullSection> unowned(1);
  unowned[0].table = ParamTable::kEntity;
  unowned[0].ids = {1};
  cid = client->NextCorrelationId();
  EXPECT_FALSE(Call(client.get(), net::EncodePullRows(cid, unowned)).ok());
  std::vector<PullSection> oob(1);
  oob[0].table = ParamTable::kEntity;
  oob[0].ids = {30};
  cid = client->NextCorrelationId();
  EXPECT_FALSE(Call(client.get(), net::EncodePullRows(cid, oob)).ok());
}

TEST(ParamServerTest, PushAppliesSgdExactly) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.1f;
  base.normalize_entities = false;  // isolate the axpy
  Cluster cluster;
  cluster.Start(2, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();
  const simd::KernelTable& kernels = simd::Active();

  core::GradArena arena;
  float* ge = arena.Entity(2, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 0.5f * (d + 1);
  float* gr = arena.Relation(0, dim);
  for (uint32_t d = 0; d < dim; ++d) gr[d] = -0.25f * d;
  std::string blob;
  ASSERT_EQ(core::SerializeGradArena(arena, 0, 2, &blob), 2u);

  auto client = MustConnect(cluster.ports[0]);
  const float scale = 0.25f;
  uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePushGrads(cid, scale, 0, blob));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kPushAck);
  uint32_t applied = 0;
  ASSERT_TRUE(net::DecodePushAck(reply->payload, &applied).ok());
  EXPECT_EQ(applied, 2u);

  // Replicate the server's arithmetic with the same dispatched kernel.
  const float alpha = -base.learning_rate * scale;
  kernels.axpy(dim, alpha, ge, expected.entity(2));
  kernels.axpy(dim, alpha, gr, expected.relation(0));

  std::vector<PullSection> sections(2);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {2};
  sections[1].table = ParamTable::kRelation;
  sections[1].ids = {0};
  cid = client->NextCorrelationId();
  reply = Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(2),
                        dim * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(rows[1].values.data(), expected.relation(0),
                        dim * sizeof(float)),
            0);

  // A push with rows this shard does not own is refused all-or-nothing.
  std::string foreign_blob;
  core::GradArena foreign;
  foreign.Entity(3, dim)[0] = 1.0f;  // shard 1's row
  core::SerializeGradArena(foreign, &foreign_blob);
  cid = client->NextCorrelationId();
  EXPECT_FALSE(
      Call(client.get(), net::EncodePushGrads(cid, scale, 0, foreign_blob))
          .ok());
}

TEST(ParamServerTest, PushNormalizesEntities) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.1f;
  base.normalize_entities = true;
  Cluster cluster;
  cluster.Start(1, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();

  core::GradArena arena;
  float* ge = arena.Entity(5, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 2.0f;
  std::string blob;
  core::SerializeGradArena(arena, &blob);

  auto client = MustConnect(cluster.ports[0]);
  uint64_t cid = client->NextCorrelationId();
  ASSERT_TRUE(
      Call(client.get(), net::EncodePushGrads(cid, 1.0f, 0, blob)).ok());

  simd::Active().axpy(dim, -0.1f, ge, expected.entity(5));
  expected.NormalizeEntity(5);

  std::vector<PullSection> sections(1);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {5};
  cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(5),
                        dim * sizeof(float)),
            0);
}

TEST(ParamServerTest, PushAppliesAdamWithStepParity) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kAdam;
  base.learning_rate = 1e-3f;
  base.normalize_entities = false;
  Cluster cluster;
  cluster.Start(1, base);
  core::PkgmModel expected(TestModelOptions());
  const uint32_t dim = expected.dim();
  const simd::KernelTable& kernels = simd::Active();

  core::GradArena arena;
  float* ge = arena.Entity(3, dim);
  for (uint32_t d = 0; d < dim; ++d) ge[d] = 1.0f - 0.125f * d;
  std::string blob;
  core::SerializeGradArena(arena, &blob);

  auto client = MustConnect(cluster.ports[0]);
  const float scale = 0.5f;
  std::vector<float> m(dim, 0.0f), v(dim, 0.0f);
  for (uint32_t t = 1; t <= 2; ++t) {
    uint64_t cid = client->NextCorrelationId();
    ASSERT_TRUE(
        Call(client.get(), net::EncodePushGrads(cid, scale, 0, blob)).ok());
    // Replicate the server's bias-corrected step size exactly (same
    // float expression, same kernel).
    const float b1 = base.adam_beta1, b2 = base.adam_beta2;
    const float corr1 =
        1.0f - static_cast<float>(std::pow(b1, static_cast<double>(t)));
    const float corr2 =
        1.0f - static_cast<float>(std::pow(b2, static_cast<double>(t)));
    const float alpha = base.learning_rate * std::sqrt(corr2) / corr1;
    kernels.adam_row(dim, ge, scale, b1, b2, alpha, base.adam_epsilon,
                     expected.entity(3), m.data(), v.data());
  }
  EXPECT_EQ(cluster.shards[0]->step(), 2u);

  std::vector<PullSection> sections(1);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {3};
  const uint64_t cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok());
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), expected.entity(3),
                        dim * sizeof(float)),
            0);
}

TEST(ParamServerTest, PushRepeatingARowIdRefusedWhole) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.1f;
  Cluster cluster;
  cluster.Start(1, base);
  const core::PkgmModel initial(TestModelOptions());
  const uint32_t dim = initial.dim();

  core::GradArena arena;
  for (uint32_t d = 0; d < dim; ++d) {
    arena.Entity(2, dim)[d] = 1.0f;
    arena.Entity(5, dim)[d] = -1.0f;
    arena.Relation(1, dim)[d] = 0.5f;
  }
  std::string blob;
  ASSERT_EQ(core::SerializeGradArena(arena, &blob), 3u);
  // Repeat entity 2's entry (the first of the entity slab, whose header
  // sits at offset 8) and bump the slab's count from 2 to 3.
  const size_t entry_bytes = 4 + 4 * dim;
  std::string repeated = blob;
  repeated.insert(16 + 2 * entry_bytes, blob.substr(16, entry_bytes));
  const uint32_t three = 3;
  std::memcpy(&repeated[12], &three, sizeof(three));
  // The blob itself is well formed; refusing it is the shard's decision.
  ASSERT_TRUE(core::VisitGradArenaBlob(
                  repeated,
                  [](uint32_t, uint32_t, const float*, uint32_t) {
                    return Status::Ok();
                  },
                  [](const core::BlobFactorGroup&) { return Status::Ok(); })
                  .ok());

  auto client = MustConnect(cluster.ports[0]);
  uint64_t cid = client->NextCorrelationId();
  EXPECT_FALSE(
      Call(client.get(), net::EncodePushGrads(cid, 1.0f, 0, repeated)).ok());
  EXPECT_EQ(ShardStats(*cluster.shards[0]).Num("rejects"), 1);
  EXPECT_EQ(cluster.shards[0]->step(), 0u);

  // No row moved, the unrepeated rows included.
  std::vector<PullSection> sections(2);
  sections[0].table = ParamTable::kEntity;
  sections[0].ids = {2, 5};
  sections[1].table = ParamTable::kRelation;
  sections[1].ids = {1};
  cid = client->NextCorrelationId();
  StatusOr<Frame> reply =
      Call(client.get(), net::EncodePullRows(cid, sections));
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  std::vector<RowsSection> rows;
  ASSERT_TRUE(net::DecodeRows(reply->payload, &rows).ok());
  EXPECT_EQ(std::memcmp(rows[0].values.data(), initial.entity(2),
                        dim * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(rows[0].values.data() + dim, initial.entity(5),
                        dim * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(rows[1].values.data(), initial.relation(1),
                        dim * sizeof(float)),
            0);

  // The same rows without the repeat are applied.
  cid = client->NextCorrelationId();
  EXPECT_TRUE(
      Call(client.get(), net::EncodePushGrads(cid, 1.0f, 0, blob)).ok());
  EXPECT_EQ(cluster.shards[0]->step(), 1u);
}

TEST(ParamServerTest, BarrierReleasesMismatchesAndAborts) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  Cluster cluster;
  cluster.Start(1, base);

  auto c1 = MustConnect(cluster.ports[0]);
  auto c2 = MustConnect(cluster.ports[0]);

  // Held until the second arrival, then both release with the count.
  uint64_t cid1 = c1->NextCorrelationId();
  auto f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 0, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout);
  uint64_t cid2 = c2->NextCorrelationId();
  auto f2 = c2->CallFrame(cid2, net::EncodeBarrier(cid2, 0, 2));
  for (auto* f : {&f1, &f2}) {
    StatusOr<Frame> reply = f->get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply->type, FrameType::kBarrierReply);
    uint32_t epoch = 1, arrived = 0;
    ASSERT_TRUE(
        net::DecodeBarrierReply(reply->payload, &epoch, &arrived).ok());
    EXPECT_EQ(epoch, 0u);
    EXPECT_EQ(arrived, 2u);
  }

  // A worker announcing a different expected count for the same epoch is
  // refused; the parked waiter stays parked and a correct arrival still
  // releases it.
  cid1 = c1->NextCorrelationId();
  f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 1, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  cid2 = c2->NextCorrelationId();
  EXPECT_FALSE(
      c2->CallFrame(cid2, net::EncodeBarrier(cid2, 1, 3)).get().ok());
  cid2 = c2->NextCorrelationId();
  EXPECT_TRUE(
      c2->CallFrame(cid2, net::EncodeBarrier(cid2, 1, 2)).get().ok());
  EXPECT_TRUE(f1.get().ok());

  // A zero worker count is nonsense and refused outright.
  cid1 = c1->NextCorrelationId();
  EXPECT_FALSE(
      c1->CallFrame(cid1, net::EncodeBarrier(cid1, 5, 0)).get().ok());

  // AbortBarriers (the shutdown path) fails parked waiters promptly.
  cid1 = c1->NextCorrelationId();
  f1 = c1->CallFrame(cid1, net::EncodeBarrier(cid1, 2, 2));
  EXPECT_EQ(f1.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  cluster.shards[0]->AbortBarriers();
  EXPECT_FALSE(f1.get().ok());
}

TEST(DistTrainerTest, ConnectRejectsMisorderedEndpoints) {
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  kg::TripleStore store = ChainKg();

  DistTrainerOptions dopt;
  dopt.shard_endpoints = {cluster.endpoints[1], cluster.endpoints[0]};
  dopt.learning_rate = 0.05f;
  DistTrainer trainer(&store, dopt);
  EXPECT_FALSE(trainer.Connect().ok());

  // Learning-rate disagreement with the shards is refused too.
  DistTrainerOptions bad_lr;
  bad_lr.shard_endpoints = cluster.endpoints;
  bad_lr.learning_rate = 0.02f;
  DistTrainer trainer2(&store, bad_lr);
  EXPECT_FALSE(trainer2.Connect().ok());
}

TEST(DistTrainerTest, OneWorkerSyncPushBitExactVsShardedTrainer) {
  kg::TripleStore store = ChainKg();
  const uint32_t epochs = 3;

  // In-process reference: same seed, one worker.
  core::PkgmModel ref(TestModelOptions());
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = 1;
  sopt.batch_size = 8;
  sopt.learning_rate = 0.05f;
  sopt.seed = 123;
  core::ShardedTrainer reference(&ref, &store, sopt);
  std::vector<core::EpochStats> ref_stats;
  for (uint32_t e = 0; e < epochs; ++e) {
    ref_stats.push_back(reference.RunEpoch());
  }

  // Distributed: 2 shards, 1 worker, fully synchronous pushes.
  ParamServerOptions base;
  base.model = TestModelOptions();
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 1;
  dopt.batch_size = 8;
  dopt.learning_rate = 0.05f;
  dopt.seed = 123;
  dopt.max_inflight_pushes = 0;
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    // Identical shuffle, identical negatives, identical batch-slot stat
    // merge: the telemetry must agree to the last bit.
    EXPECT_EQ(stats->mean_hinge, ref_stats[e].mean_hinge) << "epoch " << e;
    EXPECT_EQ(stats->active_pairs, ref_stats[e].active_pairs);
    EXPECT_EQ(stats->total_pairs, ref_stats[e].total_pairs);
  }
  ASSERT_TRUE(trainer.PullFullModel().ok());

  // The refreshed replica is bit-identical to the in-process model —
  // every table, every row.
  core::PkgmModel* replica = trainer.replica();
  for (uint32_t e = 0; e < ref.num_entities(); ++e) {
    ASSERT_EQ(std::memcmp(replica->entity(e), ref.entity(e),
                          ref.dim() * sizeof(float)),
              0)
        << "entity " << e;
  }
  for (uint32_t r = 0; r < ref.num_relations(); ++r) {
    ASSERT_EQ(std::memcmp(replica->relation(r), ref.relation(r),
                          ref.dim() * sizeof(float)),
              0)
        << "relation " << r;
    ASSERT_EQ(std::memcmp(replica->transfer(r), ref.transfer(r),
                          ref.dim() * ref.dim() * sizeof(float)),
              0)
        << "transfer " << r;
  }
  // And the comparable eval metric agrees exactly.
  core::TrainerOptions topt;
  topt.optimizer = core::OptimizerKind::kSgd;
  topt.seed = dopt.seed;
  core::Trainer evaluator(&ref, &store, topt);
  EXPECT_EQ(trainer.EvaluateMeanHinge(),
            evaluator.EvaluateMeanHinge(store.triples()));
}

TEST(DistTrainerTest, FramesOverFourMiBBitExactAtDim64) {
  // d = 64 makes each transfer row 16 KiB. With 300 relations drawn
  // uniformly, one 512-triple batch touches nearly all of them, so the
  // worker budgets its pull, every transfer row at its dense size, past
  // the 4 MiB default frame cap: the pull is split across frames. The
  // shard's largest valid push, one dense row per owned key, passes the
  // default cap too, so the shard runs with its frame cap raised to
  // MaxPushPayloadBytes().
  core::PkgmModelOptions mo;
  mo.num_entities = 600;
  mo.num_relations = 300;
  mo.dim = 64;
  mo.seed = 91;
  kg::TripleStore store;
  Rng rng(5);
  while (store.size() < 1024) {
    store.Add(static_cast<uint32_t>(rng.Uniform(mo.num_entities)),
              static_cast<uint32_t>(rng.Uniform(mo.num_relations)),
              static_cast<uint32_t>(rng.Uniform(mo.num_entities)));
  }
  const uint32_t epochs = 2;
  const uint32_t batch = 512;

  core::PkgmModel ref(mo);
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = 1;
  sopt.batch_size = batch;
  sopt.learning_rate = 0.05f;
  sopt.seed = 321;
  core::ShardedTrainer reference(&ref, &store, sopt);
  std::vector<core::EpochStats> ref_stats;
  for (uint32_t e = 0; e < epochs; ++e) {
    ref_stats.push_back(reference.RunEpoch());
  }

  ParamServerOptions base;
  base.model = mo;
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(1, base);
  ASSERT_GT(cluster.shards[0]->MaxPushPayloadBytes(),
            net::kDefaultMaxFrameBytes);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 1;
  dopt.batch_size = batch;
  dopt.learning_rate = 0.05f;
  dopt.seed = 321;
  dopt.max_inflight_pushes = 0;
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->mean_hinge, ref_stats[e].mean_hinge) << "epoch " << e;
    EXPECT_EQ(stats->active_pairs, ref_stats[e].active_pairs);
  }
  // More pull frames than batches: batch pulls were split.
  const uint64_t batches = epochs * ((store.size() + batch - 1) / batch);
  EXPECT_GT(trainer.pulls(), batches);
  ASSERT_TRUE(trainer.PullFullModel().ok());

  core::PkgmModel* replica = trainer.replica();
  for (uint32_t e = 0; e < ref.num_entities(); ++e) {
    ASSERT_EQ(std::memcmp(replica->entity(e), ref.entity(e),
                          ref.dim() * sizeof(float)),
              0)
        << "entity " << e;
  }
  for (uint32_t r = 0; r < ref.num_relations(); ++r) {
    ASSERT_EQ(std::memcmp(replica->relation(r), ref.relation(r),
                          ref.dim() * sizeof(float)),
              0)
        << "relation " << r;
    ASSERT_EQ(std::memcmp(replica->transfer(r), ref.transfer(r),
                          ref.dim() * ref.dim() * sizeof(float)),
              0)
        << "transfer " << r;
  }
}

TEST(DistTrainerTest, PrefetchedPullsSplitPastFourMiB) {
  // FramesOverFourMiBBitExactAtDim64's shape under the default staleness
  // bound: each worker sends its next batch's first pull round before the
  // current batch's forward, and the rest of a split pull follows at
  // Prepare. The replica must still converge on the shard's bytes.
  core::PkgmModelOptions mo;
  mo.num_entities = 600;
  mo.num_relations = 300;
  mo.dim = 64;
  mo.seed = 91;
  kg::TripleStore store;
  Rng rng(5);
  while (store.size() < 1024) {
    store.Add(static_cast<uint32_t>(rng.Uniform(mo.num_entities)),
              static_cast<uint32_t>(rng.Uniform(mo.num_relations)),
              static_cast<uint32_t>(rng.Uniform(mo.num_entities)));
  }
  const uint32_t epochs = 4;
  const uint32_t batch = 512;

  ParamServerOptions base;
  base.model = mo;
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(1, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 1;
  dopt.batch_size = batch;
  dopt.learning_rate = 0.05f;
  dopt.seed = 321;
  dopt.max_inflight_pushes = 4;
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  std::vector<double> hinges;
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    hinges.push_back(stats->mean_hinge);
  }
  EXPECT_LT(hinges.back(), hinges.front());
  const uint64_t batches = epochs * ((store.size() + batch - 1) / batch);
  EXPECT_GT(trainer.pulls(), batches);
  EXPECT_GT(trainer.pull_wait_seconds(), 0.0);
  ASSERT_TRUE(trainer.PullFullModel().ok());

  const core::PkgmModel& replica = *trainer.replica();
  const core::PkgmModel& shard = cluster.shards[0]->model();
  const size_t row = mo.dim * sizeof(float);
  for (uint32_t e = 0; e < mo.num_entities; ++e) {
    ASSERT_EQ(std::memcmp(replica.entity(e), shard.entity(e), row), 0)
        << "entity " << e;
  }
  for (uint32_t r = 0; r < mo.num_relations; ++r) {
    ASSERT_EQ(std::memcmp(replica.relation(r), shard.relation(r), row), 0)
        << "relation " << r;
    ASSERT_EQ(std::memcmp(replica.transfer(r), shard.transfer(r),
                          mo.dim * row),
              0)
        << "transfer " << r;
  }
}

TEST(DistTrainerTest, TwoWorkersTwoShardsHingeParity) {
  // A real (if small) synthetic PKG so hogwild noise averages out enough
  // for the 2% acceptance bound to be a meaningful assertion.
  kg::SyntheticPkgOptions pkg_opt;
  pkg_opt.num_categories = 4;
  pkg_opt.items_per_category = 60;
  pkg_opt.properties_per_category = 6;
  pkg_opt.shared_property_pool = 8;
  pkg_opt.values_per_property = 12;
  pkg_opt.products_per_category = 10;
  pkg_opt.noise_properties = 4;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(pkg_opt).Generate();

  core::PkgmModelOptions mopt;
  mopt.num_entities = pkg.entities.size();
  mopt.num_relations = pkg.relations.size();
  mopt.dim = 8;
  mopt.seed = 2021;
  const uint32_t epochs = 3;

  core::PkgmModel ref(mopt);
  core::ShardedTrainerOptions sopt;
  sopt.num_workers = 2;
  sopt.batch_size = 64;
  sopt.learning_rate = 0.05f;
  sopt.seed = 2021;
  core::ShardedTrainer reference(&ref, &pkg.observed, sopt);
  double ref_hinge = 0.0;
  for (uint32_t e = 0; e < epochs; ++e) {
    ref_hinge = reference.RunEpoch().mean_hinge;
  }

  ParamServerOptions base;
  base.model = mopt;
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 2;
  dopt.batch_size = 64;
  dopt.learning_rate = 0.05f;
  dopt.seed = 2021;
  dopt.max_inflight_pushes = 4;
  DistTrainer trainer(&pkg.observed, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  double dist_hinge = 0.0;
  for (uint32_t e = 0; e < epochs; ++e) {
    StatusOr<core::EpochStats> stats = trainer.RunEpoch();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    dist_hinge = stats->mean_hinge;
  }
  EXPECT_GT(trainer.pulls(), 0u);
  EXPECT_GT(trainer.pushes(), 0u);
  EXPECT_GT(trainer.pull_apply_seconds(), 0.0);
  EXPECT_GT(trainer.log_records_pulled(), 0u);
  EXPECT_LE(trainer.log_records_held(), trainer.log_records_pulled());

  // Acceptance bound: within 2% of the in-process trainer at the same
  // seed budget.
  ASSERT_GT(ref_hinge, 0.0);
  EXPECT_NEAR(dist_hinge / ref_hinge, 1.0, 0.02)
      << "dist " << dist_hinge << " vs ref " << ref_hinge;
}

TEST(DistTrainerTest, AdamOverOneShardEqualsInProcessAdam) {
  // The shard applies pushes through the in-process Trainer's optimizer.
  // One shard sees every batch's push, so its Adam step count is the
  // Trainer's batch count, and one synchronous worker draws the Trainer's
  // stream: epoch stats and every table must agree to the last bit.
  kg::SyntheticPkgOptions pkg_opt;
  pkg_opt.num_categories = 3;
  pkg_opt.items_per_category = 30;
  pkg_opt.properties_per_category = 5;
  pkg_opt.shared_property_pool = 6;
  pkg_opt.values_per_property = 8;
  pkg_opt.products_per_category = 6;
  pkg_opt.noise_properties = 2;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(pkg_opt).Generate();
  const uint32_t epochs = 3;
  const auto same = [](const Mat& a, const Mat& b) {
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
  };

  for (const core::TripleScorerKind scorer :
       {core::TripleScorerKind::kTransE, core::TripleScorerKind::kTransH}) {
    SCOPED_TRACE(static_cast<int>(scorer));
    core::PkgmModelOptions mopt;
    mopt.num_entities = pkg.entities.size();
    mopt.num_relations = pkg.relations.size();
    mopt.dim = 16;
    mopt.scorer = scorer;
    mopt.seed = 404;

    core::PkgmModel ref(mopt);
    core::TrainerOptions topt;
    topt.optimizer = core::OptimizerKind::kAdam;
    topt.batch_size = 64;
    topt.learning_rate = 0.01f;
    topt.seed = 505;
    core::Trainer reference(&ref, &pkg.observed, topt);
    std::vector<core::EpochStats> ref_stats;
    for (uint32_t e = 0; e < epochs; ++e) {
      ref_stats.push_back(reference.RunEpoch());
    }

    ParamServerOptions base;
    base.model = mopt;
    base.optimizer = core::OptimizerKind::kAdam;
    base.learning_rate = 0.01f;
    Cluster cluster;
    cluster.Start(1, base);
    DistTrainerOptions dopt;
    dopt.shard_endpoints = cluster.endpoints;
    dopt.num_workers = 1;
    dopt.batch_size = 64;
    dopt.learning_rate = 0.01f;
    dopt.seed = 505;
    dopt.max_inflight_pushes = 0;
    DistTrainer trainer(&pkg.observed, dopt);
    ASSERT_TRUE(trainer.Connect().ok());
    for (uint32_t e = 0; e < epochs; ++e) {
      StatusOr<core::EpochStats> stats = trainer.RunEpoch();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_EQ(stats->mean_hinge, ref_stats[e].mean_hinge) << "epoch " << e;
      EXPECT_EQ(stats->active_pairs, ref_stats[e].active_pairs);
    }
    EXPECT_EQ(cluster.shards[0]->step(), reference.global_step());
    ASSERT_TRUE(trainer.PullFullModel().ok());

    core::PkgmModel* replica = trainer.replica();
    EXPECT_TRUE(same(replica->entity_table(), ref.entity_table()));
    EXPECT_TRUE(same(replica->relation_table(), ref.relation_table()));
    EXPECT_TRUE(same(replica->transfer_table(), ref.transfer_table()));
    EXPECT_TRUE(same(replica->hyperplane_table(), ref.hyperplane_table()));
  }
}

// ---------------------------------------------------------------------------
// Seeded mutation of the parameter-server data path's parsers: the frame
// decoder (random chunkings, both receive paths), the kRows view decoder,
// the GradArena blob visitor and a live shard's HandleFrame. Valid input
// must round-trip; mutated input must either be rejected or be exactly
// what an independent reference accepts, and a refused push must leave the
// shard's model bytes untouched. The sanitizer CI job runs this too.
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader for the reference parsers.
struct RefReader {
  std::string_view b;
  size_t pos = 0;

  bool U32(uint32_t* v) {
    if (b.size() - pos < 4) return false;
    std::memcpy(v, b.data() + pos, 4);
    pos += 4;
    return true;
  }
  bool U64(uint64_t* v) {
    if (b.size() - pos < 8) return false;
    std::memcpy(v, b.data() + pos, 8);
    pos += 8;
    return true;
  }
  bool F32s(uint64_t n, std::vector<float>* out) {
    if ((b.size() - pos) / 4 < n) return false;
    if (n == 0) return true;
    const size_t at = out->size();
    out->resize(at + n);
    std::memcpy(out->data() + at, b.data() + pos, 4 * static_cast<size_t>(n));
    pos += 4 * static_cast<size_t>(n);
    return true;
  }
};

/// A 2-shard TransH model with the relation module, so all four tables
/// exist; the fuzzed shard is shard 0 (even keys).
ParamServerOptions FuzzShardOptions() {
  ParamServerOptions opt;
  opt.model = TestModelOptions();
  opt.model.scorer = core::TripleScorerKind::kTransH;
  opt.shard_index = 0;
  opt.num_shards = 2;
  opt.learning_rate = 0.1f;
  return opt;
}

/// A pull of shard 0's rows of every table, its transfer rows versioned
/// at `v0` and `v2`.
std::vector<PullSection> FuzzPullSections(uint64_t v0 = 0, uint64_t v2 = 0) {
  std::vector<PullSection> sections(4);
  sections[0] = {ParamTable::kEntity, {0, 2, 28}};
  sections[1] = {ParamTable::kRelation, {0, 2}};
  sections[2] = {ParamTable::kTransfer, {0, 2}, {v0, v2}};
  sections[3] = {ParamTable::kHyperplane, {0}};
  return sections;
}

/// Offsets of the num_sections, per-section id counts and versions (low
/// words) of a kPullRows payload.
std::vector<size_t> PullFields(const std::vector<PullSection>& sections) {
  std::vector<size_t> fields = {0};
  size_t pos = 4;
  for (const PullSection& s : sections) {
    fields.push_back(pos + 1);
    pos += 5 + 4 * s.ids.size();
    for (size_t i = 0; i < s.versions.size(); ++i, pos += 8) {
      fields.push_back(pos);
    }
  }
  return fields;
}

/// Offsets of the num_sections, row sizes and counts of a valid kRows
/// payload, and of each versioned answer's version (low word), log_bytes
/// and log record counts.
std::vector<size_t> RowsFields(std::string_view payload) {
  std::vector<size_t> fields = {0};
  RefReader r{payload};
  uint32_t num_sections = 0;
  EXPECT_TRUE(r.U32(&num_sections));
  for (uint32_t s = 0; s < num_sections; ++s) {
    const bool versioned = (static_cast<uint8_t>(payload[r.pos]) & 0x80) != 0;
    fields.push_back(r.pos + 1);
    fields.push_back(r.pos + 5);
    r.pos += 1;
    uint32_t row_size = 0, count = 0;
    EXPECT_TRUE(r.U32(&row_size) && r.U32(&count));
    r.pos += 4 * static_cast<size_t>(count);
    if (!versioned) {
      r.pos += 4 * static_cast<size_t>(count) * row_size;
      continue;
    }
    const uint32_t dim =
        static_cast<uint32_t>(std::lround(std::sqrt(row_size)));
    for (uint32_t i = 0; i < count; ++i) {
      fields.push_back(r.pos);
      fields.push_back(r.pos + 8);
      uint64_t version = 0;
      uint32_t log_bytes = 0;
      EXPECT_TRUE(r.U64(&version) && r.U32(&log_bytes));
      if (log_bytes == net::kDenseAnswer) {
        r.pos += 4 * static_cast<size_t>(row_size);
        continue;
      }
      for (const size_t end = r.pos + log_bytes; r.pos < end;) {
        fields.push_back(r.pos + 4);
        uint32_t items;
        std::memcpy(&items, payload.data() + r.pos + 4, 4);
        r.pos += core::FactorGroupBlobBytes(dim, items);
      }
    }
  }
  return fields;
}

/// Offsets of the slab row sizes and counts of a GradArena blob, and of
/// its factor section's dim, group count and per-group item counts.
std::vector<size_t> BlobFields(const std::string& blob) {
  std::vector<size_t> fields;
  size_t pos = 8;
  for (int t = 0; t < 4; ++t) {
    uint32_t row_size, count;
    std::memcpy(&row_size, &blob[pos], 4);
    std::memcpy(&count, &blob[pos + 4], 4);
    fields.push_back(pos);
    fields.push_back(pos + 4);
    pos += 8 + static_cast<size_t>(count) * (4 + 4 * row_size);
  }
  uint32_t dim, groups;
  std::memcpy(&dim, &blob[pos], 4);
  std::memcpy(&groups, &blob[pos + 4], 4);
  fields.push_back(pos);
  fields.push_back(pos + 4);
  pos += 8;
  for (uint32_t g = 0; g < groups; ++g) {
    uint32_t count;
    std::memcpy(&count, &blob[pos + 4], 4);
    fields.push_back(pos + 4);
    pos += 8 + static_cast<size_t>(count) * (4 + 4 * ((dim + 15) / 16) + 4 * dim);
  }
  return fields;
}

/// Records relation `rel`'s transfer gradient in `arena` as a factor group
/// of `count` items (signs alternating, s' mixing +1, -1 and 0).
void AddFactorGroup(core::GradArena* arena, uint32_t rel, uint32_t dim,
                    size_t count) {
  std::vector<float> signs(count), s2(count * dim), h(count * dim);
  std::vector<const float*> s2_ptrs(count), h_ptrs(count);
  for (size_t q = 0; q < count; ++q) {
    signs[q] = q % 2 == 0 ? 1.0f : -1.0f;
    for (uint32_t i = 0; i < dim; ++i) {
      s2[q * dim + i] = static_cast<float>((i + q) % 3) - 1.0f;
      h[q * dim + i] = 0.5f * static_cast<float>(i) - static_cast<float>(q);
    }
    s2_ptrs[q] = s2.data() + q * dim;
    h_ptrs[q] = h.data() + q * dim;
  }
  arena->transfer_factors().AddGroup(rel, dim, count, signs.data(),
                                     s2_ptrs.data(), h_ptrs.data(),
                                     simd::Active());
}

/// Shard 0's slice of a gradient touching every table, as a blob: relation
/// 0's transfer gradient as a dense row, relation 2's as factors.
std::string FuzzBlob(uint32_t dim) {
  core::GradArena arena;
  for (uint32_t e : {0u, 2u, 4u, 3u}) {
    for (uint32_t d = 0; d < dim; ++d) arena.Entity(e, dim)[d] = 0.25f * d - e;
  }
  for (uint32_t r : {0u, 2u, 1u}) {
    arena.Relation(r, dim)[r % dim] = -0.0f;
    arena.Hyperplane(r, dim)[0] = 2.0f;
  }
  for (uint32_t r : {0u, 1u}) arena.Transfer(r, dim * dim)[r] = 1.5f;
  AddFactorGroup(&arena, 2, dim, 2);
  AddFactorGroup(&arena, 3, dim, 1);
  std::string blob;
  core::SerializeGradArena(arena, 0, 2, &blob);
  return blob;
}

/// A transfer log at `dim`: one record per entry of `counts` (that many
/// items), with alphas -0.1, -0.2, ...
std::string FuzzLog(uint32_t dim, const std::vector<size_t>& counts) {
  core::GradArena arena;
  for (uint32_t r = 0; r < counts.size(); ++r) {
    AddFactorGroup(&arena, r, dim, counts[r]);
  }
  std::string blob;
  core::SerializeGradArena(arena, &blob);
  std::string log;
  float alpha = 0.0f;
  EXPECT_TRUE(core::VisitGradArenaBlob(
                  blob,
                  [](uint32_t, uint32_t, const float*, uint32_t) {
                    ADD_FAILURE() << "a log group went dense";
                    return Status::Ok();
                  },
                  [&](const core::BlobFactorGroup& group) {
                    alpha -= 0.1f;
                    core::AppendTransferLogRecord(alpha, group, &log);
                    return Status::Ok();
                  })
                  .ok());
  return log;
}

struct RefRow {
  uint32_t slab = 0;
  uint32_t id = 0;
  std::vector<float> values;
};

struct RefGroup {
  uint32_t relation = 0;
  uint32_t dim = 0;
  std::vector<float> signs;
  std::vector<float> s2;     // count x dim, decoded
  std::vector<float> heads;  // count x dim
};

/// One factor item of the blob layout (also a log record's), appended to
/// `group`.
bool RefParseItem(RefReader* r, uint32_t dim, RefGroup* group) {
  uint32_t sign;
  if (!r->U32(&sign) || (sign != 0x3f800000u && sign != 0xbf800000u)) {
    return false;
  }
  group->signs.push_back(sign == 0x3f800000u ? 1.0f : -1.0f);
  for (uint32_t i = 0; i < dim; i += 16) {
    uint32_t word;
    if (!r->U32(&word)) return false;
    for (uint32_t j = 0; j < 16; ++j) {
      const uint32_t code = (word >> (2 * j)) & 3;
      if (code == 3 || (i + j >= dim && code != 0)) return false;
      if (i + j < dim) {
        group->s2.push_back(code == 1 ? 1.0f : code == 2 ? -1.0f : 0.0f);
      }
    }
  }
  return r->F32s(dim, &group->heads);
}

/// Reference walk of the blob layout documented in core/gradients.h,
/// written independently of VisitGradArenaBlob (little-endian hosts).
bool RefParseBlob(std::string_view b, std::vector<RefRow>* rows,
                  std::vector<RefGroup>* groups) {
  rows->clear();
  groups->clear();
  RefReader r{b};
  uint32_t magic, version_word;
  if (!r.U32(&magic) || magic != core::kGradArenaBlobMagic) return false;
  if (!r.U32(&version_word)) return false;
  if (version_word != (core::kGradArenaBlobVersion | (5u << 8))) return false;
  for (uint32_t slab = 0; slab < 4; ++slab) {
    uint32_t row_size, count;
    if (!r.U32(&row_size) || !r.U32(&count)) return false;
    if (count > 0 && row_size == 0) return false;
    for (uint32_t i = 0; i < count; ++i) {
      RefRow row;
      row.slab = slab;
      if (!r.U32(&row.id) || !r.F32s(row_size, &row.values)) return false;
      rows->push_back(std::move(row));
    }
  }
  uint32_t dim, num_groups;
  if (!r.U32(&dim) || !r.U32(&num_groups)) return false;
  if (num_groups > 0 && (dim == 0 || dim > 65535)) return false;
  for (uint32_t g = 0; g < num_groups; ++g) {
    RefGroup group;
    group.dim = dim;
    uint32_t count;
    if (!r.U32(&group.relation) || !r.U32(&count) || count == 0) return false;
    for (uint32_t q = 0; q < count; ++q) {
      if (!RefParseItem(&r, dim, &group)) return false;
    }
    groups->push_back(std::move(group));
  }
  return r.pos == b.size();
}

/// One answer of a versioned kRows section, parsed: the dense row, or the
/// log records (each a factor group and its alpha).
struct RefAnswer {
  uint64_t version = 0;
  bool dense = false;
  std::vector<float> row;
  std::vector<float> alphas;
  std::vector<RefGroup> records;
};

struct RefRowsSection {
  ParamTable table = ParamTable::kEntity;
  bool versioned = false;
  uint32_t row_size = 0;
  std::vector<uint32_t> ids;
  std::vector<float> values;
  std::vector<RefAnswer> answers;
};

/// Reference walk of the kRows layout documented in net/wire.h, log records
/// included (parsed at `dim`, as a worker with that model dim would),
/// written independently of DecodeRowsView and VisitTransferLog.
bool RefParseRows(std::string_view b, uint32_t dim,
                  std::vector<RefRowsSection>* out) {
  out->clear();
  RefReader r{b};
  uint32_t num_sections;
  if (!r.U32(&num_sections)) return false;
  for (uint32_t s = 0; s < num_sections; ++s) {
    RefRowsSection sec;
    if (r.pos == b.size()) return false;
    const uint8_t table = static_cast<uint8_t>(b[r.pos++]);
    sec.versioned = (table & 0x80) != 0;
    if ((table & 0x7f) > 3) return false;
    sec.table = static_cast<ParamTable>(table & 0x7f);
    if (sec.versioned && sec.table != ParamTable::kTransfer) return false;
    uint32_t count;
    if (!r.U32(&sec.row_size) || !r.U32(&count)) return false;
    for (uint32_t i = 0; i < count; ++i) {
      uint32_t id;
      if (!r.U32(&id)) return false;
      sec.ids.push_back(id);
    }
    if (!sec.versioned) {
      if (!r.F32s(static_cast<uint64_t>(count) * sec.row_size, &sec.values)) {
        return false;
      }
      out->push_back(std::move(sec));
      continue;
    }
    for (uint32_t i = 0; i < count; ++i) {
      RefAnswer a;
      uint32_t log_bytes;
      if (!r.U64(&a.version) || !r.U32(&log_bytes)) return false;
      if (log_bytes == 0xffffffffu) {
        a.dense = true;
        if (!r.F32s(sec.row_size, &a.row)) return false;
      } else {
        if (log_bytes > 4 * static_cast<uint64_t>(sec.row_size) ||
            b.size() - r.pos < log_bytes) {
          return false;
        }
        const size_t end = r.pos + log_bytes;
        RefReader log{b.substr(0, end), r.pos};
        while (log.pos < end) {
          uint32_t alpha_bits, items;
          RefGroup group;
          group.dim = dim;
          if (!log.U32(&alpha_bits) || !log.U32(&items) || items == 0) {
            return false;
          }
          for (uint32_t q = 0; q < items; ++q) {
            if (!RefParseItem(&log, dim, &group)) return false;
          }
          float alpha;
          std::memcpy(&alpha, &alpha_bits, 4);
          a.alphas.push_back(alpha);
          a.records.push_back(std::move(group));
        }
        r.pos = end;
      }
      sec.answers.push_back(std::move(a));
    }
    out->push_back(std::move(sec));
  }
  return r.pos == b.size();
}

/// A reference group's dense dM_r, rebuilt on `k` under the contract.
std::vector<float> RefRebuild(const RefGroup& g, const simd::KernelTable& k) {
  std::vector<const float*> s2, heads;
  for (size_t q = 0; q < g.signs.size(); ++q) {
    s2.push_back(g.s2.data() + q * g.dim);
    heads.push_back(g.heads.data() + q * g.dim);
  }
  std::vector<float> row(static_cast<size_t>(g.dim) * g.dim);
  core::RebuildTransferRow(k, g.dim, g.signs.size(), g.signs.data(),
                           s2.data(), heads.data(), row.data());
  return row;
}

/// What shard 0 of FuzzShardOptions() must apply: a well-formed blob after
/// the scale/epoch prefix, every row of its table's size, owned, in range,
/// no id twice within a table, and every factor group at the model's dim
/// for an owned relation that has no other transfer row or group.
bool PushShouldApply(std::string_view payload, const core::PkgmModel& m,
                     std::vector<RefRow>* rows,
                     std::vector<RefGroup>* groups) {
  if (payload.size() < 8 ||
      !RefParseBlob(payload.substr(8), rows, groups)) {
    return false;
  }
  const uint32_t d = m.dim();
  const uint32_t row_sizes[4] = {d, d, d * d, d};
  const uint32_t keys[4] = {m.num_entities(), m.num_relations(),
                            m.num_relations(), m.num_relations()};
  std::set<std::pair<uint32_t, uint32_t>> seen;
  for (const RefRow& row : *rows) {
    if (row.values.size() != row_sizes[row.slab] ||
        row.id >= keys[row.slab] || row.id % 2 != 0 ||
        !seen.insert({row.slab, row.id}).second) {
      return false;
    }
  }
  for (const RefGroup& g : *groups) {
    if (g.dim != d || g.relation >= m.num_relations() ||
        g.relation % 2 != 0 || !seen.insert({2, g.relation}).second) {
      return false;
    }
  }
  return true;
}

/// Every row of a TransH model with the relation module, as bytes (an
/// applied mutated push may have written NaNs, which float == would not
/// match to themselves).
std::string ModelBytes(const core::PkgmModel& m) {
  const size_t d = m.dim();
  std::string bytes;
  auto append = [&](const float* row, size_t n) {
    bytes.append(reinterpret_cast<const char*>(row), n * sizeof(float));
  };
  for (uint32_t e = 0; e < m.num_entities(); ++e) append(m.entity(e), d);
  for (uint32_t r = 0; r < m.num_relations(); ++r) {
    append(m.relation(r), d);
    append(m.transfer(r), d * d);
    append(m.hyperplane(r), d);
  }
  return bytes;
}

Frame DecodeOneFrame(const std::string& bytes) {
  net::FrameDecoder decoder;
  decoder.Feed(bytes.data(), bytes.size());
  Frame frame;
  std::string error;
  EXPECT_EQ(decoder.Next(&frame, &error), net::FrameDecoder::Result::kFrame)
      << error;
  return frame;
}

std::string Payload(const std::string& frame_bytes) {
  return frame_bytes.substr(net::kFrameHeaderBytes);
}

TEST(MutationTest, FrameDecoderOverRandomChunkings) {
  const ParamServerOptions opt = FuzzShardOptions();
  const core::PkgmModel model(opt.model);
  const std::vector<PullSection> pulls = FuzzPullSections();
  std::vector<RowsSection> rows;
  for (const PullSection& p : pulls) {
    RowsSection s;
    s.table = p.table;
    s.row_size = p.table == ParamTable::kTransfer ? 64 : 8;
    for (uint32_t id : p.ids) {
      s.ids.push_back(id);
      s.values.insert(s.values.end(), s.row_size, 0.5f * id);
    }
    rows.push_back(std::move(s));
  }
  // One payload over kLargePayloadBytes, so the large receive path runs.
  RowsSection big;
  big.table = ParamTable::kTransfer;
  big.row_size = 64;
  for (uint32_t id = 0; id < 300; ++id) {
    big.ids.push_back(id);
    big.values.insert(big.values.end(), 64, 0.25f * id);
  }
  const std::vector<std::string> frames = {
      net::EncodePullRows(1, pulls), net::EncodeRows(2, rows),
      net::EncodePushGrads(3, 0.5f, 1, FuzzBlob(8)),
      net::EncodeRows(4, {big})};
  std::string stream;
  std::vector<size_t> fields;
  for (const std::string& f : frames) {
    fields.push_back(stream.size() + 16);  // payload_len
    stream += f;
  }
  const std::string other = frames[2] + frames[0];

  Rng rng(20211);
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    const std::string input =
        iter == 0 ? stream : Mutate(stream, other, fields, &rng);
    net::FrameDecoder decoder;
    const bool socket = rng.Uniform(2) == 0;
    std::string reencoded;
    size_t frames_out = 0;
    bool failed = false;
    for (size_t pos = 0; pos < input.size() && !failed;) {
      const size_t max_chunk =
          rng.Uniform(2) == 0 ? 64 : 3 * net::kLargePayloadBytes;
      const size_t chunk = 1 + rng.Uniform(max_chunk);
      size_t n = std::min(chunk, input.size() - pos);
      if (socket) {
        const std::span<char> dst = decoder.PrepareRead();
        ASSERT_FALSE(dst.empty());
        n = std::min(n, dst.size());
        std::memcpy(dst.data(), input.data() + pos, n);
        decoder.CommitRead(n);
      } else {
        decoder.Feed(input.data() + pos, n);
      }
      pos += n;
      EXPECT_LE(decoder.held_bytes(), 4 * pos + 4 * net::kLargePayloadBytes);
      Frame frame;
      std::string error;
      net::FrameDecoder::Result result;
      while ((result = decoder.Next(&frame, &error)) ==
             net::FrameDecoder::Result::kFrame) {
        net::AppendFrame(frame.type, frame.correlation_id, frame.payload,
                         &reencoded);
        ++frames_out;
      }
      failed = result == net::FrameDecoder::Result::kError;
    }
    // Every frame that came out is exactly the bytes that went in.
    ASSERT_LE(reencoded.size(), input.size());
    EXPECT_EQ(input.compare(0, reencoded.size(), reencoded), 0);
    if (input == stream) {
      EXPECT_FALSE(failed);
      EXPECT_EQ(frames_out, frames.size());
    }
  }
}

TEST(MutationTest, RowsViewDecoder) {
  std::vector<RowsSection> sections(4);
  sections[0] = {ParamTable::kEntity, 8, {0, 2}, std::vector<float>(16, 1.0f)};
  sections[1] = {ParamTable::kTransfer, 64, {4}, std::vector<float>(64, -2.0f)};
  sections[2] = {ParamTable::kHyperplane, 8, {}, {}};
  // Versioned answers: a dense row, a log of two records, an up-to-date row.
  sections[3].table = ParamTable::kTransfer;
  sections[3].row_size = 64;
  sections[3].ids = {0, 2, 6};
  sections[3].versioned = true;
  const std::vector<float> dense(64, 0.5f);
  net::AppendDenseAnswer(4, dense.data(), 64, &sections[3].answers);
  net::AppendLogAnswer(6, FuzzLog(8, {2, 1}), &sections[3].answers);
  net::AppendLogAnswer(3, "", &sections[3].answers);
  const std::string payload = Payload(net::EncodeRows(1, sections));
  const std::string other = Payload(net::EncodePullRows(1, FuzzPullSections()));
  const std::vector<size_t> fields = RowsFields(payload);

  Rng rng(20212);
  std::vector<net::RowsView> views;
  std::vector<RowsSection> decoded;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    const std::string input =
        iter == 0 ? payload : Mutate(payload, other, fields, &rng);
    const bool ok = net::DecodeRowsView(input, &views).ok();
    EXPECT_EQ(net::DecodeRows(input, &decoded).ok(), ok);
    if (input == payload) {
      ASSERT_TRUE(ok);
    }
    if (!ok) continue;
    // Accepted means canonical: the decoded sections re-encode to exactly
    // the input, with valid table bytes.
    for (const net::RowsView& v : views) {
      EXPECT_LE(static_cast<uint8_t>(v.table), net::kMaxParamTable);
    }
    EXPECT_TRUE(Payload(net::EncodeRows(1, decoded)) == input);
  }
}

TEST(MutationTest, GradArenaBlobVisitor) {
  const std::string blob = FuzzBlob(8);
  const std::string other = FuzzBlob(4);
  const std::vector<size_t> fields = BlobFields(blob);
  const simd::KernelTable& k = simd::ScalarKernels();

  Rng rng(20213);
  std::vector<RefRow> want;
  std::vector<RefGroup> want_groups;
  core::TransferRebuildScratch scratch;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    const std::string input =
        iter == 0 ? blob : Mutate(blob, other, fields, &rng);
    // Misaligned copies too, so the copy-out path runs as well.
    const std::string shifted = " " + input;
    const std::string_view view =
        rng.Uniform(2) == 0 ? std::string_view(input)
                            : std::string_view(shifted).substr(1);
    std::vector<RefRow> got;
    // Each visited group as (relation, its dM_r rebuilt from the blob
    // bytes, through the copy-out path when the view is misaligned).
    std::vector<RefRow> got_groups;
    const Status st = core::VisitGradArenaBlob(
        view,
        [&](uint32_t slab, uint32_t id, const float* row,
            uint32_t row_size) {
          got.push_back({slab, id, std::vector<float>(row, row + row_size)});
          return Status::Ok();
        },
        [&](const core::BlobFactorGroup& group) {
          const float* row = core::RebuildTransferRow(group, k, &scratch);
          got_groups.push_back(
              {2, group.relation,
               std::vector<float>(row, row + group.dim * group.dim)});
          return Status::Ok();
        });
    const bool ref_ok = RefParseBlob(input, &want, &want_groups);
    ASSERT_EQ(st.ok(), ref_ok) << st.ToString();
    if (input == blob) {
      ASSERT_TRUE(st.ok());
      ASSERT_EQ(want_groups.size(), 1u);
    }
    if (!st.ok()) {
      // Structure is checked before any row or group.
      EXPECT_TRUE(got.empty());
      EXPECT_TRUE(got_groups.empty());
      continue;
    }
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].slab, want[i].slab);
      EXPECT_EQ(got[i].id, want[i].id);
      EXPECT_EQ(std::memcmp(got[i].values.data(), want[i].values.data(),
                            4 * want[i].values.size()),
                0);
    }
    ASSERT_EQ(got_groups.size(), want_groups.size());
    for (size_t g = 0; g < got_groups.size(); ++g) {
      EXPECT_EQ(got_groups[g].id, want_groups[g].relation);
      const std::vector<float> ref = RefRebuild(want_groups[g], k);
      ASSERT_EQ(got_groups[g].values.size(), ref.size());
      EXPECT_EQ(std::memcmp(got_groups[g].values.data(), ref.data(),
                            4 * ref.size()),
                0);
    }
  }
}

/// The row of `table` at `id` in `m`.
float* RowOf(core::PkgmModel* m, ParamTable table, uint32_t id) {
  switch (table) {
    case ParamTable::kEntity:
      return m->entity(id);
    case ParamTable::kRelation:
      return m->relation(id);
    case ParamTable::kTransfer:
      return m->transfer(id);
    case ParamTable::kHyperplane:
      return m->hyperplane(id);
  }
  return nullptr;
}

/// What a fresh replica of `opt` applying `payload` (the answer to
/// `request`, log records replayed on `k`) must hold, from the reference
/// parser; false when the reply must be refused whole.
bool ReplicaShouldApply(std::string_view payload,
                        const std::vector<PullSection>& request,
                        const simd::KernelTable& k, core::PkgmModel* want) {
  const uint32_t d = want->dim();
  std::vector<RefRowsSection> ref;
  if (!RefParseRows(payload, d, &ref) || ref.size() != request.size()) {
    return false;
  }
  for (size_t s = 0; s < ref.size(); ++s) {
    const RefRowsSection& sec = ref[s];
    const PullSection& asked = request[s];
    if (sec.table != asked.table || sec.ids != asked.ids ||
        sec.versioned == asked.versions.empty() ||
        sec.row_size != (sec.table == ParamTable::kTransfer ? d * d : d)) {
      return false;
    }
    for (size_t i = 0; i < sec.answers.size(); ++i) {
      const RefAnswer& a = sec.answers[i];
      if (!a.dense && (a.version < asked.versions[i] ||
                       a.version - asked.versions[i] != a.records.size())) {
        return false;
      }
    }
  }
  for (size_t s = 0; s < ref.size(); ++s) {
    const RefRowsSection& sec = ref[s];
    for (size_t i = 0; i < sec.ids.size(); ++i) {
      float* row = RowOf(want, sec.table, sec.ids[i]);
      if (!sec.versioned) {
        std::memcpy(row, sec.values.data() + i * sec.row_size,
                    4 * static_cast<size_t>(sec.row_size));
        continue;
      }
      // A fresh replica holds version 0 of every row.
      const RefAnswer& a = sec.answers[i];
      if (a.version == 0) continue;
      if (a.dense) {
        std::memcpy(row, a.row.data(), 4 * static_cast<size_t>(sec.row_size));
        continue;
      }
      for (size_t r = 0; r < a.records.size(); ++r) {
        const std::vector<float> dm = RefRebuild(a.records[r], k);
        k.axpy(dm.size(), a.alphas[r], dm.data(), row);
      }
    }
  }
  return true;
}

TEST(MutationTest, ReplicaApplyPath) {
  const ParamServerOptions opt = FuzzShardOptions();
  const uint32_t d = opt.model.dim;
  const std::vector<PullSection> request = FuzzPullSections();
  // Every table's rows; relation 0's transfer row as a log of versions 1
  // and 2, relation 2's as its dense row at version 3.
  std::vector<RowsSection> reply(4);
  for (size_t s = 0; s < 4; ++s) {
    reply[s].table = request[s].table;
    reply[s].ids = request[s].ids;
    reply[s].row_size = reply[s].table == ParamTable::kTransfer ? d * d : d;
  }
  for (size_t s : {0, 1, 3}) {
    for (size_t i = 0; i < reply[s].ids.size() * d; ++i) {
      reply[s].values.push_back(0.5f * static_cast<float>(i) - 3.0f);
    }
  }
  reply[2].versioned = true;
  net::AppendLogAnswer(2, FuzzLog(d, {2, 1}), &reply[2].answers);
  const std::vector<float> dense(d * d, -1.25f);
  net::AppendDenseAnswer(3, dense.data(), d * d, &reply[2].answers);
  const std::string payload = Payload(net::EncodeRows(1, reply));
  const std::string other = Payload(net::EncodePullRows(1, request));
  const std::vector<size_t> fields = RowsFields(payload);
  const simd::KernelTable& k = simd::ScalarKernels();
  const std::string init = ModelBytes(core::PkgmModel(opt.model));

  Rng rng(20215);
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    const std::string input =
        iter == 0 ? payload : Mutate(payload, other, fields, &rng);
    Replica replica(opt.model);
    Replica::Scratch scratch;
    uint64_t rows = 0;
    const Status st = replica.Apply(input, request, &k, &scratch, &rows);
    core::PkgmModel want(opt.model);
    const bool ok = ReplicaShouldApply(input, request, k, &want);
    ASSERT_EQ(st.ok(), ok) << st.ToString();
    if (input == payload) {
      ASSERT_TRUE(ok);
      EXPECT_EQ(replica.transfer_version(0), 2u);
      EXPECT_EQ(replica.transfer_version(2), 3u);
    }
    // Refused means untouched; accepted means exactly the reference.
    EXPECT_TRUE(ModelBytes(replica.model()) == (ok ? ModelBytes(want) : init));
    if (ok) {
      EXPECT_EQ(rows, 8u);
    }
  }
}

TEST(MutationTest, LiveShardHandleFrame) {
  ParamServer shard(FuzzShardOptions());
  const core::PkgmModel& model = shard.model();
  const uint32_t d = model.dim();
  const std::string pull_payload =
      Payload(net::EncodePullRows(1, FuzzPullSections()));
  const std::string blob = FuzzBlob(d);
  const std::string push_payload =
      Payload(net::EncodePushGrads(1, 0.5f, 0, blob));
  std::vector<size_t> push_fields = {0, 4};
  for (size_t f : BlobFields(blob)) push_fields.push_back(8 + f);
  // Every version each owned transfer row has passed through (a push moves
  // a row by at most one version), so a log answer can be replayed from
  // the version it names.
  std::map<std::pair<uint32_t, uint64_t>, std::vector<float>> history;
  const auto record_history = [&] {
    for (uint32_t r : {0u, 2u}) {
      history.emplace(std::make_pair(r, shard.transfer_version(r)),
                      std::vector<float>(model.transfer(r),
                                         model.transfer(r) + d * d));
    }
  };
  record_history();
  const simd::KernelTable& k = *simd::KernelsForIsa(
      static_cast<simd::KernelIsa>(shard.Info().kernel_isa));

  Rng rng(20214);
  uint64_t applied = 0;
  for (int iter = 0; iter <= 2 * kMutationsPerInput; ++iter) {
    SCOPED_TRACE(iter);
    const bool push = iter % 2 == 1;
    // Pulls name recent versions, so both log and dense answers come back:
    // relation 2's log holds its last two factor pushes, relation 0 is
    // pushed dense.
    const auto recent = [&](uint32_t r) {
      const uint64_t v = shard.transfer_version(r);
      return v - rng.Uniform(std::min<uint64_t>(v, 3) + 1);
    };
    const std::vector<PullSection> pulls =
        FuzzPullSections(recent(0), recent(2));
    const std::string valid =
        push ? push_payload : Payload(net::EncodePullRows(1, pulls));
    Frame request;
    request.type = push ? FrameType::kPushGrads : FrameType::kPullRows;
    request.correlation_id = static_cast<uint64_t>(iter);
    request.payload =
        iter < 2 ? valid
                 : Mutate(valid, push ? pull_payload : push_payload,
                          push ? push_fields : PullFields(pulls), &rng);
    const std::string before = ModelBytes(model);
    std::string reply_bytes;
    ASSERT_EQ(shard.HandleFrame(request,
                                [&](std::string bytes) {
                                  reply_bytes = std::move(bytes);
                                }),
              net::FrameHandler::Result::kTaken);
    const Frame reply = DecodeOneFrame(reply_bytes);
    EXPECT_EQ(reply.correlation_id, request.correlation_id);

    bool should_serve = false;
    std::vector<PullSection> want_pull;
    std::vector<RefRow> want_push;
    std::vector<RefGroup> want_groups;
    if (push) {
      should_serve =
          PushShouldApply(request.payload, model, &want_push, &want_groups);
    } else if (net::DecodePullRows(request.payload, &want_pull).ok()) {
      should_serve = true;
      for (const PullSection& s : want_pull) {
        const uint32_t keys = s.table == ParamTable::kEntity
                                  ? model.num_entities()
                                  : model.num_relations();
        for (uint32_t id : s.ids) {
          should_serve = should_serve && id < keys && id % 2 == 0;
        }
      }
    }
    if (iter < 2) {
      ASSERT_TRUE(should_serve);
    }
    if (!should_serve) {
      ASSERT_EQ(reply.type, FrameType::kError);
      net::WireCode code;
      std::string message;
      ASSERT_TRUE(net::DecodeError(reply.payload, &code, &message).ok());
      EXPECT_EQ(code, net::WireCode::kInvalidItem);
      EXPECT_TRUE(ModelBytes(model) == before) << message;
      continue;
    }
    if (push) {
      ASSERT_EQ(reply.type, FrameType::kPushAck);
      uint32_t rows = 0;
      ASSERT_TRUE(net::DecodePushAck(reply.payload, &rows).ok());
      // A factor group counts as the one transfer row it updates.
      EXPECT_EQ(rows, want_push.size() + want_groups.size());
      ++applied;
      record_history();
      continue;
    }
    // A served pull returns the model's rows, section for section; a
    // versioned answer carries the row's version and either the row or
    // the records that replay the named version into it.
    ASSERT_EQ(reply.type, FrameType::kRows);
    EXPECT_TRUE(ModelBytes(model) == before);
    std::vector<RowsSection> got;
    ASSERT_TRUE(net::DecodeRows(reply.payload, &got).ok());
    std::vector<RefRowsSection> ref;
    ASSERT_TRUE(RefParseRows(reply.payload, d, &ref));
    ASSERT_EQ(got.size(), want_pull.size());
    for (size_t s = 0; s < got.size(); ++s) {
      ASSERT_EQ(got[s].table, want_pull[s].table);
      ASSERT_EQ(got[s].ids, want_pull[s].ids);
      ASSERT_EQ(got[s].versioned, !want_pull[s].versions.empty());
      for (size_t i = 0; got[s].versioned && i < got[s].ids.size(); ++i) {
        const uint32_t id = got[s].ids[i];
        const RefAnswer& a = ref[s].answers[i];
        EXPECT_EQ(a.version, shard.transfer_version(id));
        std::vector<float> row = a.row;
        if (!a.dense) {
          const uint64_t from = want_pull[s].versions[i];
          ASSERT_EQ(a.version - from, a.records.size());
          row = history.at({id, from});
          for (size_t r = 0; r < a.records.size(); ++r) {
            const std::vector<float> dm = RefRebuild(a.records[r], k);
            k.axpy(dm.size(), a.alphas[r], dm.data(), row.data());
          }
        }
        ASSERT_EQ(row.size(), static_cast<size_t>(d) * d);
        EXPECT_EQ(std::memcmp(row.data(), model.transfer(id), 4 * row.size()),
                  0);
      }
      for (size_t i = 0; !got[s].versioned && i < got[s].ids.size(); ++i) {
        const uint32_t id = got[s].ids[i];
        const float* row = got[s].table == ParamTable::kEntity
                               ? model.entity(id)
                           : got[s].table == ParamTable::kRelation
                               ? model.relation(id)
                           : got[s].table == ParamTable::kTransfer
                               ? model.transfer(id)
                               : model.hyperplane(id);
        EXPECT_EQ(std::memcmp(got[s].values.data() + i * got[s].row_size, row,
                              4 * got[s].row_size),
                  0);
      }
    }
  }
  EXPECT_EQ(shard.step(), applied);
}

// ---------------------------------------------------------------------------
// Transfer-matrix gradients pushed as factor groups (blob v2)
// ---------------------------------------------------------------------------

/// One request of `type` handled by `shard` directly, decoded.
Frame HandleOne(ParamServer* shard, FrameType type, std::string payload) {
  Frame request;
  request.type = type;
  request.correlation_id = 7;
  request.payload = std::move(payload);
  std::string reply_bytes;
  EXPECT_EQ(shard->HandleFrame(request,
                               [&](std::string bytes) {
                                 reply_bytes = std::move(bytes);
                               }),
            net::FrameHandler::Result::kTaken);
  return DecodeOneFrame(reply_bytes);
}

std::string PushPayload(const core::GradArena& arena, uint32_t shard,
                        uint32_t num_shards) {
  std::string blob;
  core::SerializeGradArena(arena, shard, num_shards, &blob);
  return Payload(net::EncodePushGrads(1, 0.5f, 0, blob));
}

TEST(ParamServerTest, FactorPushesRefusedWhole) {
  ParamServer shard(FuzzShardOptions());  // shard 0 of 2: even keys
  const uint32_t dim = shard.model().dim();
  const std::string before = ModelBytes(shard.model());

  core::GradArena good;
  good.Entity(2, dim)[0] = 1.0f;
  AddFactorGroup(&good, 2, dim, 2);
  const std::string payload = PushPayload(good, 0, 1);
  // The factor group closes the payload: its header, then item 0's sign,
  // its one s' code word (dim 8) and h.
  const size_t group = payload.size() - core::FactorGroupBlobBytes(dim, 2);
  const size_t sign_at = group + 8, word_at = group + 12;
  const auto with_u32 = [&](size_t at, uint32_t v) {
    std::string bad = payload;
    std::memcpy(&bad[at], &v, 4);
    return bad;
  };
  uint32_t word, half_bits;
  std::memcpy(&word, &payload[word_at], 4);
  const float half = 0.5f;
  std::memcpy(&half_bits, &half, 4);

  const auto arena_payload = [&](auto&& fill) {
    core::GradArena arena;
    arena.Entity(2, dim)[0] = 1.0f;
    fill(&arena);
    return PushPayload(arena, 0, 1);
  };
  const std::pair<const char*, std::string> cases[] = {
      {"s' code 3", with_u32(word_at, word | 3u)},
      {"padding bits", with_u32(word_at, word | (1u << (2 * dim)))},
      {"sign 0.5", with_u32(sign_at, half_bits)},
      {"wrong dim", arena_payload([&](core::GradArena* a) {
         AddFactorGroup(a, 2, dim / 2, 2);
       })},
      {"relation of another shard", arena_payload([&](core::GradArena* a) {
         AddFactorGroup(a, 1, dim, 2);
       })},
      {"relation out of range", arena_payload([&](core::GradArena* a) {
         AddFactorGroup(a, 2 * shard.model().num_relations(), dim, 2);
       })},
      {"dense and factors", arena_payload([&](core::GradArena* a) {
         a->Transfer(2, dim * dim)[0] = 1.0f;
         AddFactorGroup(a, 2, dim, 2);
       })},
  };
  for (const auto& [what, bad] : cases) {
    SCOPED_TRACE(what);
    const Frame reply = HandleOne(&shard, FrameType::kPushGrads, bad);
    ASSERT_EQ(reply.type, FrameType::kError);
    net::WireCode code;
    std::string message;
    ASSERT_TRUE(net::DecodeError(reply.payload, &code, &message).ok());
    EXPECT_EQ(code, net::WireCode::kInvalidItem) << message;
    EXPECT_TRUE(ModelBytes(shard.model()) == before) << message;
    EXPECT_EQ(shard.step(), 0u);
  }

  // Without the relation module there is no transfer table to update.
  ParamServerOptions flat = FuzzShardOptions();
  flat.model.use_relation_module = false;
  ParamServer flat_shard(flat);
  EXPECT_EQ(HandleOne(&flat_shard, FrameType::kPushGrads, payload).type,
            FrameType::kError);
  EXPECT_EQ(flat_shard.step(), 0u);

  // The unmodified push applies: the entity row and the group's row.
  const Frame reply = HandleOne(&shard, FrameType::kPushGrads, payload);
  ASSERT_EQ(reply.type, FrameType::kPushAck);
  uint32_t rows = 0;
  ASSERT_TRUE(net::DecodePushAck(reply.payload, &rows).ok());
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(shard.step(), 1u);
}

TEST(ParamServerTest, FactorPushAppliesLikeItsRebuiltDenseRow) {
  for (const core::OptimizerKind optimizer :
       {core::OptimizerKind::kSgd, core::OptimizerKind::kAdam}) {
    SCOPED_TRACE(optimizer == core::OptimizerKind::kAdam ? "adam" : "sgd");
    ParamServerOptions opt = FuzzShardOptions();
    opt.optimizer = optimizer;
    ParamServer factor_shard(opt), dense_shard(opt);
    const uint32_t dim = factor_shard.model().dim();
    const uint32_t dd = dim * dim;

    core::GradArena factors, dense;
    AddFactorGroup(&factors, 2, dim, 3);
    factors.Entity(4, dim)[1] = 0.75f;
    dense.Entity(4, dim)[1] = 0.75f;
    core::TransferRebuildScratch scratch;
    std::memcpy(dense.Transfer(2, dd),
                factors.transfer_factors().Rebuild(0, &scratch),
                dd * sizeof(float));
    const std::string factor_payload = PushPayload(factors, 0, 2);
    const std::string dense_payload = PushPayload(dense, 0, 2);
    EXPECT_LT(factor_payload.size(), dense_payload.size());

    const std::string initial = ModelBytes(factor_shard.model());
    for (int push = 0; push < 2; ++push) {
      for (auto [shard, payload] :
           {std::pair{&factor_shard, &factor_payload},
            std::pair{&dense_shard, &dense_payload}}) {
        const Frame reply = HandleOne(shard, FrameType::kPushGrads, *payload);
        ASSERT_EQ(reply.type, FrameType::kPushAck);
        uint32_t rows = 0;
        ASSERT_TRUE(net::DecodePushAck(reply.payload, &rows).ok());
        EXPECT_EQ(rows, 2u);
      }
      EXPECT_TRUE(ModelBytes(factor_shard.model()) ==
                  ModelBytes(dense_shard.model()));
      for (const auto& [table, id, n] :
           {std::tuple{ParamTable::kTransfer, 2u, dd},
            std::tuple{ParamTable::kEntity, 4u, dim}}) {
        const auto [fm, fv] = factor_shard.AdamMoments(table, id);
        const auto [dm, dv] = dense_shard.AdamMoments(table, id);
        if (optimizer == core::OptimizerKind::kSgd) {
          EXPECT_EQ(fm, nullptr);
          continue;
        }
        ASSERT_NE(fm, nullptr);
        EXPECT_EQ(std::memcmp(fm, dm, n * sizeof(float)), 0);
        EXPECT_EQ(std::memcmp(fv, dv, n * sizeof(float)), 0);
      }
    }
    EXPECT_FALSE(ModelBytes(factor_shard.model()) == initial);
  }
}

TEST(ParamServerTest, CrossoverPushFitsMaxPushPayload) {
  // Every table full, every owned relation's group one item past the
  // crossover (dense) or at it (factors): the push stays within the frame
  // cap the shard's NetServer is sized by, and is applied whole.
  ParamServerOptions opt = FuzzShardOptions();
  opt.model.dim = 16;
  ParamServer shard(opt);
  const core::PkgmModel& m = shard.model();
  const size_t c = core::TransferFactorCrossover(m.dim());
  for (const size_t items : {c + 1, c}) {
    SCOPED_TRACE(items);
    core::GradArena arena;
    for (uint32_t e = 0; e < m.num_entities(); ++e) {
      arena.Entity(e, m.dim())[0] = 0.01f;
    }
    for (uint32_t r = 0; r < m.num_relations(); ++r) {
      arena.Relation(r, m.dim())[1] = 0.01f;
      arena.Hyperplane(r, m.dim())[2] = 0.01f;
      AddFactorGroup(&arena, r, m.dim(), items);
    }
    const std::string payload = PushPayload(arena, 0, 2);
    if (items > c) {
      EXPECT_EQ(payload.size(), shard.MaxPushPayloadBytes());
    } else {
      EXPECT_LT(payload.size(), shard.MaxPushPayloadBytes());
    }
    const Frame reply = HandleOne(&shard, FrameType::kPushGrads, payload);
    ASSERT_EQ(reply.type, FrameType::kPushAck);
    uint32_t rows = 0;
    ASSERT_TRUE(net::DecodePushAck(reply.payload, &rows).ok());
    EXPECT_EQ(rows, m.num_entities() / 2 + 3 * m.num_relations() / 2);
  }
}

// ---------------------------------------------------------------------------
// Versioned transfer-row pulls: shard logs and worker replay
// ---------------------------------------------------------------------------

/// A push to `shard` of relation `rel`'s transfer gradient as one factor
/// group of `items` items.
void PushFactors(ParamServer* shard, uint32_t rel, size_t items) {
  core::GradArena arena;
  AddFactorGroup(&arena, rel, shard->model().dim(), items);
  const Frame reply =
      HandleOne(shard, FrameType::kPushGrads,
                PushPayload(arena, shard->shard_index(), shard->num_shards()));
  EXPECT_EQ(reply.type, FrameType::kPushAck);
}

TEST(VersionedPullTest, TwoWorkersTwoShardsReplicaByteEqualsShards) {
  core::PkgmModelOptions mo;
  mo.num_entities = 160;
  mo.num_relations = 12;
  mo.dim = 16;
  mo.seed = 41;
  kg::TripleStore store;
  Rng rng(8);
  while (store.size() < 800) {
    store.Add(static_cast<uint32_t>(rng.Uniform(mo.num_entities)),
              static_cast<uint32_t>(rng.Uniform(mo.num_relations)),
              static_cast<uint32_t>(rng.Uniform(mo.num_entities)));
  }
  ParamServerOptions base;
  base.model = mo;
  base.optimizer = core::OptimizerKind::kSgd;
  base.learning_rate = 0.05f;
  Cluster cluster;
  cluster.Start(2, base);
  DistTrainerOptions dopt;
  dopt.shard_endpoints = cluster.endpoints;
  dopt.num_workers = 2;
  dopt.batch_size = 32;
  dopt.learning_rate = 0.05f;
  dopt.seed = 6;  // default staleness bound: pushes pipelined
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  ASSERT_TRUE(trainer.Train(3).ok());
  ASSERT_TRUE(trainer.PullFullModel().ok());

  const core::PkgmModel& replica = *trainer.replica();
  const size_t dd = static_cast<size_t>(mo.dim) * mo.dim;
  double from_log = 0;
  for (const auto& shard : cluster.shards) {
    const FlatJson stats = ShardStats(*shard);
    from_log += stats.Num("transfer_rows_from_log");
    EXPECT_EQ(stats.Num("rejects"), 0);
  }
  EXPECT_GT(from_log, 0);
  for (uint32_t r = 0; r < mo.num_relations; ++r) {
    const core::PkgmModel& shard = cluster.shards[r % 2]->model();
    EXPECT_EQ(std::memcmp(replica.transfer(r), shard.transfer(r), 4 * dd), 0)
        << "transfer " << r;
    EXPECT_EQ(std::memcmp(replica.relation(r), shard.relation(r),
                          4 * static_cast<size_t>(mo.dim)),
              0)
        << "relation " << r;
  }
}

TEST(VersionedPullTest, LogBoundAndDenseUpdatesFallBackToTheRow) {
  // d = 8: a one-item record is 48 bytes and a log holds at most the
  // dense row's 256, so five records.
  ParamServerOptions opt;
  opt.model = TestModelOptions();
  opt.optimizer = core::OptimizerKind::kSgd;
  opt.learning_rate = 0.1f;
  ParamServer shard(opt);
  const uint32_t d = shard.model().dim();
  ASSERT_EQ(core::FactorGroupBlobBytes(d, 1), 48u);
  const simd::KernelTable* k = simd::KernelsForIsa(
      static_cast<simd::KernelIsa>(shard.Info().kernel_isa));
  ASSERT_NE(k, nullptr);
  Replica replica(opt.model);
  Replica::Scratch scratch;
  // Pulls relation 0 versioned into the replica; whether the answer was
  // dense, or nullopt on failure.
  const auto pull = [&]() -> std::optional<bool> {
    std::vector<PullSection> req(1);
    req[0] = {ParamTable::kTransfer, {0}, {replica.transfer_version(0)}};
    const Frame reply = HandleOne(&shard, FrameType::kPullRows,
                                  Payload(net::EncodePullRows(1, req)));
    std::vector<net::RowsView> views;
    if (reply.type != FrameType::kRows ||
        !net::DecodeRowsView(reply.payload, &views).ok()) {
      return std::nullopt;
    }
    net::RowAnswer answer;
    views[0].ReadAnswer(views[0].answers, &answer);
    uint64_t rows = 0;
    if (!replica.Apply(reply.payload, req, k, &scratch, &rows).ok()) {
      return std::nullopt;
    }
    return answer.row != nullptr;
  };
  const auto byte_equal = [&] {
    return std::memcmp(replica.model().transfer(0), shard.model().transfer(0),
                       4 * static_cast<size_t>(d) * d) == 0;
  };

  EXPECT_EQ(pull(), false);  // version 0 on both sides: an empty log
  for (int i = 0; i < 5; ++i) PushFactors(&shard, 0, 1);
  EXPECT_EQ(pull(), false);  // five records fit
  EXPECT_TRUE(byte_equal());
  EXPECT_EQ(replica.transfer_version(0), 5u);

  for (int i = 0; i < 6; ++i) PushFactors(&shard, 0, 1);
  EXPECT_EQ(pull(), true);  // the log kept versions 7..11; version 5 fell out
  EXPECT_TRUE(byte_equal());
  EXPECT_EQ(replica.transfer_version(0), 11u);

  for (int i = 0; i < 2; ++i) PushFactors(&shard, 0, 2);
  EXPECT_EQ(pull(), false);
  EXPECT_TRUE(byte_equal());
  EXPECT_EQ(replica.transfer_version(0), 13u);

  // A dense transfer update empties the log.
  core::GradArena arena;
  arena.Transfer(0, d * d)[3] = 1.5f;
  ASSERT_EQ(HandleOne(&shard, FrameType::kPushGrads, PushPayload(arena, 0, 1))
                .type,
            FrameType::kPushAck);
  EXPECT_EQ(pull(), true);
  EXPECT_TRUE(byte_equal());
  PushFactors(&shard, 0, 3);
  EXPECT_EQ(pull(), false);
  EXPECT_TRUE(byte_equal());
  EXPECT_EQ(replica.transfer_version(0), 15u);
  EXPECT_EQ(shard.transfer_version(0), 15u);
}

TEST(VersionedPullTest, OlderDenseAnswerLeavesTheRowUntouched) {
  const core::PkgmModelOptions mo = TestModelOptions();
  const uint32_t dd = mo.dim * mo.dim;
  Replica replica(mo);
  Replica::Scratch scratch;
  // Applies a dense answer for relation 1 at `version`, every float
  // `fill`, to a pull that named `asked`.
  const auto apply = [&](uint64_t asked, uint64_t version, float fill) {
    RowsSection sec;
    sec.table = ParamTable::kTransfer;
    sec.row_size = dd;
    sec.ids = {1};
    sec.versioned = true;
    const std::vector<float> row(dd, fill);
    net::AppendDenseAnswer(version, row.data(), dd, &sec.answers);
    std::vector<PullSection> req(1);
    req[0] = {ParamTable::kTransfer, {1}, {asked}};
    uint64_t rows = 0;
    ASSERT_TRUE(replica
                    .Apply(Payload(net::EncodeRows(1, {sec})), req,
                           &simd::ScalarKernels(), &scratch, &rows)
                    .ok());
    EXPECT_EQ(rows, 1u);
  };
  const auto row_is = [&](float fill) {
    const float* row = replica.model().transfer(1);
    return std::all_of(row, row + dd, [&](float v) { return v == fill; });
  };
  apply(0, 5, 1.0f);
  EXPECT_TRUE(row_is(1.0f));
  EXPECT_EQ(replica.transfer_version(1), 5u);
  // A slower pull, sent before the replica reached version 5, answered at
  // version 3: dropped. So is a second answer at the same version.
  apply(0, 3, 2.0f);
  apply(5, 5, 3.0f);
  EXPECT_TRUE(row_is(1.0f));
  EXPECT_EQ(replica.transfer_version(1), 5u);
  apply(5, 6, 4.0f);
  EXPECT_TRUE(row_is(4.0f));
  EXPECT_EQ(replica.transfer_version(1), 6u);
}

TEST(VersionedPullTest, OverlappingLogAnswersReplayEachRecordOnce) {
  // Two workers pulled relation 1 from version 0; one answer brought
  // records 1-2, the other, later, records 1-3. Applied in either order,
  // the row takes each record once.
  const core::PkgmModelOptions mo = TestModelOptions();
  const std::string records = FuzzLog(mo.dim, {1, 2, 1});
  const size_t two = core::FactorGroupBlobBytes(mo.dim, 1) +
                     core::FactorGroupBlobBytes(mo.dim, 2);
  const auto payload = [&](uint64_t version, std::string_view log) {
    RowsSection sec;
    sec.table = ParamTable::kTransfer;
    sec.row_size = mo.dim * mo.dim;
    sec.ids = {1};
    sec.versioned = true;
    net::AppendLogAnswer(version, log, &sec.answers);
    return Payload(net::EncodeRows(1, {sec}));
  };
  std::vector<PullSection> req(1);
  req[0] = {ParamTable::kTransfer, {1}, {0}};
  const simd::KernelTable& k = simd::ScalarKernels();
  Replica::Scratch scratch;
  uint64_t rows = 0;
  Replica once(mo);
  ASSERT_TRUE(once.Apply(payload(3, records), req, &k, &scratch, &rows).ok());
  for (const bool short_first : {true, false}) {
    SCOPED_TRACE(short_first);
    Replica replica(mo);
    const std::string short_log = payload(2, records.substr(0, two));
    const std::string long_log = payload(3, records);
    for (const std::string* p : short_first
                                    ? std::vector{&short_log, &long_log}
                                    : std::vector{&long_log, &short_log}) {
      ASSERT_TRUE(replica.Apply(*p, req, &k, &scratch, &rows).ok());
    }
    EXPECT_EQ(replica.transfer_version(1), 3u);
    EXPECT_EQ(std::memcmp(replica.model().transfer(1), once.model().transfer(1),
                          4 * static_cast<size_t>(mo.dim) * mo.dim),
              0);
  }
}

TEST(ReplicaTest, CountsTheLogRecordsItAlreadyHeld) {
  // OverlappingLogAnswersReplayEachRecordOnce's answers: records 1-2 and
  // records 1-3, both pulled from version 0. In either order five records
  // arrive, and the second answer brings two the replica already holds.
  const core::PkgmModelOptions mo = TestModelOptions();
  const std::string records = FuzzLog(mo.dim, {1, 2, 1});
  const size_t two = core::FactorGroupBlobBytes(mo.dim, 1) +
                     core::FactorGroupBlobBytes(mo.dim, 2);
  const auto payload = [&](uint64_t version, std::string_view log) {
    RowsSection sec;
    sec.table = ParamTable::kTransfer;
    sec.row_size = mo.dim * mo.dim;
    sec.ids = {1};
    sec.versioned = true;
    net::AppendLogAnswer(version, log, &sec.answers);
    return Payload(net::EncodeRows(1, {sec}));
  };
  std::vector<PullSection> req(1);
  req[0] = {ParamTable::kTransfer, {1}, {0}};
  const simd::KernelTable& k = simd::ScalarKernels();
  Replica::Scratch scratch;
  uint64_t rows = 0;
  const std::string short_log = payload(2, records.substr(0, two));
  const std::string long_log = payload(3, records);
  for (const bool short_first : {true, false}) {
    SCOPED_TRACE(short_first);
    Replica replica(mo);
    ASSERT_TRUE(replica
                    .Apply(short_first ? short_log : long_log, req, &k,
                           &scratch, &rows)
                    .ok());
    EXPECT_EQ(replica.log_records(), short_first ? 2u : 3u);
    EXPECT_EQ(replica.held_log_records(), 0u);
    ASSERT_TRUE(replica
                    .Apply(short_first ? long_log : short_log, req, &k,
                           &scratch, &rows)
                    .ok());
    EXPECT_EQ(replica.log_records(), 5u);
    EXPECT_EQ(replica.held_log_records(), 2u);
  }
  // A dense answer carries no records.
  Replica replica(mo);
  RowsSection dense;
  dense.table = ParamTable::kTransfer;
  dense.row_size = mo.dim * mo.dim;
  dense.ids = {1};
  dense.versioned = true;
  const std::vector<float> row(mo.dim * mo.dim, 0.5f);
  net::AppendDenseAnswer(4, row.data(), dense.row_size, &dense.answers);
  ASSERT_TRUE(replica
                  .Apply(Payload(net::EncodeRows(1, {dense})), req, &k,
                         &scratch, &rows)
                  .ok());
  EXPECT_EQ(replica.log_records(), 0u);
  EXPECT_EQ(replica.held_log_records(), 0u);
}

TEST(SortUniqueIdsTest, MatchesSortThenUnique) {
  std::vector<std::vector<uint32_t>> lists = {{}, {7}, {1u << 31}, {0, 0, 0}};
  Rng rng(77);
  // Ids from 2^24 up need all four 8-bit passes, smaller spans fewer;
  // every third id repeats its predecessor.
  for (const uint32_t base : {0u, 1u << 24}) {
    for (const uint32_t span : {300u, 70000u, 1u << 31}) {
      for (const size_t n : {size_t{2}, size_t{255}, size_t{2048}}) {
        std::vector<uint32_t> ids(n);
        for (uint32_t& id : ids) {
          id = base + static_cast<uint32_t>(rng.Uniform(span));
        }
        for (size_t i = 0; i + 1 < n; i += 3) ids[i + 1] = ids[i];
        lists.push_back(ids);
      }
    }
  }
  std::vector<uint32_t> scratch = {9, 9, 9};
  for (const std::vector<uint32_t>& list : lists) {
    SCOPED_TRACE(testing::Message() << "size " << list.size());
    std::vector<uint32_t> want = list;
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    std::vector<uint32_t> got = list;
    SortUniqueIds(&got, &scratch);
    EXPECT_EQ(got, want);
  }
}

/// Forwards every frame to a shard, but announces `isa` as the shard's
/// kernel ISA and counts the transfer sections of the pulls it sees.
class IsaOverride : public net::FrameHandler {
 public:
  IsaOverride(ParamServer* shard, uint8_t isa) : shard_(shard), isa_(isa) {}

  Result HandleFrame(const Frame& frame, Respond respond) override {
    if (frame.type == FrameType::kShardInfo) {
      net::ShardInfo info = shard_->Info();
      info.kernel_isa = isa_;
      respond(net::EncodeShardInfoReply(frame.correlation_id, info));
      return Result::kTaken;
    }
    std::vector<PullSection> sections;
    if (frame.type == FrameType::kPullRows &&
        net::DecodePullRows(frame.payload, &sections).ok()) {
      for (const PullSection& s : sections) {
        if (s.table != ParamTable::kTransfer) continue;
        ++(s.versions.empty() ? id_only : versioned);
      }
    }
    return shard_->HandleFrame(frame, std::move(respond));
  }
  std::string StatsJson(const serve::NetCounters& net) const override {
    return shard_->StatsJson(net);
  }

  std::atomic<int> id_only{0};
  std::atomic<int> versioned{0};

 private:
  ParamServer* shard_;
  const uint8_t isa_;
};

TEST(VersionedPullTest, UnloadableShardIsaGetsIdOnlyTransferSections) {
  // NEON on x86 (AVX-512 or AVX2 on ARM); 0xff names no ISA at all.
  uint8_t isa = 0xff;
  for (simd::KernelIsa candidate :
       {simd::KernelIsa::kNeon, simd::KernelIsa::kAvx512,
        simd::KernelIsa::kAvx2}) {
    if (simd::KernelsForIsa(candidate) == nullptr) {
      isa = static_cast<uint8_t>(candidate);
      break;
    }
  }
  ParamServerOptions opt;
  opt.model = TestModelOptions();
  opt.optimizer = core::OptimizerKind::kSgd;
  opt.learning_rate = 0.05f;
  ParamServer shard(opt);
  IsaOverride handler(&shard, isa);
  net::NetServerOptions nopt;
  nopt.bind_address = "127.0.0.1";
  net::NetServer server(&handler, nopt);
  ASSERT_TRUE(server.Start().ok());

  const kg::TripleStore store = ChainKg();
  DistTrainerOptions dopt;
  dopt.shard_endpoints = {StrFormat("127.0.0.1:%u", server.port())};
  dopt.num_workers = 1;
  dopt.batch_size = 4;
  dopt.learning_rate = 0.05f;
  dopt.max_inflight_pushes = 0;
  DistTrainer trainer(&store, dopt);
  ASSERT_TRUE(trainer.Connect().ok());
  ASSERT_TRUE(trainer.Train(2).ok());
  ASSERT_TRUE(trainer.PullFullModel().ok());
  EXPECT_GT(handler.id_only.load(), 0);
  EXPECT_EQ(handler.versioned.load(), 0);
  EXPECT_EQ(ShardStats(shard).Num("transfer_rows_from_log"), 0);
  // Dense pulls keep the replica exact too.
  for (uint32_t r = 0; r < opt.model.num_relations; ++r) {
    EXPECT_EQ(std::memcmp(trainer.replica()->transfer(r),
                          shard.model().transfer(r),
                          4 * static_cast<size_t>(opt.model.dim) *
                              opt.model.dim),
              0)
        << "transfer " << r;
  }
  shard.AbortBarriers();
  server.Stop();
}

TEST(ParamServerTest, StatsJsonCountsTransferAnswers) {
  ParamServerOptions opt;
  opt.model = TestModelOptions();
  opt.optimizer = core::OptimizerKind::kSgd;
  opt.learning_rate = 0.1f;
  for (const auto optimizer :
       {core::OptimizerKind::kSgd, core::OptimizerKind::kAdam}) {
    SCOPED_TRACE(optimizer == core::OptimizerKind::kSgd ? "sgd" : "adam");
    opt.optimizer = optimizer;
    ParamServer shard(opt);
    const auto pull = [&](std::vector<uint64_t> versions) {
      std::vector<PullSection> req(1);
      req[0].table = ParamTable::kTransfer;
      req[0].ids = {0, 1, 2};
      req[0].versions = std::move(versions);
      EXPECT_EQ(HandleOne(&shard, FrameType::kPullRows,
                          Payload(net::EncodePullRows(1, req)))
                    .type,
                FrameType::kRows);
    };
    pull({0, 0, 0});  // three up-to-date rows
    pull({});         // three id-only rows
    PushFactors(&shard, 1, 1);
    pull({0, 0, 7});  // one record for relation 1; version 7 is not yet
    const FlatJson stats = ShardStats(shard);
    if (optimizer == core::OptimizerKind::kSgd) {
      EXPECT_EQ(stats.Num("transfer_rows_from_log"), 5);
      EXPECT_EQ(stats.Num("transfer_rows_dense"), 4);
      EXPECT_EQ(stats.Num("transfer_log_bytes"),
                core::FactorGroupBlobBytes(opt.model.dim, 1));
    } else {
      // Adam shards keep no log and answer every versioned row dense.
      EXPECT_EQ(stats.Num("transfer_rows_from_log"), 0);
      EXPECT_EQ(stats.Num("transfer_rows_dense"), 9);
      EXPECT_EQ(stats.Num("transfer_log_bytes"), 0);
    }
    EXPECT_EQ(stats.Num("pulls"), 3);
    EXPECT_EQ(stats.Num("rows_pulled"), 9);
    EXPECT_EQ(stats.Num("pushes"), 1);
  }
}

}  // namespace
}  // namespace pkgm::dist
