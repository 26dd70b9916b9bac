#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/embedding_source.h"
#include "core/pkgm_model.h"
#include "core/service.h"
#include "flat_json.h"
#include "serve/bounded_queue.h"
#include "serve/knowledge_server.h"
#include "serve/load_gen.h"
#include "serve/request.h"
#include "serve/vector_cache.h"
#include "store/model_registry.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/rng.h"

namespace pkgm::serve {
namespace {

// A small provider over a deterministic model: items 0..9 map to entities
// 0..9; item 7 has an empty key-relation list (the provider explicitly
// allows that), the others have 1..4 relations.
struct Fixture {
  Fixture() {
    core::PkgmModelOptions mopt;
    mopt.num_entities = 20;
    mopt.num_relations = 5;
    mopt.dim = 8;
    mopt.seed = 17;
    model = std::make_unique<core::PkgmModel>(mopt);

    std::vector<kg::EntityId> entities;
    std::vector<std::vector<kg::RelationId>> rels;
    for (uint32_t i = 0; i < 10; ++i) {
      entities.push_back(i);
      std::vector<kg::RelationId> r;
      if (i != 7) {
        for (uint32_t j = 0; j <= i % 4; ++j) r.push_back((i + j) % 5);
      }
      rels.push_back(std::move(r));
    }
    provider = std::make_unique<core::ServiceVectorProvider>(
        model.get(), std::move(entities), std::move(rels));
  }

  std::unique_ptr<core::PkgmModel> model;
  std::unique_ptr<core::ServiceVectorProvider> provider;
};

// ---------------------------------------------------------- BoundedQueue --

TEST(BoundedQueueTest, RejectsWhenFullAndDrainsAfterClose) {
  BoundedQueue<int> q(2);
  int x = 1;
  EXPECT_TRUE(q.TryPush(std::move(x)));
  x = 2;
  EXPECT_TRUE(q.TryPush(std::move(x)));
  x = 3;
  EXPECT_FALSE(q.TryPush(std::move(x)));  // full
  EXPECT_EQ(q.size(), 2u);

  q.Close();
  x = 4;
  EXPECT_FALSE(q.TryPush(std::move(x)));  // closed
  int out = 0;
  EXPECT_TRUE(q.Pop(&out));  // graceful drain after Close
  EXPECT_EQ(out, 1);
  EXPECT_TRUE(q.Pop(&out));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(q.Pop(&out));  // closed and drained
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> q(1);
  std::atomic<bool> got{false};
  std::thread consumer([&] {
    int out = 0;
    ASSERT_TRUE(q.Pop(&out));
    EXPECT_EQ(out, 42);
    got = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(got.load());
  int x = 42;
  EXPECT_TRUE(q.TryPush(std::move(x)));
  consumer.join();
  EXPECT_TRUE(got.load());
}

TEST(BoundedQueueTest, CloseWakesEveryBlockedConsumer) {
  // Consumers parked in Pop on an empty queue must ALL wake when Close()
  // runs — a missed notify_all here deadlocks server shutdown.
  BoundedQueue<int> q(4);
  constexpr int kConsumers = 8;
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < kConsumers; ++i) {
    consumers.emplace_back([&] {
      int out = 0;
      while (q.Pop(&out)) {
      }
      ++woke;  // Pop returned false: closed and drained
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(woke.load(), 0);  // all parked

  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woke.load(), kConsumers);
}

TEST(BoundedQueueTest, CloseWhileFullStillDrainsThenWakes) {
  // Close() with a full queue: queued elements are still handed out
  // (graceful drain), then blocked consumers see closed-and-empty.
  BoundedQueue<int> q(2);
  int x = 1;
  ASSERT_TRUE(q.TryPush(std::move(x)));
  x = 2;
  ASSERT_TRUE(q.TryPush(std::move(x)));

  std::atomic<int> popped{0}, finished{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 4; ++i) {
    consumers.emplace_back([&] {
      int out = 0;
      while (q.Pop(&out)) ++popped;
      ++finished;
    });
  }
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(popped.load(), 2);
  EXPECT_EQ(finished.load(), 4);
  EXPECT_EQ(q.size(), 0u);
}

// ------------------------------------------------------ ShardedVectorCache --

TEST(ShardedVectorCacheTest, LruEvictionAndCounters) {
  ShardedVectorCache cache(/*capacity=*/2, /*num_shards=*/1);
  Vec out;
  EXPECT_FALSE(cache.Lookup(0, core::ServiceMode::kAll, &out));
  cache.Insert(0, core::ServiceMode::kAll, Vec({1.0f}), cache.generation());
  cache.Insert(1, core::ServiceMode::kAll, Vec({2.0f}), cache.generation());
  // Touch 0 so 1 becomes the LRU victim.
  EXPECT_TRUE(cache.Lookup(0, core::ServiceMode::kAll, &out));
  cache.Insert(2, core::ServiceMode::kAll, Vec({3.0f}), cache.generation());

  EXPECT_TRUE(cache.Lookup(0, core::ServiceMode::kAll, &out));
  EXPECT_EQ(out, Vec({1.0f}));
  EXPECT_FALSE(cache.Lookup(1, core::ServiceMode::kAll, &out));  // evicted
  EXPECT_TRUE(cache.Lookup(2, core::ServiceMode::kAll, &out));

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);  // initial lookup of 0 + post-eviction lookup of 1
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(ShardedVectorCacheTest, ModeIsPartOfTheKey) {
  ShardedVectorCache cache(8, 2);
  cache.Insert(3, core::ServiceMode::kTripleOnly, Vec({1.0f}), cache.generation());
  Vec out;
  EXPECT_FALSE(cache.Lookup(3, core::ServiceMode::kRelationOnly, &out));
  EXPECT_FALSE(cache.Lookup(3, core::ServiceMode::kAll, &out));
  EXPECT_TRUE(cache.Lookup(3, core::ServiceMode::kTripleOnly, &out));
}

TEST(ShardedVectorCacheTest, InvalidateDropsEntriesKeepsCounters) {
  ShardedVectorCache cache(16, 4);
  Vec out;
  cache.Insert(1, core::ServiceMode::kAll, Vec({1.0f}), cache.generation());
  EXPECT_TRUE(cache.Lookup(1, core::ServiceMode::kAll, &out));
  cache.Invalidate();
  EXPECT_FALSE(cache.Lookup(1, core::ServiceMode::kAll, &out));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);  // the post-Invalidate lookup
}

// Regression for the stale-repopulation race: a value computed against the
// old model must not land in the cache after an Invalidate() — the insert
// carries the generation it was computed under and is dropped.
TEST(ShardedVectorCacheTest, InvalidateDuringInsertDropsStaleValue) {
  ShardedVectorCache cache(16, 2);
  // The caller snapshots the generation before reading the model...
  const uint64_t gen = cache.generation();
  // ...the model is swapped and the cache invalidated mid-computation...
  cache.Invalidate();
  // ...and the stale insert must be rejected.
  cache.Insert(5, core::ServiceMode::kAll, Vec({9.0f}), gen);
  Vec out;
  EXPECT_FALSE(cache.Lookup(5, core::ServiceMode::kAll, &out));
  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.stale_inserts, 1u);

  // A fresh-generation insert goes through.
  cache.Insert(5, core::ServiceMode::kAll, Vec({3.0f}), cache.generation());
  EXPECT_TRUE(cache.Lookup(5, core::ServiceMode::kAll, &out));
  EXPECT_EQ(out, Vec({3.0f}));
}

// Concurrent hammering: one thread invalidates while others insert with
// generations snapshotted before their (simulated) computation. After the
// final invalidate+settle, no entry may hold a value tagged before the
// last invalidation — i.e. every surviving entry was inserted with the
// current generation.
TEST(ShardedVectorCacheTest, InvalidateDuringConcurrentInsertsNeverGoesStale) {
  ShardedVectorCache cache(64, 4);
  std::atomic<bool> stop{false};
  std::thread invalidator([&] {
    for (int i = 0; i < 200; ++i) cache.Invalidate();
    stop = true;
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      uint32_t item = 0;
      while (!stop.load()) {
        const uint64_t gen = cache.generation();
        // The "computation" the generation snapshot protects.
        Vec value({static_cast<float>(w)});
        cache.Insert(item++ % 32, core::ServiceMode::kAll, value, gen);
      }
    });
  }
  invalidator.join();
  for (auto& t : writers) t.join();

  // One final invalidate: everything inserted before it must be gone and
  // nothing tagged with an older generation may ever reappear.
  cache.Invalidate();
  Vec out;
  for (uint32_t item = 0; item < 32; ++item) {
    EXPECT_FALSE(cache.Lookup(item, core::ServiceMode::kAll, &out));
  }
  EXPECT_EQ(cache.Stats().entries, 0u);
}

// -------------------------------------------------------- KnowledgeServer --

TEST(KnowledgeServerTest, QueueFullRejection) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.num_workers = 1;
  opt.queue_capacity = 2;  // batches
  KnowledgeServer server(fx.provider.get(), opt);
  // Not started: submissions park in the queue, so capacity is exercised
  // deterministically.
  auto f1 = server.SubmitBatch({ServiceRequest{}, ServiceRequest{}});
  auto f2 = server.Submit(ServiceRequest{});
  auto f3 = server.Submit(ServiceRequest{});  // queue full → rejected

  ServiceResponse rejected = f3.get();
  EXPECT_EQ(rejected.code, ResponseCode::kRejected);
  EXPECT_TRUE(rejected.vectors.empty());
  EXPECT_EQ(server.stats().rejected(), 1u);
  EXPECT_EQ(server.stats().accepted(), 3u);
  EXPECT_EQ(server.queue_depth(), 3u);

  server.Start();
  for (auto& f : f1) EXPECT_EQ(f.get().code, ResponseCode::kOk);
  EXPECT_EQ(f2.get().code, ResponseCode::kOk);
  server.Stop();
  EXPECT_EQ(server.queue_depth(), 0u);
  EXPECT_EQ(server.stats().ok(), 3u);
}

TEST(KnowledgeServerTest, SubmitBatchRejectionIsAllOrNothing) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.queue_capacity = 1;
  KnowledgeServer server(fx.provider.get(), opt);
  // Not started: the first batch fills the queue.
  auto accepted = server.SubmitBatch(
      {ServiceRequest{}, ServiceRequest{}, ServiceRequest{}});
  EXPECT_EQ(server.queue_depth(), 3u);

  // A rejected batch must reject EVERY request and must not leak into the
  // pending gauge — queue_depth() stays exactly at the accepted count.
  for (int attempt = 0; attempt < 5; ++attempt) {
    auto rejected = server.SubmitBatch({ServiceRequest{}, ServiceRequest{}});
    ASSERT_EQ(rejected.size(), 2u);
    for (auto& f : rejected) {
      EXPECT_EQ(f.get().code, ResponseCode::kRejected);
    }
    EXPECT_EQ(server.queue_depth(), 3u);
  }
  EXPECT_EQ(server.stats().rejected(), 10u);
  EXPECT_EQ(server.stats().accepted(), 3u);

  server.Start();
  for (auto& f : accepted) EXPECT_EQ(f.get().code, ResponseCode::kOk);
  server.Stop();
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(KnowledgeServerTest, SubmitBatchAsyncDeliversEveryCompletion) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();

  constexpr size_t kBatch = 10;
  std::vector<ServiceRequest> requests;
  for (uint32_t i = 0; i < kBatch; ++i) {
    ServiceRequest request;
    request.item = i;
    requests.push_back(request);
  }
  std::mutex mu;
  std::vector<ServiceResponse> responses(kBatch);
  std::vector<int> calls(kBatch, 0);
  std::promise<void> all_done;
  std::atomic<size_t> remaining{kBatch};
  server.SubmitBatchAsync(requests, [&](size_t index, ServiceResponse r) {
    std::lock_guard<std::mutex> lock(mu);
    ASSERT_LT(index, kBatch);
    ++calls[index];
    responses[index] = std::move(r);
    if (remaining.fetch_sub(1) == 1) all_done.set_value();
  });
  all_done.get_future().wait();

  for (size_t i = 0; i < kBatch; ++i) {
    EXPECT_EQ(calls[i], 1) << "index " << i;  // exactly once per request
    EXPECT_EQ(responses[i].code, ResponseCode::kOk);
    // Async and future paths serve identical bytes.
    ServiceResponse direct = server.Submit(requests[i]).get();
    ASSERT_EQ(responses[i].vectors.size(), direct.vectors.size());
    for (size_t v = 0; v < direct.vectors.size(); ++v) {
      EXPECT_EQ(responses[i].vectors[v], direct.vectors[v]);
    }
  }
  server.Stop();
}

TEST(KnowledgeServerTest, SubmitBatchAsyncRejectionCallsBackSynchronously) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.queue_capacity = 1;
  KnowledgeServer server(fx.provider.get(), opt);
  auto parked = server.SubmitBatch({ServiceRequest{}});  // fills the queue

  std::vector<size_t> indices;
  server.SubmitBatchAsync(
      {ServiceRequest{}, ServiceRequest{}},
      [&](size_t index, ServiceResponse r) {
        // Rejection runs on the submitting thread, so plain mutation is
        // safe here.
        indices.push_back(index);
        EXPECT_EQ(r.code, ResponseCode::kRejected);
      });
  EXPECT_EQ(indices, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(server.queue_depth(), 1u);

  server.Start();
  EXPECT_EQ(parked[0].get().code, ResponseCode::kOk);
  server.Stop();
}

TEST(KnowledgeServerTest, SubmitAfterStopIsRejected) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  server.Stop();
  EXPECT_EQ(server.Submit(ServiceRequest{}).get().code,
            ResponseCode::kRejected);
}

TEST(KnowledgeServerTest, DeadlineExpiry) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.num_workers = 1;
  KnowledgeServer server(fx.provider.get(), opt);

  ServiceRequest expired;
  expired.item = 1;
  expired.deadline = ServeClock::now() - std::chrono::milliseconds(1);
  ServiceRequest alive;
  alive.item = 1;  // no deadline
  auto futures = server.SubmitBatch({expired, alive});
  server.Start();

  ServiceResponse r0 = futures[0].get();
  EXPECT_EQ(r0.code, ResponseCode::kDeadlineExceeded);
  EXPECT_TRUE(r0.vectors.empty());
  EXPECT_EQ(futures[1].get().code, ResponseCode::kOk);
  server.Stop();
  EXPECT_EQ(server.stats().deadline_exceeded(), 1u);
}

TEST(KnowledgeServerTest, InvalidItem) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServiceRequest request;
  request.item = fx.provider->num_items();  // one past the end
  EXPECT_EQ(server.Submit(request).get().code, ResponseCode::kInvalidItem);
  server.Stop();
  EXPECT_EQ(server.stats().invalid_item(), 1u);
}

TEST(KnowledgeServerTest, CondensedMatchesProviderOnMissAndHit) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  for (core::ServiceMode mode :
       {core::ServiceMode::kTripleOnly, core::ServiceMode::kRelationOnly,
        core::ServiceMode::kAll}) {
    ServiceRequest request;
    request.item = 3;
    request.mode = mode;
    request.form = ServiceForm::kCondensed;
    const Vec expected = fx.provider->Condensed(3, mode);

    ServiceResponse miss = server.Submit(request).get();
    ASSERT_EQ(miss.code, ResponseCode::kOk);
    EXPECT_FALSE(miss.cache_hit);
    ASSERT_EQ(miss.vectors.size(), 1u);
    EXPECT_EQ(miss.vectors[0], expected);  // bit-for-bit

    ServiceResponse hit = server.Submit(request).get();
    ASSERT_EQ(hit.code, ResponseCode::kOk);
    EXPECT_TRUE(hit.cache_hit);
    ASSERT_EQ(hit.vectors.size(), 1u);
    EXPECT_EQ(hit.vectors[0], expected);  // bit-for-bit
  }
  server.Stop();
}

TEST(KnowledgeServerTest, SequenceMatchesProviderAndBypassesCache) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServiceRequest request;
  request.item = 5;
  request.mode = core::ServiceMode::kAll;
  request.form = ServiceForm::kSequence;
  const std::vector<Vec> expected =
      fx.provider->Sequence(5, core::ServiceMode::kAll);

  for (int round = 0; round < 2; ++round) {
    ServiceResponse response = server.Submit(request).get();
    ASSERT_EQ(response.code, ResponseCode::kOk);
    EXPECT_FALSE(response.cache_hit);
    ASSERT_EQ(response.vectors.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(response.vectors[i], expected[i]);
    }
  }
  server.Stop();
  EXPECT_EQ(server.cache()->Stats().entries, 0u);
}

TEST(KnowledgeServerTest, EmptyKeyRelationItemServes) {
  Fixture fx;
  ASSERT_EQ(fx.provider->NumKeyRelations(7), 0u);
  KnowledgeServer server(fx.provider.get());
  server.Start();

  ServiceRequest condensed;
  condensed.item = 7;
  ServiceResponse response = server.Submit(condensed).get();
  ASSERT_EQ(response.code, ResponseCode::kOk);
  ASSERT_EQ(response.vectors.size(), 1u);
  EXPECT_EQ(response.vectors[0],
            fx.provider->Condensed(7, core::ServiceMode::kAll));

  ServiceRequest sequence;
  sequence.item = 7;
  sequence.form = ServiceForm::kSequence;
  EXPECT_TRUE(server.Submit(sequence).get().vectors.empty());
  server.Stop();
}

TEST(KnowledgeServerTest, CacheInvalidation) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServiceRequest request;
  request.item = 2;

  EXPECT_FALSE(server.Submit(request).get().cache_hit);
  EXPECT_TRUE(server.Submit(request).get().cache_hit);
  server.InvalidateCache();
  EXPECT_FALSE(server.Submit(request).get().cache_hit);  // recomputed
  EXPECT_TRUE(server.Submit(request).get().cache_hit);
  server.Stop();
}

TEST(KnowledgeServerTest, CacheDisabled) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.enable_cache = false;
  KnowledgeServer server(fx.provider.get(), opt);
  EXPECT_EQ(server.cache(), nullptr);
  server.Start();
  ServiceRequest request;
  request.item = 2;
  EXPECT_FALSE(server.Submit(request).get().cache_hit);
  EXPECT_FALSE(server.Submit(request).get().cache_hit);
  server.Stop();
}

TEST(KnowledgeServerTest, ConcurrentRequestsMatchDirectComputation) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.num_workers = 3;
  opt.cache_capacity = 16;  // small: force eviction + recompute churn
  opt.cache_shards = 2;
  KnowledgeServer server(fx.provider.get(), opt);
  server.Start();

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 250;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        ServiceRequest request;
        request.item = static_cast<uint32_t>(
            rng.Uniform(fx.provider->num_items()));
        request.mode = static_cast<core::ServiceMode>(rng.Uniform(3));
        request.form = rng.Bernoulli(0.5) ? ServiceForm::kCondensed
                                          : ServiceForm::kSequence;
        ServiceResponse response = server.Submit(request).get();
        if (response.code != ResponseCode::kOk) {
          ++mismatches;
          continue;
        }
        if (request.form == ServiceForm::kCondensed) {
          if (response.vectors.size() != 1 ||
              response.vectors[0] !=
                  fx.provider->Condensed(request.item, request.mode)) {
            ++mismatches;
          }
        } else {
          const auto expected =
              fx.provider->Sequence(request.item, request.mode);
          if (response.vectors != expected) ++mismatches;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().ok(),
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(server.queue_depth(), 0u);
}

TEST(KnowledgeServerTest, StatsReportRenders) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  server.Submit(ServiceRequest{}).get();
  server.Stop();
  const std::string report = server.StatsReport();
  EXPECT_NE(report.find("| accepted "), std::string::npos) << report;
  EXPECT_NE(report.find("| cache.hit_rate "), std::string::npos) << report;
  EXPECT_NE(report.find("| latency.queue.p99_us "), std::string::npos)
      << report;
  EXPECT_NE(report.find("| latency.queue.count "), std::string::npos)
      << report;

  // The report renders the snapshot: every number in it is a row named by
  // its path.
  NetCounters net;
  net.io_backend = "epoll";
  const std::string json = server.StatsJson(&net);
  const std::optional<FlatJson> doc = FlatJson::Parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const std::string net_report = server.StatsReport(&net);
  size_t numbers = 0;
  for (const std::string& path : doc->Paths()) {
    if (std::isnan(doc->Num(path))) continue;
    ++numbers;
    EXPECT_NE(net_report.find("| " + path + " "), std::string::npos)
        << path << " in\n" << net_report;
  }
  EXPECT_GT(numbers, 40u);
}

TEST(KnowledgeServerTest, BackendReportsActiveKernelIsa) {
  // The backend line must name the kernel ISA serving this process so perf
  // regressions in reports are attributable; with PKGM_KERNEL set (the CI
  // scalar matrix leg), the env value round-trips into the report.
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  const std::string expected =
      std::string("kernels=") + simd::ActiveIsaName();
  EXPECT_NE(server.stats().backend().find(expected), std::string::npos)
      << "backend: " << server.stats().backend();
  if (const char* env = std::getenv("PKGM_KERNEL")) {
    simd::KernelIsa requested;
    if (simd::ParseKernelIsa(env, &requested) &&
        simd::KernelsForIsa(requested) != nullptr) {
      EXPECT_NE(server.stats().backend().find(std::string("kernels=") + env),
                std::string::npos)
          << "backend: " << server.stats().backend();
    }
  }
}

// ------------------------------------------------- coalescing + quotas --

// EmbeddingSource decorator whose first EntityRow call blocks until
// Release(); lets a test hold a backend fetch open while concurrent
// requests for the same key pile up behind the coalescer.
class GatedSource : public core::EmbeddingSource {
 public:
  explicit GatedSource(const core::EmbeddingSource* inner) : inner_(inner) {}

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  uint32_t num_entities() const override { return inner_->num_entities(); }
  uint32_t num_relations() const override { return inner_->num_relations(); }
  uint32_t dim() const override { return inner_->dim(); }
  core::TripleScorerKind scorer() const override { return inner_->scorer(); }
  bool has_relation_module() const override {
    return inner_->has_relation_module();
  }
  const float* EntityRow(uint32_t e, float* scratch) const override {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return released_; });
    return inner_->EntityRow(e, scratch);
  }
  const float* RelationRow(uint32_t r, float* scratch) const override {
    return inner_->RelationRow(r, scratch);
  }
  const float* TransferRow(uint32_t r, float* scratch) const override {
    return inner_->TransferRow(r, scratch);
  }
  const float* HyperplaneRow(uint32_t r, float* scratch) const override {
    return inner_->HyperplaneRow(r, scratch);
  }

 private:
  const core::EmbeddingSource* inner_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool released_ = false;
};

core::ServiceVectorProvider ProviderOver(const core::EmbeddingSource* source,
                                         const core::ServiceVectorProvider& ref) {
  std::vector<kg::EntityId> items;
  std::vector<std::vector<kg::RelationId>> rels;
  for (uint32_t i = 0; i < ref.num_items(); ++i) {
    items.push_back(ref.item_entity(i));
    rels.push_back(ref.key_relations(i));
  }
  return core::ServiceVectorProvider(source, std::move(items),
                                     std::move(rels));
}

TEST(KnowledgeServerTest, CoalescingHerdDoesOneBackendFetch) {
  Fixture fx;
  GatedSource gate(fx.model.get());
  core::ServiceVectorProvider slow = ProviderOver(&gate, *fx.provider);

  KnowledgeServerOptions opt;
  opt.num_workers = 4;
  opt.enable_cache = true;
  opt.enable_coalescing = true;
  KnowledgeServer server(&slow, opt);
  server.Start();

  // Four concurrent misses on the same key: one leader blocks inside the
  // gated backend; the other three must join its flight rather than fetch.
  std::vector<std::future<ServiceResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    ServiceRequest request;
    request.item = 3;
    futures.push_back(server.Submit(request));
  }
  // Wait (bounded) until the three joiners have attached, then release the
  // leader's fetch.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.coalescer()->stats().joined < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.coalescer()->stats().joined, 3u);
  gate.Release();

  const Vec want = fx.provider->Condensed(3, core::ServiceMode::kAll);
  for (auto& future : futures) {
    ServiceResponse response = future.get();
    ASSERT_EQ(response.code, ResponseCode::kOk);
    ASSERT_EQ(response.vectors.size(), 1u);
    EXPECT_EQ(response.vectors[0], want);
  }
  EXPECT_EQ(server.stats().backend_fetches(), 1u);
  EXPECT_EQ(server.coalescer()->stats().leaders, 1u);
  EXPECT_EQ(server.stats().coalesced(), 3u);
  server.Stop();
}

TEST(KnowledgeServerTest, SwapDuringCoalescedFlightServesFreshAfterwards) {
  // A flight that spans a model hot-swap must not leave the old model's
  // vector in the cache: the leader's insert carries the cache generation
  // snapshotted before the fetch, and the generation-tagged cache drops it.
  core::PkgmModelOptions mopt;
  mopt.num_entities = 20;
  mopt.num_relations = 5;
  mopt.dim = 8;
  mopt.seed = 17;
  auto model_a = std::make_shared<core::PkgmModel>(mopt);
  mopt.seed = 99;
  auto model_b = std::make_shared<core::PkgmModel>(mopt);

  std::vector<kg::EntityId> items{0, 1, 2, 3};
  std::vector<std::vector<kg::RelationId>> rels{{0}, {1}, {2, 3}, {4}};
  auto gate = std::make_shared<GatedSource>(model_a.get());
  auto provider_a = std::make_shared<core::ServiceVectorProvider>(
      gate.get(), items, rels);
  auto provider_b = std::make_shared<core::ServiceVectorProvider>(
      model_b.get(), items, rels);

  store::ModelRegistry registry;
  registry.Publish(gate, provider_a, {});

  KnowledgeServerOptions opt;
  opt.num_workers = 2;
  opt.enable_cache = true;
  opt.enable_coalescing = true;
  KnowledgeServer server(&registry, opt);
  server.Start();

  // Leader snapshots generation 1 and blocks inside model A's backend.
  ServiceRequest request;
  request.item = 2;
  auto in_flight = server.Submit(request);

  // Hot-swap to model B while the flight is open, then let it finish.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  registry.Publish(model_b, provider_b, {});
  gate->Release();
  ServiceResponse stale = in_flight.get();
  ASSERT_EQ(stale.code, ResponseCode::kOk);

  // The next request runs on generation 2; if the stale insert survived
  // the swap it would be served from cache here.
  const Vec want_b = provider_b->Condensed(2, core::ServiceMode::kAll);
  ServiceResponse fresh = server.Submit(request).get();
  ASSERT_EQ(fresh.code, ResponseCode::kOk);
  ASSERT_EQ(fresh.vectors.size(), 1u);
  EXPECT_EQ(fresh.vectors[0], want_b);
  server.Stop();
}

TEST(KnowledgeServerTest, QuotaShedsDeterministicallyAndIsCounted) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.num_workers = 2;
  // rate 0 + burst 4: each tenant gets exactly 4 admits, ever — the
  // deterministic configuration for testing.
  opt.tenant_rate = 0.0;
  opt.tenant_burst = 4.0;
  KnowledgeServer server(fx.provider.get(), opt);
  server.Start();

  std::vector<ServiceRequest> batch(10);
  for (auto& request : batch) {
    request.item = 1;
    request.tenant = 5;
  }
  auto futures = server.SubmitBatch(std::move(batch));
  int ok = 0, shed = 0;
  for (auto& future : futures) {
    const ResponseCode code = future.get().code;
    if (code == ResponseCode::kOk) ++ok;
    if (code == ResponseCode::kQuotaExceeded) ++shed;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(shed, 6);
  EXPECT_EQ(server.stats().quota_rejected(), 6u);
  EXPECT_EQ(server.quotas()->shed_count(), 6u);

  // A different tenant draws from its own bucket.
  ServiceRequest other;
  other.item = 1;
  other.tenant = 6;
  EXPECT_EQ(server.Submit(other).get().code, ResponseCode::kOk);

  // Tenant 5 is dry: even a fresh single submit is shed.
  ServiceRequest again;
  again.item = 1;
  again.tenant = 5;
  EXPECT_EQ(server.Submit(again).get().code, ResponseCode::kQuotaExceeded);
  EXPECT_EQ(server.stats().quota_rejected(), 7u);
  server.Stop();
}

TEST(KnowledgeServerTest, StatsJsonSchemaKeepsOldKeysAndAddsTail) {
  Fixture fx;
  KnowledgeServerOptions opt;
  opt.enable_cache = true;
  opt.enable_coalescing = true;
  opt.tenant_rate = 0.0;
  opt.tenant_burst = 1.0;
  KnowledgeServer server(fx.provider.get(), opt);
  server.Start();
  for (int i = 0; i < 3; ++i) {
    ServiceRequest request;
    request.item = 2;
    request.tenant = 9;
    server.Submit(request).get();
  }
  server.Stop();

  const std::string json = server.StatsJson();
  const std::optional<FlatJson> doc = FlatJson::Parse(json);
  ASSERT_TRUE(doc.has_value()) << json;
  // Pre-existing schema keys must survive (dashboards parse these).
  for (const char* path :
       {"accepted", "rejected", "ok", "latency.queue.p50_us",
        "latency.execute.p50_us", "latency.queue.p95_us",
        "latency.execute.p95_us", "latency.queue.p99_us",
        "latency.execute.p99_us", "cache", "queue_depth"}) {
    EXPECT_TRUE(doc->Has(path)) << path << " missing from " << json;
  }
  // New tail-latency keys.
  for (const char* path :
       {"latency.queue.p999_us", "latency.execute.p999_us", "quota_rejected",
        "backend_fetches", "coalesced", "coalescer", "coalescer.leaders",
        "coalescer.joined", "coalescer.bypassed"}) {
    EXPECT_TRUE(doc->Has(path)) << path << " missing from " << json;
  }
  EXPECT_EQ(doc->Num("quota_rejected"), 2) << json;
}

// ------------------------------------------------------------ RunLoadGen --

// Runs `options` against an in-process server with every task kind in the
// mix, counting each request's completions. No executor is attached, so
// lookups come back kOk and the inference kinds kRejected; the queue holds
// the whole run, so admission sheds nothing however slow the host. Every
// submit carries at most `options.batch` requests, and a closed loop never
// has more than `options.threads` batches in flight. With `stop_after` > 0
// the stop flag rises once that many requests have been submitted.
LoadGenReport ExpectEveryRequestCompletesOnce(LoadGenOptions options,
                                              uint64_t stop_after = 0) {
  Fixture fx;
  KnowledgeServerOptions sopt;
  sopt.num_workers = 2;
  sopt.queue_capacity = options.total_requests;
  KnowledgeServer server(fx.provider.get(), sopt);
  server.Start();

  options.num_items = fx.provider->num_items();
  options.mix[0] = 0.4;
  options.mix[1] = 0.2;
  options.mix[2] = 0.2;
  options.mix[3] = 0.2;
  std::vector<std::atomic<int>> calls(options.total_requests);
  std::atomic<size_t> submitted{0};
  std::atomic<size_t> batches_in_flight{0};
  std::atomic<size_t> max_batches_in_flight{0};
  std::atomic<bool> stop{false};
  const LoadGenReport report = RunLoadGen(
      options,
      [&](std::vector<ServiceRequest> batch, BatchCallback done) {
        EXPECT_GE(batch.size(), 1u);
        EXPECT_LE(batch.size(), options.batch);
        const size_t first = submitted.fetch_add(batch.size());
        ASSERT_LE(first + batch.size(), calls.size());
        if (stop_after > 0 && first + batch.size() >= stop_after) stop = true;
        const size_t in_flight = batches_in_flight.fetch_add(1) + 1;
        size_t seen = max_batches_in_flight.load();
        while (in_flight > seen &&
               !max_batches_in_flight.compare_exchange_weak(seen, in_flight)) {
        }
        // The batch leaves the in-flight count before its last request's
        // completion reaches the generator.
        auto left = std::make_shared<std::atomic<size_t>>(batch.size());
        server.SubmitBatchAsync(
            std::move(batch),
            [&calls, &batches_in_flight, first, left, done = std::move(done)](
                size_t index, ServiceResponse response) {
              calls[first + index].fetch_add(1);
              if (left->fetch_sub(1) == 1) batches_in_flight.fetch_sub(1);
              done(index, std::move(response));
            });
      },
      &stop);
  server.Stop();

  if (stop_after == 0) {
    EXPECT_EQ(submitted.load(), options.total_requests);
  }
  for (size_t i = 0; i < calls.size(); ++i) {
    EXPECT_EQ(calls[i].load(), i < submitted.load() ? 1 : 0) << "request " << i;
  }
  if (!options.open_loop) {
    EXPECT_LE(max_batches_in_flight.load(), options.threads);
  }
  EXPECT_EQ(report.submitted, submitted.load());
  EXPECT_EQ(report.completed, report.submitted);
  EXPECT_EQ(report.ok + report.rejected + report.quota_rejected +
                report.deadline_exceeded + report.invalid_item +
                report.network_error,
            report.completed);
  uint64_t task_completed = 0;
  uint64_t task_ok = 0;
  for (uint8_t k = 0; k <= kMaxTaskKind; ++k) {
    EXPECT_GT(report.task_completed[k], 0u) << TaskKindName(TaskKind{k});
    EXPECT_EQ(report.task_latency_us[k].count(), report.task_completed[k]);
    task_completed += report.task_completed[k];
    task_ok += report.task_ok[k];
  }
  EXPECT_EQ(task_completed, report.completed);
  EXPECT_EQ(task_ok, report.ok);
  const uint64_t lookups = report.task_completed[0];
  EXPECT_EQ(report.ok, lookups);
  EXPECT_EQ(report.rejected, report.completed - lookups);
  return report;
}

TEST(LoadGenTest, OpenLoopCompletesEveryRequestOnce) {
  LoadGenOptions options;
  options.rate_qps = 100000.0;
  options.total_requests = 3000;
  options.threads = 3;
  ExpectEveryRequestCompletesOnce(options);
}

TEST(LoadGenTest, ClosedLoopCompletesEveryRequestOnce) {
  // Each generator thread parks until its request completes on a server
  // worker; the completion must not touch the thread's wait state once the
  // thread can see it done.
  LoadGenOptions options;
  options.rate_qps = 100000.0;
  options.total_requests = 3000;
  options.threads = 3;
  options.open_loop = false;
  ExpectEveryRequestCompletesOnce(options);
}

TEST(LoadGenTest, BatchesCompleteEveryRequestOnceInBothLoops) {
  // 1,000 requests per thread in batches of 7: each thread's last batch
  // carries the remaining 6.
  for (bool open_loop : {true, false}) {
    SCOPED_TRACE(open_loop ? "open loop" : "closed loop");
    LoadGenOptions options;
    options.rate_qps = 100000.0;
    options.total_requests = 3000;
    options.threads = 3;
    options.batch = 7;
    options.open_loop = open_loop;
    ExpectEveryRequestCompletesOnce(options);
  }
}

TEST(LoadGenTest, UnpacedClosedLoopKeepsOneBatchPerThreadInFlight) {
  LoadGenOptions options;
  options.rate_qps = 0.0;
  options.open_loop = false;
  options.total_requests = 3000;
  options.threads = 3;
  options.batch = 4;
  const LoadGenReport report = ExpectEveryRequestCompletesOnce(options);
  EXPECT_EQ(report.offered_qps, 0.0);
  EXPECT_GT(report.achieved_qps, 0.0);
}

TEST(LoadGenTest, StopFlagEndsTheRunEarly) {
  // Each thread sends at most one more batch once the flag is up, and still
  // waits for everything it sent.
  for (double rate : {100000.0, 0.0}) {
    SCOPED_TRACE(rate > 0.0 ? "open loop" : "unpaced closed loop");
    LoadGenOptions options;
    options.rate_qps = rate;
    options.open_loop = rate > 0.0;
    options.total_requests = 3000;
    options.threads = 3;
    options.batch = 4;
    const LoadGenReport report =
        ExpectEveryRequestCompletesOnce(options, /*stop_after=*/1000);
    EXPECT_GE(report.submitted, 1000u);
    EXPECT_LT(report.submitted, options.total_requests);
  }
}

}  // namespace
}  // namespace pkgm::serve
