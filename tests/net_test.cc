// End-to-end tests for the network serving subsystem: NetServer + NetClient
// over loopback against a real KnowledgeServer. The core acceptance
// property is parity — vectors served over the socket are bit-identical to
// direct KnowledgeServer::Submit — including across a registry hot swap
// mid-stream.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <initializer_list>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/pkgm_model.h"
#include "core/service.h"
#include "dist/param_server.h"
#include "flat_json.h"
#include "mutation.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "net/serving_handler.h"
#include "net/socket_util.h"
#include "net/wire.h"
#include "serve/knowledge_server.h"
#include "serve/request.h"
#include "store/model_registry.h"

namespace pkgm::net {
namespace {

using serve::KnowledgeServer;
using serve::KnowledgeServerOptions;
using serve::ResponseCode;
using serve::ServeClock;
using serve::ServiceForm;
using serve::ServiceRequest;
using serve::ServiceResponse;
using serve::TaskKind;

// Same deterministic provider shape as serve_test: items 0..9 over a
// 20-entity model; item 7 has no key relations.
struct Fixture {
  Fixture() {
    core::PkgmModelOptions mopt;
    mopt.num_entities = 20;
    mopt.num_relations = 5;
    mopt.dim = 8;
    mopt.seed = 17;
    model = std::make_shared<core::PkgmModel>(mopt);
    provider = MakeProvider();
  }

  std::shared_ptr<core::ServiceVectorProvider> MakeProvider() const {
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
    return std::make_shared<core::ServiceVectorProvider>(
        model.get(), std::move(entities), std::move(rels));
  }

  std::shared_ptr<core::PkgmModel> model;
  std::shared_ptr<core::ServiceVectorProvider> provider;
};

ServiceRequest MakeRequest(uint32_t item, ServiceForm form,
                           core::ServiceMode mode = core::ServiceMode::kAll) {
  ServiceRequest request;
  request.item = item;
  request.mode = mode;
  request.form = form;
  return request;
}

void ExpectSameResponse(const ServiceResponse& net,
                        const ServiceResponse& direct) {
  ASSERT_EQ(net.code, direct.code);
  ASSERT_EQ(net.vectors.size(), direct.vectors.size());
  for (size_t v = 0; v < direct.vectors.size(); ++v) {
    ASSERT_EQ(net.vectors[v].size(), direct.vectors[v].size());
    EXPECT_EQ(std::memcmp(net.vectors[v].data(), direct.vectors[v].data(),
                          direct.vectors[v].size() * sizeof(float)),
              0);
  }
}

/// Blocking raw-socket helpers for protocol-level tests that a well-behaved
/// NetClient cannot express.
bool RawSend(int fd, const std::string& bytes) {
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + written,
                             bytes.size() - written, MSG_NOSIGNAL);
    if (n <= 0) return false;
    written += static_cast<size_t>(n);
  }
  return true;
}

/// Reads until one full frame decodes or the peer closes; false on close.
bool RawReadFrame(int fd, FrameDecoder* decoder, Frame* frame) {
  std::string error;
  char buf[4096];
  while (true) {
    switch (decoder->Next(frame, &error)) {
      case FrameDecoder::Result::kFrame: return true;
      case FrameDecoder::Result::kError: return false;
      case FrameDecoder::Result::kNeedMore: break;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) return false;
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

// The kStats snapshots' schema: every flattened key path, in document
// order. The smokes, pkgm_serve, perfbench and dashboards read these paths
// by name, so a change here is an interface change.

/// The "net" object (NetCounters::WriteJson) every daemon's snapshot holds.
const std::vector<std::string> kNetPaths = {
    "net.connections_accepted", "net.connections_closed",
    "net.connections_active", "net.frames_in", "net.frames_out",
    "net.bytes_in", "net.bytes_out", "net.requests_in",
    "net.protocol_errors", "net.backpressure_disconnects",
    "net.idle_disconnects", "net.io_backend", "net.io_wait_calls",
    "net.io_recv_syscalls", "net.io_send_syscalls",
    "net.frames_per_syscall"};

/// pkgm_netd's counters ahead of its cache object.
const std::vector<std::string> kServerCounterPaths = {
    "backend", "accepted", "rejected", "quota_rejected", "ok",
    "deadline_exceeded", "invalid_item", "exec_rejected", "backend_fetches",
    "coalesced", "queue_depth", "tasks.lookup", "tasks.recommend",
    "tasks.classify", "tasks.align"};

const std::vector<std::string> kCachePaths = {
    "cache.hits",    "cache.misses",  "cache.hit_rate",
    "cache.evictions", "cache.entries", "cache.stale_inserts"};

const std::vector<std::string> kCoalescerPaths = {
    "coalescer.leaders", "coalescer.joined", "coalescer.bypassed"};

/// Both stages after at least one request (an empty stage holds only its
/// count).
const std::vector<std::string> kLatencyPaths = {
    "latency.queue.count",     "latency.queue.p50_us",
    "latency.queue.p95_us",    "latency.queue.p99_us",
    "latency.queue.p999_us",   "latency.queue.mean_us",
    "latency.execute.count",   "latency.execute.p50_us",
    "latency.execute.p95_us",  "latency.execute.p99_us",
    "latency.execute.p999_us", "latency.execute.mean_us"};

/// pkgm_psd's shard counters after its "net" object.
const std::vector<std::string> kShardPaths = {
    "shard", "num_shards", "optimizer", "pulls", "rows_pulled", "pushes",
    "rows_applied", "rejects", "barriers_released", "step",
    "transfer_rows_from_log", "transfer_rows_dense", "transfer_log_bytes"};

std::vector<std::string> Concat(
    std::initializer_list<std::vector<std::string>> parts) {
  std::vector<std::string> all;
  for (const auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// `json` parsed; an empty document (failing the test) when it is not JSON.
FlatJson ParseStats(const std::string& json) {
  std::optional<FlatJson> doc = FlatJson::Parse(json);
  EXPECT_TRUE(doc.has_value()) << "not JSON: " << json;
  return doc.value_or(FlatJson());
}

/// A request of `task` kind about `item`, with every operand set.
ServiceRequest MakeTask(TaskKind task, uint32_t item) {
  ServiceRequest request = MakeRequest(item, ServiceForm::kCondensed);
  request.task = task;
  request.user = item % 3;
  request.item_b = (item + 1) % 10;
  request.top_k = 2;
  return request;
}

/// Waits until `condition` holds, polling; false on timeout.
template <typename F>
bool WaitFor(F condition, int timeout_ms = 5000) {
  const auto deadline =
      ServeClock::now() + std::chrono::milliseconds(timeout_ms);
  while (!condition()) {
    if (ServeClock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

TEST(NetServerTest, EndToEndParityWithDirectSubmit) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());

  NetClientOptions copt;
  copt.num_connections = 2;
  auto client = NetClient::Connect("127.0.0.1", net.port(), copt);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Every item (incl. the empty-key item 7 and the invalid 9999), both
  // forms, all modes — served over the socket and directly, compared
  // bit for bit.
  std::vector<ServiceRequest> requests;
  for (uint32_t item : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 9999u}) {
    for (ServiceForm form : {ServiceForm::kCondensed, ServiceForm::kSequence}) {
      for (core::ServiceMode mode :
           {core::ServiceMode::kTripleOnly, core::ServiceMode::kRelationOnly,
            core::ServiceMode::kAll}) {
        requests.push_back(MakeRequest(item, form, mode));
      }
    }
  }

  auto net_futures = client.value()->SubmitBatch(requests);
  ASSERT_EQ(net_futures.size(), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ServiceResponse over_wire = net_futures[i].get();
    ServiceResponse direct = server.Submit(requests[i]).get();
    ExpectSameResponse(over_wire, direct);
    if (requests[i].item == 9999u) {
      EXPECT_EQ(over_wire.code, ResponseCode::kInvalidItem);
    } else {
      EXPECT_EQ(over_wire.code, ResponseCode::kOk);
    }
  }
  EXPECT_EQ(net.net_counters().protocol_errors, 0u);

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, ParityAcrossRegistryHotSwapMidStream) {
  Fixture fx;
  store::ModelRegistry registry;
  registry.Publish(fx.model, fx.provider, store::StoreBackendInfo{});

  KnowledgeServer server(&registry);
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  // Stream batches while publishing fresh generations (new provider
  // instances over the same model, so served bytes must stay identical).
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    while (!done.load()) {
      registry.Publish(fx.model, fx.MakeProvider(),
                       store::StoreBackendInfo{});
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const uint64_t gen_before = registry.generation();
  for (int round = 0; round < 50; ++round) {
    std::vector<ServiceRequest> batch;
    for (uint32_t item = 0; item < 10; ++item) {
      batch.push_back(MakeRequest(
          item, round % 2 == 0 ? ServiceForm::kCondensed
                               : ServiceForm::kSequence));
    }
    auto futures = client.value()->SubmitBatch(batch);
    for (size_t i = 0; i < batch.size(); ++i) {
      ServiceResponse over_wire = futures[i].get();
      ServiceResponse direct = server.Submit(batch[i]).get();
      ASSERT_EQ(over_wire.code, ResponseCode::kOk)
          << "round " << round << " item " << i;
      ExpectSameResponse(over_wire, direct);
    }
  }
  done.store(true);
  swapper.join();
  EXPECT_GT(registry.generation(), gen_before);  // swaps really happened

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, DeadlineExpiresAcrossTheWire) {
  Fixture fx;
  // Workers not started yet: accepted requests sit queued until Start(),
  // so a short relative deadline deterministically expires in the queue.
  KnowledgeServer server(fx.provider.get());
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  ServiceRequest request = MakeRequest(1, ServiceForm::kCondensed);
  request.deadline = ServeClock::now() + std::chrono::milliseconds(5);
  auto future = client.value()->Submit(request);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.Start();
  EXPECT_EQ(future.get().code, ResponseCode::kDeadlineExceeded);

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, AdmissionRejectionPropagatesOverWire) {
  Fixture fx;
  KnowledgeServerOptions sopt;
  sopt.queue_capacity = 1;  // one batch fits, the second is rejected
  KnowledgeServer server(fx.provider.get(), sopt);
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  std::vector<ServiceRequest> first(4, MakeRequest(1, ServiceForm::kCondensed));
  auto first_futures = client.value()->SubmitBatch(first);
  // The first batch occupies the whole queue (workers are not running);
  // wait until the server has actually accepted it.
  ASSERT_TRUE(WaitFor([&] { return server.queue_depth() == 4; }));

  std::vector<ServiceRequest> second(2,
                                     MakeRequest(2, ServiceForm::kCondensed));
  auto second_futures = client.value()->SubmitBatch(second);
  for (auto& future : second_futures) {
    EXPECT_EQ(future.get().code, ResponseCode::kRejected);
  }

  server.Start();  // drain the accepted batch
  for (auto& future : first_futures) {
    EXPECT_EQ(future.get().code, ResponseCode::kOk);
  }

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, MalformedFrameClosesOnlyTheOffendingConnection) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());

  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value()->Ping().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(RawSend(raw.value().get(), "this is not a pkgm frame...."));
  // The server must close the poisoned connection…
  char buf[64];
  ASSERT_TRUE(WaitFor([&] {
    const ssize_t n = ::recv(raw.value().get(), buf, sizeof(buf), MSG_DONTWAIT);
    return n == 0;
  }));
  EXPECT_GE(net.net_counters().protocol_errors, 1u);
  // …while the healthy connection keeps serving.
  auto future = client.value()->Submit(MakeRequest(3, ServiceForm::kCondensed));
  EXPECT_EQ(future.get().code, ResponseCode::kOk);

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, UndecodableServingPayloadClosesOnlyItsConnection) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  // Validly framed (magic/CRC ok), but the payloads do not decode: a
  // count that disagrees with the payload size, and a recommend entry whose
  // reserved byte (offset 3 of the first 20-byte entry, after the u32
  // count) is set.
  const auto now = ServeClock::now();
  std::string bad_count =
      EncodeServiceRequests(1, {MakeRequest(1, ServiceForm::kCondensed),
                                MakeRequest(2, ServiceForm::kCondensed)},
                            now)
          .substr(kFrameHeaderBytes);
  bad_count[0] = 3;
  std::string bad_reserved =
      EncodeServiceRequests(2, {MakeTask(TaskKind::kRecommend, 2)}, now)
          .substr(kFrameHeaderBytes);
  bad_reserved[4 + 3] = 1;

  uint64_t errors = 0;
  for (const std::string& payload : {bad_count, bad_reserved}) {
    auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
    ASSERT_TRUE(raw.ok());
    std::string frame;
    AppendFrame(FrameType::kServiceRequests, /*correlation_id=*/9, payload,
                &frame);
    ASSERT_TRUE(RawSend(raw.value().get(), frame));
    char buf[64];
    ASSERT_TRUE(WaitFor([&] {
      return ::recv(raw.value().get(), buf, sizeof(buf), MSG_DONTWAIT) == 0;
    }));
    EXPECT_EQ(net.net_counters().protocol_errors, ++errors);
    // The other client's connection keeps being served.
    auto served =
        client.value()->Submit(MakeRequest(3, ServiceForm::kCondensed));
    EXPECT_EQ(served.get().code, ResponseCode::kOk);
  }

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, UnknownFrameTypeAnsweredWithErrorConnectionSurvives) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  const int fd = raw.value().get();

  // Validly framed (magic/CRC ok) frames of an unknown type, or of one of
  // the retired per-kind serving types 16-21: forward compatibility says
  // answer kError and keep the stream.
  FrameDecoder decoder;
  Frame frame;
  for (uint8_t type : {42, 16, 17, 18, 19, 20, 21}) {
    SCOPED_TRACE(static_cast<int>(type));
    std::string unknown;
    AppendFrame(static_cast<FrameType>(type), /*correlation_id=*/type,
                "payload", &unknown);
    ASSERT_TRUE(RawSend(fd, unknown));
    ASSERT_TRUE(RawReadFrame(fd, &decoder, &frame));
    EXPECT_EQ(frame.type, FrameType::kError);
    EXPECT_EQ(frame.correlation_id, static_cast<uint64_t>(type));
    WireCode code;
    std::string message;
    ASSERT_TRUE(DecodeError(frame.payload, &code, &message).ok());
    EXPECT_EQ(code, WireCode::kUnsupported);
  }

  // Still alive: a ping on the same connection answers.
  ASSERT_TRUE(RawSend(fd, EncodeControl(FrameType::kPing, 8)));
  ASSERT_TRUE(RawReadFrame(fd, &decoder, &frame));
  EXPECT_EQ(frame.type, FrameType::kPong);
  EXPECT_EQ(frame.correlation_id, 8u);

  net.Stop();
  server.Stop();
}

TEST(NetServerTest, SlowReaderIsDisconnectedByBackpressure) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  NetServerOptions nopt;
  nopt.max_outbox_bytes = 16 * 1024;  // tight bound
  nopt.so_sndbuf_bytes = 4 * 1024;    // tiny kernel buffer → outbox fills
  ServingHandler serving(&server);
  NetServer net(&serving, nopt);
  ASSERT_TRUE(net.Start().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  const int fd = raw.value().get();

  // Pump request frames producing fat sequence responses and never read a
  // byte back. The outbox bound must disconnect us, not buffer forever.
  std::vector<ServiceRequest> batch(
      32, MakeRequest(6, ServiceForm::kSequence));
  bool disconnected = false;
  for (uint64_t correlation = 1; correlation <= 4096; ++correlation) {
    if (!RawSend(fd, EncodeServiceRequests(correlation, batch,
                                           ServeClock::now()))) {
      disconnected = true;  // EPIPE/ECONNRESET once the server dropped us
      break;
    }
  }
  if (!disconnected) {
    // Writes may all have landed in kernel buffers; the disconnect still
    // must arrive.
    char buf[64];
    disconnected = WaitFor([&] {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      return n == 0 || (n < 0 && errno == ECONNRESET);
    });
  }
  EXPECT_TRUE(disconnected);
  EXPECT_TRUE(
      WaitFor([&] { return net.net_counters().backpressure_disconnects >= 1; }));

  net.Stop();
  server.Stop();
}

TEST(NetServerTest, GracefulDrainCompletesAcceptedRequests) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  std::vector<std::future<ServiceResponse>> futures;
  for (int round = 0; round < 20; ++round) {
    std::vector<ServiceRequest> batch(
        8, MakeRequest(static_cast<uint32_t>(round % 10),
                       ServiceForm::kSequence));
    for (auto& future : client.value()->SubmitBatch(batch)) {
      futures.push_back(std::move(future));
    }
  }
  // Wait until the server has decoded every request, then drain while the
  // responses are (possibly) still in flight: all of them must arrive.
  ASSERT_TRUE(WaitFor(
      [&] { return serving.requests_in() >= futures.size(); }));
  net.Stop();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().code, ResponseCode::kOk);
  }
  EXPECT_EQ(client.value()->network_errors(), 0u);

  client.value().reset();
  server.Stop();
}

TEST(NetServerTest, IdleConnectionsAreReaped) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  NetServerOptions nopt;
  nopt.idle_timeout_ms = 100;
  ServingHandler serving(&server);
  NetServer net(&serving, nopt);
  ASSERT_TRUE(net.Start().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  char buf[16];
  EXPECT_TRUE(WaitFor([&] {
    const ssize_t n = ::recv(raw.value().get(), buf, sizeof(buf), MSG_DONTWAIT);
    return n == 0;
  }));
  EXPECT_GE(net.net_counters().idle_disconnects, 1u);

  net.Stop();
  server.Stop();
}

TEST(NetServerTest, PingAndStatsProbes) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  EXPECT_TRUE(client.value()->Ping().ok());
  auto future = client.value()->Submit(MakeRequest(2, ServiceForm::kCondensed));
  EXPECT_EQ(future.get().code, ResponseCode::kOk);

  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const FlatJson doc = ParseStats(stats.value());
  EXPECT_TRUE(doc.Has("net"));
  EXPECT_TRUE(doc.Has("accepted"));

  // The stats name the event loop serving the sockets, plus the syscall
  // accounting.
  EXPECT_EQ(doc.Str("net.io_backend"), "epoll") << stats.value();
  EXPECT_TRUE(doc.Has("net.io_wait_calls"));
  EXPECT_TRUE(doc.Has("net.frames_per_syscall"));
  EXPECT_EQ(net.net_counters().io_backend, "epoll");

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetServerTest, StatsSnapshotOfCoalescingServerCarriesCoalescer) {
  Fixture fx;
  KnowledgeServerOptions sopt;
  sopt.enable_coalescing = true;
  KnowledgeServer server(fx.provider.get(), sopt);
  server.Start();
  ServingHandler serving(&server);
  NetServer net(&serving);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const FlatJson doc = ParseStats(stats.value());
  for (const char* key : {"cache", "coalescer", "net"}) {
    EXPECT_TRUE(doc.Has(key)) << key << " in " << stats.value();
  }

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetClientTest, ReconnectsAfterServerRestart) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();

  ServingHandler serving(&server);
  auto first = std::make_unique<NetServer>(&serving);
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();

  NetClientOptions copt;
  copt.reconnect_backoff_initial_ms = 10;
  auto client = NetClient::Connect("127.0.0.1", port, copt);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client.value()
                ->Submit(MakeRequest(1, ServiceForm::kCondensed))
                .get()
                .code,
            ResponseCode::kOk);

  first->Stop();
  first.reset();

  // With the server gone, submissions fail client-side with kNetworkError.
  EXPECT_EQ(client.value()
                ->Submit(MakeRequest(1, ServiceForm::kCondensed))
                .get()
                .code,
            ResponseCode::kNetworkError);
  EXPECT_GE(client.value()->network_errors(), 1u);

  // Restart on the same port; the client must recover via reconnect.
  NetServerOptions nopt;
  nopt.port = port;
  NetServer second(&serving, nopt);
  ASSERT_TRUE(second.Start().ok());
  ASSERT_TRUE(WaitFor([&] {
    return client.value()
               ->Submit(MakeRequest(1, ServiceForm::kCondensed))
               .get()
               .code == ResponseCode::kOk;
  }));

  client.value().reset();
  second.Stop();
  server.Stop();
}

// ---------------------------------------------------------------------------
// CallFrame (the v2 parameter-server request path)
// ---------------------------------------------------------------------------

// Parks every kPushGrads respond and flushes them in REVERSE arrival order
// when a kBarrier frame arrives — so a pipelined client must match replies
// by correlation id, not by ordering.
class ReversingPushHandler : public FrameHandler {
 public:
  Result HandleFrame(const Frame& frame, Respond respond) override {
    if (frame.type == FrameType::kPushGrads) {
      float scale = 0.0f;
      uint32_t epoch = 0;
      std::string_view blob;
      if (!DecodePushGrads(frame.payload, &scale, &epoch, &blob).ok()) {
        return Result::kRefused;
      }
      std::lock_guard<std::mutex> lock(mu_);
      parked_.push_back({frame.correlation_id, epoch, std::move(respond)});
      return Result::kTaken;
    }
    if (frame.type == FrameType::kBarrier) {
      std::vector<Parked> parked;
      {
        std::lock_guard<std::mutex> lock(mu_);
        parked.swap(parked_);
      }
      for (auto it = parked.rbegin(); it != parked.rend(); ++it) {
        // Echo the pushed epoch back as rows_applied so the test can prove
        // each future resolved with ITS reply.
        it->respond(EncodePushAck(it->correlation_id, it->epoch));
      }
      uint32_t epoch = 0, workers = 0;
      if (!DecodeBarrier(frame.payload, &epoch, &workers).ok()) {
        return Result::kRefused;
      }
      respond(EncodeBarrierReply(frame.correlation_id, epoch, workers));
      return Result::kTaken;
    }
    return Result::kRefused;
  }

  /// Drops parked responds without invoking them (the connections are
  /// gone); must run before the server is destroyed.
  void Abandon() {
    std::lock_guard<std::mutex> lock(mu_);
    parked_.clear();
  }

  size_t parked() {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_.size();
  }

 private:
  struct Parked {
    uint64_t correlation_id;
    uint32_t epoch;
    Respond respond;
  };
  std::mutex mu_;
  std::vector<Parked> parked_;
};

TEST(NetClientTest, ManyInFlightCallsResolveOutOfOrder) {
  ReversingPushHandler handler;
  NetServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  auto client = NetClient::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(client.ok());

  constexpr uint32_t kInFlight = 64;
  std::vector<std::future<StatusOr<Frame>>> pushes;
  for (uint32_t i = 0; i < kInFlight; ++i) {
    const uint64_t cid = client.value()->NextCorrelationId();
    pushes.push_back(client.value()->CallFrame(
        cid, EncodePushGrads(cid, 1.0f, /*epoch=*/i, "blob")));
  }
  // All 64 are in flight (none answered) until the barrier flushes them in
  // reverse order.
  ASSERT_TRUE(WaitFor([&] { return handler.parked() == kInFlight; }));
  const uint64_t barrier_cid = client.value()->NextCorrelationId();
  auto barrier = client.value()->CallFrame(
      barrier_cid, EncodeBarrier(barrier_cid, 1, 1));

  StatusOr<Frame> barrier_reply = barrier.get();
  ASSERT_TRUE(barrier_reply.ok());
  EXPECT_EQ(barrier_reply->type, FrameType::kBarrierReply);

  for (uint32_t i = 0; i < kInFlight; ++i) {
    StatusOr<Frame> reply = pushes[i].get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->type, FrameType::kPushAck);
    uint32_t rows = 0;
    ASSERT_TRUE(DecodePushAck(reply->payload, &rows).ok());
    EXPECT_EQ(rows, i);  // the i-th future got the i-th push's reply
  }

  client.value().reset();
  server.Stop();
}

TEST(NetClientTest, CorrelationIdWraparound) {
  ReversingPushHandler handler;
  NetServer server(&handler);
  ASSERT_TRUE(server.Start().ok());

  // Pin the counter so the ids cross UINT64_MAX -> 0 mid-test.
  NetClientOptions copt;
  copt.start_correlation_id = std::numeric_limits<uint64_t>::max() - 3;
  auto client = NetClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(client.ok());

  constexpr uint32_t kCalls = 16;
  std::vector<std::future<StatusOr<Frame>>> pushes;
  bool wrapped = false;
  uint64_t prev = 0;
  for (uint32_t i = 0; i < kCalls; ++i) {
    const uint64_t cid = client.value()->NextCorrelationId();
    if (i > 0 && cid < prev) wrapped = true;
    prev = cid;
    pushes.push_back(client.value()->CallFrame(
        cid, EncodePushGrads(cid, 1.0f, i, "x")));
  }
  EXPECT_TRUE(wrapped);  // the test premise: ids really did wrap past 0

  ASSERT_TRUE(WaitFor([&] { return handler.parked() == kCalls; }));
  const uint64_t barrier_cid = client.value()->NextCorrelationId();
  ASSERT_TRUE(client.value()
                  ->CallFrame(barrier_cid, EncodeBarrier(barrier_cid, 1, 1))
                  .get()
                  .ok());
  for (uint32_t i = 0; i < kCalls; ++i) {
    StatusOr<Frame> reply = pushes[i].get();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    uint32_t rows = 0;
    ASSERT_TRUE(DecodePushAck(reply->payload, &rows).ok());
    EXPECT_EQ(rows, i);
  }

  client.value().reset();
  server.Stop();
}

TEST(NetClientTest, EveryReplyKindRoutesOverOneConnection) {
  ReversingPushHandler handler;
  NetServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  NetClientOptions copt;
  copt.num_connections = 1;
  auto client = NetClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(client.ok());

  // A push the handler parks until the barrier below releases it.
  const uint64_t push_cid = client.value()->NextCorrelationId();
  auto push = client.value()->CallFrame(
      push_cid, EncodePushGrads(push_cid, 1.0f, /*epoch=*/5, "parked"));
  ASSERT_TRUE(WaitFor([&] { return handler.parked() == 1u; }));

  // A mixed-kind batch reaches a server without a knowledge service: its
  // one frame is answered kError/kUnsupported, read as kNetworkError.
  std::vector<ServiceRequest> batch;
  for (TaskKind task : {TaskKind::kLookup, TaskKind::kRecommend,
                        TaskKind::kClassify, TaskKind::kAlign,
                        TaskKind::kLookup}) {
    batch.push_back(MakeTask(task, 4));
  }
  auto futures = client.value()->SubmitBatch(batch);
  EXPECT_TRUE(client.value()->Ping().ok());
  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(ParseStats(stats.value()).Paths(), kNetPaths) << stats.value();
  for (auto& future : futures) {
    EXPECT_EQ(future.get().code, ResponseCode::kNetworkError);
  }

  const uint64_t barrier_cid = client.value()->NextCorrelationId();
  StatusOr<Frame> barrier =
      client.value()
          ->CallFrame(barrier_cid, EncodeBarrier(barrier_cid, 1, 1))
          .get();
  ASSERT_TRUE(barrier.ok()) << barrier.status().ToString();
  EXPECT_EQ(barrier->type, FrameType::kBarrierReply);
  StatusOr<Frame> pushed = push.get();
  ASSERT_TRUE(pushed.ok()) << pushed.status().ToString();
  EXPECT_EQ(pushed->type, FrameType::kPushAck);
  uint32_t rows = 0;
  ASSERT_TRUE(DecodePushAck(pushed->payload, &rows).ok());
  EXPECT_EQ(rows, 5u);
  // Error answers are replies, not lost connections.
  EXPECT_EQ(client.value()->network_errors(), 0u);

  client.value().reset();
  server.Stop();
}

TEST(NetClientTest, ReconnectDuringPendingPush) {
  ReversingPushHandler handler;
  auto first = std::make_unique<NetServer>(&handler);
  ASSERT_TRUE(first->Start().ok());
  const uint16_t port = first->port();

  NetClientOptions copt;
  copt.reconnect_backoff_initial_ms = 10;
  auto client = NetClient::Connect("127.0.0.1", port, copt);
  ASSERT_TRUE(client.ok());

  // A push the handler parks forever: in flight when the server dies.
  const uint64_t cid = client.value()->NextCorrelationId();
  auto pending = client.value()->CallFrame(
      cid, EncodePushGrads(cid, 1.0f, 7, "pending"));
  ASSERT_TRUE(WaitFor([&] { return handler.parked() == 1u; }));

  // Abandon drops the parked respond without invoking it: the frame
  // completes with no reply, so Stop()'s outstanding-frame wait must not
  // wedge, and the drain closes the connection without waiting out its
  // timeout.
  handler.Abandon();
  first->Stop();
  first.reset();

  // At-most-once: the pending push resolves with an error, never a replay.
  StatusOr<Frame> failed = pending.get();
  EXPECT_FALSE(failed.ok());

  // Restart on the same port; the client must reconnect and the next push
  // must complete (the handler answers it at the next barrier).
  NetServerOptions nopt2;
  nopt2.port = port;
  NetServer second(&handler, nopt2);
  ASSERT_TRUE(second.Start().ok());

  ASSERT_TRUE(WaitFor([&] {
    const uint64_t retry_cid = client.value()->NextCorrelationId();
    auto retry = client.value()->CallFrame(
        retry_cid, EncodePushGrads(retry_cid, 1.0f, 9, "retry"));
    if (!WaitFor([&] { return handler.parked() >= 1u; }, 1000)) {
      return false;
    }
    const uint64_t barrier_cid = client.value()->NextCorrelationId();
    auto barrier = client.value()->CallFrame(
        barrier_cid, EncodeBarrier(barrier_cid, 2, 1));
    StatusOr<Frame> reply = retry.get();
    if (!barrier.get().ok() || !reply.ok()) return false;
    uint32_t rows = 0;
    return DecodePushAck(reply->payload, &rows).ok() && rows == 9u;
  }));

  client.value().reset();
  second.Stop();
}

TEST(NetServerTest, DroppedRespondLetsItsConnectionIdleAndDrain) {
  // A respond the handler drops completes its frame with no reply, and its
  // connection's count of routed frames falls too: the idle reaper closes
  // the connection, and Stop() at the default 5,000 ms drain does not wait
  // out the timeout for it.
  ReversingPushHandler handler;
  NetServerOptions nopt;
  nopt.idle_timeout_ms = 100;
  ASSERT_EQ(kDrainTimeoutMs, 5000);
  NetServer server(&handler, nopt);
  ASSERT_TRUE(server.Start().ok());
  const auto park_and_drop = [&](int fd, uint64_t cid) {
    ASSERT_TRUE(RawSend(fd, EncodePushGrads(cid, 1.0f, 7, "dropped")));
    ASSERT_TRUE(WaitFor([&] { return handler.parked() == 1u; }));
    handler.Abandon();
  };

  auto idle = ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(idle.ok());
  park_and_drop(idle.value().get(), 1);
  char buf[16];
  EXPECT_TRUE(WaitFor([&] {
    return ::recv(idle.value().get(), buf, sizeof(buf), MSG_DONTWAIT) == 0;
  }));
  EXPECT_EQ(server.net_counters().idle_disconnects, 1u);

  auto draining = ConnectTcp("127.0.0.1", server.port(), 5000);
  ASSERT_TRUE(draining.ok());
  park_and_drop(draining.value().get(), 2);
  const auto start = std::chrono::steady_clock::now();
  server.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(1000));
}

// Every key path of the three daemon snapshots, in order: pkgm_netd's (a
// ServingHandler over a KnowledgeServer with pkgm_netd's defaults: cache on,
// coalescing off), the same with coalescing on, and pkgm_psd's (a
// ParamServer). All three share one "net" object.
TEST(NetServerTest, StatsJsonNetKeysMatchAcrossServerKinds) {
  Fixture fx;
  const auto netd_snapshot = [&fx](KnowledgeServerOptions sopt) {
    KnowledgeServer server(fx.provider.get(), sopt);
    server.Start();
    ServingHandler serving(&server);
    NetServer net(&serving);
    EXPECT_TRUE(net.Start().ok());
    auto client = NetClient::Connect("127.0.0.1", net.port());
    EXPECT_TRUE(client.ok());
    if (!client.ok()) return std::string();
    // One request served, so both latency stages carry their quantiles.
    EXPECT_EQ(client.value()->Submit(MakeRequest(2, ServiceForm::kCondensed))
                  .get()
                  .code,
              ResponseCode::kOk);
    std::string json = net.StatsJson();
    client.value().reset();
    net.Stop();
    server.Stop();
    return json;
  };
  const std::string netd = netd_snapshot(KnowledgeServerOptions{});
  KnowledgeServerOptions coalescing;
  coalescing.enable_coalescing = true;
  const std::string netd_coalescing = netd_snapshot(coalescing);

  dist::ParamServerOptions popt;
  popt.model.num_entities = 8;
  popt.model.num_relations = 2;
  popt.model.dim = 4;
  dist::ParamServer shard(popt);
  NetServer shard_net(&shard);
  ASSERT_TRUE(shard_net.Start().ok());
  const std::string psd = shard_net.StatsJson();
  shard_net.Stop();

  EXPECT_EQ(ParseStats(netd).Paths(),
            Concat({kServerCounterPaths, kCachePaths, kNetPaths,
                    kLatencyPaths}))
      << netd;
  EXPECT_EQ(ParseStats(netd_coalescing).Paths(),
            Concat({kServerCounterPaths, kCachePaths, kCoalescerPaths,
                    kNetPaths, kLatencyPaths}))
      << netd_coalescing;
  EXPECT_EQ(ParseStats(psd).Paths(), Concat({kNetPaths, kShardPaths})) << psd;
}

// Answers every routed frame inside HandleFrame, as pkgm_psd's pulls and
// pushes are answered, with a kRows frame of `reply_bytes` opaque payload.
class SyncReplyHandler : public FrameHandler {
 public:
  explicit SyncReplyHandler(size_t reply_bytes) : reply_(reply_bytes, 'r') {}

  Result HandleFrame(const Frame& frame, Respond respond) override {
    ++handled_;
    std::string reply;
    AppendFrame(FrameType::kRows, frame.correlation_id, reply_, &reply);
    respond(std::move(reply));
    return Result::kTaken;
  }

  uint64_t handled() const { return handled_.load(); }

 private:
  const std::string reply_;
  std::atomic<uint64_t> handled_{0};
};

TEST(NetServerTest, SynchronousRespondIsSentWithoutAWakeup) {
  // A respond made inside HandleFrame is written by the loop thread right
  // away: one epoll_wait per round trip, not a second one for a mailbox
  // wakeup.
  SyncReplyHandler handler(16);
  NetServerOptions nopt;
  nopt.num_io_threads = 1;
  NetServer server(&handler, nopt);
  ASSERT_TRUE(server.Start().ok());
  NetClientOptions copt;
  copt.num_connections = 1;
  auto client = NetClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(client.ok());
  const auto round_trip = [&] {
    const uint64_t cid = client.value()->NextCorrelationId();
    StatusOr<Frame> reply =
        client.value()
            ->CallFrame(cid, EncodeControl(FrameType::kShardInfo, cid))
            .get();
    return reply.ok() && reply->type == FrameType::kRows &&
           reply->correlation_id == cid;
  };
  ASSERT_TRUE(round_trip());

  constexpr uint64_t kRoundTrips = 200;
  const uint64_t before = server.net_counters().io_wait_calls;
  for (uint64_t i = 0; i < kRoundTrips; ++i) ASSERT_TRUE(round_trip());
  const serve::NetCounters after = server.net_counters();
  EXPECT_LT(after.io_wait_calls - before, kRoundTrips * 3 / 2);
  EXPECT_EQ(handler.handled(), kRoundTrips + 1);
  EXPECT_EQ(after.frames_out, kRoundTrips + 1);

  client.value().reset();
  server.Stop();
}

TEST(NetServerTest, SlowReaderOfSynchronousRepliesIsDisconnected) {
  // The fat replies are sent in place inside HandleFrame, so it is that
  // send which trips the outbox bound and closes the connection; the loop
  // must then leave the dead connection alone and keep serving the others.
  SyncReplyHandler handler(64 * 1024);
  NetServerOptions nopt;
  nopt.num_io_threads = 1;  // the slow reader and the next client share it
  nopt.max_outbox_bytes = 16 * 1024;
  nopt.so_sndbuf_bytes = 4 * 1024;
  NetServer net(&handler, nopt);
  ASSERT_TRUE(net.Start().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  const int fd = raw.value().get();
  bool disconnected = false;
  for (uint64_t correlation = 1; correlation <= 4096; ++correlation) {
    if (!RawSend(fd, EncodeControl(FrameType::kShardInfo, correlation))) {
      disconnected = true;
      break;
    }
  }
  if (!disconnected) {
    char buf[64];
    disconnected = WaitFor([&] {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      return n == 0 || (n < 0 && errno == ECONNRESET);
    });
  }
  EXPECT_TRUE(disconnected);
  EXPECT_TRUE(
      WaitFor([&] { return net.net_counters().backpressure_disconnects >= 1; }));
  EXPECT_GE(handler.handled(), 1u);

  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());
  const uint64_t cid = client.value()->NextCorrelationId();
  StatusOr<Frame> reply =
      client.value()
          ->CallFrame(cid, EncodeControl(FrameType::kShardInfo, cid))
          .get();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->type, FrameType::kRows);
  EXPECT_EQ(reply->payload.size(), 64u * 1024);

  client.value().reset();
  net.Stop();
}

// Answers every kServiceRequests frame with one kOk entry per request,
// except the first, which gets `first_reply` (a garbled or short reply
// frame, built from the frame's correlation id).
class GarblingServingHandler : public FrameHandler {
 public:
  using Garble = std::string (*)(uint64_t correlation_id, size_t requests);
  explicit GarblingServingHandler(Garble first_reply)
      : first_reply_(first_reply) {}

  Result HandleFrame(const Frame& frame, Respond respond) override {
    std::vector<ServiceRequest> requests;
    if (frame.type != FrameType::kServiceRequests ||
        !DecodeServiceRequests(frame.payload, ServeClock::now(), &requests)
             .ok()) {
      return Result::kRefused;
    }
    respond(frames_++ == 0
                ? first_reply_(frame.correlation_id, requests.size())
                : EncodeServiceReplies(
                      frame.correlation_id,
                      std::vector<ServiceResponse>(requests.size())));
    return Result::kTaken;
  }

 private:
  const Garble first_reply_;
  std::atomic<int> frames_{0};
};

TEST(NetClientTest, GarbledServingReplyFailsItsBatchAndReconnects) {
  // A reply that is validly framed but does not decode, or holds fewer
  // entries than the batch, fails every request of that batch with
  // kNetworkError and ends the stream; the next batch is served on a
  // fresh connection.
  const GarblingServingHandler::Garble garbles[] = {
      // Flag bit 1 set in the first entry.
      [](uint64_t cid, size_t n) {
        std::string payload =
            EncodeServiceReplies(cid, std::vector<ServiceResponse>(n))
                .substr(kFrameHeaderBytes);
        payload[5] = 2;
        std::string frame;
        AppendFrame(FrameType::kServiceReplies, cid, payload, &frame);
        return frame;
      },
      // One entry short.
      [](uint64_t cid, size_t n) {
        return EncodeServiceReplies(cid, std::vector<ServiceResponse>(n - 1));
      },
      // Not a serving reply at all.
      [](uint64_t cid, size_t) { return EncodePushAck(cid, 1); },
  };
  for (size_t g = 0; g < std::size(garbles); ++g) {
    SCOPED_TRACE(g);
    GarblingServingHandler handler(garbles[g]);
    NetServer net(&handler);
    ASSERT_TRUE(net.Start().ok());
    NetClientOptions copt;
    copt.num_connections = 1;
    auto client = NetClient::Connect("127.0.0.1", net.port(), copt);
    ASSERT_TRUE(client.ok());

    std::vector<ServiceRequest> batch;
    for (TaskKind task : {TaskKind::kLookup, TaskKind::kRecommend,
                          TaskKind::kClassify, TaskKind::kAlign}) {
      batch.push_back(MakeTask(task, 4));
    }
    for (auto& future : client.value()->SubmitBatch(batch)) {
      EXPECT_EQ(future.get().code, ResponseCode::kNetworkError);
    }
    EXPECT_EQ(client.value()->network_errors(), batch.size());
    // The client closed the stream; once the server has seen it go, the
    // next batch reconnects.
    ASSERT_TRUE(
        WaitFor([&] { return net.net_counters().connections_closed == 1; }));
    for (auto& future : client.value()->SubmitBatch(batch)) {
      EXPECT_EQ(future.get().code, ResponseCode::kOk);
    }
    EXPECT_EQ(net.net_counters().connections_accepted, 2u);
    EXPECT_EQ(client.value()->network_errors(), batch.size());

    client.value().reset();
    net.Stop();
  }
}

// ---------------------------------------------------------------------------
// SubmitBatchAsync (the callback path the future-returning calls wrap)
// ---------------------------------------------------------------------------

// Parks the first kServiceRequests frame's respond and answers every later
// frame at once, one kOk entry per request; Release() answers the parked
// frame and Abandon() drops it.
class ParkFirstServingHandler : public FrameHandler {
 public:
  Result HandleFrame(const Frame& frame, Respond respond) override {
    std::vector<ServiceRequest> requests;
    if (frame.type != FrameType::kServiceRequests ||
        !DecodeServiceRequests(frame.payload, ServeClock::now(), &requests)
             .ok()) {
      return Result::kRefused;
    }
    std::string reply = EncodeServiceReplies(
        frame.correlation_id, std::vector<ServiceResponse>(requests.size()));
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (frames_++ == 0) {
        parked_ = std::move(respond);
        parked_reply_ = std::move(reply);
        return Result::kTaken;
      }
    }
    respond(std::move(reply));
    return Result::kTaken;
  }

  bool parked() {
    std::lock_guard<std::mutex> lock(mu_);
    return parked_ != nullptr;
  }

  void Release() {
    Respond respond;
    {
      std::lock_guard<std::mutex> lock(mu_);
      respond.swap(parked_);
    }
    respond(std::move(parked_reply_));
  }

  /// Drops the parked respond without invoking it; must run before the
  /// server stops.
  void Abandon() {
    std::lock_guard<std::mutex> lock(mu_);
    parked_ = nullptr;
  }

 private:
  std::mutex mu_;
  int frames_ = 0;
  Respond parked_;
  std::string parked_reply_;
};

std::vector<ServiceRequest> Lookups(size_t n) {
  std::vector<ServiceRequest> batch;
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(MakeTask(TaskKind::kLookup, static_cast<uint32_t>(i)));
  }
  return batch;
}

TEST(NetClientTest, SubmitBatchAsyncCompletesOutOfOrderOnTheReaderThread) {
  ParkFirstServingHandler handler;
  NetServer server(&handler);
  ASSERT_TRUE(server.Start().ok());
  NetClientOptions copt;
  copt.num_connections = 1;
  auto client = NetClient::Connect("127.0.0.1", server.port(), copt);
  ASSERT_TRUE(client.ok());

  const std::thread::id test_thread = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<int, size_t>> order;  // (batch, index)
  auto record = [&](int batch) {
    return [&, batch](size_t index, ServiceResponse response) {
      EXPECT_EQ(response.code, ResponseCode::kOk);
      EXPECT_NE(std::this_thread::get_id(), test_thread);
      std::lock_guard<std::mutex> lock(mu);
      order.emplace_back(batch, index);
    };
  };
  auto completed = [&] {
    std::lock_guard<std::mutex> lock(mu);
    return order.size();
  };

  client.value()->SubmitBatchAsync(Lookups(2), record(0));
  ASSERT_TRUE(WaitFor([&] { return handler.parked(); }));
  // The second batch shares the connection and is answered first.
  client.value()->SubmitBatchAsync(Lookups(3), record(1));
  ASSERT_TRUE(WaitFor([&] { return completed() == 3; }));
  handler.Release();
  ASSERT_TRUE(WaitFor([&] { return completed() == 5; }));
  {
    std::lock_guard<std::mutex> lock(mu);
    EXPECT_EQ(order, (std::vector<std::pair<int, size_t>>{
                         {1, 0}, {1, 1}, {1, 2}, {0, 0}, {0, 1}}));
  }
  EXPECT_EQ(client.value()->network_errors(), 0u);

  client.value().reset();
  server.Stop();
}

TEST(NetClientTest, SubmitBatchAsyncFailsEachRequestOnceWhenTheConnectionDies) {
  ParkFirstServingHandler handler;
  auto server = std::make_unique<NetServer>(&handler);
  ASSERT_TRUE(server->Start().ok());
  auto client = NetClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());

  constexpr size_t kBatch = 4;
  std::atomic<int> calls[kBatch] = {};
  std::atomic<int> lost{0};
  client.value()->SubmitBatchAsync(
      Lookups(kBatch), [&](size_t index, ServiceResponse response) {
        ASSERT_LT(index, kBatch);
        calls[index].fetch_add(1);
        if (response.code == ResponseCode::kNetworkError) lost.fetch_add(1);
      });
  ASSERT_TRUE(WaitFor([&] { return handler.parked(); }));
  handler.Abandon();
  server->Stop();
  server.reset();

  ASSERT_TRUE(WaitFor([&] { return lost.load() == int{kBatch}; }));
  for (size_t i = 0; i < kBatch; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
  EXPECT_EQ(client.value()->network_errors(), kBatch);
  client.value().reset();
  for (size_t i = 0; i < kBatch; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
}

TEST(NetClientTest, SubmitBatchAsyncFailsOnTheSubmittingThreadWithoutAServer) {
  Fixture fx;
  KnowledgeServer knowledge(fx.provider.get());
  knowledge.Start();
  ServingHandler serving(&knowledge);
  auto server = std::make_unique<NetServer>(&serving);
  ASSERT_TRUE(server->Start().ok());
  NetClientOptions copt;
  copt.num_connections = 1;
  auto client = NetClient::Connect("127.0.0.1", server->port(), copt);
  ASSERT_TRUE(client.ok());
  server->Stop();
  server.reset();
  // Once this fails, the client has closed its socket: the next frame
  // finds none to send on.
  ASSERT_EQ(client.value()
                ->Submit(MakeRequest(1, ServiceForm::kCondensed))
                .get()
                .code,
            ResponseCode::kNetworkError);
  const uint64_t errors_before = client.value()->network_errors();

  const std::thread::id submitter = std::this_thread::get_id();
  std::vector<int> calls(3, 0);
  std::vector<int> nested_calls(2, 0);
  client.value()->SubmitBatchAsync(
      Lookups(3), [&](size_t index, ServiceResponse response) {
        EXPECT_EQ(std::this_thread::get_id(), submitter);
        EXPECT_EQ(response.code, ResponseCode::kNetworkError);
        ++calls[index];
        if (index != 0) return;
        // Submitting again from the callback, on the same connection, must
        // not deadlock on the connection mutex.
        client.value()->SubmitBatchAsync(
            Lookups(2), [&](size_t nested, ServiceResponse again) {
              EXPECT_EQ(std::this_thread::get_id(), submitter);
              EXPECT_EQ(again.code, ResponseCode::kNetworkError);
              ++nested_calls[nested];
            });
      });
  // Every callback ran before SubmitBatchAsync returned.
  EXPECT_EQ(calls, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(nested_calls, (std::vector<int>{1, 1}));
  EXPECT_EQ(client.value()->network_errors(), errors_before + 5);

  client.value().reset();
  knowledge.Stop();
}

TEST(NetClientTest, GarbledServingReplyFailsItsAsyncBatchAndEndsTheStream) {
  for (GarblingServingHandler::Garble garble :
       {+[](uint64_t cid, size_t n) {
          return EncodeServiceReplies(cid,
                                      std::vector<ServiceResponse>(n - 1));
        },
        +[](uint64_t cid, size_t) { return EncodePushAck(cid, 1); }}) {
    GarblingServingHandler handler(garble);
    NetServer net(&handler);
    ASSERT_TRUE(net.Start().ok());
    NetClientOptions copt;
    copt.num_connections = 1;
    auto client = NetClient::Connect("127.0.0.1", net.port(), copt);
    ASSERT_TRUE(client.ok());

    constexpr size_t kBatch = 4;
    std::atomic<int> calls[kBatch] = {};
    std::atomic<int> lost{0};
    client.value()->SubmitBatchAsync(
        Lookups(kBatch), [&](size_t index, ServiceResponse response) {
          ASSERT_LT(index, kBatch);
          calls[index].fetch_add(1);
          if (response.code == ResponseCode::kNetworkError) lost.fetch_add(1);
        });
    ASSERT_TRUE(WaitFor([&] { return lost.load() == int{kBatch}; }));
    EXPECT_EQ(client.value()->network_errors(), kBatch);
    // The client closed the stream.
    ASSERT_TRUE(
        WaitFor([&] { return net.net_counters().connections_closed == 1; }));
    for (size_t i = 0; i < kBatch; ++i) EXPECT_EQ(calls[i].load(), 1) << i;

    client.value().reset();
    net.Stop();
  }
}

// Seeded mutation of a mixed-kind serving request frame, driven straight
// into the serving handler over a running KnowledgeServer: a payload is
// malformed exactly when the decoder rejects it, a decoded payload
// re-encodes to its own bytes, and a taken frame's reply decodes, one entry
// per decoded request, and re-encodes to its own bytes too. The sanitizer
// CI jobs run this too.
TEST(MutationTest, ServingRequestFramesThroughTheHandler) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  ServingHandler serving(&server);

  std::vector<ServiceRequest> mixed;
  for (uint32_t item = 0; item < 4; ++item) {
    for (uint8_t t = 0; t <= serve::kMaxTaskKind; ++t) {
      mixed.push_back(MakeTask(static_cast<TaskKind>(t), item * 3));
    }
  }
  const auto now = ServeClock::now();
  const std::string payload =
      EncodeServiceRequests(1, mixed, now).substr(kFrameHeaderBytes);
  // Splices draw on the same batch in reverse order.
  const std::string other =
      EncodeServiceRequests(1, {mixed.rbegin(), mixed.rend()}, now)
          .substr(kFrameHeaderBytes);
  // The count, then each 20-byte entry's item, operand and deadline.
  std::vector<size_t> fields = {0};
  for (size_t entry = 0; entry < mixed.size(); ++entry) {
    for (size_t at : {8, 12, 16}) fields.push_back(4 + 20 * entry + at);
  }

  Rng rng(20215);
  int malformed = 0;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(testing::Message() << "iter " << iter);
    Frame request;
    request.type = FrameType::kServiceRequests;
    request.correlation_id = static_cast<uint64_t>(iter);
    request.payload =
        iter == 0 ? payload : Mutate(payload, other, fields, &rng);
    std::vector<ServiceRequest> decoded;
    const bool decodes =
        DecodeServiceRequests(request.payload, now, &decoded).ok();
    auto reply = std::make_shared<std::promise<std::string>>();
    std::future<std::string> reply_bytes = reply->get_future();
    const FrameHandler::Result result = serving.HandleFrame(
        request,
        [reply](std::string bytes) { reply->set_value(std::move(bytes)); });
    if (!decodes) {
      EXPECT_EQ(result, FrameHandler::Result::kMalformed);
      ++malformed;
      continue;
    }
    EXPECT_EQ(EncodeServiceRequests(1, decoded, now).substr(kFrameHeaderBytes),
              request.payload);
    ASSERT_EQ(result, FrameHandler::Result::kTaken);
    const std::string bytes = reply_bytes.get();
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    Frame frame;
    std::string error;
    ASSERT_EQ(decoder.Next(&frame, &error), FrameDecoder::Result::kFrame)
        << error;
    EXPECT_EQ(frame.type, FrameType::kServiceReplies);
    EXPECT_EQ(frame.correlation_id, request.correlation_id);
    std::vector<ServiceResponse> responses;
    const Status replied = DecodeServiceReplies(frame.payload, &responses);
    ASSERT_TRUE(replied.ok()) << replied.ToString();
    EXPECT_EQ(responses.size(), decoded.size());
    EXPECT_EQ(EncodeServiceReplies(frame.correlation_id, responses), bytes);
  }
  // The mutations reach both outcomes.
  EXPECT_GT(malformed, kMutationsPerInput / 10);
  EXPECT_LT(malformed, kMutationsPerInput);
  server.Stop();
}

/// Offsets of the count and of every entry's k, num_vectors and vector
/// lengths in the kServiceReplies payload of `responses`.
std::vector<size_t> ReplyFields(const std::vector<ServiceResponse>& responses) {
  std::vector<size_t> fields = {0};
  size_t at = 4;
  for (const ServiceResponse& response : responses) {
    at += 8;  // code, flags, reserved, score
    fields.push_back(at);
    at += 4 + 8 * response.class_ids.size();
    fields.push_back(at);
    at += 4;
    for (const Vec& vec : response.vectors) {
      fields.push_back(at);
      at += 4 + 4 * vec.size();
    }
  }
  return fields;
}

// Seeded mutation of a kServiceReplies payload holding all four kinds and
// non-Ok entries: every mutant is refused, or decoded and re-encoded to its
// own bytes — so no field the decoder lets through is ignored.
TEST(MutationTest, ServingReplyFrame) {
  std::vector<ServiceResponse> responses(8);
  responses[0].cache_hit = true;
  responses[0].vectors = {{1.5f, -2.25f, 0.0f}, {3.0f}, {}};
  responses[1].score = 0.875f;
  responses[2].class_ids = {4, 1, 7};
  responses[2].class_probs = {0.5f, 0.25f, 0.125f};
  responses[3].score = -3.5f;
  responses[4].code = ResponseCode::kRejected;
  responses[5].code = ResponseCode::kDeadlineExceeded;
  responses[6].code = ResponseCode::kInvalidItem;
  responses[7].code = ResponseCode::kQuotaExceeded;
  const std::string payload =
      EncodeServiceReplies(1, responses).substr(kFrameHeaderBytes);
  const std::string other =
      EncodeServiceReplies(1, {responses.rbegin(), responses.rend()})
          .substr(kFrameHeaderBytes);
  const std::vector<size_t> fields = ReplyFields(responses);

  Rng rng(20255);
  int refused = 0;
  for (int iter = 0; iter <= kMutationsPerInput; ++iter) {
    SCOPED_TRACE(testing::Message() << "iter " << iter);
    const std::string mutant =
        iter == 0 ? payload : Mutate(payload, other, fields, &rng);
    std::vector<ServiceResponse> decoded;
    if (!DecodeServiceReplies(mutant, &decoded).ok()) {
      ++refused;
      continue;
    }
    EXPECT_EQ(EncodeServiceReplies(1, decoded).substr(kFrameHeaderBytes),
              mutant);
  }
  EXPECT_GT(refused, kMutationsPerInput / 10);
  EXPECT_LT(refused, kMutationsPerInput);
}

}  // namespace
}  // namespace pkgm::net
