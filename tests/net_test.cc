// End-to-end tests for the network serving subsystem: NetServer + NetClient
// over loopback against a real KnowledgeServer. The core acceptance
// property is parity — vectors served over the socket are bit-identical to
// direct KnowledgeServer::Submit — including across a registry hot swap
// mid-stream.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/pkgm_model.h"
#include "core/service.h"
#include "net/net_client.h"
#include "net/net_server.h"
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

/// Keys of the flat "net" object in a StatsJson snapshot, in order.
std::vector<std::string> NetKeys(const std::string& json) {
  std::vector<std::string> keys;
  const size_t net = json.find("\"net\":");
  if (net == std::string::npos) return keys;
  const size_t open = json.find('{', net);
  const size_t close = json.find('}', open);
  const std::string body = json.substr(open + 1, close - open - 1);
  // Each member is "key":value; no value holds a comma.
  for (size_t pos = body.find('"'); pos != std::string::npos;) {
    const size_t end = body.find('"', pos + 1);
    keys.push_back(body.substr(pos + 1, end - pos - 1));
    const size_t comma = body.find(',', end);
    pos = comma == std::string::npos ? comma : body.find('"', comma);
  }
  return keys;
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
  NetServer net(&server);
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
  NetServer net(&server);
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
  NetServer net(&server);
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
  NetServer net(&server);
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
  NetServer net(&server);
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

TEST(NetServerTest, UnknownFrameTypeAnsweredWithErrorConnectionSurvives) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());

  auto raw = ConnectTcp("127.0.0.1", net.port(), 5000);
  ASSERT_TRUE(raw.ok());
  const int fd = raw.value().get();

  // A validly framed (magic/CRC ok) frame of an unknown type: forward
  // compatibility says answer kError and keep the stream.
  std::string unknown;
  AppendFrame(static_cast<FrameType>(42), /*correlation_id=*/7, "payload",
              &unknown);
  ASSERT_TRUE(RawSend(fd, unknown));

  FrameDecoder decoder;
  Frame frame;
  ASSERT_TRUE(RawReadFrame(fd, &decoder, &frame));
  EXPECT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.correlation_id, 7u);
  WireCode code;
  std::string message;
  ASSERT_TRUE(DecodeError(frame.payload, &code, &message).ok());
  EXPECT_EQ(code, WireCode::kUnsupported);

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
  NetServer net(&server, nopt);
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
    if (!RawSend(fd,
                 EncodeGetVectors(correlation, batch, ServeClock::now()))) {
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
  NetServer net(&server);
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
      [&] { return net.net_counters().requests_in >= futures.size(); }));
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
  NetServer net(&server, nopt);
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
  NetServer net(&server);
  ASSERT_TRUE(net.Start().ok());
  auto client = NetClient::Connect("127.0.0.1", net.port());
  ASSERT_TRUE(client.ok());

  EXPECT_TRUE(client.value()->Ping().ok());
  auto future = client.value()->Submit(MakeRequest(2, ServiceForm::kCondensed));
  EXPECT_EQ(future.get().code, ResponseCode::kOk);

  auto stats = client.value()->ServerStatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats.value().find("\"net\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"accepted\""), std::string::npos);

  // The stats name the event loop serving the sockets, plus the syscall
  // accounting.
  EXPECT_NE(stats.value().find("\"io_backend\":\"epoll\""),
            std::string::npos)
      << stats.value();
  EXPECT_NE(stats.value().find("\"io_wait_calls\""), std::string::npos);
  EXPECT_NE(stats.value().find("\"frames_per_syscall\""), std::string::npos);
  EXPECT_EQ(net.net_counters().io_backend, "epoll");

  client.value().reset();
  net.Stop();
  server.Stop();
}

TEST(NetClientTest, ReconnectsAfterServerRestart) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();

  auto first = std::make_unique<NetServer>(&server);
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
  NetServer second(&server, nopt);
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
  bool HandleFrame(const Frame& frame, Respond respond) override {
    if (frame.type == FrameType::kPushGrads) {
      float scale = 0.0f;
      uint32_t epoch = 0;
      std::string_view blob;
      if (!DecodePushGrads(frame.payload, &scale, &epoch, &blob).ok()) {
        return false;
      }
      std::lock_guard<std::mutex> lock(mu_);
      parked_.push_back({frame.correlation_id, epoch, std::move(respond)});
      return true;
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
      if (!DecodeBarrier(frame.payload, &epoch, &workers).ok()) return false;
      respond(EncodeBarrierReply(frame.correlation_id, epoch, workers));
      return true;
    }
    return false;
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

TEST(NetClientTest, ReconnectDuringPendingPush) {
  ReversingPushHandler handler;
  NetServerOptions nopt;
  nopt.drain_timeout_ms = 50;  // force-close the parked push quickly
  auto first = std::make_unique<NetServer>(&handler, nopt);
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
  // wedge, and the drain force-closes the connection at the deadline.
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

// A transport-only server (pkgm_psd's shape) and a KnowledgeServer front
// end (pkgm_netd's) report one "net" schema, which the smokes, pkgm_serve
// and the benchmark read by key.
TEST(NetServerTest, StatsJsonNetKeysMatchAcrossServerKinds) {
  Fixture fx;
  KnowledgeServer server(fx.provider.get());
  server.Start();
  NetServer knowledge_net(&server);
  ASSERT_TRUE(knowledge_net.Start().ok());
  ReversingPushHandler handler;
  NetServer handler_net(&handler);
  ASSERT_TRUE(handler_net.Start().ok());

  const std::vector<std::string> keys = NetKeys(knowledge_net.StatsJson());
  EXPECT_EQ(NetKeys(handler_net.StatsJson()), keys)
      << handler_net.StatsJson();
  for (const char* key :
       {"io_backend", "frames_in", "frames_out", "bytes_in", "bytes_out",
        "io_wait_calls", "io_recv_syscalls", "io_send_syscalls",
        "protocol_errors", "requests_in", "connections_active",
        "frames_per_syscall"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << key;
  }

  handler_net.Stop();
  knowledge_net.Stop();
  server.Stop();
}

}  // namespace
}  // namespace pkgm::net
