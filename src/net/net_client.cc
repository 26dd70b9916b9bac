#include "net/net_client.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "net/client_io.h"
#include "net/socket_util.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::net {
namespace {

using Clock = std::chrono::steady_clock;

serve::ServiceResponse NetworkErrorResponse() {
  serve::ServiceResponse response;
  response.code = serve::ResponseCode::kNetworkError;
  return response;
}

/// A SubmitBatch frame's per-request promises, in the frame's order.
using BatchPromises = std::vector<std::promise<serve::ServiceResponse>>;

/// One CallFrame's promise (Ping and ServerStatsJson ride on it).
struct FrameCall {
  std::promise<StatusOr<Frame>> promise;
  /// Ping/ServerStatsJson: not counted in network_errors() when lost.
  bool probe = false;
};

/// The reply owed to one request frame in flight.
using PendingReply = std::variant<BatchPromises, FrameCall>;

/// Server-to-client frame types; any other type from a server is a
/// protocol violation.
bool IsReplyType(FrameType type) {
  switch (type) {
    case FrameType::kServiceReplies:
    case FrameType::kStatsJson:
    case FrameType::kPong:
    case FrameType::kRows:
    case FrameType::kPushAck:
    case FrameType::kShardInfoReply:
    case FrameType::kBarrierReply:
    case FrameType::kError:
      return true;
    default:
      return false;
  }
}

/// Resolves `entry` with its reply `frame`, adding the requests a garbled
/// reply fails to `*network_errors`. Returns false on a protocol violation.
bool Resolve(PendingReply entry, Frame frame,
             std::atomic<uint64_t>* network_errors) {
  if (frame.type == FrameType::kError) {
    WireCode code;
    std::string message;
    if (!DecodeError(frame.payload, &code, &message).ok()) return false;
    if (auto* call = std::get_if<FrameCall>(&entry)) {
      call->promise.set_value(
          Status::IoError(StrFormat("server error: %s", message.c_str())));
      return true;
    }
    for (auto& promise : std::get<BatchPromises>(entry)) {
      serve::ServiceResponse response;
      response.code = ResponseCodeFromWire(code);
      promise.set_value(std::move(response));
    }
    return true;
  }
  if (auto* call = std::get_if<FrameCall>(&entry)) {
    call->promise.set_value(std::move(frame));
    return true;
  }
  auto& batch = std::get<BatchPromises>(entry);
  std::vector<serve::ServiceResponse> responses;
  if (frame.type != FrameType::kServiceReplies ||
      !DecodeServiceReplies(frame.payload, &responses).ok() ||
      responses.size() != batch.size()) {
    // A garbled reply or a count mismatch is a protocol violation; fail
    // this batch and give up on the stream.
    *network_errors += batch.size();
    for (auto& promise : batch) promise.set_value(NetworkErrorResponse());
    return false;
  }
  for (size_t i = 0; i < responses.size(); ++i) {
    batch[i].set_value(std::move(responses[i]));
  }
  return true;
}

}  // namespace

/// One pooled connection. The submitting thread writes frames under `mu`;
/// a dedicated reader thread matches response frames back by correlation
/// id. Teardown is owned by the reader: writers that hit an error only
/// shutdown() the socket (waking the reader), never close it, so the fd
/// cannot be pulled out from under a blocked read.
struct NetClient::Conn {
  std::mutex mu;
  ScopedFd fd;
  /// Reused across reconnects: its writer side runs under `mu`, its
  /// reader side only on the reader thread, and a new reader is spawned
  /// only after the old one joined.
  ClientConnIo io;
  std::thread reader;

  /// The reply owed to each request frame in flight, by correlation id.
  std::unordered_map<uint64_t, PendingReply> pending;

  /// Reconnect backoff: doubled on every failed connect attempt, reset on
  /// success and on a clean teardown of a previously working connection.
  int backoff_ms = 0;
  Clock::time_point next_attempt{};
};

NetClient::NetClient(NetClientOptions options) : options_(options) {
  next_correlation_.store(options_.start_correlation_id);
}

NetClient::~NetClient() {
  closing_.store(true, std::memory_order_release);
  for (auto& conn : conns_) {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
  }
  for (auto& conn : conns_) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

StatusOr<std::unique_ptr<NetClient>> NetClient::Connect(
    const std::string& host, uint16_t port, NetClientOptions options) {
  PKGM_CHECK(options.num_connections >= 1);
  std::unique_ptr<NetClient> client(new NetClient(options));
  client->host_ = host;
  client->port_ = port;
  for (size_t i = 0; i < options.num_connections; ++i) {
    client->conns_.push_back(std::make_unique<Conn>());
  }
  for (auto& conn : client->conns_) {
    auto fd = ConnectTcp(host, port, options.connect_timeout_ms);
    if (!fd.ok()) return fd.status();
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->fd = std::move(fd.value());
    Conn* raw = conn.get();
    NetClient* raw_client = client.get();
    conn->reader = std::thread([raw_client, raw] {
      raw_client->ReaderLoop(*raw);
    });
  }
  return client;
}

NetClient::Conn& NetClient::PickConn() {
  return *conns_[next_conn_.fetch_add(1) % conns_.size()];
}

Status NetClient::SendFrame(Conn& conn, const std::string& frame) {
  // Caller holds conn.mu.
  if (closing_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("client is shutting down");
  }
  if (!conn.fd.valid()) {
    // The reader tore the previous socket down; reconnect under backoff.
    const Clock::time_point now = Clock::now();
    if (now < conn.next_attempt) {
      return Status::IoError("connection down, reconnect backoff active");
    }
    auto fd = ConnectTcp(host_, port_, options_.connect_timeout_ms);
    if (!fd.ok()) {
      conn.backoff_ms = conn.backoff_ms == 0
                            ? options_.reconnect_backoff_initial_ms
                            : std::min(conn.backoff_ms * 2,
                                       options_.reconnect_backoff_max_ms);
      conn.next_attempt = now + std::chrono::milliseconds(conn.backoff_ms);
      return fd.status();
    }
    conn.backoff_ms = 0;
    if (conn.reader.joinable()) conn.reader.join();  // exited with the old fd
    conn.fd = std::move(fd.value());
    Conn* raw = &conn;
    conn.reader = std::thread([this, raw] { ReaderLoop(*raw); });
  }
  iovec iov;
  iov.iov_base = const_cast<char*>(frame.data());
  iov.iov_len = frame.size();
  const Status status = conn.io.SendAll(conn.fd.get(), &iov, 1);
  if (!status.ok()) {
    // Wake the reader; it fails the pending entries (including this
    // frame's, which the caller registered before sending) and closes.
    ::shutdown(conn.fd.get(), SHUT_RDWR);
  }
  return status;
}

std::future<serve::ServiceResponse> NetClient::Submit(
    serve::ServiceRequest request) {
  std::vector<serve::ServiceRequest> one;
  one.push_back(request);
  auto futures = SubmitBatch(std::move(one));
  return std::move(futures.front());
}

std::vector<std::future<serve::ServiceResponse>> NetClient::SubmitBatch(
    std::vector<serve::ServiceRequest> requests) {
  std::vector<std::future<serve::ServiceResponse>> futures;
  if (requests.empty()) return futures;
  BatchPromises batch(requests.size());
  futures.reserve(requests.size());
  for (auto& promise : batch) futures.push_back(promise.get_future());

  // The whole batch, whatever its mix of task kinds, is one frame: one
  // correlation id, one pending entry, one send.
  const uint64_t correlation_id = next_correlation_.fetch_add(1);
  const std::string frame = EncodeServiceRequests(correlation_id, requests,
                                                  serve::ServeClock::now());
  Conn& conn = PickConn();
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.pending.emplace(correlation_id, std::move(batch));
  if (!SendFrame(conn, frame).ok() && !conn.fd.valid()) {
    // If the write started, the reader owns failing the entry; if we never
    // had a socket, fail it here.
    auto it = conn.pending.find(correlation_id);
    if (it != conn.pending.end()) {
      auto& failed = std::get<BatchPromises>(it->second);
      network_errors_ += failed.size();
      for (auto& promise : failed) promise.set_value(NetworkErrorResponse());
      conn.pending.erase(it);
    }
  }
  return futures;
}

std::future<StatusOr<Frame>> NetClient::CallFrame(
    uint64_t correlation_id, const std::string& frame_bytes) {
  return Call(PickConn(), correlation_id, frame_bytes, /*probe=*/false);
}

std::future<StatusOr<Frame>> NetClient::Call(Conn& conn,
                                             uint64_t correlation_id,
                                             const std::string& frame_bytes,
                                             bool probe) {
  std::lock_guard<std::mutex> lock(conn.mu);
  auto [it, inserted] =
      conn.pending.try_emplace(correlation_id, FrameCall{{}, probe});
  if (!inserted) {
    // Correlation id already in flight on this connection (wraparound hit
    // an unanswered id): refuse rather than corrupt the matching.
    std::promise<StatusOr<Frame>> failed;
    failed.set_value(Status::FailedPrecondition(
        StrFormat("correlation id %llu already in flight",
                  static_cast<unsigned long long>(correlation_id))));
    return failed.get_future();
  }
  std::future<StatusOr<Frame>> future =
      std::get<FrameCall>(it->second).promise.get_future();
  const Status status = SendFrame(conn, frame_bytes);
  if (!status.ok()) {
    // Same split as SubmitBatch: once bytes may have hit the socket, the
    // reader owns failing the entry; a never-connected socket fails here.
    auto found = conn.pending.find(correlation_id);
    if (found != conn.pending.end() && !conn.fd.valid()) {
      std::get<FrameCall>(found->second).promise.set_value(status);
      conn.pending.erase(found);
    }
  }
  return future;
}

StatusOr<Frame> NetClient::Probe(FrameType request, FrameType reply_type,
                                 int timeout_ms, const char* what) {
  const uint64_t correlation_id = NextCorrelationId();
  Conn& conn = PickConn();
  std::future<StatusOr<Frame>> future =
      Call(conn, correlation_id, EncodeControl(request, correlation_id),
           /*probe=*/true);
  if (future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.pending.erase(correlation_id) > 0) {
      return Status::IoError(StrFormat("%s timed out", what));
    }
  }
  StatusOr<Frame> reply = future.get();
  if (reply.ok() && reply->type != reply_type) {
    return Status::IoError(StrFormat("unexpected reply to %s", what));
  }
  return reply;
}

StatusOr<std::string> NetClient::ServerStatsJson(int timeout_ms) {
  StatusOr<Frame> reply = Probe(FrameType::kStats, FrameType::kStatsJson,
                                timeout_ms, "stats request");
  if (!reply.ok()) return reply.status();
  return std::move(reply->payload);
}

Status NetClient::Ping(int timeout_ms) {
  return Probe(FrameType::kPing, FrameType::kPong, timeout_ms, "ping")
      .status();
}

void NetClient::FailPending(Conn& conn) {
  // Caller holds conn.mu.
  for (auto& [correlation_id, entry] : conn.pending) {
    if (auto* batch = std::get_if<BatchPromises>(&entry)) {
      network_errors_ += batch->size();
      for (auto& promise : *batch) promise.set_value(NetworkErrorResponse());
    } else {
      auto& call = std::get<FrameCall>(entry);
      if (!call.probe) ++network_errors_;
      call.promise.set_value(Status::IoError("connection lost"));
    }
  }
  conn.pending.clear();
}

void NetClient::ReaderLoop(Conn& conn) {
  FrameDecoder decoder(options_.max_frame_bytes);
  const int fd = conn.fd.get();  // stable: only the reader closes it
  bool healthy = true;

  while (healthy) {
    const std::span<char> dst = decoder.PrepareRead();
    const ssize_t n = conn.io.Recv(fd, dst.data(), dst.size());
    if (n <= 0) break;  // EOF or error (EINTR retried inside): tear down
    decoder.CommitRead(static_cast<size_t>(n));

    Frame frame;
    std::string error;
    while (healthy) {
      const FrameDecoder::Result result = decoder.Next(&frame, &error);
      if (result == FrameDecoder::Result::kNeedMore) break;
      if (result == FrameDecoder::Result::kError || !IsReplyType(frame.type)) {
        // Garbage, or a request-direction frame from a server: the stream
        // is gone.
        healthy = false;
        break;
      }
      // Every reply resolves the entry holding its correlation id; a late
      // or unknown id is dropped.
      PendingReply entry;
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        auto it = conn.pending.find(frame.correlation_id);
        if (it == conn.pending.end()) continue;
        entry = std::move(it->second);
        conn.pending.erase(it);
      }
      healthy = Resolve(std::move(entry), std::move(frame), &network_errors_);
    }
  }

  // Sole teardown point: close the socket and fail whatever was in flight.
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.fd.Reset();
  FailPending(conn);
}

}  // namespace pkgm::net
