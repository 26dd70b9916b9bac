#include "net/net_client.h"

#include <errno.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/client_io.h"
#include "net/socket_util.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Bound on one connect attempt, and the cap the reconnect backoff doubles
/// up to.
constexpr int kConnectTimeoutMs = 5000;
constexpr int kReconnectBackoffMaxMs = 2000;

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

/// `n` responses that all carry `code`.
std::vector<serve::ServiceResponse> ResponsesWithCode(
    size_t n, serve::ResponseCode code) {
  std::vector<serve::ServiceResponse> responses(n);
  for (serve::ServiceResponse& response : responses) response.code = code;
  return responses;
}

}  // namespace

/// What one request frame in flight is owed, whatever its kind. `complete`
/// takes the reply frame, or the status that lost the frame, and never runs
/// under a NetClient mutex. Handed a reply frame that does not decode, it
/// delivers nothing and returns false: the frame is then lost, and
/// `complete` runs again with the loss status. `requests` is what a loss
/// adds to network_errors(): the batch size, 1 for a frame call, 0 for a
/// probe.
struct NetClient::Pending {
  std::function<bool(StatusOr<Frame>)> complete;
  size_t requests = 0;
};

/// One pooled connection. Submitting threads write frames under `mu`; the
/// reader thread, which lives as long as the client, matches reply frames
/// back by correlation id. Teardown is owned by the reader: writers that hit
/// an error only shutdown() the socket (waking the reader), never close it,
/// so the fd cannot be pulled out from under a blocked read. A writer that
/// finds the socket closed reconnects and wakes the reader on `connected`.
struct NetClient::Conn {
  std::mutex mu;
  std::condition_variable connected;
  ScopedFd fd;
  /// Its writer side runs under `mu`, its reader side on the reader thread.
  ClientConnIo io;

  /// The completion owed to each request frame in flight, by correlation
  /// id.
  std::unordered_map<uint64_t, Pending> pending;

  /// Reconnect backoff: doubled on every failed connect attempt, reset on
  /// success.
  int backoff_ms = 0;
  Clock::time_point next_attempt{};

  std::thread reader;
};

NetClient::NetClient(NetClientOptions options) : options_(options) {
  next_correlation_.store(options_.start_correlation_id);
}

NetClient::~NetClient() {
  closing_.store(true, std::memory_order_release);
  for (auto& conn : conns_) {
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->fd.valid()) ::shutdown(conn->fd.get(), SHUT_RDWR);
    }
    conn->connected.notify_all();
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
    auto fd = ConnectTcp(host, port, kConnectTimeoutMs);
    if (!fd.ok()) return fd.status();
    client->conns_.push_back(std::make_unique<Conn>());
    client->conns_.back()->fd = std::move(fd.value());
  }
  for (auto& conn : client->conns_) {
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
    auto fd = ConnectTcp(host_, port_, kConnectTimeoutMs);
    if (!fd.ok()) {
      conn.backoff_ms =
          conn.backoff_ms == 0
              ? options_.reconnect_backoff_initial_ms
              : std::min(conn.backoff_ms * 2, kReconnectBackoffMaxMs);
      conn.next_attempt = now + std::chrono::milliseconds(conn.backoff_ms);
      return fd.status();
    }
    conn.backoff_ms = 0;
    conn.fd = std::move(fd.value());
    conn.connected.notify_one();
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

void NetClient::Send(Conn& conn, uint64_t correlation_id,
                     const std::string& frame_bytes, Pending pending) {
  Status lost;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    auto [it, inserted] = conn.pending.try_emplace(correlation_id);
    if (!inserted) {
      // Correlation id already in flight on this connection (wraparound hit
      // an unanswered id): refuse rather than corrupt the matching.
      lost = Status::FailedPrecondition(
          StrFormat("correlation id %llu already in flight",
                    static_cast<unsigned long long>(correlation_id)));
    } else {
      it->second = std::move(pending);
      lost = SendFrame(conn, frame_bytes);
      // Once a socket is open, bytes may have reached the server and the
      // reader owns the entry; a frame that found no socket is lost here.
      if (lost.ok() || conn.fd.valid()) return;
      pending = std::move(it->second);
      conn.pending.erase(it);
    }
  }
  Lose(pending, lost);
}

void NetClient::Lose(Pending& pending, const Status& status) {
  network_errors_ += pending.requests;
  pending.complete(status);
}

void NetClient::SubmitBatchAsync(std::vector<serve::ServiceRequest> requests,
                                 serve::BatchCallback done) {
  if (requests.empty()) return;
  const size_t n = requests.size();
  Pending pending;
  pending.requests = n;
  pending.complete = [n, done = std::move(done)](StatusOr<Frame> reply) {
    std::vector<serve::ServiceResponse> responses;
    if (!reply.ok()) {
      responses = ResponsesWithCode(n, serve::ResponseCode::kNetworkError);
    } else if (reply->type == FrameType::kError) {
      WireCode code{};
      std::string message;
      if (!DecodeError(reply->payload, &code, &message).ok()) return false;
      responses = ResponsesWithCode(n, ResponseCodeFromWire(code));
    } else if (reply->type != FrameType::kServiceReplies ||
               !DecodeServiceReplies(reply->payload, &responses).ok() ||
               responses.size() != n) {
      return false;
    }
    for (size_t i = 0; i < n; ++i) done(i, std::move(responses[i]));
    return true;
  };
  // The whole batch, whatever its mix of task kinds, is one frame: one
  // correlation id, one pending entry, one send.
  const uint64_t correlation_id = NextCorrelationId();
  Send(PickConn(), correlation_id,
       EncodeServiceRequests(correlation_id, requests,
                             serve::ServeClock::now()),
       std::move(pending));
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
  auto promises =
      std::make_shared<std::vector<std::promise<serve::ServiceResponse>>>(
          requests.size());
  std::vector<std::future<serve::ServiceResponse>> futures;
  futures.reserve(promises->size());
  for (auto& promise : *promises) futures.push_back(promise.get_future());
  SubmitBatchAsync(std::move(requests),
                   [promises](size_t index, serve::ServiceResponse response) {
                     (*promises)[index].set_value(std::move(response));
                   });
  return futures;
}

std::future<StatusOr<Frame>> NetClient::CallFrame(
    uint64_t correlation_id, const std::string& frame_bytes) {
  return Call(PickConn(), correlation_id, frame_bytes, /*requests=*/1);
}

std::future<StatusOr<Frame>> NetClient::Call(Conn& conn,
                                             uint64_t correlation_id,
                                             const std::string& frame_bytes,
                                             size_t requests) {
  auto promise = std::make_shared<std::promise<StatusOr<Frame>>>();
  std::future<StatusOr<Frame>> future = promise->get_future();
  Pending pending;
  pending.requests = requests;
  pending.complete = [promise](StatusOr<Frame> reply) {
    if (reply.ok() && reply->type == FrameType::kError) {
      WireCode code{};
      std::string message;
      if (!DecodeError(reply->payload, &code, &message).ok()) return false;
      reply = Status::IoError(StrFormat("server error: %s", message.c_str()));
    }
    promise->set_value(std::move(reply));
    return true;
  };
  Send(conn, correlation_id, frame_bytes, std::move(pending));
  return future;
}

StatusOr<Frame> NetClient::Probe(FrameType request, FrameType reply_type,
                                 int timeout_ms, const char* what) {
  const uint64_t correlation_id = NextCorrelationId();
  Conn& conn = PickConn();
  std::future<StatusOr<Frame>> future =
      Call(conn, correlation_id, EncodeControl(request, correlation_id),
           /*requests=*/0);
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

void NetClient::ReaderLoop(Conn& conn) {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(conn.mu);
      conn.connected.wait(lock, [&] {
        return conn.fd.valid() || closing_.load(std::memory_order_acquire);
      });
      if (!conn.fd.valid()) return;  // the client is shutting down
      fd = conn.fd.get();  // stable: only this thread closes it
    }
    ReadReplies(conn, fd);

    // Sole teardown point: close the socket, then fail whatever was in
    // flight on it outside the lock, so a completion may submit again.
    std::unordered_map<uint64_t, Pending> lost;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.fd.Reset();
      lost.swap(conn.pending);
    }
    for (auto& [correlation_id, pending] : lost) {
      Lose(pending, Status::IoError("connection lost"));
    }
  }
}

void NetClient::ReadReplies(Conn& conn, int fd) {
  FrameDecoder decoder(options_.max_frame_bytes);
  for (;;) {
    const std::span<char> dst = decoder.PrepareRead();
    const ssize_t n = conn.io.Recv(fd, dst.data(), dst.size());
    if (n <= 0) return;  // EOF or error (EINTR retried inside)
    decoder.CommitRead(static_cast<size_t>(n));

    Frame frame;
    std::string error;
    for (;;) {
      const FrameDecoder::Result result = decoder.Next(&frame, &error);
      if (result == FrameDecoder::Result::kNeedMore) break;
      if (result == FrameDecoder::Result::kError || !IsReplyType(frame.type)) {
        // Garbage, or a request-direction frame from a server: the stream
        // is gone.
        return;
      }
      // Every reply completes the entry holding its correlation id; a late
      // or unknown id is dropped.
      Pending pending;
      {
        std::lock_guard<std::mutex> lock(conn.mu);
        auto it = conn.pending.find(frame.correlation_id);
        if (it == conn.pending.end()) continue;
        pending = std::move(it->second);
        conn.pending.erase(it);
      }
      if (!pending.complete(std::move(frame))) {
        // A reply that does not decode loses its frame and ends the stream.
        Lose(pending, Status::IoError("garbled reply"));
        return;
      }
    }
  }
}

}  // namespace pkgm::net
