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

  struct PendingBatch {
    std::vector<std::promise<serve::ServiceResponse>> promises;
  };
  std::unordered_map<uint64_t, PendingBatch> pending;
  std::unordered_map<uint64_t, std::promise<StatusOr<std::string>>>
      pending_stats;
  std::unordered_map<uint64_t, std::promise<Status>> pending_pings;
  std::unordered_map<uint64_t, std::promise<StatusOr<Frame>>> pending_frames;

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
  iovec iov;
  iov.iov_base = const_cast<char*>(frame.data());
  iov.iov_len = frame.size();
  return SendFrames(conn, &iov, 1);
}

Status NetClient::SendFrames(Conn& conn, const iovec* iov, int iovcnt) {
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
  const Status status = conn.io.SendAll(conn.fd.get(), iov, iovcnt);
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
  futures.reserve(requests.size());
  // Futures are claimed up front in submission order; moving a promise
  // into a per-frame pending entry keeps its shared state, so the caller's
  // future ordering is independent of how the batch splits into frames.
  std::vector<std::promise<serve::ServiceResponse>> promises(requests.size());
  for (auto& promise : promises) futures.push_back(promise.get_future());

  // Each task kind travels in its own typed frame (wire v3) with its own
  // correlation id; a pure-lookup batch still costs exactly one frame.
  std::vector<size_t> by_kind[serve::kMaxTaskKind + 1];
  for (size_t i = 0; i < requests.size(); ++i) {
    by_kind[static_cast<uint8_t>(requests[i].task)].push_back(i);
  }

  const auto now = serve::ServeClock::now();
  Conn& conn = PickConn();
  std::lock_guard<std::mutex> lock(conn.mu);
  // Encode every typed frame and register its pending entry first, then
  // ship the whole batch in one gathered sendmsg: a mixed-kind batch costs
  // one send syscall, not one per kind.
  std::vector<std::string> frames;
  std::vector<uint64_t> correlation_ids;
  for (uint8_t kind = 0; kind <= serve::kMaxTaskKind; ++kind) {
    const std::vector<size_t>& indices = by_kind[kind];
    if (indices.empty()) continue;
    std::vector<serve::ServiceRequest> sub;
    sub.reserve(indices.size());
    for (size_t i : indices) sub.push_back(requests[i]);

    const uint64_t correlation_id = next_correlation_.fetch_add(1);
    std::string frame;
    switch (static_cast<serve::TaskKind>(kind)) {
      case serve::TaskKind::kLookup:
        frame = EncodeGetVectors(correlation_id, sub, now);
        break;
      case serve::TaskKind::kRecommend:
        frame = EncodeRecommend(correlation_id, sub, now);
        break;
      case serve::TaskKind::kClassify:
        frame = EncodeClassify(correlation_id, sub, now);
        break;
      case serve::TaskKind::kAlign:
        frame = EncodeAlign(correlation_id, sub, now);
        break;
    }

    Conn::PendingBatch batch;
    batch.promises.reserve(indices.size());
    for (size_t i : indices) batch.promises.push_back(std::move(promises[i]));
    conn.pending.emplace(correlation_id, std::move(batch));
    frames.push_back(std::move(frame));
    correlation_ids.push_back(correlation_id);
  }

  std::vector<iovec> iov(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    iov[i].iov_base = const_cast<char*>(frames[i].data());
    iov[i].iov_len = frames[i].size();
  }
  const Status status =
      SendFrames(conn, iov.data(), static_cast<int>(iov.size()));
  if (!status.ok()) {
    // If the write started, the reader owns failing the entries; if we
    // never had a socket, fail them here.
    if (!conn.fd.valid()) {
      for (uint64_t correlation_id : correlation_ids) {
        auto it = conn.pending.find(correlation_id);
        if (it == conn.pending.end()) continue;
        network_errors_ += it->second.promises.size();
        for (auto& promise : it->second.promises) {
          promise.set_value(NetworkErrorResponse());
        }
        conn.pending.erase(it);
      }
    }
  }
  return futures;
}

StatusOr<std::string> NetClient::ServerStatsJson(int timeout_ms) {
  const uint64_t correlation_id = next_correlation_.fetch_add(1);
  Conn& conn = PickConn();
  std::future<StatusOr<std::string>> future;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    auto [it, inserted] = conn.pending_stats.emplace(
        correlation_id, std::promise<StatusOr<std::string>>());
    future = it->second.get_future();
    const Status status =
        SendFrame(conn, EncodeControl(FrameType::kStats, correlation_id));
    if (!status.ok() && !conn.fd.valid()) {
      conn.pending_stats.erase(correlation_id);
      return status;
    }
  }
  if (future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.pending_stats.erase(correlation_id) > 0) {
      return Status::IoError("stats request timed out");
    }
  }
  return future.get();
}

Status NetClient::Ping(int timeout_ms) {
  const uint64_t correlation_id = next_correlation_.fetch_add(1);
  Conn& conn = PickConn();
  std::future<Status> future;
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    auto [it, inserted] =
        conn.pending_pings.emplace(correlation_id, std::promise<Status>());
    future = it->second.get_future();
    const Status status =
        SendFrame(conn, EncodeControl(FrameType::kPing, correlation_id));
    if (!status.ok() && !conn.fd.valid()) {
      conn.pending_pings.erase(correlation_id);
      return status;
    }
  }
  if (future.wait_for(std::chrono::milliseconds(timeout_ms)) !=
      std::future_status::ready) {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (conn.pending_pings.erase(correlation_id) > 0) {
      return Status::IoError("ping timed out");
    }
  }
  return future.get();
}

std::future<StatusOr<Frame>> NetClient::CallFrame(
    uint64_t correlation_id, const std::string& frame_bytes) {
  Conn& conn = PickConn();
  std::lock_guard<std::mutex> lock(conn.mu);
  auto [it, inserted] = conn.pending_frames.emplace(
      correlation_id, std::promise<StatusOr<Frame>>());
  if (!inserted) {
    // Correlation id already in flight on this connection (wraparound hit
    // an unanswered id): refuse rather than corrupt the matching.
    std::promise<StatusOr<Frame>> failed;
    failed.set_value(Status::FailedPrecondition(
        StrFormat("correlation id %llu already in flight",
                  static_cast<unsigned long long>(correlation_id))));
    return failed.get_future();
  }
  std::future<StatusOr<Frame>> future = it->second.get_future();
  const Status status = SendFrame(conn, frame_bytes);
  if (!status.ok()) {
    // Same split as SubmitBatch: once bytes may have hit the socket, the
    // reader owns failing the entry; a never-connected socket fails here.
    auto found = conn.pending_frames.find(correlation_id);
    if (found != conn.pending_frames.end() && !conn.fd.valid()) {
      found->second.set_value(status);
      conn.pending_frames.erase(found);
    }
  }
  return future;
}

void NetClient::FailPending(Conn& conn) {
  // Caller holds conn.mu.
  for (auto& [correlation_id, batch] : conn.pending) {
    network_errors_ += batch.promises.size();
    for (auto& promise : batch.promises) {
      promise.set_value(NetworkErrorResponse());
    }
  }
  conn.pending.clear();
  for (auto& [correlation_id, promise] : conn.pending_stats) {
    promise.set_value(Status::IoError("connection lost"));
  }
  conn.pending_stats.clear();
  for (auto& [correlation_id, promise] : conn.pending_pings) {
    promise.set_value(Status::IoError("connection lost"));
  }
  conn.pending_pings.clear();
  for (auto& [correlation_id, promise] : conn.pending_frames) {
    ++network_errors_;
    promise.set_value(Status::IoError("connection lost"));
  }
  conn.pending_frames.clear();
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
      if (result == FrameDecoder::Result::kError) {
        healthy = false;  // server sent garbage; the stream is gone
        break;
      }
      switch (frame.type) {
        case FrameType::kVectors:
        case FrameType::kRecommendReply:
        case FrameType::kClassifyReply:
        case FrameType::kAlignReply: {
          std::vector<serve::ServiceResponse> responses;
          Status decode_status;
          switch (frame.type) {
            case FrameType::kClassifyReply:
              decode_status = DecodeClassifyReply(frame.payload, &responses);
              break;
            case FrameType::kRecommendReply:
            case FrameType::kAlignReply:
              decode_status = DecodeScoreReply(frame.payload, &responses);
              break;
            default:
              decode_status = DecodeVectors(frame.payload, &responses);
              break;
          }
          if (!decode_status.ok()) {
            healthy = false;
            break;
          }
          Conn::PendingBatch batch;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            auto it = conn.pending.find(frame.correlation_id);
            if (it == conn.pending.end()) break;  // late/unknown: drop
            batch = std::move(it->second);
            conn.pending.erase(it);
          }
          if (responses.size() != batch.promises.size()) {
            // Count mismatch is a protocol violation; fail this batch and
            // give up on the stream.
            network_errors_ += batch.promises.size();
            for (auto& promise : batch.promises) {
              promise.set_value(NetworkErrorResponse());
            }
            healthy = false;
            break;
          }
          for (size_t i = 0; i < responses.size(); ++i) {
            batch.promises[i].set_value(std::move(responses[i]));
          }
          break;
        }
        case FrameType::kStatsJson: {
          std::promise<StatusOr<std::string>> promise;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            auto it = conn.pending_stats.find(frame.correlation_id);
            if (it != conn.pending_stats.end()) {
              promise = std::move(it->second);
              conn.pending_stats.erase(it);
              found = true;
            }
          }
          if (found) promise.set_value(std::move(frame.payload));
          break;
        }
        case FrameType::kPong: {
          std::promise<Status> promise;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            auto it = conn.pending_pings.find(frame.correlation_id);
            if (it != conn.pending_pings.end()) {
              promise = std::move(it->second);
              conn.pending_pings.erase(it);
              found = true;
            }
          }
          if (found) promise.set_value(Status::Ok());
          break;
        }
        case FrameType::kRows:
        case FrameType::kPushAck:
        case FrameType::kShardInfoReply:
        case FrameType::kBarrierReply: {
          std::promise<StatusOr<Frame>> promise;
          bool found = false;
          {
            std::lock_guard<std::mutex> lock(conn.mu);
            auto it = conn.pending_frames.find(frame.correlation_id);
            if (it != conn.pending_frames.end()) {
              promise = std::move(it->second);
              conn.pending_frames.erase(it);
              found = true;
            }
          }
          if (found) promise.set_value(std::move(frame));
          break;
        }
        case FrameType::kError: {
          WireCode code;
          std::string message;
          if (!DecodeError(frame.payload, &code, &message).ok()) {
            healthy = false;
            break;
          }
          std::lock_guard<std::mutex> lock(conn.mu);
          auto it = conn.pending.find(frame.correlation_id);
          if (it != conn.pending.end()) {
            for (auto& promise : it->second.promises) {
              serve::ServiceResponse response;
              response.code = ResponseCodeFromWire(code);
              promise.set_value(std::move(response));
            }
            conn.pending.erase(it);
            break;
          }
          auto stats_it = conn.pending_stats.find(frame.correlation_id);
          if (stats_it != conn.pending_stats.end()) {
            stats_it->second.set_value(
                Status::IoError(StrFormat("server error: %s",
                                          message.c_str())));
            conn.pending_stats.erase(stats_it);
            break;
          }
          auto ping_it = conn.pending_pings.find(frame.correlation_id);
          if (ping_it != conn.pending_pings.end()) {
            ping_it->second.set_value(
                Status::IoError(StrFormat("server error: %s",
                                          message.c_str())));
            conn.pending_pings.erase(ping_it);
            break;
          }
          auto frame_it = conn.pending_frames.find(frame.correlation_id);
          if (frame_it != conn.pending_frames.end()) {
            frame_it->second.set_value(
                Status::IoError(StrFormat("server error: %s",
                                          message.c_str())));
            conn.pending_frames.erase(frame_it);
          }
          break;
        }
        default:
          // Request-direction frames from a server: protocol violation.
          healthy = false;
          break;
      }
    }
  }

  // Sole teardown point: close the socket and fail whatever was in flight.
  std::lock_guard<std::mutex> lock(conn.mu);
  conn.fd.Reset();
  FailPending(conn);
}

}  // namespace pkgm::net
