#ifndef PKGM_NET_NET_CLIENT_H_
#define PKGM_NET_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "net/wire.h"
#include "serve/request.h"
#include "util/status.h"

namespace pkgm::net {

struct NetClientOptions {
  /// Pooled TCP connections; batches are spread round-robin and pipelined
  /// per connection (many request frames in flight, matched back by
  /// correlation id).
  size_t num_connections = 1;
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// First reconnect backoff after a connection failure, applied on the
  /// next submit that needs the connection; it doubles per failed attempt
  /// up to a 2 s cap.
  int reconnect_backoff_initial_ms = 50;
  /// First correlation id handed out. Production keeps the default; tests
  /// pin it near UINT64_MAX to exercise wraparound.
  uint64_t start_correlation_id = 1;
};

/// Client library for the PKGM wire protocol — the downstream-task side of
/// the deployment story: task code links this, not the model.
///
/// Mirrors the KnowledgeServer submit API, so the traffic drivers run the
/// same loops against either. A batch, any mix of task kinds, travels as
/// one kServiceRequests frame; SubmitBatchAsync completes it through a
/// callback when the kServiceReplies frame arrives, and every
/// future-returning call is a promise wrapper over the same register-and-
/// send path. Requests in flight when a connection dies complete with
/// kNetworkError (at-most-once; the client never replays).
///
/// Thread-safe: any number of threads may submit concurrently.
class NetClient {
 public:
  /// Connects `options.num_connections` sockets to host:port.
  static StatusOr<std::unique_ptr<NetClient>> Connect(
      const std::string& host, uint16_t port, NetClientOptions options = {});

  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// One wire frame, with KnowledgeServer::SubmitBatchAsync's contract:
  /// `done` runs exactly once per request, with its index in `requests`,
  /// and never while a NetClient mutex is held. It runs on the connection's
  /// reader thread when the reply (or kError) frame is decoded or the
  /// connection dies, or on the submitting thread, before this returns,
  /// when the frame cannot be sent. It must be fast and must not block: the
  /// replies behind it on the connection wait for it.
  void SubmitBatchAsync(std::vector<serve::ServiceRequest> requests,
                        serve::BatchCallback done);

  std::future<serve::ServiceResponse> Submit(serve::ServiceRequest request);

  /// SubmitBatchAsync with one future per request.
  std::vector<std::future<serve::ServiceResponse>> SubmitBatch(
      std::vector<serve::ServiceRequest> requests);

  /// Round-trips a kStats probe; returns the server's StatsJson() blob.
  StatusOr<std::string> ServerStatsJson(int timeout_ms = 5000);

  /// Round-trips a kPing health probe.
  Status Ping(int timeout_ms = 5000);

  /// Claims a fresh correlation id for CallFrame.
  uint64_t NextCorrelationId() { return next_correlation_.fetch_add(1); }

  /// Generic pipelined request/reply for the v2 frames: sends the fully
  /// encoded `frame_bytes` (built with `correlation_id` from
  /// NextCorrelationId()) and resolves with the matching reply frame
  /// (kRows, kPushAck, kShardInfoReply, kBarrierReply). A kError reply or
  /// a lost connection resolves with a non-ok status. Many calls may be in
  /// flight per connection; replies match by correlation id, so they may
  /// resolve out of order.
  std::future<StatusOr<Frame>> CallFrame(uint64_t correlation_id,
                                         const std::string& frame_bytes);

  /// Requests that came back kNetworkError (lost connections, garbled
  /// replies, frames that could not be sent), kept client-side so load
  /// generators can assert clean runs.
  uint64_t network_errors() const { return network_errors_.load(); }

 private:
  struct Conn;
  struct Pending;
  explicit NetClient(NetClientOptions options);

  Conn& PickConn();
  /// The one register-and-send path: registers `pending` under
  /// `correlation_id` on `conn` and sends `frame_bytes`. Once a socket is
  /// open the reader completes the entry; a frame that finds none, or
  /// whose id is still in flight, is lost here, after the lock is released.
  void Send(Conn& conn, uint64_t correlation_id,
            const std::string& frame_bytes, Pending pending);
  /// Promise wrapper over Send for CallFrame and the probes; `requests` is
  /// what a loss adds to network_errors() (0 for a probe).
  std::future<StatusOr<Frame>> Call(Conn& conn, uint64_t correlation_id,
                                    const std::string& frame_bytes,
                                    size_t requests);
  /// Round-trips a `request` control frame within `timeout_ms` and expects
  /// a `reply_type` frame back; `what` names it in errors.
  StatusOr<Frame> Probe(FrameType request, FrameType reply_type,
                        int timeout_ms, const char* what);
  /// Sends an encoded frame on `conn`, reconnecting first if it is dead.
  /// The caller holds conn.mu and has registered the pending entry.
  Status SendFrame(Conn& conn, const std::string& frame);
  /// The connection's reader thread, for the client's lifetime: reads
  /// replies while a socket is open, fails what is in flight when it
  /// closes, then waits for a writer to reconnect.
  void ReaderLoop(Conn& conn);
  /// Completes the entries of reply frames read from `fd` until the stream
  /// ends: EOF, a read error, or a frame that breaks the protocol.
  void ReadReplies(Conn& conn, int fd);
  /// Adds `pending.requests` to network_errors(), then completes it with
  /// `status`. The caller holds no NetClient mutex.
  void Lose(Pending& pending, const Status& status);

  const NetClientOptions options_;
  std::string host_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_correlation_{1};
  std::atomic<size_t> next_conn_{0};
  std::atomic<uint64_t> network_errors_{0};
  std::atomic<bool> closing_{false};
};

}  // namespace pkgm::net

#endif  // PKGM_NET_NET_CLIENT_H_
