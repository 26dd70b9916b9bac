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
  int connect_timeout_ms = 5000;
  /// Reconnect backoff after a connection failure: exponential between
  /// these bounds, applied on the next submit that needs the connection.
  int reconnect_backoff_initial_ms = 50;
  int reconnect_backoff_max_ms = 2000;
  /// First correlation id handed out. Production keeps the default; tests
  /// pin it near UINT64_MAX to exercise wraparound.
  uint64_t start_correlation_id = 1;
};

/// Client library for the PKGM wire protocol — the downstream-task side of
/// the deployment story: task code links this, not the model.
///
/// Mirrors the KnowledgeServer submit API (futures per request), so the
/// traffic driver runs the same closed loop against either. A batch, any
/// mix of task kinds, travels as one kServiceRequests frame, and its
/// futures resolve, in submission order, when the kServiceReplies frame
/// arrives. Requests in flight when a connection dies resolve with
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

  std::future<serve::ServiceResponse> Submit(serve::ServiceRequest request);

  /// One wire frame; futures resolve with semantics identical to
  /// KnowledgeServer::SubmitBatch.
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

  /// Requests that came back kNetworkError (connection failures), kept
  /// client-side so load generators can assert clean runs.
  uint64_t network_errors() const { return network_errors_.load(); }

 private:
  struct Conn;
  explicit NetClient(NetClientOptions options);

  Conn& PickConn();
  /// Registers a pending frame entry for `correlation_id` on `conn` and
  /// sends `frame_bytes`. A `probe` (Ping, ServerStatsJson) lost with its
  /// connection is not counted in network_errors().
  std::future<StatusOr<Frame>> Call(Conn& conn, uint64_t correlation_id,
                                    const std::string& frame_bytes,
                                    bool probe);
  /// Round-trips a `request` control frame within `timeout_ms` and expects
  /// a `reply_type` frame back; `what` names it in errors.
  StatusOr<Frame> Probe(FrameType request, FrameType reply_type,
                        int timeout_ms, const char* what);
  /// Sends an encoded frame on `conn`, reconnecting first if it is dead.
  /// Registration of the pending entry must happen before calling.
  Status SendFrame(Conn& conn, const std::string& frame);
  void ReaderLoop(Conn& conn);
  /// Fails every pending entry on `conn`: kNetworkError per request, a
  /// "connection lost" status per frame call.
  void FailPending(Conn& conn);

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
