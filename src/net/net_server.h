#ifndef PKGM_NET_NET_SERVER_H_
#define PKGM_NET_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/socket_util.h"
#include "net/wire.h"
#include "serve/knowledge_server.h"
#include "serve/server_stats.h"
#include "util/status.h"

namespace pkgm::net {

struct NetServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  uint16_t port = 0;
  /// Event-loop threads. Connections are assigned round-robin at accept
  /// time and stay on their thread for life (no cross-thread socket I/O).
  size_t num_io_threads = 2;
  /// Frames whose payload declares more than this are protocol errors.
  size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection bound on buffered-but-unsent response bytes. A reader
  /// too slow to keep its outbox under the bound is disconnected rather
  /// than allowed to pin server memory (slow-reader backpressure).
  size_t max_outbox_bytes = 8u << 20;
  /// Connections with no traffic and no in-flight work for this long are
  /// closed. 0 disables the idle reaper.
  int idle_timeout_ms = 0;
  int listen_backlog = 128;
  /// SO_REUSEPORT on the listener, so multiple server processes can share
  /// a port for kernel-level load spreading.
  bool reuseport = false;
  /// Stop(): how long the graceful drain may take before remaining
  /// connections are force-closed.
  int drain_timeout_ms = 5000;
  /// Kernel send-buffer size for accepted sockets; 0 keeps the default
  /// (tests shrink it to exercise the outbox bound deterministically).
  int so_sndbuf_bytes = 0;
};

/// Server-side extension seam: application logic for frame types the
/// serving switch does not own (the v2 parameter-server frames). A
/// NetServer built over a FrameHandler keeps all of the transport — epoll
/// loops, framing, backpressure, drain — and routes request frames here.
class FrameHandler {
 public:
  /// Completes one frame with a fully encoded response frame. May be
  /// invoked synchronously from HandleFrame or later from any thread, at
  /// most once; extra invocations are ignored. The response is posted to
  /// the connection's I/O thread (the connection may have died — the
  /// response is then dropped).
  using Respond = std::function<void(std::string)>;

  virtual ~FrameHandler() = default;

  /// Called on the connection's I/O thread for every routable request
  /// frame. Return true if the frame was accepted (a response via
  /// `respond` is then owed — a held respond counts as an outstanding
  /// frame, and NetServer::Stop() waits for it, so any response a handler
  /// parks long-term (e.g. a barrier) must be completed or abandoned by
  /// the handler before Stop()); return false to have the server answer
  /// kError/kUnsupported without calling respond. Destroying every copy
  /// of a respond without invoking it also completes the frame (the peer
  /// gets no reply and sees the eventual close); invoking or dropping a
  /// respond after the NetServer is destroyed is undefined.
  virtual bool HandleFrame(const Frame& frame, Respond respond) = 0;

  /// JSON stats snapshot served for kStats frames when no KnowledgeServer
  /// is attached.
  virtual std::string StatsJson() { return "{}"; }
};

/// The TCP front end of the serving subsystem: a non-blocking event loop
/// that decodes wire-protocol frames into ServiceRequest batches, submits
/// them to a KnowledgeServer — whose admission control, deadlines, cache
/// and registry hot swap are untouched — and completes responses
/// asynchronously.
///
/// Threading model: N I/O threads each run one level-triggered epoll loop
/// over their own set of non-blocking connections (read() straight into
/// the connection's FrameDecoder, one gathered sendmsg() per flush);
/// thread 0 additionally owns the listener. A request frame is decoded on
/// its connection's I/O thread and submitted via SubmitBatchAsync; the
/// knowledge-server worker that finishes the last request of the frame
/// encodes the response and posts it back to the owning I/O thread
/// (eventfd wakeup), which writes it out. An I/O thread therefore never
/// blocks on compute, and a socket is only ever touched by its owning
/// thread.
///
/// Failure containment: a malformed frame (bad magic/version/CRC/oversize
/// or garbled payload) closes exactly the offending connection; an unknown
/// frame type gets a kError response and the connection survives.
///
/// Stop() drains gracefully: the listener closes, reading stops, every
/// request already accepted completes and its response is flushed, then
/// connections close. Stop() does not stop the KnowledgeServer (the caller
/// owns that ordering; the knowledge server must keep running until
/// Stop() returns so in-flight requests can complete).
class NetServer {
 public:
  explicit NetServer(serve::KnowledgeServer* server,
                     NetServerOptions options = {});
  /// Transport-only server: frames are routed to `handler` instead of a
  /// KnowledgeServer (kPing/kStats still answered by the transport;
  /// kGetVectors is refused with kError). `handler` must outlive Stop().
  explicit NetServer(FrameHandler* handler, NetServerOptions options = {});
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and spawns the I/O threads.
  Status Start();

  /// Graceful drain (see class comment). Idempotent.
  void Stop();

  /// Bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Snapshot of the connection/frame/backpressure counters.
  serve::NetCounters net_counters() const;

  /// Combined knowledge-server + network counters, ASCII / JSON.
  std::string StatsReport() const;
  std::string StatsJson() const;

 private:
  struct Connection;
  struct IoThread;
  struct FrameState;
  struct HandlerRespondState;

  void IoLoop(size_t thread_index);
  /// One epoll_wait (bounded by the poll interval) and the dispatch of
  /// every event it returned.
  void PollEvents(IoThread& io);
  void AddConnection(IoThread& io, int fd);
  void AcceptNew(IoThread& io);
  /// Consumes the cross-thread mailboxes (new fds, posted completions).
  void DrainMailboxes(IoThread& io);
  /// Reads a readable socket until it would block. Returns false when the
  /// connection was closed.
  bool ReadReady(IoThread& io, Connection& conn);
  /// Accounts `len` bytes just read into the connection's decoder and
  /// handles every complete frame. Returns false when the connection was
  /// closed.
  bool OnConnData(IoThread& io, Connection& conn, size_t len);
  /// Returns false when the frame killed the connection.
  bool HandleFrame(IoThread& io, Connection& conn, Frame frame);
  /// Routes one request frame to handler_ (kError/kUnsupported when absent
  /// or refused). Returns false when the frame killed the connection.
  bool RouteToHandler(IoThread& io, Connection& conn, Frame frame);
  /// Appends bytes to the outbox, flushes opportunistically and applies
  /// the backpressure bound. Returns false when the connection was closed.
  bool SendOnLoop(IoThread& io, Connection& conn, std::string bytes);
  /// Returns false on a fatal write error (connection closed).
  bool FlushOutbox(IoThread& io, Connection& conn);
  /// Retires `n` sent bytes from the outbox front (partial frames keep an
  /// offset) and bumps the byte counters.
  void RetireOutboxBytes(Connection& conn, size_t n);
  void CloseConnection(IoThread& io, uint64_t conn_id);
  /// Worker-side: hand an encoded response frame to the owning I/O thread.
  void PostCompletion(size_t thread_index, uint64_t conn_id,
                      std::string bytes);
  void SignalThread(IoThread& io);

  /// Exactly one of server_/handler_ is non-null, per constructor.
  serve::KnowledgeServer* const server_;
  FrameHandler* const handler_;
  const NetServerOptions options_;

  ScopedFd listener_;
  uint16_t port_ = 0;
  std::vector<std::unique_ptr<IoThread>> io_threads_;
  std::atomic<uint64_t> next_conn_id_{2};  // 0 = listener tag, 1 = eventfd tag
  std::atomic<size_t> next_io_thread_{0};
  std::atomic<bool> draining_{false};
  bool started_ = false;
  bool stopped_ = false;
  /// Request frames submitted to the knowledge server whose completion has
  /// not yet been posted back; Stop() waits for zero so no worker callback
  /// can touch a dead NetServer.
  std::atomic<uint64_t> outstanding_frames_{0};

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> connections_closed_{0};
  std::atomic<uint64_t> frames_in_{0};
  std::atomic<uint64_t> frames_out_{0};
  std::atomic<uint64_t> bytes_in_{0};
  std::atomic<uint64_t> bytes_out_{0};
  std::atomic<uint64_t> requests_in_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> backpressure_disconnects_{0};
  std::atomic<uint64_t> idle_disconnects_{0};
};

}  // namespace pkgm::net

#endif  // PKGM_NET_NET_SERVER_H_
