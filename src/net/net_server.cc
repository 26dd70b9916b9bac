#include "net/net_server.h"

#include <errno.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/logging.h"
#include "util/string_util.h"

namespace pkgm::net {
namespace {

constexpr int kPollWaitMs = 100;
constexpr int kMaxEvents = 64;
constexpr int kListenBacklog = 128;
// epoll user-data tags for the two non-connection fds. Connection ids
// start at 2 (next_conn_id_), so there is no collision.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeupTag = 1;

using Clock = std::chrono::steady_clock;

Status EpollCtl(int epoll_fd, int op, int fd, uint32_t events, uint64_t tag) {
  epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = events;
  ev.data.u64 = tag;
  if (::epoll_ctl(epoll_fd, op, fd, &ev) < 0) {
    return Status::IoError(StrFormat("epoll_ctl: %s", std::strerror(errno)));
  }
  return Status::Ok();
}

}  // namespace

/// One TCP connection, owned exclusively by its I/O thread.
struct NetServer::Connection {
  uint64_t id = 0;
  ScopedFd fd;
  FrameDecoder decoder;
  /// Encoded-but-unsent response bytes, oldest first. front() may be
  /// partially written (outbox_offset).
  std::deque<std::string> outbox;
  size_t outbox_offset = 0;
  size_t outbox_bytes = 0;
  /// Routed frames whose response has not yet been appended to the outbox.
  uint64_t in_flight_frames = 0;
  Clock::time_point last_activity;
  /// EPOLLIN is armed; cleared for good when the drain starts.
  bool reading = true;
  /// EPOLLOUT is armed: a flush would block and waits for send space.
  bool want_send = false;

  explicit Connection(size_t max_frame_bytes) : decoder(max_frame_bytes) {}

  /// Re-arms the socket's epoll interest from `reading` and `want_send`.
  void UpdateInterest(int epoll_fd) const {
    EpollCtl(epoll_fd, EPOLL_CTL_MOD, fd.get(),
             (reading ? EPOLLIN : 0u) | (want_send ? EPOLLOUT : 0u), id);
  }
};

/// Per-thread event loop state. `conns` is touched only by the owning
/// thread; `inbox_fds`/`completions` are the cross-thread mailboxes.
struct NetServer::IoThread {
  size_t index = 0;
  ScopedFd epoll_fd;
  ScopedFd event_fd;

  std::mutex mu;
  std::vector<int> inbox_fds;
  struct Completion {
    uint64_t conn_id;
    std::string bytes;
  };
  std::vector<Completion> completions;

  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns;

  // Syscall accounting: bumped only by the loop thread, read cross-thread
  // by net_counters().
  std::atomic<uint64_t> wait_calls{0};
  std::atomic<uint64_t> recv_syscalls{0};
  std::atomic<uint64_t> send_syscalls{0};

  /// Declared last: the loop it runs uses every member above.
  std::thread thread;
};

/// One routed frame's completion token: enforces respond-at-most-once and
/// carries the addressing a worker thread needs to post the response back.
struct NetServer::HandlerRespondState {
  NetServer* server;
  size_t thread_index;
  uint64_t conn_id;
  std::atomic<bool> responded{false};
  /// Loop thread only: false once a respond sent in place closed the
  /// connection.
  bool conn_alive = true;

  /// The frame whose FrameHandler::HandleFrame this thread is running, if
  /// any. Only the loop thread that routes a frame sets it, so a respond
  /// that finds its own state here runs on that loop, inside that call.
  static thread_local HandlerRespondState* routing;

  // A respond dropped without ever being invoked still completes its
  // frame: the peer simply gets no reply (it sees the close or times
  // out). Without this, a handler that abandons a parked respond would
  // wedge Stop()'s outstanding-frame wait forever. The destructor may run
  // on any thread, so the connection's count goes to its loop as a
  // completion with no bytes; then an idle connection can be reaped and
  // a draining one closed.
  ~HandlerRespondState() {
    if (!responded.load(std::memory_order_acquire)) {
      server->PostCompletion(thread_index, conn_id, std::string());
      --server->outstanding_frames_;
    }
  }
};

thread_local NetServer::HandlerRespondState*
    NetServer::HandlerRespondState::routing = nullptr;

NetServer::NetServer(FrameHandler* handler, NetServerOptions options)
    : handler_(handler), options_(std::move(options)) {
  PKGM_CHECK(handler != nullptr);
  PKGM_CHECK(options_.num_io_threads >= 1);
}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  PKGM_CHECK(!started_) << "NetServer::Start called twice";
  auto listener =
      ListenTcp(options_.bind_address, options_.port, kListenBacklog,
                options_.reuseport, &port_);
  if (!listener.ok()) return listener.status();
  listener_ = std::move(listener.value());

  for (size_t i = 0; i < options_.num_io_threads; ++i) {
    auto io = std::make_unique<IoThread>();
    io->index = i;
    io->epoll_fd.Reset(::epoll_create1(EPOLL_CLOEXEC));
    if (!io->epoll_fd.valid()) {
      return Status::IoError(
          StrFormat("epoll_create1: %s", std::strerror(errno)));
    }
    io->event_fd.Reset(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK));
    if (!io->event_fd.valid()) {
      return Status::IoError(StrFormat("eventfd: %s", std::strerror(errno)));
    }
    Status status = EpollCtl(io->epoll_fd.get(), EPOLL_CTL_ADD,
                             io->event_fd.get(), EPOLLIN, kWakeupTag);
    if (status.ok() && i == 0) {
      status = EpollCtl(io->epoll_fd.get(), EPOLL_CTL_ADD, listener_.get(),
                        EPOLLIN, kListenerTag);
    }
    if (!status.ok()) return status;
    io_threads_.push_back(std::move(io));
  }

  for (size_t i = 0; i < io_threads_.size(); ++i) {
    io_threads_[i]->thread = std::thread([this, i] { IoLoop(i); });
  }
  started_ = true;
  return Status::Ok();
}

void NetServer::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  draining_.store(true, std::memory_order_release);
  for (auto& io : io_threads_) SignalThread(*io);
  for (auto& io : io_threads_) {
    if (io->thread.joinable()) io->thread.join();
  }
  // No respond may outlive the server object: wait for every routed
  // frame's respond to be invoked or dropped (whatever completes them keeps
  // running; stopping it is the caller's, ordered after this).
  while (outstanding_frames_.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener_.Reset();
}

void NetServer::SignalThread(IoThread& io) {
  const uint64_t one = 1;
  // The eventfd outlives the threads (owned by this object), so a wakeup
  // racing shutdown lands harmlessly in its counter.
  [[maybe_unused]] ssize_t n =
      ::write(io.event_fd.get(), &one, sizeof(one));
}

void NetServer::PostCompletion(size_t thread_index, uint64_t conn_id,
                               std::string bytes) {
  IoThread& io = *io_threads_[thread_index];
  bool was_empty;
  {
    std::lock_guard<std::mutex> lock(io.mu);
    was_empty = io.completions.empty() && io.inbox_fds.empty();
    io.completions.push_back({conn_id, std::move(bytes)});
  }
  // Signal only the empty -> non-empty transition: a signal already in
  // flight guarantees a drain that will pick this item up too, and skipping
  // the redundant write spares the loop one wakeup round per burst.
  if (was_empty) SignalThread(io);
}

void NetServer::AddConnection(IoThread& io, int raw_fd) {
  ScopedFd fd(raw_fd);
  if (!SetNonBlocking(fd.get()).ok() || !SetTcpNoDelay(fd.get()).ok()) {
    return;  // peer already gone; nothing accepted yet to roll back
  }
  if (options_.so_sndbuf_bytes > 0) {
    SetSendBufferBytes(fd.get(), options_.so_sndbuf_bytes);
  }
  auto conn = std::make_unique<Connection>(options_.max_frame_bytes);
  conn->id = next_conn_id_.fetch_add(1);
  conn->fd = std::move(fd);
  conn->last_activity = Clock::now();
  // A connection accepted mid-drain is immediately read-disabled; it will
  // be closed by the drain sweep.
  conn->reading = !draining_.load(std::memory_order_acquire);

  if (!EpollCtl(io.epoll_fd.get(), EPOLL_CTL_ADD, conn->fd.get(),
                conn->reading ? EPOLLIN : 0u, conn->id)
           .ok()) {
    return;
  }
  ++connections_accepted_;
  io.conns.emplace(conn->id, std::move(conn));
}

void NetServer::AcceptNew(IoThread& io) {
  while (true) {
    const int fd = ::accept4(listener_.get(), nullptr, nullptr,
                             SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or a transient accept error: try later
    const size_t target = next_io_thread_.fetch_add(1) % io_threads_.size();
    if (target == io.index) {
      AddConnection(io, fd);
    } else {
      IoThread& other = *io_threads_[target];
      bool was_empty;
      {
        std::lock_guard<std::mutex> lock(other.mu);
        was_empty = other.completions.empty() && other.inbox_fds.empty();
        other.inbox_fds.push_back(fd);
      }
      if (was_empty) SignalThread(other);
    }
  }
}

void NetServer::CloseConnection(IoThread& io, uint64_t conn_id) {
  auto it = io.conns.find(conn_id);
  if (it == io.conns.end()) return;
  ::epoll_ctl(io.epoll_fd.get(), EPOLL_CTL_DEL, it->second->fd.get(),
              nullptr);
  io.conns.erase(it);  // ScopedFd closes the socket
  ++connections_closed_;
}

void NetServer::RetireOutboxBytes(Connection& conn, size_t n) {
  if (n == 0) return;
  bytes_out_ += static_cast<uint64_t>(n);
  conn.outbox_bytes -= n;
  conn.last_activity = Clock::now();
  // Retire fully-sent frames; a partial tail becomes the new front with
  // its offset advanced.
  while (n > 0) {
    const size_t front_remaining =
        conn.outbox.front().size() - conn.outbox_offset;
    if (n >= front_remaining) {
      n -= front_remaining;
      conn.outbox.pop_front();
      conn.outbox_offset = 0;
    } else {
      conn.outbox_offset += n;
      n = 0;
    }
  }
}

bool NetServer::FlushOutbox(IoThread& io, Connection& conn) {
  // Gather up to kFlushIovecs queued frames per submission: under
  // pipelined load the outbox routinely holds many small response frames,
  // and one gathered send drains what used to take one send() each.
  constexpr int kFlushIovecs = 64;
  while (!conn.outbox.empty()) {
    struct iovec iov[kFlushIovecs];
    int iovcnt = 0;
    for (const std::string& entry : conn.outbox) {
      if (iovcnt == kFlushIovecs) break;
      const size_t offset = iovcnt == 0 ? conn.outbox_offset : 0;
      iov[iovcnt].iov_base =
          const_cast<char*>(entry.data()) + offset;
      iov[iovcnt].iov_len = entry.size() - offset;
      ++iovcnt;
    }
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<size_t>(iovcnt);
    // MSG_NOSIGNAL: a peer that closed mid-write must surface EPIPE, not
    // kill the process with SIGPIPE.
    io.send_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::sendmsg(conn.fd.get(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      RetireOutboxBytes(conn, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: EPOLLOUT resumes the flush.
      if (!conn.want_send) {
        conn.want_send = true;
        conn.UpdateInterest(io.epoll_fd.get());
      }
      return true;
    }
    CloseConnection(io, conn.id);  // EPIPE/ECONNRESET/...
    return false;
  }
  return true;
}

bool NetServer::SendOnLoop(IoThread& io, Connection& conn,
                           std::string bytes) {
  ++frames_out_;
  conn.outbox_bytes += bytes.size();
  conn.outbox.push_back(std::move(bytes));
  if (!FlushOutbox(io, conn)) return false;
  if (conn.outbox_bytes > options_.max_outbox_bytes) {
    // Slow reader: the kernel buffer and our bound are both full. Cutting
    // the connection sheds the memory instead of queueing without limit.
    ++backpressure_disconnects_;
    CloseConnection(io, conn.id);
    return false;
  }
  return true;
}

bool NetServer::HandleFrame(IoThread& io, Connection& conn, Frame frame) {
  ++frames_in_;
  switch (frame.type) {
    case FrameType::kPing:
      return SendOnLoop(io, conn,
                        EncodeControl(FrameType::kPong, frame.correlation_id));
    case FrameType::kStats:
      return SendOnLoop(io, conn,
                        EncodeStatsJson(frame.correlation_id, StatsJson()));
    case FrameType::kError:
      return true;  // ignore
    default:
      // Every other type, known or unknown, is the handler's to take or
      // refuse: a response frame arriving at the server (confused peer) or
      // an unknown type byte (valid header + CRC, so the stream is in
      // sync) is refused, answered with kError, and the connection lives.
      return RouteToHandler(io, conn, std::move(frame));
  }
}

bool NetServer::RouteToHandler(IoThread& io, Connection& conn, Frame frame) {
  // The frame is outstanding until its response is posted, and Stop()
  // waits for zero — which is exactly the drain guarantee an accepted
  // request (or a pushed gradient batch) needs.
  ++conn.in_flight_frames;
  ++outstanding_frames_;
  auto state = std::make_shared<HandlerRespondState>();
  state->server = this;
  state->thread_index = io.index;
  state->conn_id = conn.id;
  FrameHandler::Respond respond = [state](std::string bytes) {
    bool expected = false;
    if (!state->responded.compare_exchange_strong(expected, true)) return;
    NetServer* server = state->server;
    if (HandlerRespondState::routing == state.get()) {
      // Answered inside its own HandleFrame: this is the connection's loop
      // thread, so send now instead of taking the mailbox round trip.
      IoThread& loop = *server->io_threads_[state->thread_index];
      Connection& owner = *loop.conns.at(state->conn_id);
      --owner.in_flight_frames;
      --server->outstanding_frames_;
      state->conn_alive = server->SendOnLoop(loop, owner, std::move(bytes));
      return;
    }
    server->PostCompletion(state->thread_index, state->conn_id,
                           std::move(bytes));
    // Last touch of the NetServer: once this hits zero, Stop() may return
    // and the object may die.
    --server->outstanding_frames_;
  };
  HandlerRespondState::routing = state.get();
  const FrameHandler::Result result =
      handler_->HandleFrame(frame, std::move(respond));
  HandlerRespondState::routing = nullptr;
  // An in-place send may have closed the connection: `conn` is then gone.
  if (result == FrameHandler::Result::kTaken) return state->conn_alive;
  // The handler did not take the respond obligation. Claiming it here
  // keeps the state's destructor from completing the frame a second time.
  state->responded.store(true, std::memory_order_release);
  --conn.in_flight_frames;
  --outstanding_frames_;
  if (result == FrameHandler::Result::kMalformed) {
    ++protocol_errors_;
    CloseConnection(io, conn.id);
    return false;
  }
  return SendOnLoop(io, conn,
                    EncodeError(frame.correlation_id, WireCode::kUnsupported,
                                "frame refused by handler"));
}

bool NetServer::ReadReady(IoThread& io, Connection& conn) {
  // Level-triggered: read until the socket is drained, each read() landing
  // straight in the connection's decoder.
  while (conn.reading) {
    const std::span<char> dst = conn.decoder.PrepareRead();
    io.recv_syscalls.fetch_add(1, std::memory_order_relaxed);
    const ssize_t n = ::read(conn.fd.get(), dst.data(), dst.size());
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n <= 0) {  // EOF or hard error
      CloseConnection(io, conn.id);
      return false;
    }
    conn.decoder.CommitRead(static_cast<size_t>(n));
    if (!OnConnData(io, conn, static_cast<size_t>(n))) return false;
    if (static_cast<size_t>(n) < dst.size()) return true;  // drained
  }
  return true;
}

bool NetServer::OnConnData(IoThread& io, Connection& conn, size_t len) {
  bytes_in_ += static_cast<uint64_t>(len);
  conn.last_activity = Clock::now();
  Frame frame;
  std::string error;
  while (true) {
    const FrameDecoder::Result result = conn.decoder.Next(&frame, &error);
    if (result == FrameDecoder::Result::kNeedMore) return true;
    if (result == FrameDecoder::Result::kError) {
      // Malformed frame: the stream is unrecoverable, close exactly this
      // connection. Everyone else is unaffected.
      ++protocol_errors_;
      CloseConnection(io, conn.id);
      return false;
    }
    if (!HandleFrame(io, conn, std::move(frame))) return false;
  }
}

void NetServer::DrainMailboxes(IoThread& io) {
  std::vector<int> fds;
  std::vector<IoThread::Completion> completions;
  {
    std::lock_guard<std::mutex> lock(io.mu);
    fds.swap(io.inbox_fds);
    completions.swap(io.completions);
  }
  for (int fd : fds) AddConnection(io, fd);
  for (auto& completion : completions) {
    auto it = io.conns.find(completion.conn_id);
    if (it == io.conns.end()) continue;  // connection died first
    Connection& conn = *it->second;
    PKGM_CHECK(conn.in_flight_frames > 0);
    --conn.in_flight_frames;
    // No bytes: the respond was dropped, and there is nothing to send.
    if (!completion.bytes.empty()) {
      SendOnLoop(io, conn, std::move(completion.bytes));
    }
  }
}

void NetServer::PollEvents(IoThread& io) {
  epoll_event events[kMaxEvents];
  io.wait_calls.fetch_add(1, std::memory_order_relaxed);
  const int n_events =
      ::epoll_wait(io.epoll_fd.get(), events, kMaxEvents, kPollWaitMs);
  for (int i = 0; i < n_events; ++i) {
    const uint64_t tag = events[i].data.u64;
    if (tag == kListenerTag) {
      if (!draining_.load(std::memory_order_acquire)) AcceptNew(io);
      continue;
    }
    if (tag == kWakeupTag) {
      // Consume the wake before swapping the mailboxes out, so a post that
      // lands after the swap signals again.
      uint64_t counter;
      [[maybe_unused]] ssize_t r =
          ::read(io.event_fd.get(), &counter, sizeof(counter));
      DrainMailboxes(io);
      continue;
    }
    auto it = io.conns.find(tag);
    if (it == io.conns.end()) continue;  // closed earlier in this batch
    Connection& conn = *it->second;
    if (events[i].events & (EPOLLERR | EPOLLHUP)) {
      CloseConnection(io, tag);
      continue;
    }
    if ((events[i].events & EPOLLIN) && !ReadReady(io, conn)) continue;
    if (events[i].events & EPOLLOUT) {
      // One-shot: disarm before flushing; a flush that would block again
      // re-arms.
      if (conn.want_send) {
        conn.want_send = false;
        conn.UpdateInterest(io.epoll_fd.get());
      }
      FlushOutbox(io, conn);
    }
  }
}

void NetServer::IoLoop(size_t thread_index) {
  IoThread& io = *io_threads_[thread_index];
  bool drain_seen = false;
  Clock::time_point drain_deadline{};
  Clock::time_point last_idle_scan = Clock::now();

  while (true) {
    PollEvents(io);
    const bool draining = draining_.load(std::memory_order_acquire);

    if (draining && !drain_seen) {
      drain_seen = true;
      drain_deadline =
          Clock::now() + std::chrono::milliseconds(kDrainTimeoutMs);
      if (thread_index == 0 && listener_.valid()) {
        ::epoll_ctl(io.epoll_fd.get(), EPOLL_CTL_DEL, listener_.get(),
                    nullptr);
        // The fd itself is closed by Stop() after every thread has joined.
        ::shutdown(listener_.get(), SHUT_RDWR);
      }
      // Stop reading: requests arriving mid-drain are not accepted.
      for (auto& [id, conn] : io.conns) {
        if (conn->reading) {
          conn->reading = false;
          conn->UpdateInterest(io.epoll_fd.get());
        }
      }
    }

    const Clock::time_point now = Clock::now();
    const auto idle_scan_interval = std::chrono::milliseconds(
        std::min(1000, std::max(50, options_.idle_timeout_ms / 2)));
    if (!draining && options_.idle_timeout_ms > 0 &&
        now - last_idle_scan > idle_scan_interval) {
      last_idle_scan = now;
      const auto timeout = std::chrono::milliseconds(options_.idle_timeout_ms);
      std::vector<uint64_t> idle;
      for (const auto& [id, conn] : io.conns) {
        if (conn->in_flight_frames == 0 && conn->outbox.empty() &&
            now - conn->last_activity > timeout) {
          idle.push_back(id);
        }
      }
      for (uint64_t id : idle) {
        ++idle_disconnects_;
        CloseConnection(io, id);
      }
    }

    if (drain_seen) {
      const bool expired = now > drain_deadline;
      std::vector<uint64_t> closable;
      for (const auto& [id, conn] : io.conns) {
        if (expired ||
            (conn->in_flight_frames == 0 && conn->outbox.empty())) {
          closable.push_back(id);
        }
      }
      for (uint64_t id : closable) CloseConnection(io, id);
      if (io.conns.empty()) return;
    }
  }
}

serve::NetCounters NetServer::net_counters() const {
  serve::NetCounters net;
  net.connections_accepted = connections_accepted_.load();
  net.connections_closed = connections_closed_.load();
  net.connections_active =
      net.connections_accepted - net.connections_closed;
  net.frames_in = frames_in_.load();
  net.frames_out = frames_out_.load();
  net.bytes_in = bytes_in_.load();
  net.bytes_out = bytes_out_.load();
  net.protocol_errors = protocol_errors_.load();
  net.backpressure_disconnects = backpressure_disconnects_.load();
  net.idle_disconnects = idle_disconnects_.load();
  net.io_backend = "epoll";
  for (const auto& io : io_threads_) {
    net.io_wait_calls += io->wait_calls.load(std::memory_order_relaxed);
    net.io_recv_syscalls += io->recv_syscalls.load(std::memory_order_relaxed);
    net.io_send_syscalls += io->send_syscalls.load(std::memory_order_relaxed);
  }
  return net;
}

std::string NetServer::StatsJson() const {
  return handler_->StatsJson(net_counters());
}

}  // namespace pkgm::net
