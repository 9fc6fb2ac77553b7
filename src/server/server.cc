#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>

#include "common/string_util.h"
#include "server/wire.h"

namespace vdm {

namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoll(v);
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions opts;
  opts.port = static_cast<uint16_t>(EnvInt("VDM_SERVER_PORT", 0));
  opts.max_sessions = static_cast<size_t>(EnvInt("VDM_MAX_SESSIONS", 0));
  const char* spec = std::getenv("VDM_TENANT_CLASSES");
  if (spec != nullptr) opts.tenant_spec = spec;
  return opts;
}

struct Server::Connection {
  int fd = -1;
  std::unique_ptr<Session> session;
  /// Read-side reassembly buffer (poll thread only).
  std::vector<uint8_t> inbuf;
  /// Guards pending / busy / dead.
  std::mutex mu;
  std::deque<std::vector<uint8_t>> pending;
  /// A pool task owns the frame queue right now (at most one at a time).
  bool busy = false;
  /// Socket closed, poisoned, or CLOSEd; reaped once not busy.
  bool dead = false;
  /// Serializes socket writes (task responses vs. poll-thread
  /// protocol-error frames).
  std::mutex write_mu;
};

Server::Server(Database* db, ServerOptions options)
    : db_(db), options_(options) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  VDM_RETURN_NOT_OK(tenants_.Configure(options_.tenant_spec));

  if (pipe(wake_pipe_) != 0) {
    return Status::Internal("pipe() failed: " +
                            std::string(std::strerror(errno)));
  }
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed: " +
                            std::string(std::strerror(errno)));
  }
  const int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Internal("bind() failed: " +
                            std::string(std::strerror(errno)));
  }
  if (listen(listen_fd_, 128) != 0) {
    return Status::Internal("listen() failed: " +
                            std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  db_->thread_pool().EnsureWorkers(options_.workers);
  stopping_.store(false, std::memory_order_release);
  started_ = true;
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  // Cancel every in-flight statement so the connection tasks end promptly
  // (queued ones see stopping_ and return at once).
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) conn->session->CancelActive();
  }
  {
    std::unique_lock<std::mutex> lock(tasks_mu_);
    tasks_cv_.wait(lock, [&] { return tasks_ == 0; });
  }
  // Destroy the connections: each session destructor rolls back its open
  // transaction. The Database is still alive — the documented ordering.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& [fd, conn] : conns_) {
      if (conn->fd >= 0) close(conn->fd);
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    conns_.clear();
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
  if (wake_pipe_[0] >= 0) close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.sessions_opened = sessions_opened_.load(std::memory_order_relaxed);
  s.sessions_closed = sessions_closed_.load(std::memory_order_relaxed);
  s.frames = frames_.load(std::memory_order_relaxed);
  s.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  s.cancels = cancels_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(conns_mu_);
  s.active_sessions = conns_.size();
  return s;
}

void Server::Wake() {
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] ssize_t n = write(wake_pipe_[1], &byte, 1);
  }
}

Status Server::WriteFrame(Connection* conn, const std::vector<uint8_t>& frame) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = send(conn->fd, frame.data() + sent, frame.size() - sent,
                           MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::ExecutionError("send() failed: " +
                                    std::string(std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

void Server::AcceptPending() {
  while (true) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN / EWOULDBLOCK: drained
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bounded blocking writes: a client that stops reading cannot wedge a
    // worker forever — the send times out and the connection dies.
    timeval tv{};
    tv.tv_sec = 5;
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      active = conns_.size();
    }
    if (options_.max_sessions > 0 && active >= options_.max_sessions) {
      const std::vector<uint8_t> frame = EncodeError(Status::ResourceExhausted(
          StrFormat("server session limit (%zu) reached",
                    options_.max_sessions)));
      [[maybe_unused]] ssize_t n =
          send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      close(fd);
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->session = std::make_unique<Session>(
        next_session_id_.fetch_add(1, std::memory_order_relaxed), db_,
        &tenants_);
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.emplace(fd, std::move(conn));
  }
}

bool Server::ExtractFrames(Connection* conn) {
  std::vector<uint8_t>& buf = conn->inbuf;
  size_t off = 0;
  bool enqueue = false;
  while (buf.size() - off >= kFrameHeaderBytes) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(buf[off + i]) << (8 * i);
    }
    if (len == 0 || len > kMaxFrameBytes) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      (void)WriteFrame(conn, EncodeError(Status::InvalidArgument(
                                 StrFormat("bad frame length %u", len))));
      buf.clear();
      return false;
    }
    if (buf.size() - off - kFrameHeaderBytes < len) break;
    std::vector<uint8_t> payload(buf.begin() + off + kFrameHeaderBytes,
                                 buf.begin() + off + kFrameHeaderBytes + len);
    off += kFrameHeaderBytes + len;
    frames_.fetch_add(1, std::memory_order_relaxed);
    if (static_cast<MsgType>(payload[0]) == MsgType::kCancel) {
      // CANCEL bypasses the queue — this is what reaches a query the
      // worker is executing right now. No response frame.
      cancels_.fetch_add(1, std::memory_order_relaxed);
      conn->session->CancelActive();
      continue;
    }
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->pending.push_back(std::move(payload));
    if (!conn->busy && !conn->dead) {
      conn->busy = true;
      enqueue = true;
    }
  }
  buf.erase(buf.begin(), buf.begin() + off);
  if (enqueue) SubmitConnection(conn);
  return true;
}

void Server::PollLoop() {
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  char scratch[65536];
  while (!stopping_.load(std::memory_order_acquire)) {
    fds.clear();
    polled.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto& [fd, conn] : conns_) {
        bool dead;
        {
          std::lock_guard<std::mutex> clock(conn->mu);
          dead = conn->dead;
        }
        if (dead) continue;
        fds.push_back(pollfd{fd, POLLIN, 0});
        polled.push_back(conn.get());
      }
    }
    const int ready = poll(fds.data(), fds.size(), 100);
    if (stopping_.load(std::memory_order_acquire)) break;
    if (ready > 0) {
      if ((fds[0].revents & POLLIN) != 0) {
        while (read(wake_pipe_[0], scratch, sizeof(scratch)) > 0) {
        }
      }
      if ((fds[1].revents & POLLIN) != 0) AcceptPending();
      for (size_t i = 2; i < fds.size(); ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection* conn = polled[i - 2];
        const ssize_t n = recv(conn->fd, scratch, sizeof(scratch), 0);
        bool die = false;
        if (n <= 0) {
          // EOF or error: the peer vanished (possibly mid-transaction).
          die = true;
        } else {
          conn->inbuf.insert(conn->inbuf.end(), scratch, scratch + n);
          die = !ExtractFrames(conn);
        }
        if (die) {
          {
            std::lock_guard<std::mutex> lock(conn->mu);
            conn->dead = true;
          }
          // If a statement is running, make it exit promptly; the worker
          // then observes dead and stops draining.
          conn->session->CancelActive();
        }
      }
    }
    // Reap: destroy dead connections nobody is working on. The session
    // destructor rolls back any open transaction.
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        bool reap;
        {
          std::lock_guard<std::mutex> clock(it->second->mu);
          reap = it->second->dead && !it->second->busy;
        }
        if (reap) {
          close(it->second->fd);
          sessions_closed_.fetch_add(1, std::memory_order_relaxed);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
}

void Server::SubmitConnection(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(tasks_mu_);
    ++tasks_;
  }
  db_->thread_pool().Submit([this, conn] {
    ProcessConnection(conn);
    // Notified under the lock: once Stop() sees zero it may destroy the
    // Server, condition variable included.
    std::lock_guard<std::mutex> lock(tasks_mu_);
    --tasks_;
    tasks_cv_.notify_all();
  });
}

void Server::ProcessConnection(Connection* conn) {
  while (true) {
    std::vector<uint8_t> frame;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      if (conn->pending.empty() || conn->dead ||
          stopping_.load(std::memory_order_acquire)) {
        // Frames queued behind a shutdown or a dead socket are dropped —
        // their client is gone either way.
        conn->busy = false;
        break;
      }
      frame = std::move(conn->pending.front());
      conn->pending.pop_front();
    }
    const std::vector<uint8_t> response =
        conn->session->HandleFrame(frame.data(), frame.size());
    bool die = false;
    if (!response.empty()) die = !WriteFrame(conn, response).ok();
    if (conn->session->wants_close()) die = true;
    if (die) {
      std::lock_guard<std::mutex> lock(conn->mu);
      conn->dead = true;
    }
  }
  // Prompt the poll thread: this connection may be reapable now.
  Wake();
}

}  // namespace vdm
