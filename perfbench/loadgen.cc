#include "loadgen.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

namespace perfbench {

using vdm::MsgType;
using vdm::Result;
using vdm::Status;

RawConn::~RawConn() {
  if (fd_ >= 0) close(fd_);
}

Status RawConn::Connect(int port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Status::Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::ExecutionError(std::string("connect() failed: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::OK();
}

Status RawConn::Send(const std::vector<uint8_t>& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::ExecutionError("send() failed");
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status RawConn::Pump(std::vector<std::vector<uint8_t>>* frames) {
  uint8_t buf[64 * 1024];
  while (true) {
    const ssize_t n = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      rbuf_.insert(rbuf_.end(), buf, buf + n);
      continue;
    }
    if (n == 0) return Status::ExecutionError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    return Status::ExecutionError(std::string("recv() failed: ") +
                                  std::strerror(errno));
  }
  size_t pos = 0;
  while (rbuf_.size() - pos >= vdm::kFrameHeaderBytes) {
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(rbuf_[pos + static_cast<size_t>(i)])
             << (8 * i);
    }
    if (len == 0 || len > vdm::kMaxFrameBytes) {
      return Status::ExecutionError("bad frame length from server");
    }
    if (rbuf_.size() - pos - vdm::kFrameHeaderBytes < len) break;
    const auto begin = rbuf_.begin() + static_cast<std::ptrdiff_t>(
                                           pos + vdm::kFrameHeaderBytes);
    frames->emplace_back(begin, begin + len);
    pos += vdm::kFrameHeaderBytes + len;
  }
  rbuf_.erase(rbuf_.begin(), rbuf_.begin() + static_cast<std::ptrdiff_t>(pos));
  return Status::OK();
}

Result<std::vector<uint8_t>> RawConn::ReadOne() {
  std::vector<std::vector<uint8_t>> frames;
  while (frames.empty()) {
    pollfd pfd{fd_, POLLIN, 0};
    if (poll(&pfd, 1, 30000) <= 0) {
      return Status::ExecutionError("timed out awaiting a response");
    }
    VDM_RETURN_NOT_OK(Pump(&frames));
  }
  if (frames.size() != 1) {
    return Status::ExecutionError("unexpected extra response frames");
  }
  return std::move(frames[0]);
}

Status RawConn::Hello() {
  vdm::HelloMsg hello;
  hello.timeout_ms = 30000;
  VDM_RETURN_NOT_OK(Send(vdm::EncodeHello(hello)));
  VDM_ASSIGN_OR_RETURN(std::vector<uint8_t> reply, ReadOne());
  if (static_cast<MsgType>(reply[0]) != MsgType::kHelloOk) {
    return Status::ExecutionError("HELLO rejected");
  }
  return Status::OK();
}

Result<uint32_t> RawConn::Prepare(const std::string& sql) {
  VDM_RETURN_NOT_OK(Send(vdm::EncodePrepare(sql)));
  VDM_ASSIGN_OR_RETURN(std::vector<uint8_t> reply, ReadOne());
  vdm::WireReader r(reply.data() + 1, reply.size() - 1);
  if (static_cast<MsgType>(reply[0]) != MsgType::kPrepared) {
    return Status::ExecutionError("PREPARE rejected");
  }
  vdm::PreparedMsg msg;
  VDM_RETURN_NOT_OK(vdm::DecodePrepared(&r, &msg));
  return msg.stmt_id;
}

OpenResult RunLoop(
    const std::vector<RawConn*>& conns, LoopShape shape, double seconds,
    double drain_s, const std::function<OpenRequest(uint64_t, int)>& make,
    const std::function<bool(const OpenRequest&, size_t,
                             const std::vector<uint8_t>&)>& check) {
  struct InFlight {
    OpenRequest request;
    int64_t due_ns = 0;
    int64_t sent_ns = 0;
    size_t answered = 0;
    bool ok = true;
  };
  OpenResult result;
  std::vector<std::deque<InFlight>> inflight(conns.size());
  std::vector<pollfd> pfds(conns.size());
  for (size_t c = 0; c < conns.size(); ++c) {
    pfds[c] = {conns[c]->fd(), POLLIN, 0};
  }
  const bool open_loop = shape.window <= 0;
  const int64_t t0 = NowNs();
  const int64_t send_end = t0 + static_cast<int64_t>(seconds * 1e9);
  const int64_t drain_end =
      t0 + static_cast<int64_t>((seconds + drain_s) * 1e9);
  auto due_of = [&](uint64_t i) {
    return t0 + static_cast<int64_t>(static_cast<double>(i) / shape.rate * 1e9);
  };
  size_t open = 0;
  uint64_t next = 0;
  auto send = [&](size_t c, int64_t due) {
    InFlight f;
    f.request = make(next, static_cast<int>(c));
    f.request.seq = next++;
    if (open_loop && f.request.idle_only && !inflight[c].empty()) return;
    f.due_ns = due;
    f.sent_ns = NowNs();
    for (const std::vector<uint8_t>& frame : f.request.frames) {
      Status st = conns[c]->Send(frame);
      if (!st.ok()) result.error = st.ToString();
    }
    result.lag_ms.push_back(static_cast<double>(f.sent_ns - due) / 1e6);
    inflight[c].push_back(std::move(f));
    ++open;
  };
  if (!open_loop) {
    for (int w = 0; w < shape.window; ++w) {
      for (size_t c = 0; c < conns.size(); ++c) send(c, NowNs());
    }
  }
  std::vector<std::vector<uint8_t>> frames;
  while (result.error.empty()) {
    int64_t now = NowNs();
    while (open_loop && now < send_end && due_of(next) <= now) {
      send(static_cast<size_t>(next % conns.size()), due_of(next));
      now = NowNs();
    }
    if (now >= send_end && open == 0) break;
    if (now >= drain_end) break;
    const int64_t wake =
        open_loop && now < send_end ? std::min(due_of(next), send_end)
                                    : drain_end;
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait_ns / 1000000000),
                static_cast<long>(wait_ns % 1000000000)};
    if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) continue;
    for (size_t c = 0; c < conns.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      frames.clear();
      Status st = conns[c]->Pump(&frames);
      if (!st.ok()) result.error = st.ToString();
      const int64_t got_ns = NowNs();
      for (const std::vector<uint8_t>& frame : frames) {
        if (inflight[c].empty()) {
          result.error = "response without a request";
          break;
        }
        InFlight& f = inflight[c].front();
        if (!check(f.request, f.answered, frame)) f.ok = false;
        if (++f.answered < f.request.frames.size()) continue;
        OpenResult::Done d;
        d.id = f.request.id;
        d.seq = f.request.seq;
        d.stmt = f.request.stmt;
        d.due_s = static_cast<double>(f.due_ns - t0) / 1e9;
        d.latency_ms = static_cast<double>(got_ns - f.due_ns) / 1e6;
        d.send_ms = static_cast<double>(got_ns - f.sent_ns) / 1e6;
        d.done_s = static_cast<double>(got_ns - t0) / 1e9;
        d.ok = f.ok;
        result.done.push_back(d);
        inflight[c].pop_front();
        --open;
        if (!open_loop && got_ns < send_end) send(c, got_ns);
      }
    }
  }
  result.unanswered = static_cast<int64_t>(open);
  return result;
}

void RunThreads(int threads, const std::function<void(int)>& body,
                const std::function<void()>& on_caller) {
  std::mutex mu;
  std::exception_ptr first;
  auto guarded = [&](const std::function<void()>& fn) {
    try {
      fn();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first) first = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  guarded([&] {
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] { guarded([&] { body(t); }); });
    }
    if (on_caller) on_caller();
  });
  for (std::thread& th : pool) th.join();
  if (first) std::rethrow_exception(first);
}

}  // namespace perfbench
