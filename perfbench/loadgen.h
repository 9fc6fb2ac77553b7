// Load generation over loopback: an event loop that runs on one thread
// for any number of connections, and a thread runner.
//
// Open loop: every request is sent at its scheduled time whether or not
// earlier responses are back (frames pipeline on a connection and the
// server answers them in order), and is timed from its scheduled send, so
// a stall is charged to every request it delays. How late the generator
// itself sent each request is its lag.
//
// Closed loop with a window: each connection keeps `window` requests in
// flight and sends the next one as soon as one is answered; the answer is
// then the next request's scheduled send, so the loop's own delay in
// sending it is its lag.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/wire.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One loopback connection spoken to with the wire codecs directly, for
/// the event loop (VdmClient blocks on one response at a time).
class RawConn {
 public:
  RawConn() = default;
  ~RawConn();
  RawConn(const RawConn&) = delete;
  RawConn& operator=(const RawConn&) = delete;

  vdm::Status Connect(int port);
  /// HELLO with a generous statement timeout.
  vdm::Status Hello();
  /// PREPAREs `sql` and returns the statement id.
  vdm::Result<uint32_t> Prepare(const std::string& sql);

  vdm::Status Send(const std::vector<uint8_t>& frame);
  /// Reads whatever is available without blocking and appends complete
  /// response payloads (type byte first) to `frames`. Error on EOF.
  vdm::Status Pump(std::vector<std::vector<uint8_t>>* frames);
  /// Blocks until one whole response frame has arrived.
  vdm::Result<std::vector<uint8_t>> ReadOne();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::vector<uint8_t> rbuf_;
};

/// One request of the open-loop schedule: the frames it sends at once and
/// the connection it uses. It completes when the last frame is answered.
struct OpenRequest {
  int conn = 0;
  uint64_t id = 0;
  uint32_t stmt = 0;  // workload-defined statement index
  uint64_t seq = 0;   // send index, set by RunLoop
  /// Open loop: sent only when its connection has no response
  /// outstanding, otherwise its slot stays empty. For probes whose round
  /// trip must not include waiting behind the connection's earlier
  /// requests.
  bool idle_only = false;
  std::vector<std::vector<uint8_t>> frames;
};

struct OpenResult {
  struct Done {
    uint64_t id = 0;
    uint64_t seq = 0;
    uint32_t stmt = 0;
    double due_s = 0;       // scheduled send, seconds from the phase start
    double latency_ms = 0;  // scheduled send to last response
    double send_ms = 0;     // actual send to last response (client call)
    double done_s = 0;      // last response, seconds from the phase start
    bool ok = false;        // every response accepted by the checker
  };
  std::vector<Done> done;
  std::vector<double> lag_ms;  // actual minus scheduled send
  int64_t unanswered = 0;      // still in flight when the drain timed out
  std::string error;           // first transport error, if any
};

/// How the event loop sends: open loop at `rate` requests per second
/// (request i due at i / rate, on connection i mod n), or, with `window`
/// > 0, closed loop with `window` requests in flight per connection.
struct LoopShape {
  double rate = 0;
  int window = 0;
};

/// Runs one phase. `make(i, conn)` builds request i for connection
/// `conn`; `check` sees each response payload (type byte first) with the
/// request and the frame index, and returns whether it is correct. Stops
/// sending at `seconds`, then drains for at most `drain_s`.
OpenResult RunLoop(
    const std::vector<RawConn*>& conns, LoopShape shape, double seconds,
    double drain_s, const std::function<OpenRequest(uint64_t, int)>& make,
    const std::function<bool(const OpenRequest&, size_t,
                             const std::vector<uint8_t>&)>& check);

/// Runs `body(thread_index)` on `threads` new threads and, meanwhile,
/// `on_caller` (when given) on the calling thread, then joins them all,
/// also when one throws; the first exception is rethrown after the join.
void RunThreads(int threads, const std::function<void(int)>& body,
                const std::function<void()>& on_caller = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
