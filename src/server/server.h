// vdmserve: a multi-session wire front end over one Database
// (DESIGN.md §16).
//
// Architecture: one poll()-based I/O thread owns the listening socket and
// every connection's read side; complete frames are queued per connection
// and drained in order by a ProcessConnection task on the Database's
// worker pool (at most one task per connection at a time, so a session
// never sees concurrent frames). CANCEL frames bypass the queue: the poll
// thread fires Session::CancelActive the moment the frame is read, which
// is what lets a cancel reach a query a worker is still executing.
//
// Lifetime: the Database must outlive the Server. Stop() (also run by the
// destructor) stops accepting, joins the poll thread, cancels every
// in-flight statement, waits for the connection tasks to finish, then
// destroys the connections — each session rolling back its open
// transaction.
//
// Concurrent DDL is NOT part of the server contract: catalog table/view
// registration is unsynchronized by design (setup happens before traffic,
// as in the paper's deploy-then-serve VDM lifecycle). Run DDL on a single
// connection before opening the floodgates.
#ifndef VDMQO_SERVER_SERVER_H_
#define VDMQO_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/tenant.h"
#include "engine/database.h"
#include "server/session.h"

namespace vdm {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see port()).
  uint16_t port = 0;
  /// Start() grows the Database's worker pool, which runs the statements,
  /// to at least this many workers; 0 keeps its size (hardware
  /// concurrency by default).
  size_t workers = 0;
  /// Max concurrent connections; new ones beyond it are turned away with
  /// kResourceExhausted. 0 = unlimited.
  size_t max_sessions = 0;
  /// VDM_TENANT_CLASSES-format tenant spec (common/tenant.h).
  std::string tenant_spec;

  /// Reads VDM_SERVER_PORT, VDM_MAX_SESSIONS, VDM_TENANT_CLASSES.
  static ServerOptions FromEnv();
};

struct ServerStats {
  uint64_t sessions_opened = 0;
  uint64_t sessions_closed = 0;
  uint64_t frames = 0;
  uint64_t protocol_errors = 0;
  uint64_t cancels = 0;
  size_t active_sessions = 0;
};

class Server {
 public:
  explicit Server(Database* db, ServerOptions options = ServerOptions());
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds 127.0.0.1:<port>, grows the worker pool to options.workers and
  /// spawns the poll thread.
  Status Start();
  /// Idempotent full shutdown; see the lifetime comment above.
  void Stop();

  /// The bound port (after Start; ephemeral when options.port was 0).
  int port() const { return port_; }
  ServerStats stats() const;
  TenantRegistry& tenants() { return tenants_; }

 private:
  struct Connection;

  void PollLoop();
  /// Drains one connection's frame queue in order (one pool task at a
  /// time per connection).
  void ProcessConnection(Connection* conn);
  /// Submits ProcessConnection(conn) to the pool, counted in tasks_.
  void SubmitConnection(Connection* conn);
  /// Extracts complete frames from the connection's read buffer,
  /// dispatching CANCEL immediately and queueing the rest. False = the
  /// stream is poisoned (oversized/zero-length frame): error sent, die.
  bool ExtractFrames(Connection* conn);
  void AcceptPending();
  void Wake();
  static Status WriteFrame(Connection* conn, const std::vector<uint8_t>& frame);

  Database* const db_;
  ServerOptions options_;
  TenantRegistry tenants_;

  int listen_fd_ = -1;
  int port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  std::atomic<bool> stopping_{false};
  bool started_ = false;

  std::thread poll_thread_;

  // Connections keyed by fd. The poll thread inserts; removal happens in
  // the reap step (poll thread) or Stop — both under conns_mu_ because
  // Stop and stats() run on other threads.
  mutable std::mutex conns_mu_;
  std::map<int, std::unique_ptr<Connection>> conns_;

  // ProcessConnection tasks submitted and not yet finished; Stop() waits
  // for zero.
  std::mutex tasks_mu_;
  std::condition_variable tasks_cv_;
  size_t tasks_ = 0;  // guarded by tasks_mu_

  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<uint64_t> sessions_opened_{0};
  std::atomic<uint64_t> sessions_closed_{0};
  std::atomic<uint64_t> frames_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> cancels_{0};
};

}  // namespace vdm

#endif  // VDMQO_SERVER_SERVER_H_
