// One server session: the per-connection state machine (DESIGN.md §16).
//
// A Session owns what the wire protocol scopes to a connection: the
// ExecLimits declared at HELLO, the tenant class resolved at HELLO, the
// open transaction slot driven through Database::ExecuteSession, and the
// prepared-statement handle table. HandleFrame processes exactly one
// decoded frame and returns the response frame; the server calls it from
// one worker thread at a time (frames of a connection are serialized), so
// the only concurrent entry point is CancelActive, which the poll thread
// fires when a CANCEL frame (or connection death) arrives mid-query.
//
// Destroying a session rolls back its open transaction — the clean-
// teardown guarantee for a connection dying mid-transaction: the
// transaction's writes vanish and its watermark pin is released so
// background merges can advance.
#ifndef VDMQO_SERVER_SESSION_H_
#define VDMQO_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/tenant.h"
#include "engine/database.h"
#include "server/wire.h"

namespace vdm {

class Session {
 public:
  Session(uint64_t id, Database* db, TenantRegistry* tenants);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Handles one complete frame payload (MsgType byte + body) and returns
  /// the response frame bytes (empty only for kCancel, which has no
  /// response). Never throws; malformed input becomes an ERROR frame.
  std::vector<uint8_t> HandleFrame(const uint8_t* payload, size_t size);

  /// Requests cooperative cancellation of the statement running right
  /// now, if any. Safe from any thread; a no-op between statements.
  void CancelActive();

  /// True after a CLOSE frame: the server flushes the ACK, then drops the
  /// connection.
  bool wants_close() const {
    return wants_close_.load(std::memory_order_acquire);
  }

  uint64_t id() const { return id_; }
  bool in_transaction() const { return txn_ != nullptr; }
  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  uint64_t errors() const { return errors_.load(std::memory_order_relaxed); }

 private:
  std::vector<uint8_t> HandleHello(WireReader* r);
  std::vector<uint8_t> HandleQuery(WireReader* r);
  std::vector<uint8_t> HandlePrepare(WireReader* r);
  std::vector<uint8_t> HandleExecute(WireReader* r);
  std::vector<uint8_t> HandleCloseStmt(WireReader* r);
  std::vector<uint8_t> HandleTxnControl(const char* sql);

  /// Runs `body` (which executes one statement) holding a tenant slot,
  /// with a fresh cancellable QueryContext installed as the active one and
  /// the limits' max_queued_ms cut to what the tenant gate left of it.
  /// Returns the response frame.
  std::vector<uint8_t> Governed(
      const std::function<Result<Chunk>(const ExecLimits&, QueryContext*,
                                        QueryTiming*)>& body);

  std::vector<uint8_t> ErrorFrame(const Status& status);

  const uint64_t id_;
  Database* const db_;
  TenantRegistry* const tenants_;

  bool hello_done_ = false;
  TenantClass* tenant_;  // never null; default class until HELLO
  ExecLimits limits_;

  Transaction* txn_ = nullptr;  // owned by Database::open_txns_
  std::map<uint32_t, std::shared_ptr<const PreparedStatement>> prepared_;
  uint32_t next_stmt_id_ = 1;

  // The context of the statement running right now. shared_ptr so
  // CancelActive can safely poke it while the worker tears it down.
  std::mutex active_mu_;
  std::shared_ptr<QueryContext> active_ctx_;

  std::atomic<bool> wants_close_{false};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
};

}  // namespace vdm

#endif  // VDMQO_SERVER_SESSION_H_
