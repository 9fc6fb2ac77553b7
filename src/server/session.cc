#include "server/session.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "common/string_util.h"

namespace vdm {

Session::Session(uint64_t id, Database* db, TenantRegistry* tenants)
    : id_(id),
      db_(db),
      tenants_(tenants),
      tenant_(tenants->Resolve("")),
      limits_(db->default_limits()) {}

Session::~Session() {
  // Clean teardown of a connection dying mid-transaction: roll the open
  // transaction back so its writes vanish and its watermark pin is
  // released. An injected txn.rollback fault leaves the handle open and
  // retryable — retry once; if that also fails, Database teardown is the
  // backstop.
  if (txn_ != nullptr) {
    Status st = db_->RollbackTxn(txn_);
    if (!st.ok()) st = db_->RollbackTxn(txn_);
    txn_ = nullptr;
  }
}

void Session::CancelActive() {
  std::shared_ptr<QueryContext> ctx;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    ctx = active_ctx_;
  }
  if (ctx != nullptr) ctx->RequestCancel();
}

std::vector<uint8_t> Session::ErrorFrame(const Status& status) {
  errors_.fetch_add(1, std::memory_order_relaxed);
  return EncodeError(status);
}

std::vector<uint8_t> Session::HandleFrame(const uint8_t* payload,
                                          size_t size) {
  if (size == 0) {
    return ErrorFrame(Status::InvalidArgument("empty frame"));
  }
  const MsgType type = static_cast<MsgType>(payload[0]);
  WireReader r(payload + 1, size - 1);
  if (type == MsgType::kCancel) {
    // Normally intercepted by the poll thread ahead of the queue; if it
    // lands here the statement it aimed at already finished. No response.
    return {};
  }
  if (!hello_done_ && type != MsgType::kHello && type != MsgType::kClose) {
    return ErrorFrame(
        Status::InvalidArgument("HELLO required before any other message"));
  }
  switch (type) {
    case MsgType::kHello:
      return HandleHello(&r);
    case MsgType::kQuery:
      return HandleQuery(&r);
    case MsgType::kPrepare:
      return HandlePrepare(&r);
    case MsgType::kExecute:
      return HandleExecute(&r);
    case MsgType::kCloseStmt:
      return HandleCloseStmt(&r);
    case MsgType::kBegin:
      return HandleTxnControl("begin");
    case MsgType::kCommit:
      return HandleTxnControl("commit");
    case MsgType::kRollback:
      return HandleTxnControl("rollback");
    case MsgType::kClose:
      wants_close_.store(true, std::memory_order_release);
      return EncodeEmpty(MsgType::kAck);
    default:
      return ErrorFrame(Status::InvalidArgument(
          "unknown message type " + std::to_string(payload[0])));
  }
}

std::vector<uint8_t> Session::HandleHello(WireReader* r) {
  HelloMsg msg;
  Status st = DecodeHello(r, &msg);
  if (!st.ok()) return ErrorFrame(st);
  if (hello_done_) {
    return ErrorFrame(Status::InvalidArgument("duplicate HELLO"));
  }
  if (msg.version != kProtocolVersion) {
    return ErrorFrame(Status::InvalidArgument(
        StrFormat("unsupported protocol version %u (server speaks %u)",
                  msg.version, kProtocolVersion)));
  }
  tenant_ = tenants_->Resolve(msg.tenant);
  // HELLO fields override the session defaults; non-positive keeps them.
  if (msg.timeout_ms > 0) limits_.timeout_ms = msg.timeout_ms;
  if (msg.memory_budget > 0) limits_.memory_budget = msg.memory_budget;
  if (msg.max_queued_ms > 0) limits_.max_queued_ms = msg.max_queued_ms;
  hello_done_ = true;
  return EncodeHelloOk(id_, tenant_->config().name);
}

std::vector<uint8_t> Session::Governed(
    const std::function<Result<Chunk>(const ExecLimits&, QueryContext*,
                                      QueryTiming*)>& body) {
  queries_.fetch_add(1, std::memory_order_relaxed);
  // The per-query tracker charges into the tenant class, which charges
  // into the process tracker — the three-level hierarchy of §16.
  auto ctx = std::make_shared<QueryContext>(tenant_->memory());
  if (txn_ != nullptr) ctx->set_snapshot(txn_->snapshot());
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_ctx_ = ctx;
  }
  QueryTiming timing;
  Result<Chunk> result = [&]() -> Result<Chunk> {
    uint64_t waited_ns = 0;
    VDM_ASSIGN_OR_RETURN(AdmissionGate::Slot slot,
                         tenant_->Admit(limits_.max_queued_ms, &waited_ns));
    // One queue budget for both gates: the global gate gets what is left.
    ExecLimits limits = limits_;
    limits.max_queued_ms = std::max<int64_t>(
        0, limits_.max_queued_ms - static_cast<int64_t>(waited_ns / 1000000));
    return body(limits, ctx.get(), &timing);
  }();
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    active_ctx_.reset();
  }
  if (!result.ok()) return ErrorFrame(result.status());
  const uint8_t flags = timing.cache_hit ? kResultFlagCacheHit : 0;
  return EncodeResult(flags, *result);
}

std::vector<uint8_t> Session::HandleQuery(WireReader* r) {
  std::string sql;
  Status st = DecodeQuery(r, &sql);
  if (!st.ok()) return ErrorFrame(st);
  return Governed([&](const ExecLimits& limits, QueryContext* ctx,
                      QueryTiming* timing) {
    return db_->ExecuteSession(sql, &txn_, limits, ctx, timing);
  });
}

std::vector<uint8_t> Session::HandlePrepare(WireReader* r) {
  std::string sql;
  Status st = DecodeQuery(r, &sql);
  if (!st.ok()) return ErrorFrame(st);
  Result<std::shared_ptr<const PreparedStatement>> prepared =
      db_->Prepare(sql);
  if (!prepared.ok()) return ErrorFrame(prepared.status());
  PreparedMsg msg;
  msg.stmt_id = next_stmt_id_++;
  if ((*prepared)->parameterized_ok) {
    msg.param_types = (*prepared)->parameterized.param_types;
    msg.has_limit = (*prepared)->parameterized.has_limit;
    msg.has_offset = (*prepared)->parameterized.has_offset;
  }
  prepared_[msg.stmt_id] = std::move(*prepared);
  return EncodePrepared(msg);
}

std::vector<uint8_t> Session::HandleExecute(WireReader* r) {
  ExecuteMsg msg;
  Status st = DecodeExecute(r, &msg);
  if (!st.ok()) return ErrorFrame(st);
  auto it = prepared_.find(msg.stmt_id);
  if (it == prepared_.end()) {
    return ErrorFrame(Status::NotFound(
        StrFormat("unknown prepared statement %u", msg.stmt_id)));
  }
  std::shared_ptr<const PreparedStatement> stmt = it->second;
  return Governed([&](const ExecLimits& limits, QueryContext* ctx,
                      QueryTiming* timing) {
    return db_->ExecutePrepared(*stmt, msg.params, msg.limit, msg.offset,
                                limits, nullptr, timing, ctx);
  });
}

std::vector<uint8_t> Session::HandleCloseStmt(WireReader* r) {
  uint32_t stmt_id = 0;
  Status st = DecodeCloseStmt(r, &stmt_id);
  if (!st.ok()) return ErrorFrame(st);
  if (prepared_.erase(stmt_id) == 0) {
    return ErrorFrame(Status::NotFound(
        StrFormat("unknown prepared statement %u", stmt_id)));
  }
  return EncodeEmpty(MsgType::kAck);
}

std::vector<uint8_t> Session::HandleTxnControl(const char* sql) {
  // Transaction control is instant bookkeeping — it skips tenant
  // admission so a tenant at its concurrency limit can still COMMIT.
  Result<Chunk> result = db_->ExecuteSession(sql, &txn_, limits_);
  if (!result.ok()) return ErrorFrame(result.status());
  return EncodeEmpty(MsgType::kAck);
}

}  // namespace vdm
