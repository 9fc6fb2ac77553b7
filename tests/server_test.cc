// vdmserve conformance suite (DESIGN.md §16): golden byte-level wire
// codec checks, loopback protocol semantics (session isolation, prepared
// rebind and cached plans across commits, CANCEL mid-query, per-tenant
// admission and its one queue budget with the global gate, death
// mid-transaction), a seeded frame fuzzer that must never
// crash the server, the Database teardown-ordering audit with live
// sessions and queued merges, and the one-pool thread count. The ASan/TSan
// legs run through `tools/ci.sh server`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "engine/database.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "testing/differential.h"

namespace vdm {
namespace {

// ---------------------------------------------------------------------------
// Wire codec: golden bytes + round trips + strictness

TEST(WireTest, GoldenQueryFrameBytes) {
  // frame = u32 len | u8 type | u32 strlen | bytes
  std::vector<uint8_t> frame = EncodeQuery("hi");
  const std::vector<uint8_t> expected = {
      0x07, 0x00, 0x00, 0x00,  // payload length 7
      0x02,                    // MsgType::kQuery
      0x02, 0x00, 0x00, 0x00,  // strlen 2
      'h',  'i',
  };
  EXPECT_EQ(frame, expected);
}

TEST(WireTest, GoldenExecuteFrameBytes) {
  ExecuteMsg msg;
  msg.stmt_id = 7;
  msg.params = {Value::Int64(5)};
  msg.limit = 10;
  msg.offset = -1;
  std::vector<uint8_t> frame = EncodeExecute(msg);
  const std::vector<uint8_t> expected = {
      0x22, 0x00, 0x00, 0x00,                          // payload length 34
      0x04,                                            // MsgType::kExecute
      0x07, 0x00, 0x00, 0x00,                          // stmt_id
      0x01, 0x00, 0x00, 0x00,                          // 1 param
      0x02, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // int64 tag + 5
      0x00,                                            //   (cont.)
      0x0A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // limit 10
      0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // offset -1
  };
  EXPECT_EQ(frame, expected);
}

// Holds a frame and a reader over its body (after the length prefix and
// type byte) — what the server-side dispatcher hands the per-message
// decoder. Owning the bytes keeps the reader's borrowed buffer alive.
struct FrameBody {
  explicit FrameBody(std::vector<uint8_t> f, MsgType expect)
      : frame(std::move(f)),
        reader(frame.data() + kFrameHeaderBytes + 1,
               frame.size() - kFrameHeaderBytes - 1) {
    EXPECT_GE(frame.size(), kFrameHeaderBytes + 1);
    EXPECT_EQ(frame[kFrameHeaderBytes], static_cast<uint8_t>(expect));
  }
  std::vector<uint8_t> frame;
  WireReader reader;
};

TEST(WireTest, RoundTripHello) {
  HelloMsg in;
  in.version = kProtocolVersion;
  in.tenant = "olap";
  in.timeout_ms = 1234;
  in.memory_budget = int64_t{1} << 31;
  in.max_queued_ms = 77;
  FrameBody body(EncodeHello(in), MsgType::kHello);
  WireReader& r = body.reader;
  HelloMsg out;
  ASSERT_TRUE(DecodeHello(&r, &out).ok());
  EXPECT_EQ(out.version, in.version);
  EXPECT_EQ(out.tenant, in.tenant);
  EXPECT_EQ(out.timeout_ms, in.timeout_ms);
  EXPECT_EQ(out.memory_budget, in.memory_budget);
  EXPECT_EQ(out.max_queued_ms, in.max_queued_ms);
}

TEST(WireTest, RoundTripQueryPrepareCloseStmt) {
  const std::string sql = "select * from t where k = 'naïve'";
  {
    FrameBody body(EncodeQuery(sql), MsgType::kQuery);
    std::string out;
    ASSERT_TRUE(DecodeQuery(&body.reader, &out).ok());
    EXPECT_EQ(out, sql);
  }
  {
    FrameBody body(EncodePrepare(sql), MsgType::kPrepare);
    std::string out;
    ASSERT_TRUE(DecodeQuery(&body.reader, &out).ok());
    EXPECT_EQ(out, sql);
  }
  {
    FrameBody body(EncodeCloseStmt(99), MsgType::kCloseStmt);
    uint32_t id = 0;
    ASSERT_TRUE(DecodeCloseStmt(&body.reader, &id).ok());
    EXPECT_EQ(id, 99u);
  }
}

TEST(WireTest, RoundTripExecuteAllValueTags) {
  ExecuteMsg in;
  in.stmt_id = 42;
  in.params = {Value::Null(),          Value::Bool(true),
               Value::Int64(-7),       Value::Double(2.5),
               Value::Decimal(1999, 2), Value::String("päge"),
               Value::Date(19876)};
  in.limit = 100;
  in.offset = 300;
  FrameBody body(EncodeExecute(in), MsgType::kExecute);
  ExecuteMsg out;
  ASSERT_TRUE(DecodeExecute(&body.reader, &out).ok());
  EXPECT_EQ(out.stmt_id, 42u);
  EXPECT_EQ(out.limit, 100);
  EXPECT_EQ(out.offset, 300);
  ASSERT_EQ(out.params.size(), in.params.size());
  for (size_t i = 0; i < in.params.size(); ++i) {
    EXPECT_EQ(out.params[i].ToString(), in.params[i].ToString()) << i;
  }
}

TEST(WireTest, RoundTripServerMessages) {
  {
    FrameBody body(EncodeHelloOk(123, "gold"), MsgType::kHelloOk);
    uint64_t sid = 0;
    std::string tenant;
    ASSERT_TRUE(DecodeHelloOk(&body.reader, &sid, &tenant).ok());
    EXPECT_EQ(sid, 123u);
    EXPECT_EQ(tenant, "gold");
  }
  {
    Status in = Status::Cancelled("stop it");
    FrameBody body(EncodeError(in), MsgType::kError);
    ErrorMsg out;
    ASSERT_TRUE(DecodeError(&body.reader, &out).ok());
    EXPECT_EQ(out.code, StatusCode::kCancelled);
    EXPECT_EQ(out.message, "stop it");
  }
  {
    PreparedMsg in;
    in.stmt_id = 9;
    in.param_types = {DataType::Int64(), DataType::Decimal(2),
                      DataType::String()};
    in.has_limit = true;
    in.has_offset = false;
    FrameBody body(EncodePrepared(in), MsgType::kPrepared);
    PreparedMsg out;
    ASSERT_TRUE(DecodePrepared(&body.reader, &out).ok());
    EXPECT_EQ(out.stmt_id, 9u);
    ASSERT_EQ(out.param_types.size(), 3u);
    EXPECT_EQ(out.param_types[1].id, TypeId::kDecimal);
    EXPECT_EQ(out.param_types[1].scale, 2);
    EXPECT_TRUE(out.has_limit);
    EXPECT_FALSE(out.has_offset);
  }
  for (MsgType type : {MsgType::kBegin, MsgType::kCommit, MsgType::kRollback,
                       MsgType::kCancel, MsgType::kClose, MsgType::kAck}) {
    std::vector<uint8_t> frame = EncodeEmpty(type);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + 1);
    EXPECT_EQ(frame[kFrameHeaderBytes], static_cast<uint8_t>(type));
  }
}

TEST(WireTest, RoundTripChunkWithNullsAndEveryType) {
  Chunk chunk;
  chunk.names = {"b", "i", "dec", "d", "s", "dt"};
  ColumnData b(DataType::Bool());
  b.AppendInt(1);
  b.AppendNull();
  ColumnData i(DataType::Int64());
  i.AppendInt(-5);
  i.AppendInt(7);
  ColumnData dec(DataType::Decimal(2));
  dec.AppendInt(1999);
  dec.AppendNull();
  ColumnData d(DataType::Double());
  d.AppendDouble(0.125);
  d.AppendNull();
  ColumnData s(DataType::String());
  s.AppendString("alpha");
  s.AppendNull();
  ColumnData dt(DataType::Date());
  dt.AppendNull();
  dt.AppendInt(20000);
  chunk.columns = {std::move(b), std::move(i),   std::move(dec),
                   std::move(d), std::move(s),   std::move(dt)};

  WireWriter w;
  EncodeChunk(&w, chunk);
  WireReader r(w.buf().data(), w.buf().size());
  Chunk out;
  ASSERT_TRUE(DecodeChunk(&r, &out).ok());
  ASSERT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(NormalizeChunk(out, /*ordered=*/true),
            NormalizeChunk(chunk, /*ordered=*/true));
}

TEST(WireTest, DecodeIsStrictOnTruncationAndTrailingBytes) {
  std::vector<uint8_t> frame = EncodeQuery("select k from t");
  const uint8_t* body = frame.data() + kFrameHeaderBytes + 1;
  const size_t body_size = frame.size() - kFrameHeaderBytes - 1;
  // Every proper prefix must fail...
  for (size_t cut = 0; cut < body_size; ++cut) {
    WireReader r(body, cut);
    std::string sql;
    Status st = DecodeQuery(&r, &sql);
    if (st.ok()) st = r.ExpectEnd();
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
  }
  // ...and trailing garbage must fail too.
  std::vector<uint8_t> padded(body, body + body_size);
  padded.push_back(0xAB);
  WireReader r(padded.data(), padded.size());
  std::string sql;
  Status st = DecodeQuery(&r, &sql);
  if (st.ok()) st = r.ExpectEnd();
  EXPECT_FALSE(st.ok());
}

TEST(WireTest, StatusCodesSurviveTheWire) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kSerializationFailure);
       ++c) {
    StatusCode code = static_cast<StatusCode>(c);
    EXPECT_EQ(StatusCodeFromWire(WireStatusCode(code)), code);
  }
  // Unknown bytes (a future server talking to an old client) degrade to
  // kInternal instead of crashing or aliasing kOk.
  EXPECT_EQ(StatusCodeFromWire(0xEE), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Loopback server fixture

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = ServerOptions()) {
    server_ = std::make_unique<Server>(&db_, options);
    ASSERT_TRUE(server_->Start().ok());
  }

  /// Connects and HELLOs a client; `tenant` picks the admission class.
  void NewClient(VdmClient* client, const std::string& tenant = "",
                 int64_t timeout_ms = 30000, int64_t max_queued_ms = 200) {
    ASSERT_TRUE(client->Connect("127.0.0.1", server_->port()).ok());
    HelloMsg hello;
    hello.tenant = tenant;
    hello.timeout_ms = timeout_ms;
    hello.max_queued_ms = max_queued_ms;
    ASSERT_TRUE(client->Hello(hello).ok());
  }

  void MakeKV() {
    ASSERT_TRUE(db_.Execute("create table t (k int, v int)").ok());
    ASSERT_TRUE(
        db_.Execute("insert into t values (1, 10), (2, 20), (3, 30)").ok());
  }

  /// A table whose self-join on a constant column explodes (n^2 pairs), so
  /// a statement over it reliably straddles a CANCEL fired ~30ms in.
  void MakeBig(int rows = 6000) {
    ASSERT_TRUE(db_.Execute("create table big (a int)").ok());
    std::string values;
    for (int i = 0; i < 500; ++i) values += i == 0 ? "(1)" : ", (1)";
    for (int chunk = 0; chunk < rows / 500; ++chunk) {
      ASSERT_TRUE(db_.Execute("insert into big values " + values).ok());
    }
  }

  static constexpr const char* kSlowSql =
      "select count(*) as n from big x join big y on x.a = y.a";

  int64_t ScalarInt(const Result<Chunk>& r) {
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->NumRows(), 1u);
    return r->columns[0].ints()[0];
  }

  Database db_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, LoopbackQueryMatchesInProcess) {
  MakeKV();
  StartServer();
  VdmClient client;
  NewClient(&client);
  Result<Chunk> wire = client.Query("select k, v from t where v >= 20");
  Result<Chunk> local = db_.Query("select k, v from t where v >= 20");
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(NormalizeChunk(*wire, false), NormalizeChunk(*local, false));
  EXPECT_TRUE(client.Close().ok());
}

TEST_F(ServerTest, HelloHandshakeIsEnforced) {
  MakeKV();
  StartServer();
  {
    // Any statement before HELLO is rejected.
    VdmClient raw;
    ASSERT_TRUE(raw.Connect("127.0.0.1", server_->port()).ok());
    Result<Chunk> r = raw.Query("select k from t");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  {
    // Unknown protocol versions are turned away at HELLO.
    VdmClient wrong;
    ASSERT_TRUE(wrong.Connect("127.0.0.1", server_->port()).ok());
    HelloMsg hello;
    hello.version = kProtocolVersion + 1;
    Status st = wrong.Hello(hello);
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
  {
    // A second HELLO on an established session is a protocol error.
    VdmClient dup;
    NewClient(&dup);
    Status st = dup.Hello(HelloMsg{});
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(ServerTest, SessionIsolationAcrossConnections) {
  MakeKV();
  StartServer();
  VdmClient a, b;
  NewClient(&a);
  NewClient(&b);

  ASSERT_TRUE(a.Begin().ok());
  ASSERT_TRUE(a.Query("insert into t values (4, 40)").ok());
  ASSERT_TRUE(a.Query("update t set v = 11 where k = 1").ok());

  // A sees its own uncommitted writes; B sees none of them.
  EXPECT_EQ(ScalarInt(a.Query("select count(*) as n from t")), 4);
  EXPECT_EQ(ScalarInt(b.Query("select count(*) as n from t")), 3);
  EXPECT_EQ(ScalarInt(b.Query("select v from t where k = 1")), 10);

  ASSERT_TRUE(a.Commit().ok());
  EXPECT_EQ(ScalarInt(b.Query("select count(*) as n from t")), 4);
  EXPECT_EQ(ScalarInt(b.Query("select v from t where k = 1")), 11);

  // Transaction control also works as plain SQL through QUERY frames.
  ASSERT_TRUE(b.Query("begin").ok());
  ASSERT_TRUE(b.Query("delete from t where k = 4").ok());
  ASSERT_TRUE(b.Rollback().ok());
  EXPECT_EQ(ScalarInt(a.Query("select count(*) as n from t")), 4);
}

TEST_F(ServerTest, PreparedStatementsStayWarmAcrossCommits) {
  MakeKV();
  db_.EnablePlanCache();
  StartServer();
  VdmClient client, writer;
  NewClient(&client);
  NewClient(&writer);

  // Equality literals are pinned into the plan by design; range predicates
  // are the parameterizable shape (sql/parameterize.h).
  Result<PreparedMsg> prep = client.Prepare(
      "select count(*) as n from t where k >= 3 limit 10 offset 0");
  ASSERT_TRUE(prep.ok()) << prep.status().ToString();
  ASSERT_EQ(prep->param_types.size(), 1u);
  EXPECT_EQ(prep->param_types[0].id, TypeId::kInt64);
  EXPECT_TRUE(prep->has_limit);
  EXPECT_TRUE(prep->has_offset);

  // Prepare-time literal as the default, then an explicit rebind.
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {})), 1);
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {Value::Int64(2)})), 2);
  // Warm handle: the second identical execution is a plan-cache hit.
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {Value::Int64(2)})), 2);
  EXPECT_TRUE(client.last_cache_hit());

  // A commit from another session keeps the cached plan: the next
  // execution is still a hit and sees the new row.
  ASSERT_TRUE(writer.Query("insert into t values (4, 40)").ok());
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {Value::Int64(2)})), 3);
  EXPECT_TRUE(client.last_cache_hit());

  // Fresh statistics retire the plan: the handle transparently recompiles
  // (same result), and the new plan is warm again.
  db_.AnalyzeTables();
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {Value::Int64(2)})), 3);
  EXPECT_FALSE(client.last_cache_hit());
  EXPECT_EQ(ScalarInt(client.Execute(prep->stmt_id, {Value::Int64(2)})), 3);
  EXPECT_TRUE(client.last_cache_hit());

  // Param-count mismatches are typed errors, not crashes.
  Result<Chunk> wrong =
      client.Execute(prep->stmt_id, {Value::Int64(1), Value::Int64(2)});
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Closed handles are gone; unknown handles were never there.
  ASSERT_TRUE(client.CloseStmt(prep->stmt_id).ok());
  Result<Chunk> closed = client.Execute(prep->stmt_id, {});
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kNotFound);
  Status never = client.CloseStmt(4040);
  ASSERT_FALSE(never.ok());
  EXPECT_EQ(never.code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, CachedReportSeesCommitsAndKeepsTxnSnapshot) {
  MakeKV();
  db_.EnablePlanCache();
  StartServer();
  VdmClient a, b;
  NewClient(&a);
  NewClient(&b);
  const std::string report =
      "select count(*) as n, sum(v) as total from t where k >= 1";
  auto run = [&]() -> int64_t {
    Result<Chunk> r = a.Query(report);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() && r->NumRows() == 1 ? r->columns[0].ints()[0] : -1;
  };

  EXPECT_EQ(run(), 3);
  EXPECT_EQ(run(), 3);
  EXPECT_TRUE(a.last_cache_hit());

  // A's transaction begins before B's commit: inside it the cached plan
  // still serves A's snapshot.
  ASSERT_TRUE(a.Begin().ok());
  EXPECT_EQ(run(), 3);
  ASSERT_TRUE(b.Query("insert into t values (4, 40)").ok());
  EXPECT_EQ(run(), 3);
  EXPECT_TRUE(a.last_cache_hit());
  ASSERT_TRUE(a.Commit().ok());

  // Outside it, the same cached plan sees B's row.
  EXPECT_EQ(run(), 4);
  EXPECT_TRUE(a.last_cache_hit());
}

TEST_F(ServerTest, CancelSurfacesMidQuery) {
  MakeBig();
  StartServer();
  VdmClient client;
  NewClient(&client);

  Result<Chunk> result = Status::Internal("query never ran");
  std::thread runner(
      [&] { result = client.Query(kSlowSql); });
  // Let the statement get onto a worker and into the executor, then fire
  // CANCEL from this thread (the one legal concurrent client call).
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(client.Cancel().ok());
  runner.join();

  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled)
      << result.status().ToString();

  // The connection survives a cancel: next statement runs normally.
  EXPECT_EQ(ScalarInt(client.Query("select count(*) as n from big")), 6000);
  EXPECT_TRUE(client.Close().ok());
  EXPECT_GT(server_->stats().cancels, 0u);
}

TEST_F(ServerTest, HelloTimeoutGovernsStatements) {
  MakeBig();
  StartServer();
  VdmClient client;
  NewClient(&client, "", /*timeout_ms=*/30);
  Result<Chunk> r = client.Query(kSlowSql);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
}

TEST_F(ServerTest, PipelinedFramesAnswerInOrder) {
  MakeKV();
  StartServer();
  VdmClient client;
  NewClient(&client);
  // Three QUERY frames in one write; responses must come back 1:1 in
  // order.
  std::vector<uint8_t> burst;
  for (const char* sql :
       {"select count(*) as n from t", "select k from t where k = 2",
        "select v from t where k = 3"}) {
    std::vector<uint8_t> frame = EncodeQuery(sql);
    burst.insert(burst.end(), frame.begin(), frame.end());
  }
  ASSERT_TRUE(client.SendBytes(burst.data(), burst.size()).ok());
  const int64_t expected[3] = {3, 2, 30};
  for (int i = 0; i < 3; ++i) {
    Result<std::pair<MsgType, std::vector<uint8_t>>> frame =
        client.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_EQ(frame->first, MsgType::kResult) << i;
    WireReader r(frame->second.data(), frame->second.size());
    ResultMsg msg;
    ASSERT_TRUE(DecodeResult(&r, &msg).ok());
    EXPECT_EQ(msg.chunk.columns[0].ints()[0], expected[i]) << i;
  }
}

TEST_F(ServerTest, TenantAdmissionIsolatesClasses) {
  MakeBig();
  ServerOptions options;
  options.tenant_spec = "capped:conc=1;open:conc=0";
  // Force a real worker pool: on a single-core box the pool starts with one
  // worker, which would serialize the statements *before* the tenant gate
  // and hide the admission contention this test is about.
  options.workers = 4;
  StartServer(options);

  VdmClient capped1, capped2, open1;
  NewClient(&capped1, "capped", 30000, /*max_queued_ms=*/100);
  NewClient(&capped2, "capped", 30000, /*max_queued_ms=*/100);
  NewClient(&open1, "open");

  std::atomic<bool> slow_done{false};
  std::thread runner([&] {
    Result<Chunk> r = capped1.Query(kSlowSql);
    slow_done.store(true);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  // The capped tenant's one slot is taken: its second session times out in
  // the tenant queue with a typed error...
  Result<Chunk> starved = capped2.Query("select count(*) as n from big");
  EXPECT_FALSE(starved.ok());
  if (!starved.ok()) {
    EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted)
        << starved.status().ToString();
  }
  EXPECT_FALSE(slow_done.load());  // and it really was queueing behind it

  // ...while the other tenant is untouched by the capped tenant's backlog.
  EXPECT_EQ(ScalarInt(open1.Query("select count(*) as n from big")), 6000);

  runner.join();
  // Slot released: the capped tenant runs again.
  EXPECT_EQ(ScalarInt(capped2.Query("select count(*) as n from big")), 6000);

  TenantClass* capped = server_->tenants().Resolve("capped");
  EXPECT_GT(capped->admission_timeouts(), 0u);
  EXPECT_GT(capped->admitted(), 0u);
}

// Sets VDM_MAX_CONCURRENT=1 for the Database the ServerTest base builds
// (the global gate's size is read at construction).
struct OneGlobalSlot {
  OneGlobalSlot() { setenv("VDM_MAX_CONCURRENT", "1", /*overwrite=*/1); }
};

class ServerBothGatesTest : private OneGlobalSlot, public ServerTest {
 protected:
  ServerBothGatesTest() { unsetenv("VDM_MAX_CONCURRENT"); }
};

// A wire statement queues at its tenant gate, then at the global gate;
// both together wait at most one max_queued_ms, not one per gate.
TEST_F(ServerBothGatesTest, QueueWaitAcrossBothGatesIsOneBudget) {
  MakeBig();
  // The slot holder below runs inline (no pool workers taken from the
  // server's statements, which would otherwise queue in the pool before
  // reaching either gate) and in small morsels (it runs for seconds on
  // little memory and notices its cancel quickly).
  ExecOptions exec;
  exec.num_threads = 1;
  exec.morsel_size = 256;
  db_.SetExecOptions(exec);
  ServerOptions options;
  options.tenant_spec = "capped:conc=1";
  options.workers = 4;
  StartServer(options);

  // The one global slot: an in-process query, cancelled at the end.
  QueryContext holder_ctx;
  std::thread holder([&] {
    (void)db_.Query(kSlowSql, ExecLimits{}, nullptr, nullptr, &holder_ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  constexpr int64_t kQueueMs = 300;
  VdmClient first, second;
  NewClient(&first, "capped", 30000, kQueueMs);
  NewClient(&second, "capped", 30000, kQueueMs);
  // `first` takes the tenant's only slot and queues at the global gate...
  Result<Chunk> first_result = Status::Internal("not run");
  std::thread first_thread(
      [&] { first_result = first.Query("select count(*) as n from big"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  // ...so `second` queues at the tenant gate until `first` times out, and
  // then at the global gate for only what is left of its budget.
  const auto start = std::chrono::steady_clock::now();
  Result<Chunk> second_result = second.Query("select count(*) as n from big");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  first_thread.join();
  holder_ctx.RequestCancel();
  holder.join();

  ASSERT_FALSE(first_result.ok());
  EXPECT_EQ(first_result.status().code(), StatusCode::kResourceExhausted)
      << first_result.status().ToString();
  ASSERT_FALSE(second_result.ok());
  EXPECT_EQ(second_result.status().code(), StatusCode::kResourceExhausted)
      << second_result.status().ToString();
  EXPECT_LT(elapsed, std::chrono::milliseconds(kQueueMs * 3 / 2));
}

TEST_F(ServerTest, DyingConnectionRollsBackItsTransaction) {
  MakeKV();
  StartServer();
  const uint64_t rollbacks_before = db_.txn_stats().rollbacks;
  {
    VdmClient doomed;
    NewClient(&doomed);
    ASSERT_TRUE(doomed.Begin().ok());
    ASSERT_TRUE(doomed.Query("insert into t values (4, 40)").ok());
    ASSERT_TRUE(doomed.Query("update t set v = 11 where k = 1").ok());
    doomed.Abort();  // hard close, no CLOSE frame, transaction open
  }
  // The poll thread reaps the dead connection and the session destructor
  // rolls the transaction back, releasing its watermark pin.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (db_.txn_stats().rollbacks == rollbacks_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(db_.txn_stats().rollbacks, rollbacks_before);

  VdmClient witness;
  NewClient(&witness);
  EXPECT_EQ(ScalarInt(witness.Query("select count(*) as n from t")), 3);
  EXPECT_EQ(ScalarInt(witness.Query("select v from t where k = 1")), 10);
  // No writer pin survives: a merge of the table goes through cleanly.
  ASSERT_TRUE(db_.Execute("delete from t where k = 3").ok());
  EXPECT_TRUE(db_.MergeTableMvcc("t").ok());
}

TEST_F(ServerTest, MaxSessionsTurnsAwayTheOverflowConnection) {
  MakeKV();
  ServerOptions options;
  options.max_sessions = 2;
  StartServer(options);
  VdmClient a, b;
  NewClient(&a);
  NewClient(&b);
  VdmClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", server_->port()).ok());
  Status st = c.Hello(HelloMsg{});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // Capacity frees up when a session closes.
  ASSERT_TRUE(a.Close().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  Status retry = Status::Internal("never connected");
  while (std::chrono::steady_clock::now() < deadline) {
    VdmClient d;
    if (d.Connect("127.0.0.1", server_->port()).ok() &&
        (retry = d.Hello(HelloMsg{})).ok()) {
      EXPECT_EQ(ScalarInt(d.Query("select count(*) as n from t")), 3);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(retry.ok()) << retry.ToString();
}

// ---------------------------------------------------------------------------
// Frame fuzzer: garbage in, typed errors (or a dropped connection) out —
// never a crash, never a leak (this test is load-bearing under ASan/TSan
// via `tools/ci.sh server`).

TEST_F(ServerTest, FrameFuzzerNeverCrashesTheServer) {
  MakeKV();
  StartServer();
  Rng rng(0xF00DF00D);
  const std::vector<std::vector<uint8_t>> seeds = {
      EncodeQuery("select k from t"),
      EncodeHello(HelloMsg{}),
      EncodeExecute(ExecuteMsg{}),
      EncodePrepare("select v from t where k = 1"),
      EncodeEmpty(MsgType::kBegin),
      EncodeEmpty(MsgType::kClose),
  };
  for (int round = 0; round < 60; ++round) {
    VdmClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    if (rng.Bernoulli(0.5)) {
      ASSERT_TRUE(client.Hello(HelloMsg{}).ok());
    }
    // Some fuzzed frames legitimately draw no response (truncated frames
    // the server keeps waiting on, mutations that land on CANCEL) — bound
    // the read instead of hanging on it.
    ASSERT_TRUE(client.SetRecvTimeout(200).ok());
    std::vector<uint8_t> bytes;
    switch (rng.Uniform(0, 3)) {
      case 0: {
        // Truncated valid frame.
        const std::vector<uint8_t>& seed =
            seeds[static_cast<size_t>(rng.Uniform(0, 5))];
        size_t cut = static_cast<size_t>(
            rng.Uniform(1, static_cast<int64_t>(seed.size())));
        bytes.assign(seed.begin(), seed.begin() + static_cast<long>(cut));
        break;
      }
      case 1: {
        // Oversized / zero length prefix with junk behind it.
        uint32_t len = rng.Bernoulli(0.5)
                           ? 0
                           : kMaxFrameBytes +
                                 static_cast<uint32_t>(rng.Uniform(1, 1000));
        for (int i = 0; i < 4; ++i) {
          bytes.push_back(static_cast<uint8_t>(len >> (8 * i)));
        }
        for (int i = 0; i < 16; ++i) {
          bytes.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      }
      case 2: {
        // Bit-flipped valid frame (length prefix kept intact so the frame
        // reaches the per-message decoder).
        bytes = seeds[static_cast<size_t>(rng.Uniform(0, 5))];
        for (int flips = 0; flips < 4; ++flips) {
          size_t at = static_cast<size_t>(rng.Uniform(
              4, static_cast<int64_t>(bytes.size()) - 1));
          bytes[at] ^= static_cast<uint8_t>(1u << rng.Uniform(0, 7));
        }
        break;
      }
      default: {
        // Pure garbage with a small, well-formed length prefix.
        uint32_t len = static_cast<uint32_t>(rng.Uniform(1, 64));
        for (int i = 0; i < 4; ++i) {
          bytes.push_back(static_cast<uint8_t>(len >> (8 * i)));
        }
        for (uint32_t i = 0; i < len; ++i) {
          bytes.push_back(static_cast<uint8_t>(rng.Next()));
        }
        break;
      }
    }
    (void)client.SendBytes(bytes.data(), bytes.size());
    // Whatever happened — error frame, dropped connection — the server
    // must still answer a healthy connection.
    (void)client.ReadFrame();
    client.Abort();
  }
  VdmClient healthy;
  NewClient(&healthy);
  EXPECT_EQ(ScalarInt(healthy.Query("select count(*) as n from t")), 3);
  EXPECT_GT(server_->stats().frames, 0u);
}

// ---------------------------------------------------------------------------
// Teardown-ordering audit: destroying the server (then the Database) with
// live sessions, open transactions, queued merges, and — in fault builds —
// armed merge/rollback fault points must not deadlock or touch freed
// state. (The interesting assertions are ASan/TSan's.)

TEST_F(ServerTest, TeardownWithLiveSessionsAndQueuedMerges) {
  MakeKV();
  db_.SetMergeThreshold(1);  // every commit enqueues a background merge
  StartServer();

  VdmClient idle, in_txn, mid_query;
  NewClient(&idle);
  NewClient(&in_txn);
  NewClient(&mid_query);
  ASSERT_TRUE(in_txn.Begin().ok());
  ASSERT_TRUE(in_txn.Query("insert into t values (7, 70)").ok());
  // Feed the merge queue some committed work.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        idle.Query("update t set v = " + std::to_string(100 + i) +
                   " where k = 1")
            .ok());
  }
  if (FaultInjection::CompiledIn()) {
    FaultSpec spec;
    spec.probability = 0.5;
    FaultInjection::Set("storage.merge.abort", spec);
    FaultInjection::Set("txn.rollback", spec);
    FaultInjection::SetSeed(7);
  }
  // A statement still on the wire while the server dies.
  std::thread runner([&] { (void)mid_query.Query(
      "select count(*) as n from t x join t y on x.k = y.k"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  server_->Stop();   // cancels in-flight work, rolls back in_txn's txn
  server_.reset();
  runner.join();
  FaultInjection::Clear();

  // The open transaction died with its session: the insert is gone, and
  // the Database (whose destructor drains the pool, cancelling whatever
  // merges are still queued) shuts down cleanly when the fixture tears
  // down.
  Result<Chunk> count = db_.Query("select count(*) as n from t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->columns[0].ints()[0], 3);
}

// ---------------------------------------------------------------------------
// One pool: statements, query morsels and merges start no threads of their
// own.

/// The process's thread count from /proc/self/status; -1 where that file
/// does not exist.
int ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return -1;
}

TEST(ServerThreadsTest, OnePoolRunsStatementsMorselsAndMerges) {
  const int before = ProcessThreads();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";
  Database db;
  ExecOptions exec;
  exec.num_threads = 4;  // explicit: every query runs on the pool
  exec.morsel_size = 64;
  db.SetExecOptions(exec);
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    values += StrFormat("%s(%d, %d)", i == 0 ? "" : ", ", i, i % 7);
  }
  ASSERT_TRUE(db.Execute("insert into t values " + values).ok());
  db.SetMergeThreshold(1);  // every commit offers a merge
  Server server(&db);
  ASSERT_TRUE(server.Start().ok());

  // Four concurrent client statements.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      VdmClient client;
      if (!client.Connect("127.0.0.1", server.port()).ok() ||
          !client.Hello(HelloMsg()).ok() ||
          !client.Query("select v, count(*) as n from t group by v").ok()) {
        ++failures;
      }
      (void)client.Close();
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  // One parallel query and one background merge.
  ASSERT_TRUE(db.Query("select v, sum(k) as s from t group by v").ok());
  ASSERT_TRUE(db.Execute("insert into t values (5000, 1)").ok());
  for (int spin = 0; spin < 500 && db.txn_stats().merges == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(db.txn_stats().merges, 0u);

  // The pool's workers plus the poll thread, and nothing else.
  EXPECT_LE(ProcessThreads() - before,
            static_cast<int>(db.thread_pool().size()) + 1);
}

}  // namespace
}  // namespace vdm
