// Query lifecycle governor tests: cooperative cancellation from another
// thread, wall-clock deadlines, memory budgets with the serial degradation
// retry, the admission gate (the AdmissionGate type and the Database's
// VDM_MAX_CONCURRENT gate), and the fault-injection harness. The common
// invariant: every limit violation surfaces as a typed Status (kCancelled /
// kDeadlineExceeded / kResourceExhausted) and the Database is immediately
// reusable afterwards.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/admission_gate.h"
#include "common/fault_injection.h"
#include "common/query_context.h"
#include "engine/database.h"
#include "workload/tpch.h"

namespace vdm {
namespace {

// Join + aggregate heavy enough that a small memory budget trips during the
// orders-side hash build; fully deterministic output (3 status groups).
const char kJoinAgg[] =
    "select o.o_orderstatus as g, count(*) as n, sum(l.l_extendedprice) as s "
    "from lineitem l join orders o on l.l_orderkey = o.o_orderkey "
    "group by o.o_orderstatus order by g";

// Self-join with supplier fan-out: tens of millions of output rows — far
// longer than the cancel delay, so the only way the test passes quickly is
// through cooperative cancellation.
const char kSelfJoin[] =
    "select l1.l_orderkey as a, l2.l_orderkey as b "
    "from lineitem l1 join lineitem l2 on l1.l_suppkey = l2.l_suppkey";

// Long UNION ALL scan (the deadline target from the issue): the trailing
// sort forces full materialization, so there is no early exit.
const char kUnionScan[] =
    "select l_orderkey as k from lineitem "
    "union all select l_orderkey from lineitem "
    "union all select l_orderkey from lineitem "
    "union all select l_orderkey from lineitem "
    "order by k";

std::vector<std::string> Rows(const Chunk& chunk) {
  std::vector<std::string> rows;
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    std::string row;
    for (size_t c = 0; c < chunk.NumColumns(); ++c) {
      row += chunk.columns[c].GetValue(r).ToString();
      row += "|";
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

class GovernorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchOptions options;
    // ~30k orders / ~120k lineitems: big enough that the governed queries
    // above run for many morsels (the cancel/deadline tests need runway).
    options.scale = 2.0;
    ASSERT_TRUE(CreateTpchSchema(db_, options).ok());
    ASSERT_TRUE(LoadTpchData(db_, options).ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  // The post-failure reusability check every governed test ends with.
  static void ExpectReusable() {
    Result<Chunk> result = db_->Query("select count(*) as n from orders");
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->NumRows(), 1u);
  }

  static Database* db_;
};

Database* GovernorTest::db_ = nullptr;

TEST(MemoryTrackerTest, HierarchicalChargeAndRollback) {
  MemoryTracker parent(1000);
  MemoryTracker child(MemoryTracker::kUnlimited, &parent);
  ASSERT_TRUE(child.TryCharge(600).ok());
  EXPECT_EQ(parent.current(), 600);
  // Second charge exceeds the PARENT limit; the local charge rolls back.
  Status status = child.TryCharge(600);
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(child.current(), 600);
  EXPECT_EQ(parent.current(), 600);
  child.Release(600);
  EXPECT_EQ(child.current(), 0);
  EXPECT_EQ(parent.current(), 0);
  EXPECT_EQ(child.peak(), 600);
}

TEST(MemoryTrackerTest, UnenforcedTrackerAccountsButDoesNotFail) {
  MemoryTracker tracker(10);
  tracker.set_enforced(false);
  ASSERT_TRUE(tracker.TryCharge(100).ok());
  EXPECT_EQ(tracker.current(), 100);
  tracker.Release(100);
}

TEST(QueryContextTest, DeadlineAndCancelSurfaceAsTypedStatus) {
  QueryContext deadline_ctx;
  deadline_ctx.SetTimeout(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  EXPECT_EQ(deadline_ctx.CheckAlive().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(deadline_ctx.cancel_checks(), 1u);

  QueryContext cancel_ctx;
  cancel_ctx.RequestCancel();
  EXPECT_EQ(cancel_ctx.CheckAlive().code(), StatusCode::kCancelled);
}

TEST_F(GovernorTest, PreCancelledContextFailsImmediately) {
  QueryContext ctx;
  ctx.RequestCancel();
  ExecMetrics metrics;
  Result<Chunk> result = db_->Query(kJoinAgg, ExecLimits{}, &metrics,
                                    /*timing=*/nullptr, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_GE(metrics.cancel_checks, 1u);
  ExpectReusable();
}

TEST_F(GovernorTest, CancelMidJoinFromAnotherThread) {
  QueryContext ctx;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.RequestCancel();
  });
  auto start = std::chrono::steady_clock::now();
  Result<Chunk> result = db_->Query(kSelfJoin, ExecLimits{},
                                    /*metrics=*/nullptr,
                                    /*timing=*/nullptr, &ctx);
  auto elapsed = std::chrono::steady_clock::now() - start;
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  // "Within one morsel", with a very generous bound for sanitizer builds.
  EXPECT_LT(std::chrono::duration<double>(elapsed).count(), 20.0);
  ExpectReusable();
}

TEST_F(GovernorTest, DeadlineExceededOnLongUnionAllScan) {
  ExecLimits limits;
  limits.timeout_ms = 1;
  Result<Chunk> result = db_->Query(kUnionScan, limits);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  ExpectReusable();
}

TEST_F(GovernorTest, MemoryBudgetDegradesToSerialWithIdenticalResults) {
  Result<Chunk> baseline = db_->Query(kJoinAgg);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  ExecLimits limits;
  limits.memory_budget = 64 << 10;  // far below the orders hash build
  ExecMetrics metrics;
  Result<Chunk> governed = db_->Query(kJoinAgg, limits, &metrics);
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(metrics.degraded_serial_retries, 1u);
  EXPECT_GT(metrics.peak_memory_bytes, 0u);
  EXPECT_EQ(Rows(*baseline), Rows(*governed));
}

TEST_F(GovernorTest, ExplainAnalyzeReportsGovernorAndDegradation) {
  ExecLimits saved = db_->default_limits();
  ExecLimits limits = saved;
  limits.memory_budget = 64 << 10;
  db_->set_default_limits(limits);
  Result<std::string> analyzed = db_->ExplainAnalyze(kJoinAgg);
  db_->set_default_limits(saved);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed->find("governor:"), std::string::npos) << *analyzed;
  EXPECT_NE(analyzed->find("values gathered"), std::string::npos)
      << *analyzed;
  EXPECT_NE(analyzed->find("degraded: 1 serial retry"), std::string::npos)
      << *analyzed;
}

TEST_F(GovernorTest, PeakMemoryTrackedOnOrdinaryJoin) {
  ExecMetrics metrics;
  Result<Chunk> result = db_->Query(kJoinAgg, ExecLimits{}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(metrics.peak_memory_bytes, 0u);
  EXPECT_GT(metrics.cancel_checks, 0u);
  EXPECT_EQ(metrics.degraded_serial_retries, 0u);
}

// Fault points behave per build flavor: inert in a normal build, a
// deterministic nth-hit OOM exercising the degradation ladder in a
// VDMQO_FAULT_INJECTION=ON build (tools/ci.sh fault).
TEST_F(GovernorTest, FaultPointsInertOrExerciseDegradationLadder) {
  FaultInjection::Clear();
  FaultSpec spec;
  spec.nth = 1;
  FaultInjection::Set("exec.hash_build.oom", spec);
  ExecMetrics metrics;
  Result<Chunk> result = db_->Query(kJoinAgg, ExecLimits{}, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (FaultInjection::CompiledIn()) {
    // The first build attempt took the injected OOM; the engine retried
    // serially and still produced the answer.
    EXPECT_GE(FaultInjection::Hits("exec.hash_build.oom"), 1u);
    EXPECT_EQ(metrics.degraded_serial_retries, 1u);
  } else {
    // Compiled out: the armed point is never even evaluated.
    EXPECT_EQ(FaultInjection::Hits("exec.hash_build.oom"), 0u);
    EXPECT_EQ(metrics.degraded_serial_retries, 0u);
  }
  FaultInjection::Clear();
  ExpectReusable();
}

// Admission gate: with VDM_MAX_CONCURRENT=1 a second query queues, and a
// tiny max_queued_ms turns the queue wait into a typed failure instead of
// an unbounded block. Runs on its own Database because the gate size is
// read from the environment at construction.
TEST(AdmissionGateTest, QueueTimeoutIsTypedAndGateRecovers) {
  setenv("VDM_MAX_CONCURRENT", "1", /*overwrite=*/1);
  Database db;
  unsetenv("VDM_MAX_CONCURRENT");

  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int64(i % 50), Value::Int64(i)});
  }
  ASSERT_TRUE(db.Insert("t", rows).ok());

  // Occupy the single admission slot with a long self-join (k fan-out of
  // 400 => 8M join results), cancellable from here.
  QueryContext long_ctx;
  Result<Chunk> long_result = Status::Internal("not run");
  std::thread holder([&] {
    long_result = db.Query(
        "select a.v as x, b.v as y from t a join t b on a.k = b.k",
        ExecLimits{}, /*metrics=*/nullptr, /*timing=*/nullptr, &long_ctx);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ExecLimits limits;
  limits.max_queued_ms = 1;
  Result<Chunk> queued = db.Query("select count(*) as n from t", limits);
  long_ctx.RequestCancel();
  holder.join();

  ASSERT_FALSE(queued.ok());
  EXPECT_EQ(queued.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(queued.status().message().find("admission"), std::string::npos)
      << queued.status().ToString();
  ASSERT_FALSE(long_result.ok());
  EXPECT_EQ(long_result.status().code(), StatusCode::kCancelled);

  // Slot released: the same query now runs (and may queue briefly, but is
  // admitted well inside the default max_queued_ms).
  ExecMetrics metrics;
  Result<Chunk> after = db.Query("select count(*) as n from t",
                                 ExecLimits{}, &metrics);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ASSERT_EQ(after->NumRows(), 1u);
  EXPECT_EQ(after->columns[0].GetValue(0).ToString(), "20000");
}

// The gate type behind both the global gate and every tenant class. The
// ExecLimits::max_queued_ms rule: <= 0 takes a free slot or fails at once.
TEST(AdmissionGateTypeTest, OpenGateNeverQueues) {
  AdmissionGate gate(0);
  std::vector<AdmissionGate::Slot> slots;
  for (int i = 0; i < 64; ++i) {
    Result<AdmissionGate::Slot> slot = gate.Admit(0);
    ASSERT_TRUE(slot.ok()) << slot.status().ToString();
    slots.push_back(std::move(*slot));
  }
  EXPECT_EQ(gate.admitted(), 64u);
  EXPECT_EQ(gate.timeouts(), 0u);
}

TEST(AdmissionGateTypeTest, NonPositiveWaitTakesAFreeSlotOrFailsAtOnce) {
  AdmissionGate gate(1);
  Result<AdmissionGate::Slot> held = gate.Admit(0);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  const auto start = std::chrono::steady_clock::now();
  for (int64_t wait_ms : {int64_t{0}, int64_t{-5}}) {
    Result<AdmissionGate::Slot> refused = gate.Admit(wait_ms);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(refused.status().message().find("admission queue timeout"),
              std::string::npos)
        << refused.status().ToString();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(1));
  EXPECT_EQ(gate.timeouts(), 2u);
  { AdmissionGate::Slot released = std::move(*held); }
  EXPECT_TRUE(gate.Admit(0).ok());
  EXPECT_EQ(gate.admitted(), 2u);
}

TEST(AdmissionGateTypeTest, SmallTimeoutQueuesThenFailsOrIsAdmitted) {
  AdmissionGate gate(1);
  Result<AdmissionGate::Slot> held = gate.Admit(0);
  ASSERT_TRUE(held.ok());
  uint64_t waited_ns = 0;
  Result<AdmissionGate::Slot> timed_out = gate.Admit(20, &waited_ns);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(waited_ns, uint64_t{20} * 1000 * 1000);

  // A slot freed while a statement queues admits it.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    AdmissionGate::Slot released = std::move(*held);
  });
  Result<AdmissionGate::Slot> queued = gate.Admit(10000, &waited_ns);
  releaser.join();
  ASSERT_TRUE(queued.ok()) << queued.status().ToString();
  EXPECT_GT(waited_ns, 0u);
  EXPECT_EQ(gate.timeouts(), 1u);
}

// The global slot is held through the serial degradation retry and given
// back afterwards: with one slot, a no-wait query right after a degraded
// one is admitted.
TEST(AdmissionGateTest, SlotIsReleasedAfterTheSerialRetry) {
  setenv("VDM_MAX_CONCURRENT", "1", /*overwrite=*/1);
  Database db;
  unsetenv("VDM_MAX_CONCURRENT");
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 20000; ++i) {
    rows.push_back({Value::Int64(i % 50), Value::Int64(i)});
  }
  ASSERT_TRUE(db.Insert("t", rows).ok());

  ExecLimits tight;
  tight.memory_budget = 1 << 10;  // far below the 20000-row hash build
  ExecMetrics metrics;
  Result<Chunk> degraded = db.Query(
      "select count(*) as n from t a join t b on a.v = b.v", tight, &metrics);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(metrics.degraded_serial_retries, 1u);
  EXPECT_EQ(degraded->columns[0].GetValue(0).ToString(), "20000");

  ExecLimits no_wait;
  no_wait.max_queued_ms = 0;
  Result<Chunk> next = db.Query("select count(*) as n from t", no_wait);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->columns[0].GetValue(0).ToString(), "20000");
}

}  // namespace
}  // namespace vdm
