// MVCC transactions (txn/, storage MVCC delta, engine DML): snapshot
// isolation, first-updater-wins conflicts, rollback vs. pinned scans,
// merge cancellation and fault tolerance, the §6 draft→active activation
// as a transaction, and a concurrency stress leg (run under TSan by
// `tools/ci.sh thread`).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "engine/database.h"
#include "ref/interpreter.h"
#include "testing/differential.h"
#include "vdm/generator.h"

namespace vdm {
namespace {

int64_t ScalarInt(const Result<Chunk>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->NumRows(), 1u);
  return r->columns[0].ints()[0];
}

int64_t Count(Database& db, const std::string& from_where) {
  return ScalarInt(db.Execute("select count(*) as n from " + from_where));
}

void MakeKV(Database* db) {
  ASSERT_TRUE(db->Execute("create table t (k int, v int)").ok());
  ASSERT_TRUE(
      db->Execute("insert into t values (1, 10), (2, 20), (3, 30)").ok());
}

// ---------------------------------------------------------------------------
// Snapshot isolation

TEST(TxnTest, WriterInvisibleUntilCommit) {
  Database db;
  MakeKV(&db);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (4, 40)", &txn).ok());
  ASSERT_TRUE(
      db.ExecuteSession("update t set v = 11 where k = 1", &txn).ok());
  // The writer sees its own uncommitted effects...
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t", &txn)),
            4);
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select v from t where k = 1", &txn)),
            11);
  // ...but autocommit readers see none of them.
  EXPECT_EQ(Count(db, "t"), 3);
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 1")), 10);
  ASSERT_TRUE(db.ExecuteSession("commit", &txn).ok());
  EXPECT_EQ(txn, nullptr);
  EXPECT_EQ(Count(db, "t"), 4);
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 1")), 11);
}

TEST(TxnTest, RepeatableReads) {
  Database db;
  MakeKV(&db);
  Transaction* reader = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &reader).ok());
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t", &reader)),
            3);
  // Another transaction commits an insert and a delete.
  ASSERT_TRUE(db.Execute("insert into t values (4, 40)").ok());
  ASSERT_TRUE(db.Execute("delete from t where k = 2").ok());
  EXPECT_EQ(Count(db, "t"), 3);  // 3 - 1 + 1
  // The reader's snapshot is unmoved: same rows, same values.
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t", &reader)),
            3);
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t where k = 2", &reader)),
            1);
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t where k = 4", &reader)),
            0);
  ASSERT_TRUE(db.ExecuteSession("commit", &reader).ok());
  EXPECT_EQ(Count(db, "t where k = 4"), 1);
}

TEST(TxnTest, RollbackRevertsEverything) {
  Database db;
  MakeKV(&db);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (9, 90)", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("delete from t where k = 1", &txn).ok());
  ASSERT_TRUE(
      db.ExecuteSession("update t set v = 99 where k = 3", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("rollback", &txn).ok());
  EXPECT_EQ(txn, nullptr);
  EXPECT_EQ(Count(db, "t"), 3);
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 3")), 30);
  EXPECT_EQ(db.txn_stats().rollbacks, 1u);
}

// ---------------------------------------------------------------------------
// Write-write conflicts

TEST(TxnTest, FirstUpdaterWinsTypedConflict) {
  Database db;
  MakeKV(&db);
  Transaction* a = nullptr;
  Transaction* b = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &a).ok());
  ASSERT_TRUE(db.ExecuteSession("begin", &b).ok());
  ASSERT_TRUE(db.ExecuteSession("update t set v = 100 where k = 1", &a).ok());
  Result<Chunk> lost =
      db.ExecuteSession("update t set v = 200 where k = 1", &b);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kSerializationFailure);
  // The losing statement left no partial effects; b remains usable on
  // other rows.
  ASSERT_TRUE(db.ExecuteSession("update t set v = 201 where k = 2", &b).ok());
  ASSERT_TRUE(db.ExecuteSession("commit", &a).ok());
  ASSERT_TRUE(db.ExecuteSession("commit", &b).ok());
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 1")), 100);
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 2")), 201);
}

TEST(TxnTest, AutocommitConflictExhaustsBoundedRetries) {
  Database db;
  MakeKV(&db);
  Transaction* holder = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &holder).ok());
  ASSERT_TRUE(
      db.ExecuteSession("update t set v = 1 where k = 1", &holder).ok());
  // The autocommit statement retries with backoff, but the holder never
  // commits, so the bounded retry loop must surface the typed failure.
  Result<Chunk> r = db.Execute("update t set v = 2 where k = 1");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kSerializationFailure);
  EXPECT_GT(db.txn_stats().retries, 0u);
  EXPECT_GT(db.txn_stats().conflicts, 0u);
  ASSERT_TRUE(db.ExecuteSession("rollback", &holder).ok());
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 1")), 10);
}

// ---------------------------------------------------------------------------
// Rollback vs. pinned scans

TEST(TxnTest, RollbackDuringActiveScanLeavesPinnedSnapshotIntact) {
  Database db;
  MakeKV(&db);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (4, 40)", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("delete from t where k = 2", &txn).ok());

  // A reader pins the committed snapshot (as the executor does per
  // pipeline), and the writer's snapshot view, then the writer rolls
  // back mid-"scan".
  Table* table = db.storage().FindTable("t");
  ASSERT_NE(table, nullptr);
  TableSnapshot committed =
      table->PinSnapshot(TxnSnapshot{db.txn_manager().clock(), 0});
  TableSnapshot writers = table->PinSnapshot(txn->snapshot());
  ASSERT_TRUE(db.ExecuteSession("rollback", &txn).ok());

  SelectionVector vis;
  committed.VisibleRows(0, committed.NumRows(), &vis);
  EXPECT_EQ(vis.size(), 3u);  // pinned before rollback, unaffected by it
  vis.clear();
  writers.VisibleRows(0, writers.NumRows(), &vis);
  EXPECT_EQ(vis.size(), 3u);  // 3 base - 1 deleted + 1 inserted
  // Fresh reads see the rollback applied.
  EXPECT_EQ(Count(db, "t"), 3);
  EXPECT_EQ(Count(db, "t where k = 2"), 1);
}

// ---------------------------------------------------------------------------
// Merge: cancellation, writer fencing, background threshold

TEST(TxnTest, GovernorCancelsMidMerge) {
  Database db;
  MakeKV(&db);
  ASSERT_TRUE(db.Execute("insert into t values (4, 40), (5, 50)").ok());
  Table* table = db.storage().FindTable("t");
  ASSERT_NE(table, nullptr);
  const size_t delta_before = table->NumDeltaRows();
  ASSERT_GT(delta_before, 0u);

  MergeOptions opts;
  opts.watermark = db.txn_manager().clock();
  std::atomic<int> checks{0};
  opts.check_alive = [&]() -> Status {
    ++checks;
    return Status::Cancelled("governor: query cancelled");
  };
  opts.inject_faults = false;
  Status st = table->MergeDeltaMvcc(opts);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_GT(checks.load(), 0);
  // Cancellation is effect-free: delta untouched, data identical.
  EXPECT_EQ(table->NumDeltaRows(), delta_before);
  EXPECT_EQ(Count(db, "t"), 5);

  // And the merge is retryable: without the cancelling governor it lands.
  ASSERT_TRUE(db.MergeTableMvcc("t").ok());
  EXPECT_EQ(table->NumDeltaRows(), 0u);
  EXPECT_EQ(Count(db, "t"), 5);
}

TEST(TxnTest, MergeRefusesWhileWritersActive) {
  Database db;
  MakeKV(&db);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(
      db.ExecuteSession("update t set v = 1 where k = 1", &txn).ok());
  Status st = db.MergeTableMvcc("t");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(db.ExecuteSession("commit", &txn).ok());
  EXPECT_TRUE(db.MergeTableMvcc("t").ok());
  EXPECT_EQ(ScalarInt(db.Execute("select v from t where k = 1")), 1);
}

TEST(TxnTest, BackgroundMergeTriggersAtThreshold) {
  Database db;
  MakeKV(&db);
  db.SetMergeThreshold(8);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(db.Execute(
                      "insert into t values (" + std::to_string(100 + i) +
                      ", 0)")
                    .ok());
  }
  Table* table = db.storage().FindTable("t");
  ASSERT_NE(table, nullptr);
  // The worker merges asynchronously; poll with a deadline. Inserts that
  // land after the last enqueued merge stay in the delta (below the
  // threshold), so "merged" means the delta dropped under it — not empty.
  for (int spin = 0; spin < 500 && table->NumDeltaRows() >= 8; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_LT(table->NumDeltaRows(), 8u);
  EXPECT_EQ(Count(db, "t"), 15);
  EXPECT_GT(db.txn_stats().merges, 0u);
}

// A background merge offered while another transaction writes the table
// cannot install. Nothing retries it on a timer: the blocking writer's
// commit or rollback offers it again, and no further commit is needed.
void ExpectMergeAfterBlockingWriterFinishes(bool commit) {
  Database db;
  MakeKV(&db);
  Table* table = db.storage().FindTable("t");
  ASSERT_NE(table, nullptr);
  Transaction* writer = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &writer).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (50, 0)", &writer).ok());
  db.SetMergeThreshold(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(100 + i) +
                           ", 0)")
                    .ok());
  }
  // The offered merges find the writer and leave the table untouched.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(db.txn_stats().merges, 0u);
  EXPECT_GE(table->NumDeltaRows(), 4u);

  const uint64_t commits = db.txn_stats().commits;
  if (commit) {
    ASSERT_TRUE(db.ExecuteSession("commit", &writer).ok());
  } else {
    ASSERT_TRUE(db.ExecuteSession("rollback", &writer).ok());
  }
  for (int spin = 0; spin < 500 && db.txn_stats().merges == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(db.txn_stats().merges, 0u);
  EXPECT_EQ(db.txn_stats().commits, commits + (commit ? 1 : 0));
  EXPECT_EQ(Count(db, "t"), commit ? 8 : 7);
}

TEST(TxnTest, BlockedMergeRunsWhenWriterCommits) {
  ExpectMergeAfterBlockingWriterFinishes(/*commit=*/true);
}

TEST(TxnTest, BlockedMergeRunsWhenWriterRollsBack) {
  ExpectMergeAfterBlockingWriterFinishes(/*commit=*/false);
}

TEST(TxnTest, MergePreservesOpenSnapshots) {
  Database db;
  MakeKV(&db);
  Transaction* reader = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &reader).ok());
  ASSERT_TRUE(db.Execute("insert into t values (4, 40)").ok());
  ASSERT_TRUE(db.Execute("delete from t where k = 1").ok());
  // The merge watermark respects the open reader: after merging, the
  // reader must still see its snapshot rows (delete not yet folded away
  // for it), while new readers see the new state.
  (void)db.MergeTableMvcc("t");
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t", &reader)),
            3);
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from t where k = 1", &reader)),
            1);
  ASSERT_TRUE(db.ExecuteSession("commit", &reader).ok());
  EXPECT_EQ(Count(db, "t"), 3);
  EXPECT_EQ(Count(db, "t where k = 1"), 0);
}

// ---------------------------------------------------------------------------
// Statistics stay fresh under DML

TEST(TxnTest, StatsVersionMovesOnlyWithStatistics) {
  Database db;
  MakeKV(&db);
  ASSERT_TRUE(db.Execute("create table u (k int, v int)").ok());
  const uint64_t t_before = db.catalog().stats_version("t");
  const uint64_t u_before = db.catalog().stats_version("u");
  const uint64_t schema_before = db.catalog().version();
  // A commit changes neither version: cached plans stay valid.
  ASSERT_TRUE(db.Execute("insert into t values (7, 70)").ok());
  EXPECT_EQ(db.catalog().stats_version("t"), t_before);
  EXPECT_EQ(db.catalog().stats_version("u"), u_before);
  EXPECT_EQ(db.catalog().version(), schema_before);
  // A merge refreshes the merged table's statistics, and only its.
  ASSERT_TRUE(db.MergeTableMvcc("t").ok());
  EXPECT_GT(db.catalog().stats_version("t"), t_before);
  EXPECT_EQ(db.catalog().stats_version("u"), u_before);
  // ANALYZE refreshes every table; still no schema change.
  const uint64_t t_merged = db.catalog().stats_version("t");
  db.AnalyzeTables();
  EXPECT_GT(db.catalog().stats_version("t"), t_merged);
  EXPECT_GT(db.catalog().stats_version("u"), u_before);
  EXPECT_EQ(db.catalog().version(), schema_before);
}

TEST(TxnTest, StatsRecomputeAfterMergeAndOnDeltaHeavyTables) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", 1)")
                    .ok());
  }
  db.AnalyzeTables();
  auto stats = db.catalog().FindTableStats("t");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 4u);
  // A merge refreshes the statistics (row counts reflect the fold).
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", 1)")
                    .ok());
  }
  ASSERT_TRUE(db.MergeTableMvcc("t").ok());
  stats = db.catalog().FindTableStats("t");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->row_count, 8u);
}

// ---------------------------------------------------------------------------
// §6 activation as a transaction

TEST(TxnTest, ActivationMovesDocumentExactlyOnce) {
  Database db;
  SyntheticVdmOptions options;
  options.base_tables = 1;
  options.base_rows = 200;
  options.num_dims = 1;
  options.dim_rows = 20;
  ASSERT_TRUE(CreateSyntheticVdmSchema(&db, options).ok());
  ASSERT_TRUE(LoadSyntheticVdmData(&db, options).ok());
  ASSERT_TRUE(db.Execute("create view act_union as "
                         "select k, f1 from vbase00_a "
                         "union all select k, f1 from vbase00_d")
                  .ok());
  ASSERT_GT(Count(db, "vbase00_d"), 0);
  const int64_t key = ScalarInt(db.Execute("select min(k) as k from "
                                           "vbase00_d"));
  EXPECT_EQ(Count(db, "act_union where k = " + std::to_string(key)), 1);
  EXPECT_EQ(Count(db, "vbase00_a where k = " + std::to_string(key)), 0);

  // A reader whose transaction opened before the activation must keep
  // seeing the document exactly once, in its old placement.
  Transaction* reader = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &reader).ok());
  ASSERT_TRUE(
      ActivateDraftRow(&db, "vbase00_a", "vbase00_d", key).ok());
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from act_union where k = " +
                    std::to_string(key),
                &reader)),
            1);
  EXPECT_EQ(ScalarInt(db.ExecuteSession(
                "select count(*) as n from vbase00_d where k = " +
                    std::to_string(key),
                &reader)),
            1);
  ASSERT_TRUE(db.ExecuteSession("commit", &reader).ok());

  // After the activation: exactly once, now active; the draft is gone.
  EXPECT_EQ(Count(db, "act_union where k = " + std::to_string(key)), 1);
  EXPECT_EQ(Count(db, "vbase00_a where k = " + std::to_string(key)), 1);
  EXPECT_EQ(Count(db, "vbase00_d where k = " + std::to_string(key)), 0);

  // Unknown keys are a typed no-op.
  Status missing = ActivateDraftRow(&db, "vbase00_a", "vbase00_d", key);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Injected faults (compiled in by tools/ci.sh fault / fuzz builds)

class TxnFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjection::CompiledIn()) {
      GTEST_SKIP() << "built without VDMQO_FAULT_INJECTION";
    }
    FaultInjection::Clear();
  }
  void TearDown() override {
    if (FaultInjection::CompiledIn()) FaultInjection::Clear();
  }
};

TEST_F(TxnFaultTest, InjectedCommitConflictRollsBack) {
  Database db;
  MakeKV(&db);
  FaultSpec spec;
  spec.nth = 1;
  FaultInjection::Set("txn.commit.conflict", spec);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (4, 40)", &txn).ok());
  Result<Chunk> committed = db.ExecuteSession("commit", &txn);
  ASSERT_FALSE(committed.ok());
  EXPECT_EQ(committed.status().code(), StatusCode::kSerializationFailure);
  EXPECT_EQ(txn, nullptr);  // the handle is consumed either way
  EXPECT_EQ(Count(db, "t"), 3);
  EXPECT_GT(db.txn_stats().conflicts, 0u);
}

TEST_F(TxnFaultTest, InjectedRollbackFaultIsRetryable) {
  Database db;
  MakeKV(&db);
  FaultSpec spec;
  spec.nth = 1;
  FaultInjection::Set("txn.rollback", spec);
  Transaction* txn = nullptr;
  ASSERT_TRUE(db.ExecuteSession("begin", &txn).ok());
  ASSERT_TRUE(db.ExecuteSession("insert into t values (4, 40)", &txn).ok());
  Result<Chunk> first = db.ExecuteSession("rollback", &txn);
  ASSERT_FALSE(first.ok());
  ASSERT_NE(txn, nullptr);  // still open — the fault fired before reverting
  Result<Chunk> second = db.ExecuteSession("rollback", &txn);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(txn, nullptr);
  EXPECT_EQ(Count(db, "t"), 3);
}

TEST_F(TxnFaultTest, InjectedMergeFaultsAreEffectFreeAndRetryable) {
  for (const char* point : {"storage.merge.remap", "storage.merge.abort"}) {
    FaultInjection::Clear();
    Database db;
    MakeKV(&db);
    ASSERT_TRUE(db.Execute("delete from t where k = 2").ok());
    Table* table = db.storage().FindTable("t");
    const size_t delta_before = table->NumDeltaRows();
    FaultSpec spec;
    spec.nth = 1;
    FaultInjection::Set(point, spec);
    Status st = db.MergeTableMvcc("t");
    ASSERT_FALSE(st.ok()) << "fault point " << point << " did not fire";
    EXPECT_EQ(table->NumDeltaRows(), delta_before) << point;
    EXPECT_EQ(Count(db, "t"), 2) << point;
    // Retry without the armed fault: merges cleanly, same logical rows.
    FaultInjection::Clear();
    ASSERT_TRUE(db.MergeTableMvcc("t").ok()) << point;
    EXPECT_EQ(table->NumDeltaRows(), 0u) << point;
    EXPECT_EQ(Count(db, "t"), 2) << point;
  }
}

// ---------------------------------------------------------------------------
// Concurrency stress (the TSan target of tools/ci.sh thread)

TEST(TxnTest, ConcurrentDmlMergeScanStress) {
  Database db;
  ASSERT_TRUE(db.Execute("create table t (k int, v int)").ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(db.Execute("insert into t values (" + std::to_string(i) +
                           ", 0)")
                    .ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};

  std::thread writer1([&] {
    for (int i = 0; i < 120; ++i) {
      Result<Chunk> r = db.Execute("insert into t values (" +
                                   std::to_string(1000 + i) + ", 1)");
      if (!r.ok()) ++failures;
    }
  });
  std::thread writer2([&] {
    for (int i = 0; i < 120; ++i) {
      // Conflicts with writer1 are legal (kSerializationFailure after
      // retries); anything else is not.
      Result<Chunk> r =
          db.Execute("update t set v = v + 1 where k < 16");
      if (!r.ok() &&
          r.status().code() != StatusCode::kSerializationFailure) {
        ++failures;
      }
    }
  });
  std::thread merger([&] {
    while (!stop.load()) {
      (void)db.MergeTableMvcc("t");  // kResourceExhausted is expected
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread reader([&] {
    while (!stop.load()) {
      Result<Chunk> r = db.Execute("select count(*) as n from t");
      if (!r.ok()) ++failures;
    }
  });

  writer1.join();
  writer2.join();
  stop = true;
  merger.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);

  // Converged final state: engine and reference interpreter agree.
  Result<Chunk> engine = db.Execute("select k, v from t");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->NumRows(), 152u);  // 32 base + 120 inserts
  Result<PlanRef> plan = db.BindQuery("select k, v from t");
  ASSERT_TRUE(plan.ok());
  RefInterpreter ref(&db.storage());
  ref.set_snapshot(TxnSnapshot{db.txn_manager().clock(), 0});
  Result<Chunk> oracle = ref.Execute(*plan);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(NormalizeChunk(*engine, false), NormalizeChunk(*oracle, false));
}

}  // namespace
}  // namespace vdm
