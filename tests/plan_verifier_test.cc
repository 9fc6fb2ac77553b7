// Tests for the verification layer: PlanVerifier invariants on hand-built
// (and hand-corrupted) plans, the conservative independent key prover, and
// the RewriteAuditor catching a deliberately corrupted optimizer pass —
// both statically and backed by execution on real data.
#include <gtest/gtest.h>

#include "analysis/plan_verifier.h"
#include "analysis/rewrite_auditor.h"
#include "engine/database.h"
#include "expr/fold.h"
#include "optimizer/optimizer.h"
#include "plan/plan_builder.h"

namespace vdm {
namespace {

TableSchema Fact() {
  TableSchema schema("fact");
  schema.AddColumn("id", DataType::Int64(), false)
      .AddColumn("dim_key", DataType::Int64(), false)
      .AddColumn("amount", DataType::Decimal(2))
      .AddColumn("status", DataType::Int64());
  schema.SetPrimaryKey({"id"});
  return schema;
}

TableSchema Dim() {
  TableSchema schema("dim");
  schema.AddColumn("k", DataType::Int64(), false)
      .AddColumn("name", DataType::String())
      .AddColumn("attr", DataType::String());
  schema.SetPrimaryKey({"k"});
  return schema;
}

// --- structural invariants ---------------------------------------------------

TEST(PlanVerifierTest, AcceptsWellFormedPlan) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(Eq(Col("f.status"), LitInt(1)))
          .Project({{Col("f.id"), "id"}, {Col("d.name"), "name"}})
          .Limit(10)
          .Build();
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
  Result<VerifiedSchema> schema = PlanVerifier::VerifySchema(plan);
  ASSERT_TRUE(schema.ok());
  EXPECT_EQ(schema->names, (std::vector<std::string>{"id", "name"}));
  EXPECT_EQ(schema->types.at("name").id, TypeId::kString);
}

TEST(PlanVerifierTest, RejectsDanglingColumnRef) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Filter(Eq(Col("f.no_such"), LitInt(1)))
                     .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown column 'f.no_such'"),
            std::string::npos)
      << status.message();
  // The failing operator path is reported.
  EXPECT_NE(status.message().find("root/Filter"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsProjectionDroppedUnderneath) {
  // A projection that pruned away a column its parent still references.
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .ProjectColumns({"f.id"})
                     .Project({{Col("f.amount"), "amount"}})
                     .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unknown column 'f.amount'"),
            std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsNonBooleanFilterPredicate) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f")
                     .Filter(Bin(BinaryOpKind::kAdd, Col("f.id"), LitInt(1)))
                     .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("not boolean"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsAggregateInFilterPredicate) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Filter(Eq(Agg(AggKind::kSum, Col("f.amount")), LitInt(1)))
          .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("aggregate"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsNegativeLimit) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f").Limit(-3).Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("negative limit"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsBranchIdOutOfRange) {
  PlanBuilder c1 = PlanBuilder::ScanSchema(Fact(), "a").ProjectColumns(
      {"a.id"}, {"id"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(Fact(), "b").ProjectColumns(
      {"b.id"}, {"id"});
  PlanRef plan =
      PlanBuilder::UnionAll({c1, c2}, {"id"}, /*branch_id_column=*/3).Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("branch id column"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsUnionTypeMismatchAcrossBranches) {
  // Arity mismatches are caught at construction (VDM_CHECK); a branch
  // whose column changed type, however, only the verifier sees.
  PlanBuilder c1 = PlanBuilder::ScanSchema(Fact(), "a").ProjectColumns(
      {"a.id"}, {"id"});
  PlanBuilder c2 = PlanBuilder::ScanSchema(Dim(), "b").Project(
      {{Col("b.name"), "id"}});
  PlanRef plan = PlanBuilder::UnionAll({c1, c2}, {"id"}).Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("incompatible type"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, AggregateItemsSeeOnlyGroupOutputs) {
  // Selecting a non-grouped column outside an aggregate is the classic
  // invalid shape the binder rejects; a broken rewrite could reintroduce it.
  PlanRef bad =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "f.status"}},
                     {{Col("f.amount"), "amount"}})
          .Build();
  Status status = PlanVerifier::Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("outside an aggregate"), std::string::npos)
      << status.message();

  // Group outputs and scalar expressions over aggregates are fine.
  PlanRef good =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "f.status"}},
                     {{Col("f.status"), "st"},
                      {Bin(BinaryOpKind::kAdd,
                           Agg(AggKind::kSum, Col("f.amount")),
                           LitInt(1)),
                       "total1"}})
          .Build();
  EXPECT_TRUE(PlanVerifier::Verify(good).ok());
}

TEST(PlanVerifierTest, DuplicateNamesLegalUnlessTypesConflict) {
  // The binder emits duplicate output names in ASJ shapes; the executor
  // resolves to the first occurrence. Compatible duplicates are fine.
  PlanRef ok = PlanBuilder::ScanSchema(Fact(), "f")
                   .Project({{Col("f.id"), "k"}, {Col("f.status"), "k"}})
                   .Project({{Col("k"), "k"}})
                   .Build();
  EXPECT_TRUE(PlanVerifier::Verify(ok).ok());

  // A type-conflicting duplicate is unreferencable: value resolution
  // (first wins) and type environments (last wins) disagree.
  PlanRef bad = PlanBuilder::ScanSchema(Fact(), "f")
                    .Project({{Col("f.id"), "k"}, {Col("f.amount"), "s"},
                              {Lit(Value::String("x")), "k"}})
                    .Project({{Col("k"), "k"}})
                    .Build();
  Status status = PlanVerifier::Verify(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("conflicting types"), std::string::npos)
      << status.message();
}

// --- case join placement (§6.3) ----------------------------------------------

TEST(PlanVerifierTest, RejectsCaseJoinWithNonEquiCondition) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "v")
          .Join(PlanBuilder::ScanSchema(Fact(), "e"), JoinType::kLeftOuter,
                Bin(BinaryOpKind::kLess, Col("v.id"), Col("e.id")), DeclaredCardinality::kNone,
                /*case_join=*/true)
          .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("case join"), std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, RejectsCaseJoinWithoutCrossSidePair) {
  // Only a constant pin on one side — no equi pair linking the two inputs.
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "v")
          .Join(PlanBuilder::ScanSchema(Fact(), "e"), JoinType::kLeftOuter,
                Eq(Col("e.status"), LitInt(1)), DeclaredCardinality::kNone,
                /*case_join=*/true)
          .Build();
  Status status = PlanVerifier::Verify(plan);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("no cross-side equi pair"),
            std::string::npos)
      << status.message();
}

TEST(PlanVerifierTest, AcceptsCanonicalCaseJoin) {
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "v")
          .Join(PlanBuilder::ScanSchema(Fact(), "e"), JoinType::kLeftOuter,
                And(Eq(Col("v.id"), Col("e.id")),
                    Eq(Col("e.status"), LitInt(1))),
                DeclaredCardinality::kNone, /*case_join=*/true)
          .Build();
  EXPECT_TRUE(PlanVerifier::Verify(plan).ok());
}

// --- root schema identity ----------------------------------------------------

TEST(PlanVerifierTest, DetectsRootSchemaDrift) {
  PlanRef before = PlanBuilder::ScanSchema(Fact(), "f")
                       .Project({{Col("f.id"), "id"},
                                 {Col("f.amount"), "amount"}})
                       .Build();
  PlanRef same = PlanBuilder::ScanSchema(Fact(), "f")
                     .Filter(Eq(Col("f.status"), LitInt(1)))
                     .Project({{Col("f.id"), "id"},
                               {Col("f.amount"), "amount"}})
                     .Build();
  PlanRef dropped =
      PlanBuilder::ScanSchema(Fact(), "f").Project({{Col("f.id"), "id"}})
          .Build();
  PlanRef retyped = PlanBuilder::ScanSchema(Fact(), "f")
                        .Project({{Col("f.id"), "id"},
                                  {Lit(Value::String("x")), "amount"}})
                        .Build();
  EXPECT_TRUE(PlanVerifier::VerifySameOutputSchema(before, same).ok());
  Status drop = PlanVerifier::VerifySameOutputSchema(before, dropped);
  ASSERT_FALSE(drop.ok());
  EXPECT_NE(drop.message().find("root output columns changed"),
            std::string::npos)
      << drop.message();
  Status retype = PlanVerifier::VerifySameOutputSchema(before, retyped);
  ASSERT_FALSE(retype.ok());
  EXPECT_NE(retype.message().find("changed type"), std::string::npos)
      << retype.message();
}

// --- conservative key prover -------------------------------------------------

TEST(ConfirmUniqueKeyTest, BaseTableKeyGatedByAxiom) {
  PlanRef plan = PlanBuilder::ScanSchema(Fact(), "f").Build();
  InferOptions full;
  EXPECT_TRUE(ConfirmUniqueKey(plan, {"f.id"}, full));
  EXPECT_FALSE(ConfirmUniqueKey(plan, {"f.status"}, full));
  InferOptions no_keys;
  no_keys.base_table_keys = false;
  EXPECT_FALSE(ConfirmUniqueKey(plan, {"f.id"}, no_keys));
}

TEST(ConfirmUniqueKeyTest, KeySurvivesManyToOneJoin) {
  InferOptions full;
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Build();
  // Right side is keyed on the equated column: left key survives.
  EXPECT_TRUE(ConfirmUniqueKey(plan, {"f.id"}, full));
  // A non-key join (equated column is not a dim key) must not confirm.
  PlanRef fanout =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.name")))
          .Build();
  EXPECT_FALSE(ConfirmUniqueKey(fanout, {"f.id"}, full));
}

TEST(ConfirmUniqueKeyTest, GroupByOutputsFormKey) {
  InferOptions full;
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Aggregate({{Col("f.status"), "st"}},
                     {{Agg(AggKind::kSum, Col("f.amount")), "total"}})
          .Build();
  EXPECT_TRUE(ConfirmUniqueKey(plan, {"st"}, full));
  EXPECT_FALSE(ConfirmUniqueKey(plan, {"total"}, full));
}

// --- rewrite auditor against a corrupted pass --------------------------------

OptimizerConfig AuditedConfig(RewriteAuditor* auditor) {
  OptimizerConfig config = ConfigForProfile(SystemProfile::kHana);
  config.verify_rewrites = true;
  config.verification_hook = auditor;
  return config;
}

TEST(RewriteAuditorTest, CleanOptimizationPasses) {
  RewriteAuditor auditor;
  OptimizerConfig config = AuditedConfig(&auditor);
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kLeftOuter,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(Eq(Col("f.status"), LitInt(1)))
          .Project({{Col("f.id"), "id"}, {Col("f.amount"), "amount"}})
          .Limit(10)
          .Build();
  Optimizer optimizer(config);
  Result<OptimizeResult> result = optimizer.OptimizeChecked(plan);
  ASSERT_TRUE(result.ok()) << result.status().message();
  // The UAJ elimination and limit handling fired and were each audited.
  EXPECT_GT(auditor.total_fired(), 0);
}

TEST(RewriteAuditorTest, CatchesCorruptedPassByName) {
  RewriteAuditor auditor;
  OptimizerConfig config = AuditedConfig(&auditor);
  config.debug_corrupt_pass = "filter_pushdown";
  PlanRef plan =
      PlanBuilder::ScanSchema(Fact(), "f")
          .Join(PlanBuilder::ScanSchema(Dim(), "d"), JoinType::kInner,
                Eq(Col("f.dim_key"), Col("d.k")))
          .Filter(And(Eq(Col("f.status"), LitInt(1)),
                      Eq(Col("d.name"), LitStr("x"))))
          .Project({{Col("f.id"), "id"}, {Col("d.name"), "name"}})
          .Build();
  Optimizer optimizer(config);
  Result<OptimizeResult> result = optimizer.OptimizeChecked(plan);
  ASSERT_FALSE(result.ok());
  // The error identifies the corrupted pass and dumps both plans.
  EXPECT_NE(result.status().message().find("filter_pushdown"),
            std::string::npos)
      << result.status().message();
  EXPECT_NE(result.status().message().find("plan before"), std::string::npos);
  EXPECT_NE(result.status().message().find("plan after"), std::string::npos);
}

TEST(RewriteAuditorTest, ExecutionBackedAuditOnRealData) {
  Database db;
  ASSERT_TRUE(db.Execute("create table fact (id int primary key, dim_key "
                         "int, amount decimal(10,2), status int)")
                  .ok());
  ASSERT_TRUE(db.Execute("create table dim (k int primary key, name "
                         "varchar, attr varchar)")
                  .ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db.Insert("fact", {{Value::Int64(i), Value::Int64(i % 5),
                                    Value::Decimal(100 + i, 2),
                                    Value::Int64(i % 2)}})
                    .ok());
  }
  for (int k = 0; k < 5; ++k) {
    std::string name = "n";
    name += std::to_string(k);
    ASSERT_TRUE(db.Insert("dim", {{Value::Int64(k), Value::String(name),
                                   Value::String("a")}})
                    .ok());
  }
  db.MergeAllDeltas();

  OptimizerConfig config = ConfigForProfile(SystemProfile::kHana);
  config.verify_rewrites = true;
  config.verify_rewrites_exec = true;
  db.SetOptimizerConfig(config);
  Result<Chunk> result = db.Query(
      "select f.id, d.name from fact f left outer join dim d on "
      "f.dim_key = d.k where f.status = 1");
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_EQ(result->NumRows(), 10u);

  // Corrupting a pass now fails the query instead of returning wrong rows.
  config.debug_corrupt_pass = "prune_and_eliminate";
  db.SetOptimizerConfig(config);
  Result<Chunk> corrupted = db.Query(
      "select f.id, d.name from fact f left outer join dim d on "
      "f.dim_key = d.k where f.status = 1");
  ASSERT_FALSE(corrupted.ok());
  EXPECT_NE(corrupted.status().message().find("prune_and_eliminate"),
            std::string::npos)
      << corrupted.status().message();
}

}  // namespace
}  // namespace vdm
