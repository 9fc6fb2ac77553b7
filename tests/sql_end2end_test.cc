// End-to-end SQL correctness battery with golden values, run under the
// full optimizer. Complements the randomized profile-equivalence test
// with exact expected results.
#include <gtest/gtest.h>

#include "engine/database.h"

namespace vdm {
namespace {

class SqlEndToEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.Execute("create table emp ("
                            "id int primary key,"
                            "name varchar not null,"
                            "dept int,"
                            "salary decimal(10,2),"
                            "hired date)")
                    .ok());
    ASSERT_TRUE(db_.Execute("create table dept ("
                            "id int primary key,"
                            "dname varchar not null)")
                    .ok());
    // dept 1: alice (3000.00), bob (2000.50); dept 2: carol (4000.00);
    // dave has no dept; eve is in a dangling dept.
    Insert(1, "alice", 1, 300000, 18262);
    Insert(2, "bob", 1, 200050, 18628);
    Insert(3, "carol", 2, 400000, 18993);
    InsertNullDept(4, "dave", 150000, 19358);
    Insert(5, "eve", 99, 100000, 19500);
    ASSERT_TRUE(
        db_.Insert("dept", {{Value::Int64(1), Value::String("eng")},
                            {Value::Int64(2), Value::String("sales")}})
            .ok());
  }

  void Insert(int64_t id, const std::string& name, int64_t dept,
              int64_t salary_cents, int64_t hired) {
    ASSERT_TRUE(db_.Insert("emp", {{Value::Int64(id), Value::String(name),
                                    Value::Int64(dept),
                                    Value::Decimal(salary_cents, 2),
                                    Value::Date(hired)}})
                    .ok());
  }
  void InsertNullDept(int64_t id, const std::string& name,
                      int64_t salary_cents, int64_t hired) {
    ASSERT_TRUE(db_.Insert("emp", {{Value::Int64(id), Value::String(name),
                                    Value::Null(),
                                    Value::Decimal(salary_cents, 2),
                                    Value::Date(hired)}})
                    .ok());
  }

  Chunk Q(const std::string& sql) {
    Result<Chunk> result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
    return result.ok() ? std::move(result).value() : Chunk{};
  }

  Database db_;
};

TEST_F(SqlEndToEndTest, WhereWithAndOrNot) {
  EXPECT_EQ(Q("select id from emp where salary > 1500 and dept = 1")
                .NumRows(),
            2u);
  EXPECT_EQ(Q("select id from emp where dept = 2 or salary < 1200")
                .NumRows(),
            2u);
  EXPECT_EQ(Q("select id from emp where not (dept = 1)").NumRows(), 2u);
  // NULL dept is neither =1 nor not(=1).
}

TEST_F(SqlEndToEndTest, IsNullSemantics) {
  EXPECT_EQ(Q("select id from emp where dept is null").NumRows(), 1u);
  EXPECT_EQ(Q("select id from emp where dept is not null").NumRows(), 4u);
}

TEST_F(SqlEndToEndTest, InAndBetween) {
  EXPECT_EQ(Q("select id from emp where id in (1, 3, 5)").NumRows(), 3u);
  EXPECT_EQ(Q("select id from emp where salary between 1500 and 3500")
                .NumRows(),
            3u);
}

TEST_F(SqlEndToEndTest, JoinSemantics) {
  // Inner join drops dave (NULL) and eve (dangling).
  EXPECT_EQ(Q("select e.name, d.dname from emp e "
              "join dept d on e.dept = d.id")
                .NumRows(),
            3u);
  // Left join keeps all five.
  Chunk loj = Q("select e.name, d.dname from emp e "
                "left join dept d on e.dept = d.id order by e.id");
  ASSERT_EQ(loj.NumRows(), 5u);
  EXPECT_TRUE(loj.columns[1].IsNull(3));  // dave
  EXPECT_TRUE(loj.columns[1].IsNull(4));  // eve
}

TEST_F(SqlEndToEndTest, GroupByWithNullGroup) {
  Chunk result = Q(
      "select dept, count(*) as n, sum(salary) as total from emp "
      "group by dept order by n desc, dept");
  ASSERT_EQ(result.NumRows(), 4u);  // 1, 2, 99, NULL
  EXPECT_EQ(result.columns[1].ints()[0], 2);  // dept 1
  EXPECT_EQ(result.columns[2].ints()[0], 500050);  // 5000.50
}

TEST_F(SqlEndToEndTest, HavingFiltersGroups) {
  Chunk result = Q(
      "select dept, count(*) as n from emp where dept is not null "
      "group by dept having count(*) > 1");
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.columns[0].ints()[0], 1);
}

TEST_F(SqlEndToEndTest, GlobalAggregates) {
  Chunk result = Q(
      "select count(*) as n, count(dept) as nd, min(salary) as lo, "
      "max(salary) as hi, avg(salary) as mean from emp");
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.columns[0].ints()[0], 5);
  EXPECT_EQ(result.columns[1].ints()[0], 4);  // count skips NULL
  EXPECT_EQ(result.columns[2].GetValue(0), Value::Decimal(100000, 2));
  EXPECT_EQ(result.columns[3].GetValue(0), Value::Decimal(400000, 2));
  // (3000 + 2000.50 + 4000 + 1500 + 1000) / 5 = 2300.10
  EXPECT_DOUBLE_EQ(result.columns[4].GetValue(0).AsDouble(), 2300.10);
}

TEST_F(SqlEndToEndTest, CountDistinct) {
  Chunk result = Q("select count(distinct dept) as n from emp");
  EXPECT_EQ(result.columns[0].ints()[0], 3);  // 1, 2, 99 (NULL excluded)
}

TEST_F(SqlEndToEndTest, ScalarOverAggregate) {
  Chunk result = Q(
      "select sum(salary) / count(*) as per_head from emp "
      "where dept = 1");
  EXPECT_DOUBLE_EQ(result.columns[0].GetValue(0).AsDouble(), 2500.25);
}

TEST_F(SqlEndToEndTest, CaseExpression) {
  Chunk result = Q(
      "select name, case when salary >= 3000 then 'high' "
      "when salary >= 2000 then 'mid' else 'low' end as band "
      "from emp order by id");
  EXPECT_EQ(result.columns[1].strings()[0], "high");
  EXPECT_EQ(result.columns[1].strings()[1], "mid");
  EXPECT_EQ(result.columns[1].strings()[3], "low");
}

TEST_F(SqlEndToEndTest, DateFunctions) {
  Chunk result =
      Q("select name, year(hired) as y from emp order by id limit 2");
  EXPECT_EQ(result.columns[1].ints()[0], 2020);
  EXPECT_EQ(result.columns[1].ints()[1], 2021);
  Chunk grouped =
      Q("select year(hired) as y, count(*) as n from emp group by "
        "year(hired) order by y");
  // Hire years: 2020, 2021, 2022, 2023, 2023.
  EXPECT_EQ(grouped.NumRows(), 4u);
}

TEST_F(SqlEndToEndTest, OrderByMultipleKeysAndDirections) {
  Chunk result = Q(
      "select dept, name from emp where dept is not null "
      "order by dept desc, name");
  ASSERT_EQ(result.NumRows(), 4u);
  EXPECT_EQ(result.columns[1].strings()[0], "eve");    // dept 99
  EXPECT_EQ(result.columns[1].strings()[1], "carol");  // dept 2
  EXPECT_EQ(result.columns[1].strings()[2], "alice");  // dept 1, a < b
  EXPECT_EQ(result.columns[1].strings()[3], "bob");
}

TEST_F(SqlEndToEndTest, UnionAllPreservesDuplicates) {
  Chunk result = Q(
      "select dept from emp where dept = 1 "
      "union all select dept from emp where dept = 1");
  EXPECT_EQ(result.NumRows(), 4u);
}

TEST_F(SqlEndToEndTest, DistinctOnExpression) {
  Chunk result = Q("select distinct dept from emp where dept is not null");
  EXPECT_EQ(result.NumRows(), 3u);
}

TEST_F(SqlEndToEndTest, SubqueryWithAggregation) {
  Chunk result = Q(
      "select d.dname, t.total from dept d "
      "left join (select dept, sum(salary) as total from emp group by dept) "
      "t on d.id = t.dept order by d.id");
  ASSERT_EQ(result.NumRows(), 2u);
  EXPECT_EQ(result.columns[1].GetValue(0), Value::Decimal(500050, 2));
  EXPECT_EQ(result.columns[1].GetValue(1), Value::Decimal(400000, 2));
}

TEST_F(SqlEndToEndTest, DecimalArithmeticExactness) {
  // 10% raise on 2000.50 = 2200.55 exactly.
  Chunk result = Q(
      "select round(salary * 1.1, 2) as raised from emp where id = 2");
  EXPECT_EQ(result.columns[0].GetValue(0), Value::Decimal(220055, 2));
}

TEST_F(SqlEndToEndTest, StringFunctions) {
  Chunk result = Q(
      "select upper(name) as u, concat(name, '@corp') as mail "
      "from emp where id = 1");
  EXPECT_EQ(result.columns[0].strings()[0], "ALICE");
  EXPECT_EQ(result.columns[1].strings()[0], "alice@corp");
}

TEST_F(SqlEndToEndTest, SelfJoin) {
  // Pairs of employees in the same dept (strictly ordered to avoid dups).
  Chunk result = Q(
      "select a.name, b.name from emp a join emp b "
      "on a.dept = b.dept where a.id < b.id");
  ASSERT_EQ(result.NumRows(), 1u);
  EXPECT_EQ(result.columns[0].strings()[0], "alice");
  EXPECT_EQ(result.columns[1].strings()[0], "bob");
}

TEST_F(SqlEndToEndTest, CoalesceInAggregation) {
  Chunk result = Q(
      "select coalesce(dept, 0) as d, count(*) as n from emp "
      "group by coalesce(dept, 0) order by d");
  ASSERT_EQ(result.NumRows(), 4u);
  EXPECT_EQ(result.columns[0].ints()[0], 0);  // dave's bucket
}

TEST_F(SqlEndToEndTest, EmptyResults) {
  EXPECT_EQ(Q("select id from emp where id > 1000").NumRows(), 0u);
  EXPECT_EQ(Q("select dept, count(*) from emp where id > 1000 "
              "group by dept")
                .NumRows(),
            0u);
  Chunk global = Q("select count(*) from emp where id > 1000");
  ASSERT_EQ(global.NumRows(), 1u);
  EXPECT_EQ(global.columns[0].ints()[0], 0);
}

TEST(SqlDistinctAggregateTest, OnlyCountMinMaxAcceptDistinct) {
  // sum(distinct b) over (1,5),(1,5),(2,7) would be 12, but it used to
  // return 17 (DISTINCT ignored); sum/avg DISTINCT are now rejected.
  Database db;
  ASSERT_TRUE(db.Execute("create table t (a int, b int)").ok());
  ASSERT_TRUE(db.Insert("t", {{Value::Int64(1), Value::Int64(5)},
                              {Value::Int64(1), Value::Int64(5)},
                              {Value::Int64(2), Value::Int64(7)}})
                  .ok());
  for (const char* sql : {"select sum(distinct b) from t",
                          "select avg(distinct b) from t"}) {
    Result<Chunk> r = db.Query(sql);
    ASSERT_FALSE(r.ok()) << sql;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  Result<Chunk> r = db.Query(
      "select count(distinct b) as n, min(distinct b) as lo, "
      "max(distinct b) as hi from t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->columns[0].GetValue(0).AsInt64(), 2);
  EXPECT_EQ(r->columns[1].GetValue(0).AsInt64(), 5);
  EXPECT_EQ(r->columns[2].GetValue(0).AsInt64(), 7);
}

}  // namespace
}  // namespace vdm
