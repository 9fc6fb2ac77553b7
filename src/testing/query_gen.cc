#include "testing/query_gen.h"

#include <algorithm>
#include <utility>

#include "common/string_util.h"
#include "vdm/generator.h"

namespace vdm {

namespace {

GenColumn C(const char* sql, GenColClass cls) { return {sql, cls}; }

GenColClass ClassifyVdmColumn(const std::string& name) {
  if (name == "k" || name == "bid") return GenColClass::kInt;
  if (name.rfind("dname_", 0) == 0 || name == "ext1") {
    return GenColClass::kString;
  }
  if (!name.empty() && name[0] == 'f') {
    int f = std::atoi(name.c_str() + 1);
    if (f % 3 == 0) return GenColClass::kDecimal;
    if (f % 3 == 1) return GenColClass::kInt;
    return GenColClass::kString;
  }
  return GenColClass::kInt;
}

}  // namespace

QueryCorpus TpchCorpus() {
  QueryCorpus corpus;

  GenAnchor lo;
  lo.from = "lineitem l join orders o on l.l_orderkey = o.o_orderkey";
  lo.columns = {
      C("l.l_orderkey", GenColClass::kInt),
      C("l.l_linenumber", GenColClass::kInt),
      C("l.l_partkey", GenColClass::kInt),
      C("l.l_suppkey", GenColClass::kInt),
      C("l.l_quantity", GenColClass::kInt),
      C("l.l_extendedprice", GenColClass::kDecimal),
      C("l.l_discount", GenColClass::kDecimal),
      C("l.l_shipdate", GenColClass::kDate),
      C("o.o_custkey", GenColClass::kInt),
      C("o.o_totalprice", GenColClass::kDecimal),
      C("o.o_orderstatus", GenColClass::kString),
      C("o.o_orderdate", GenColClass::kDate),
  };
  lo.dims = {
      {" left outer join customer c on o.o_custkey = c.c_custkey",
       {C("c.c_name", GenColClass::kString),
        C("c.c_nationkey", GenColClass::kInt),
        C("c.c_acctbal", GenColClass::kDecimal),
        C("c.c_mktsegment", GenColClass::kString)}},
      {" join part p on l.l_partkey = p.p_partkey",
       {C("p.p_name", GenColClass::kString),
        C("p.p_brand", GenColClass::kString),
        C("p.p_retailprice", GenColClass::kDecimal)}},
      {" left outer join supplier s on l.l_suppkey = s.s_suppkey",
       {C("s.s_name", GenColClass::kString),
        C("s.s_nationkey", GenColClass::kInt),
        C("s.s_acctbal", GenColClass::kDecimal)}},
      {" left outer join orders_active oa on l.l_orderkey = oa.o_orderkey",
       {C("oa.o_totalprice", GenColClass::kDecimal),
        C("oa.o_custkey", GenColClass::kInt)}},
  };
  lo.augment_clause =
      " left outer many to one join part aug_zz"
      " on l.l_partkey = aug_zz.p_partkey";
  lo.asj_clause =
      " left outer join orders asj_zz on o.o_orderkey = asj_zz.o_orderkey";
  lo.selfjoin_clauses = {
      // INNER on the full composite primary key.
      " join lineitem sj_zz on l.l_orderkey = sj_zz.l_orderkey"
      " and l.l_linenumber = sj_zz.l_linenumber",
      // Third-relation equality: l.l_orderkey carries o.o_orderkey's value
      // through the anchor's own join condition.
      " join orders sj_zz on l.l_orderkey = sj_zz.o_orderkey",
      // Per-side constant pins under LEFT OUTER (never filters; at most
      // one right row exists for the pinned key value).
      " left outer join orders sj_zz"
      " on o.o_orderkey = 1 and sj_zz.o_orderkey = 1",
  };
  corpus.anchors.push_back(std::move(lo));

  GenAnchor orders;
  orders.from = "orders o";
  orders.columns = {
      C("o.o_orderkey", GenColClass::kInt),
      C("o.o_custkey", GenColClass::kInt),
      C("o.o_orderstatus", GenColClass::kString),
      C("o.o_totalprice", GenColClass::kDecimal),
      C("o.o_orderdate", GenColClass::kDate),
  };
  orders.dims = {
      {" left outer join customer c on o.o_custkey = c.c_custkey",
       {C("c.c_name", GenColClass::kString),
        C("c.c_nationkey", GenColClass::kInt),
        C("c.c_acctbal", GenColClass::kDecimal)}},
  };
  orders.augment_clause =
      " left outer many to one join customer aug_zz"
      " on o.o_custkey = aug_zz.c_custkey";
  orders.asj_clause =
      " left outer join orders asj_zz on o.o_orderkey = asj_zz.o_orderkey";
  orders.selfjoin_clauses = {
      " join orders sj_zz on o.o_orderkey = sj_zz.o_orderkey",
      " left outer join orders sj_zz"
      " on o.o_orderkey = 2 and sj_zz.o_orderkey = 2",
  };
  corpus.anchors.push_back(std::move(orders));

  GenAnchor li;
  li.from = "lineitem l";
  li.columns = {
      C("l.l_orderkey", GenColClass::kInt),
      C("l.l_linenumber", GenColClass::kInt),
      C("l.l_partkey", GenColClass::kInt),
      C("l.l_quantity", GenColClass::kInt),
      C("l.l_extendedprice", GenColClass::kDecimal),
      C("l.l_tax", GenColClass::kDecimal),
      C("l.l_shipdate", GenColClass::kDate),
  };
  li.dims = {
      {" join part p on l.l_partkey = p.p_partkey",
       {C("p.p_name", GenColClass::kString),
        C("p.p_retailprice", GenColClass::kDecimal)}},
      {" left outer join supplier s on l.l_suppkey = s.s_suppkey",
       {C("s.s_name", GenColClass::kString),
        C("s.s_acctbal", GenColClass::kDecimal)}},
  };
  li.augment_clause =
      " left outer many to one join part aug_zz"
      " on l.l_partkey = aug_zz.p_partkey";
  li.asj_clause =
      " left outer join lineitem asj_zz"
      " on l.l_orderkey = asj_zz.l_orderkey"
      " and l.l_linenumber = asj_zz.l_linenumber";
  li.selfjoin_clauses = {
      " join lineitem sj_zz on l.l_orderkey = sj_zz.l_orderkey"
      " and l.l_linenumber = sj_zz.l_linenumber",
  };
  corpus.anchors.push_back(std::move(li));
  return corpus;
}

QueryCorpus S4Corpus() {
  QueryCorpus corpus;
  GenAnchor a;
  a.from = "acdoca a";
  a.columns = {
      C("a.rldnr", GenColClass::kString),
      C("a.rbukrs", GenColClass::kString),
      C("a.gjahr", GenColClass::kInt),
      C("a.belnr", GenColClass::kInt),
      C("a.docln", GenColClass::kInt),
      C("a.racct", GenColClass::kInt),
      C("a.kunnr", GenColClass::kInt),
      C("a.lifnr", GenColClass::kInt),
      C("a.kostl", GenColClass::kInt),
      C("a.prctr", GenColClass::kInt),
      C("a.land1", GenColClass::kInt),
      C("a.budat", GenColClass::kDate),
      C("a.hsl", GenColClass::kDecimal),
      C("a.wsl", GenColClass::kDecimal),
      C("a.drcrk", GenColClass::kString),
  };
  a.dims = {
      {" left outer join kna1 kd on a.kunnr = kd.kunnr",
       {C("kd.name1", GenColClass::kString),
        C("kd.land1", GenColClass::kInt),
        C("kd.ktokd", GenColClass::kString)}},
      {" left outer join lfa1 ld on a.lifnr = ld.lifnr",
       {C("ld.name1", GenColClass::kString),
        C("ld.ktokk", GenColClass::kString)}},
      {" left outer join csks cc on a.kostl = cc.kostl",
       {C("cc.ktext", GenColClass::kString)}},
      {" left outer join cepc pc on a.prctr = pc.prctr",
       {C("pc.ltext", GenColClass::kString)}},
      {" left outer join t005 co on a.land1 = co.land1",
       {C("co.landx", GenColClass::kString),
        C("co.waers", GenColClass::kString)}},
      {" left outer join t001 tc on a.rbukrs = tc.bukrs",
       {C("tc.butxt", GenColClass::kString),
        C("tc.land1", GenColClass::kInt)}},
      // The i_documenttotal augmenter shape (SetUpFuzzDatabase creates the
      // view): the company filter on the anchor crosses this join and the
      // view's GROUP BY onto its ACDOCA scan.
      {" left outer join fuzz_documenttotal dt on a.rldnr = dt.rldnr"
       " and a.rbukrs = dt.rbukrs and a.gjahr = dt.gjahr"
       " and a.belnr = dt.belnr",
       {C("dt.documenttotal", GenColClass::kDecimal),
        C("dt.documentlines", GenColClass::kInt)},
       "a.rbukrs = 'C003'"},
  };
  a.augment_clause =
      " left outer many to one join t005 aug_zz on a.land1 = aug_zz.land1";
  a.asj_clause =
      " left outer join acdoca asj_zz"
      " on a.rldnr = asj_zz.rldnr and a.rbukrs = asj_zz.rbukrs"
      " and a.gjahr = asj_zz.gjahr and a.belnr = asj_zz.belnr"
      " and a.docln = asj_zz.docln";
  a.selfjoin_clauses = {
      " join acdoca sj_zz"
      " on a.rldnr = sj_zz.rldnr and a.rbukrs = sj_zz.rbukrs"
      " and a.gjahr = sj_zz.gjahr and a.belnr = sj_zz.belnr"
      " and a.docln = sj_zz.docln",
  };
  corpus.anchors.push_back(std::move(a));
  return corpus;
}

QueryCorpus SyntheticVdmCorpus(const std::vector<SyntheticViewSpec>& specs) {
  QueryCorpus corpus;
  for (const SyntheticViewSpec& spec : specs) {
    for (int ext = 0; ext < 2; ++ext) {
      const std::string& name =
          ext == 0 ? spec.view_name : spec.ext_view_name;
      if (name.empty()) continue;
      GenAnchor anchor;
      anchor.from = name + " v";
      for (const std::string& col : spec.columns) {
        anchor.columns.push_back({"v." + col, ClassifyVdmColumn(col)});
      }
      if (ext == 1) {
        anchor.columns.push_back({"v.ext1", GenColClass::kString});
      }
      anchor.augment_clause =
          " left outer many to one join vdim01 aug_zz on v.k = aug_zz.dkey";
      // The view key is unique (draft and active branches are disjoint by
      // construction), so re-joining the view to itself on k is the
      // paper's Fig. 8 extension shape.
      anchor.asj_clause =
          " left outer join " + name + " asj_zz on v.k = asj_zz.k";
      // A self-join against the view's *base table*: for single-base views
      // every view row exists in the base (INNER is invisible and the
      // general rule can prove it removable through the inlined view);
      // draft-pattern keys span two tables, so only LEFT OUTER is safe.
      anchor.selfjoin_clauses = {
          (spec.draft_pattern ? " left outer join " : " join ") +
          spec.base_active + " sj_zz on v.k = sj_zz.k"};
      corpus.anchors.push_back(std::move(anchor));
    }
  }
  return corpus;
}

void MergeCorpus(QueryCorpus* dst, const QueryCorpus& src) {
  dst->anchors.insert(dst->anchors.end(), src.anchors.begin(),
                      src.anchors.end());
}

std::string AssembleSql(const GeneratedQuery& q) {
  std::string sql = "select ";
  if (q.distinct) sql += "distinct ";
  sql += Join(q.select_items, ", ");
  sql += " from " + q.from;
  for (const std::string& join : q.joins) sql += join;
  if (!q.where.empty()) sql += " where " + Join(q.where, " and ");
  if (!q.group_by.empty()) sql += " group by " + Join(q.group_by, ", ");
  if (!q.having.empty()) sql += " having " + q.having;
  if (!q.order_by.empty()) sql += " order by " + Join(q.order_by, ", ");
  sql += q.limit_clause;
  return sql;
}

QueryGenerator::QueryGenerator(QueryCorpus corpus, QueryGenOptions options)
    : corpus_(std::move(corpus)), options_(options), rng_(options.seed) {}

const GenColumn& QueryGenerator::Pick(const std::vector<GenColumn>& cols) {
  return cols[static_cast<size_t>(
      rng_.Uniform(0, static_cast<int64_t>(cols.size()) - 1))];
}

std::string QueryGenerator::Predicate(const GenColumn& col) {
  static const char* kOps[] = {"<", ">", "<=", ">=", "<>"};
  const char* op = kOps[rng_.Uniform(0, 4)];
  switch (col.cls) {
    case GenColClass::kInt: {
      int64_t lit = rng_.Bernoulli(0.5) ? rng_.Uniform(0, 100)
                                        : rng_.Uniform(0, 5000);
      return StrFormat("%s %s %lld", col.sql.c_str(), op,
                       static_cast<long long>(lit));
    }
    case GenColClass::kDecimal:
      return StrFormat("%s %s %lld.%02lld", col.sql.c_str(), op,
                       static_cast<long long>(rng_.Uniform(0, 3000)),
                       static_cast<long long>(rng_.Uniform(0, 99)));
    case GenColClass::kString: {
      // Deliberately exercises the sorted-dictionary lowering edge cases:
      // equality/inequality against values absent from any dictionary,
      // range endpoints that fall between dictionary entries, LIKE
      // prefixes (present, absent, bare '%'), exact-match LIKE, and the
      // whole-tree forms (OR disjunctions, NOT LIKE, nested NOT) that
      // lower to code-interval unions. OR predicates are parenthesized
      // because the WHERE clause joins conjuncts with bare " and ".
      switch (rng_.Uniform(0, 15)) {
        case 0:
          return col.sql + " is not null";
        case 1:
          return col.sql + " is null";
        case 2:
          return col.sql + " > 'B'";
        case 3:
          return col.sql + " < 'm'";
        case 4:
          return col.sql + " = 'F'";  // present in some dictionaries
        case 5:
          return col.sql + " = 'zz#absent'";
        case 6:
          return col.sql + " <> 'zz#absent'";
        case 7:
          return col.sql + " >= 'Customer#000000001m'";  // between entries
        case 8:
          return col.sql + " like 'C%'";
        case 9:
          return col.sql + " like '%'";
        case 10:
          return col.sql + " like 'zq%'";  // absent prefix
        case 11:
          return col.sql + " not like 'C%'";
        case 12:
          return "(" + col.sql + " = 'F' or " + col.sql + " like 'C%')";
        case 13:
          return "(" + col.sql + " < 'D' or " + col.sql +
                 " > 'm' or " + col.sql + " is null)";
        case 14:
          return "not (" + col.sql + " like 'C%' or " + col.sql +
                 " = 'zz#absent')";
        default:
          return col.sql + " like 'F'";  // wildcard-free LIKE = equality
      }
    }
    case GenColClass::kDate:
      return StrFormat("%s %s date '%04lld-%02lld-%02lld'", col.sql.c_str(),
                       op, static_cast<long long>(rng_.Uniform(1992, 1999)),
                       static_cast<long long>(rng_.Uniform(1, 12)),
                       static_cast<long long>(rng_.Uniform(1, 28)));
  }
  return col.sql + " is not null";
}

GeneratedQuery QueryGenerator::Next() {
  GeneratedQuery q;
  const GenAnchor& anchor = corpus_.anchors[static_cast<size_t>(
      rng_.Uniform(0, static_cast<int64_t>(corpus_.anchors.size()) - 1))];
  q.from = anchor.from;

  std::vector<GenColumn> available = anchor.columns;
  for (const GenJoin& dim : anchor.dims) {
    if (!rng_.Bernoulli(0.4)) continue;
    q.joins.push_back(dim.clause);
    for (const GenColumn& col : dim.columns) available.push_back(col);
    if (!dim.where.empty() && rng_.Bernoulli(0.5)) q.where.push_back(dim.where);
  }

  int n_predicates = static_cast<int>(rng_.Uniform(0, 2));
  for (int i = 0; i < n_predicates; ++i) {
    q.where.push_back(Predicate(Pick(available)));
  }

  double mode = rng_.NextDouble();
  if (mode < 0.35) {
    // Aggregate query: 1-2 group columns, 1-3 aggregates, optional HAVING.
    q.aggregate = true;
    int n_groups =
        rng_.Bernoulli(0.15) ? 0 : (rng_.Bernoulli(0.3) ? 2 : 1);
    std::vector<std::string> used;
    for (int g = 0; g < n_groups; ++g) {
      const GenColumn& col = Pick(available);
      if (std::find(used.begin(), used.end(), col.sql) != used.end()) {
        continue;
      }
      used.push_back(col.sql);
      q.select_items.push_back(
          StrFormat("%s as g%zu", col.sql.c_str(), q.group_by.size()));
      q.order_by.push_back(StrFormat("g%zu", q.group_by.size()));
      q.group_by.push_back(col.sql);
    }
    std::vector<GenColumn> ints, decimals;
    for (const GenColumn& col : available) {
      if (col.cls == GenColClass::kInt) ints.push_back(col);
      if (col.cls == GenColClass::kDecimal) decimals.push_back(col);
    }
    int n_aggs = static_cast<int>(rng_.Uniform(1, 3));
    for (int k = 0; k < n_aggs; ++k) {
      std::string agg;
      switch (rng_.Uniform(0, 6)) {
        case 0:
          agg = "count(*)";
          break;
        case 1:
          agg = StrFormat("count(%s)", Pick(available).sql.c_str());
          break;
        case 2:
          agg = StrFormat("count(distinct %s)", Pick(available).sql.c_str());
          break;
        case 3:
          if (!decimals.empty()) {
            agg = rng_.Bernoulli(0.3)
                      ? StrFormat("round(sum(%s), 1)",
                                  Pick(decimals).sql.c_str())
                      : StrFormat("sum(%s)", Pick(decimals).sql.c_str());
          } else {
            agg = "count(*)";
          }
          break;
        case 4:
          agg = ints.empty() ? "count(*)"
                             : StrFormat("sum(%s)", Pick(ints).sql.c_str());
          break;
        case 5:
          // Order-independent by exactness: integer partial sums stay
          // exactly representable as doubles at these data scales.
          agg = ints.empty() ? "count(*)"
                             : StrFormat("avg(%s)", Pick(ints).sql.c_str());
          break;
        default: {
          const GenColumn& col = Pick(available);
          agg = StrFormat("%s(%s)", rng_.Bernoulli(0.5) ? "min" : "max",
                          col.sql.c_str());
          break;
        }
      }
      q.select_items.push_back(StrFormat("%s as a%d", agg.c_str(), k));
      q.order_by.push_back(StrFormat("a%d", k));
    }
    if (rng_.Bernoulli(0.2)) {
      q.having = StrFormat("count(*) > %lld",
                           static_cast<long long>(rng_.Uniform(0, 3)));
    }
    if (!rng_.Bernoulli(0.65)) q.order_by.clear();
  } else {
    // Projection, sparse relative to the anchor's width: 1-4 columns.
    q.distinct = mode < 0.47;
    int n_cols = static_cast<int>(rng_.Uniform(1, 4));
    std::vector<std::string> picked;
    for (int i = 0; i < n_cols; ++i) {
      const GenColumn& col = Pick(available);
      if (std::find(picked.begin(), picked.end(), col.sql) != picked.end()) {
        continue;
      }
      picked.push_back(col.sql);
    }
    for (size_t i = 0; i < picked.size(); ++i) {
      q.select_items.push_back(StrFormat("%s as c%zu", picked[i].c_str(), i));
      q.order_by.push_back(StrFormat("c%zu", i));
    }
    double shape = rng_.NextDouble();
    if (shape >= 0.75) q.order_by.clear();
  }

  // Paging: LIMIT/OFFSET only ever rides on a full ORDER BY, so profile
  // results stay comparable row-by-row.
  q.ordered = !q.order_by.empty();
  if (q.ordered && rng_.Bernoulli(q.aggregate ? 0.3 : 0.55)) {
    q.limit_clause =
        StrFormat(" limit %lld offset %lld",
                  static_cast<long long>(rng_.Uniform(1, 40)),
                  static_cast<long long>(rng_.Uniform(0, 15)));
  }
  q.sql = AssembleSql(q);

  if (options_.with_variants) {
    if (!anchor.augment_clause.empty()) {
      GeneratedQuery v = q;
      v.joins.push_back(anchor.augment_clause);
      q.variants.push_back({"augment", AssembleSql(v)});
    }
    if (!anchor.asj_clause.empty()) {
      GeneratedQuery v = q;
      v.joins.push_back(anchor.asj_clause);
      q.variants.push_back({"asj", AssembleSql(v)});
    }
    if (!anchor.selfjoin_clauses.empty()) {
      GeneratedQuery v = q;
      v.joins.push_back(anchor.selfjoin_clauses[static_cast<size_t>(
          rng_.Uniform(0,
                       static_cast<int64_t>(anchor.selfjoin_clauses.size()) -
                           1))]);
      q.variants.push_back({"selfjoin", AssembleSql(v)});
    }
    bool global_agg = q.aggregate && q.group_by.empty();
    if (q.order_by.empty() && q.limit_clause.empty() && !global_agg) {
      GeneratedQuery empty_branch = q;
      empty_branch.where.push_back("1 = 0");
      q.variants.push_back(
          {"union", AssembleSql(q) + " union all " +
                        AssembleSql(empty_branch)});
    }
  }
  return q;
}

// ---------------------------------------------------------------------
// Interleaved DML scripts.

const char* const kDmlTables[2] = {"dml_a", "dml_b"};

namespace {

/// Predicates the DML shadow can mirror exactly: row-local comparisons
/// over the fixed DML schema.
std::string DmlPredicate(Rng* rng) {
  switch (rng->Uniform(0, 3)) {
    case 0:
      return StrFormat("k < %lld",
                       static_cast<long long>(rng->Uniform(1, 600)));
    case 1:
      return StrFormat("grp = %lld",
                       static_cast<long long>(rng->Uniform(0, 7)));
    case 2: {
      int64_t lo = rng->Uniform(0, 800);
      return StrFormat("v >= %lld and v < %lld", static_cast<long long>(lo),
                       static_cast<long long>(lo + rng->Uniform(50, 400)));
    }
    default:
      return StrFormat("s = 's%02lld'",
                       static_cast<long long>(rng->Uniform(0, 19)));
  }
}

std::string DmlInsert(Rng* rng, const std::string& table) {
  int rows = static_cast<int>(rng->Uniform(1, 3));
  std::string sql = "insert into " + table + " values ";
  for (int r = 0; r < rows; ++r) {
    if (r > 0) sql += ", ";
    sql += StrFormat(
        "(%lld, %lld, %lld, 's%02lld', %lld.%02lld)",
        static_cast<long long>(rng->Uniform(1, 999)),
        static_cast<long long>(rng->Uniform(0, 7)),
        static_cast<long long>(rng->Uniform(0, 1200)),
        static_cast<long long>(rng->Uniform(0, 19)),
        static_cast<long long>(rng->Uniform(0, 99)),
        static_cast<long long>(rng->Uniform(0, 99)));
  }
  return sql;
}

std::string DmlUpdate(Rng* rng, const std::string& table) {
  std::string set;
  switch (rng->Uniform(0, 3)) {
    case 0:
      set = StrFormat("v = v + %lld",
                      static_cast<long long>(rng->Uniform(1, 9)));
      break;
    case 1:
      set = StrFormat("s = 's%02lld'",
                      static_cast<long long>(rng->Uniform(0, 19)));
      break;
    case 2:
      set = StrFormat("d = d + %lld.%02lld",
                      static_cast<long long>(rng->Uniform(0, 9)),
                      static_cast<long long>(rng->Uniform(0, 99)));
      break;
    default:
      set = StrFormat("v = %lld, grp = %lld",
                      static_cast<long long>(rng->Uniform(0, 1200)),
                      static_cast<long long>(rng->Uniform(0, 7)));
      break;
  }
  return "update " + table + " set " + set + " where " + DmlPredicate(rng);
}

std::string DmlQuery(Rng* rng, const std::string& table) {
  switch (rng->Uniform(0, 2)) {
    case 0:
      return "select grp, count(*) as n, sum(v) as sv from " + table +
             " group by grp";
    case 1:
      return "select k, v, s from " + table + " where " + DmlPredicate(rng);
    default:
      return "select count(*) as n, sum(d) as sd from " + table;
  }
}

}  // namespace

DmlScript GenerateDmlScript(uint64_t seed, size_t index,
                            const DmlScriptOptions& options) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + index * 1000003 + 17);
  DmlScript script;
  std::vector<bool> open(static_cast<size_t>(options.sessions), false);
  auto pick_table = [&] {
    return std::string(kDmlTables[rng.Bernoulli(0.7) ? 0 : 1]);
  };
  for (int i = 0; i < options.num_ops; ++i) {
    const int session =
        static_cast<int>(rng.Uniform(0, options.sessions - 1));
    const size_t s = static_cast<size_t>(session);
    const int64_t dice = rng.Uniform(0, 99);
    if (!open[s] && dice < 30) {
      script.ops.push_back({DmlOp::Kind::kBegin, session, "", ""});
      open[s] = true;
    } else if (open[s] && dice < 14) {
      script.ops.push_back({rng.Bernoulli(0.75) ? DmlOp::Kind::kCommit
                                                : DmlOp::Kind::kRollback,
                            session, "", ""});
      open[s] = false;
    } else if (dice < 44) {
      script.ops.push_back(
          {DmlOp::Kind::kQuery, session, DmlQuery(&rng, pick_table()), ""});
    } else if (dice < 52) {
      script.ops.push_back({DmlOp::Kind::kMerge, 0, "", pick_table()});
    } else {
      const std::string table = pick_table();
      std::string sql;
      const int64_t kind = rng.Uniform(0, 9);
      if (kind < 4) {
        sql = DmlInsert(&rng, table);
      } else if (kind < 8) {
        sql = DmlUpdate(&rng, table);
      } else {
        sql = "delete from " + table + " where " + DmlPredicate(&rng);
      }
      script.ops.push_back({DmlOp::Kind::kDml, session, sql, ""});
    }
  }
  // Close every still-open session so the final state is all-committed.
  for (int session = 0; session < options.sessions; ++session) {
    if (!open[static_cast<size_t>(session)]) continue;
    script.ops.push_back({rng.Bernoulli(0.75) ? DmlOp::Kind::kCommit
                                              : DmlOp::Kind::kRollback,
                          session, "", ""});
  }
  return script;
}

}  // namespace vdm
