// Unit tests for the executor hash tables: the one key form (a word per
// key column) against a reference that compares raw 64-bit images and
// string values, probes reaching build codes from other dictionaries and
// plain strings, match order, NULL handling, group-id assignment, and
// parallel builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>
#include <random>

#include "common/thread_pool.h"
#include "exec/hash_table.h"

namespace vdm {
namespace {

ColumnData IntCol(std::vector<int64_t> values) {
  ColumnData col(DataType::Int64());
  for (int64_t v : values) col.AppendInt(v);
  return col;
}

ColumnData StringCol(std::vector<std::string> values) {
  ColumnData col(DataType::String());
  for (std::string& v : values) col.AppendString(std::move(v));
  return col;
}

/// A string column annotated with the given dictionary (codes index it).
ColumnData DictCol(std::shared_ptr<const std::vector<std::string>> dict,
                   std::vector<int32_t> codes) {
  ColumnData col(DataType::String());
  for (int32_t code : codes) {
    if (code < 0) {
      col.AppendNull();
    } else {
      col.AppendString((*dict)[static_cast<size_t>(code)]);
    }
  }
  col.SetDictionary(std::move(dict), std::move(codes));
  return col;
}

/// Matches of every probe row through the table, each ascending: the
/// probe side's code maps from `sides`, then one batch of chain heads
/// read through the row indexes `rows` (every row when empty).
std::vector<std::vector<size_t>> MatchAll(
    const JoinHashTable& table, const std::vector<const ColumnData*>& probe,
    const std::vector<JoinHashTable::ProbeSide>& sides,
    const SelectionVector& rows = {}) {
  const size_t n = rows.empty() ? probe[0]->size() : rows.size();
  std::vector<KeyColumn> keys;
  for (const ColumnData* col : probe) {
    keys.push_back({col, rows.empty() ? nullptr : rows.data()});
  }
  std::vector<uint32_t> heads;
  JoinHashTable::ProbeScratch scratch;
  table.FindHeads(table.MapProbe(sides), keys, n, &scratch, &heads);
  std::vector<std::vector<size_t>> out(n);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t r = heads[i]; r != JoinHashTable::kEnd; r = table.Next(r)) {
      out[i].push_back(r);
    }
  }
  return out;
}

std::vector<JoinHashTable::ProbeSide> SidesOf(
    const std::vector<const ColumnData*>& probe) {
  std::vector<JoinHashTable::ProbeSide> sides;
  for (const ColumnData* col : probe) {
    sides.push_back({col->dict().get(), !col->has_dict()});
  }
  return sides;
}

/// Matches of probe row `row`, the probe side's code maps computed from
/// the probe columns themselves.
std::vector<size_t> ProbeAll(const JoinHashTable& table,
                             const std::vector<const ColumnData*>& probe,
                             size_t row) {
  return MatchAll(table, probe, SidesOf(probe))[row];
}

/// Reference matches for one string key column: build rows whose value
/// equals the probe row's, ascending; NULLs never match.
std::vector<size_t> MatchByValue(const ColumnData& build,
                                 const ColumnData& probe, size_t row) {
  std::vector<size_t> out;
  if (probe.IsNull(row)) return out;
  for (size_t b = 0; b < build.size(); ++b) {
    if (!build.IsNull(b) && build.StringAt(b) == probe.StringAt(row)) {
      out.push_back(b);
    }
  }
  return out;
}

/// Probes every row of `probe` against a table built on `build` and
/// asserts the matches equal the value-level reference.
void ExpectValueMatches(const ColumnData& build, const ColumnData& probe) {
  JoinHashTable table({&build});
  ASSERT_TRUE(table.Build(nullptr).ok());
  for (size_t r = 0; r < probe.size(); ++r) {
    EXPECT_EQ(ProbeAll(table, {&probe}, r), MatchByValue(build, probe, r))
        << "probe row " << r;
  }
}

TEST(JoinHashTableTest, Int64MatchesAscendInBuildOrder) {
  ColumnData build = IntCol({7, 2, 7, 7, 5});
  ColumnData probe = IntCol({7, 5, 9});
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(table.num_entries(), 5u);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0, 2, 3}));
  EXPECT_EQ(ProbeAll(table, {&probe}, 1), (std::vector<size_t>{4}));
  EXPECT_TRUE(ProbeAll(table, {&probe}, 2).empty());
}

TEST(JoinHashTableTest, NullKeysNeverJoin) {
  ColumnData build = IntCol({1});
  build.AppendNull();
  ColumnData probe = IntCol({1});
  probe.AppendNull();
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(table.num_entries(), 1u);  // the NULL build row is skipped
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0}));
  EXPECT_TRUE(ProbeAll(table, {&probe}, 1).empty());  // NULL matches nothing
}

TEST(JoinHashTableTest, DictCodesJoin) {
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b", "c"});
  ColumnData build = DictCol(dict, {1, 0, 1, -1});
  ColumnData probe = DictCol(dict, {1, 2, -1});
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(table.num_entries(), 3u);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(ProbeAll(table, {&probe}, 1).empty());
  EXPECT_TRUE(ProbeAll(table, {&probe}, 2).empty());  // NULL code
}

TEST(JoinHashTableTest, TranslatedDictCodesJoin) {
  // Build and probe sides carry different sorted dictionaries: probe
  // codes go through the translation map. "d" exists only on the probe
  // side (never matches); "a" only on the build side.
  auto bd = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b", "c"});
  auto pd = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"b", "c", "d"});
  ColumnData build = DictCol(bd, {1, 0, 1, 2, -1});  // b a b c NULL
  ColumnData probe = DictCol(pd, {0, 1, 2, -1});     // b c d NULL
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0, 2}));  // b
  EXPECT_EQ(ProbeAll(table, {&probe}, 1), (std::vector<size_t>{3}));     // c
  EXPECT_TRUE(ProbeAll(table, {&probe}, 2).empty());  // "d": not in build
  EXPECT_TRUE(ProbeAll(table, {&probe}, 3).empty());  // NULL
  ExpectValueMatches(build, probe);
}

TEST(JoinHashTableTest, UnsortedDictionariesMatchByValue) {
  // Dictionaries that are not sorted translate through the build side's
  // string index: matches are those of comparing the strings.
  auto bd = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"y", "x", "z"});
  auto pd = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"x", "w", "y"});
  ColumnData build = DictCol(bd, {0, 1, 2, 1, -1, 0});  // y x z x NULL y
  ColumnData probe = DictCol(pd, {0, 1, 2, -1, 2});     // x w y NULL y
  ExpectValueMatches(build, probe);
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{1, 3}));
  EXPECT_EQ(ProbeAll(table, {&probe}, 2), (std::vector<size_t>{0, 5}));
}

TEST(JoinHashTableTest, PlainStringsProbeDictionaryBuild) {
  // A probe morsel of plain strings (e.g. one overlapping the delta)
  // resolves each string to a build code.
  auto bd = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b", "c"});
  ColumnData build = DictCol(bd, {2, 0, 2, -1, 1});  // c a c NULL b
  ColumnData probe = StringCol({"c", "q", "a", ""});
  probe.AppendNull();
  ExpectValueMatches(build, probe);
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(ProbeAll(table, {&probe}, 4).empty());  // NULL
}

TEST(JoinHashTableTest, TypeMismatchNeverMatches) {
  ColumnData build = IntCol({1, 2});
  ColumnData probe = StringCol({"1"});
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_TRUE(ProbeAll(table, {&probe}, 0).empty());
}

TEST(JoinHashTableTest, TwoColumnKey) {
  ColumnData b1 = IntCol({1, 1, 2});
  ColumnData b2 = IntCol({10, 11, 10});
  ColumnData p1 = IntCol({1, 2});
  ColumnData p2 = IntCol({11, 99});
  JoinHashTable table({&b1, &b2});
  table.Build(nullptr);
  EXPECT_EQ(ProbeAll(table, {&p1, &p2}, 0), (std::vector<size_t>{1}));
  EXPECT_TRUE(ProbeAll(table, {&p1, &p2}, 1).empty());
}

TEST(JoinHashTableTest, PlainStringBuildInternsCodes) {
  ColumnData build = StringCol({"x", "y", "x"});
  ColumnData probe = StringCol({"x", "z"});
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(ProbeAll(table, {&probe}, 0), (std::vector<size_t>{0, 2}));
  EXPECT_TRUE(ProbeAll(table, {&probe}, 1).empty());
}

TEST(JoinHashTableTest, ParallelBuildMatchesSerial) {
  // Enough rows to trigger the partitioned parallel build.
  std::vector<int64_t> build_keys, probe_keys;
  for (int64_t i = 0; i < 50000; ++i) build_keys.push_back(i % 997);
  for (int64_t i = 0; i < 200; ++i) probe_keys.push_back(i * 13 % 1200);
  ColumnData build = IntCol(build_keys);
  ColumnData probe = IntCol(probe_keys);

  JoinHashTable serial({&build});
  serial.Build(nullptr);
  ThreadPool pool(4);
  JoinHashTable parallel({&build});
  parallel.Build(&pool);

  EXPECT_EQ(serial.num_entries(), parallel.num_entries());
  for (size_t r = 0; r < probe_keys.size(); ++r) {
    EXPECT_EQ(ProbeAll(serial, {&probe}, r), ProbeAll(parallel, {&probe}, r))
        << "probe row " << r;
  }
}

TEST(GroupKeyTableTest, FirstOccurrenceIds) {
  ColumnData keys = IntCol({5, 7, 5, 9, 7, 5});
  GroupKeyTable table({&keys});
  std::vector<size_t> ids;
  for (size_t r = 0; r < keys.size(); ++r) ids.push_back(table.GetOrAdd(r));
  EXPECT_EQ(ids, (std::vector<size_t>{0, 1, 0, 2, 1, 0}));
  EXPECT_EQ(table.num_groups(), 3u);
}

TEST(GroupKeyTableTest, NullIsItsOwnGroup) {
  ColumnData keys = IntCol({1});
  keys.AppendNull();
  keys.AppendInt(1);
  keys.AppendNull();
  GroupKeyTable table({&keys});
  EXPECT_EQ(table.GetOrAdd(0), 0u);
  EXPECT_EQ(table.GetOrAdd(1), 1u);
  EXPECT_EQ(table.GetOrAdd(2), 0u);
  EXPECT_EQ(table.GetOrAdd(3), 1u);
  EXPECT_EQ(table.num_groups(), 2u);
}

TEST(GroupKeyTableTest, DictCodesGroupNullInBand) {
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b"});
  ColumnData keys = DictCol(dict, {0, -1, 1, 0, -1});
  GroupKeyTable table({&keys});
  EXPECT_EQ(table.GetOrAdd(0), 0u);
  EXPECT_EQ(table.GetOrAdd(1), 1u);
  EXPECT_EQ(table.GetOrAdd(2), 2u);
  EXPECT_EQ(table.GetOrAdd(3), 0u);
  EXPECT_EQ(table.GetOrAdd(4), 1u);
}

TEST(GroupKeyTableTest, GrowthKeepsIdsStable) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 5000; ++i) values.push_back(i);
  ColumnData keys = IntCol(values);
  GroupKeyTable table({&keys});
  for (size_t r = 0; r < keys.size(); ++r) {
    ASSERT_EQ(table.GetOrAdd(r), r);  // all distinct -> id == row
  }
  // Revisiting after growth finds the same ids.
  for (size_t r = 0; r < keys.size(); ++r) {
    ASSERT_EQ(table.GetOrAdd(r), r);
  }
  EXPECT_EQ(table.num_groups(), 5000u);
}

TEST(GroupKeyTableTest, MultiColumnKey) {
  ColumnData a = IntCol({1, 1, 2, 1});
  ColumnData b = IntCol({1, 2, 1, 1});
  GroupKeyTable table({&a, &b});
  EXPECT_EQ(table.GetOrAdd(0), 0u);
  EXPECT_EQ(table.GetOrAdd(1), 1u);
  EXPECT_EQ(table.GetOrAdd(2), 2u);
  EXPECT_EQ(table.GetOrAdd(3), 0u);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: join matches (order included) and group ids
// (first-occurrence order) equal those of a reference that compares raw
// 64-bit images and string values row by row.

using Dict = std::shared_ptr<const std::vector<std::string>>;

/// Raw 64-bit image of a fixed-width value (doubles bit-cast).
uint64_t Image(const ColumnData& col, size_t r) {
  return col.type().id == TypeId::kDouble
             ? std::bit_cast<uint64_t>(col.doubles()[r])
             : static_cast<uint64_t>(col.ints()[r]);
}

/// Whether two key values are equal. Two NULLs are equal only for group
/// keys; a string never equals a number.
bool SameValue(const ColumnData& a, size_t ra, const ColumnData& b,
               size_t rb, bool nulls_equal) {
  const bool na = a.IsNull(ra);
  const bool nb = b.IsNull(rb);
  if (na || nb) return nulls_equal && na && nb;
  const bool sa = a.type().id == TypeId::kString;
  if (sa != (b.type().id == TypeId::kString)) return false;
  return sa ? a.StringAt(ra) == b.StringAt(rb) : Image(a, ra) == Image(b, rb);
}

bool SameKey(const std::vector<const ColumnData*>& a, size_t ra,
             const std::vector<const ColumnData*>& b, size_t rb,
             bool nulls_equal) {
  for (size_t k = 0; k < a.size(); ++k) {
    if (!SameValue(*a[k], ra, *b[k], rb, nulls_equal)) return false;
  }
  return true;
}

/// Reference join matches of probe rows `rows` (kInvalidIndex matches
/// nothing): every build row with an equal, NULL-free key, ascending.
std::vector<std::vector<size_t>> ReferenceMatches(
    const std::vector<const ColumnData*>& build,
    const std::vector<const ColumnData*>& probe, const SelectionVector& rows) {
  std::vector<std::vector<size_t>> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] == ColumnData::kInvalidIndex) continue;
    for (size_t b = 0; b < build[0]->size(); ++b) {
      if (SameKey(build, b, probe, rows[i], false)) out[i].push_back(b);
    }
  }
  return out;
}

/// Reference group ids of rows `rows`, in first-occurrence order.
std::vector<uint32_t> ReferenceGroups(
    const std::vector<const ColumnData*>& cols, const SelectionVector& rows) {
  std::vector<uint32_t> ids;
  std::vector<uint32_t> firsts;  // first row of each group
  for (uint32_t r : rows) {
    uint32_t g = 0;
    while (g < firsts.size() && !SameKey(cols, firsts[g], cols, r, true)) ++g;
    if (g == firsts.size()) firsts.push_back(r);
    ids.push_back(g);
  }
  return ids;
}

SelectionVector AllRows(size_t n) {
  SelectionVector rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = static_cast<uint32_t>(i);
  return rows;
}

class KeyFormTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static constexpr size_t kRows = 240;

  bool Null() { return rng_() % 8 == 0; }

  ColumnData Ints(int64_t domain) {
    ColumnData col(DataType::Int64());
    for (size_t r = 0; r < kRows; ++r) {
      if (Null()) {
        col.AppendNull();
      } else {
        col.AppendInt(static_cast<int64_t>(rng_() % domain) - 2);
      }
    }
    return col;
  }

  /// Doubles whose byte images differ where their values compare equal
  /// (-0.0 and 0.0) and match where they compare unequal (NaN).
  ColumnData Doubles() {
    const double values[] = {
        0.0, -0.0, 1.5, -2.25, std::numeric_limits<double>::infinity(),
        std::bit_cast<double>(uint64_t{0x7FF8000000000000}),
        std::bit_cast<double>(uint64_t{0x7FF8000000000001}),
        std::bit_cast<double>(uint64_t{0xFFF8000000000000})};
    ColumnData col(DataType::Double());
    for (size_t r = 0; r < kRows; ++r) {
      if (Null()) {
        col.AppendNull();
      } else {
        col.AppendDouble(values[rng_() % std::size(values)]);
      }
    }
    return col;
  }

  /// A dictionary of `size` distinct pool strings, sorted or not.
  Dict MakeDict(size_t size, bool sorted) {
    std::vector<std::string> pool = {"a", "b", "c", "d", "e", "f",
                                     "g", "h", "",  "ab", "ba", "zz"};
    std::shuffle(pool.begin(), pool.end(), rng_);
    pool.resize(size);
    if (sorted) std::sort(pool.begin(), pool.end());
    return std::make_shared<const std::vector<std::string>>(pool);
  }

  ColumnData Coded(const Dict& dict) {
    std::vector<int32_t> codes;
    for (size_t r = 0; r < kRows; ++r) {
      codes.push_back(Null() ? -1
                             : static_cast<int32_t>(rng_() % dict->size()));
    }
    return DictCol(dict, std::move(codes));
  }

  /// Plain strings drawn from a dictionary's values plus one it lacks.
  ColumnData Plain(const Dict& dict) {
    ColumnData col(DataType::String());
    for (size_t r = 0; r < kRows; ++r) {
      const size_t pick = rng_() % (dict->size() + 1);
      if (Null()) {
        col.AppendNull();
      } else {
        col.AppendString(pick < dict->size() ? (*dict)[pick] : "absent");
      }
    }
    return col;
  }

  /// Asserts the table's matches equal the reference: with the probe
  /// side's code maps as the chain computes them, with none foreseen,
  /// and read through row indexes that include NULL extensions.
  void ExpectJoinMatches(const std::vector<const ColumnData*>& build,
                         const std::vector<const ColumnData*>& probe) {
    JoinHashTable table(build);
    ASSERT_TRUE(table.Build(nullptr).ok());
    const SelectionVector all = AllRows(kRows);
    const auto expected = ReferenceMatches(build, probe, all);
    EXPECT_EQ(MatchAll(table, probe, SidesOf(probe)), expected);
    EXPECT_EQ(MatchAll(table, probe,
                       std::vector<JoinHashTable::ProbeSide>(probe.size())),
              expected);
    SelectionVector rows;
    for (size_t i = 0; i < kRows; ++i) {
      rows.push_back(rng_() % 5 == 0
                         ? ColumnData::kInvalidIndex
                         : static_cast<uint32_t>(rng_() % kRows));
    }
    EXPECT_EQ(MatchAll(table, probe, SidesOf(probe), rows),
              ReferenceMatches(build, probe, rows));
  }

  /// Asserts group ids equal the reference, assigned in batches of
  /// random size and through a row list.
  void ExpectGroups(const std::vector<const ColumnData*>& cols) {
    GroupKeyTable table(cols);
    std::vector<uint32_t> ids(kRows);
    for (size_t begin = 0; begin < kRows;) {
      const size_t count = std::min(kRows - begin, 1 + rng_() % 70);
      table.GetOrAdd(nullptr, begin, count, ids.data() + begin);
      begin += count;
    }
    EXPECT_EQ(ids, ReferenceGroups(cols, AllRows(kRows)));
    SelectionVector reversed = AllRows(kRows);
    std::reverse(reversed.begin(), reversed.end());
    GroupKeyTable by_rows(cols);
    by_rows.GetOrAdd(reversed.data(), 0, kRows, ids.data());
    EXPECT_EQ(ids, ReferenceGroups(cols, reversed));
    EXPECT_EQ(by_rows.num_groups(),
              *std::max_element(ids.begin(), ids.end()) + size_t{1});
  }

  std::mt19937_64 rng_{GetParam()};
};

TEST_P(KeyFormTest, OneIntColumn) {
  ColumnData build = Ints(40), probe = Ints(50);
  ExpectJoinMatches({&build}, {&probe});
  ExpectGroups({&build});
}

TEST_P(KeyFormTest, OneDoubleColumnComparesBytes) {
  ColumnData build = Doubles(), probe = Doubles();
  ExpectJoinMatches({&build}, {&probe});
  ExpectGroups({&build});
}

TEST_P(KeyFormTest, DictionaryBuildEveryProbeEncoding) {
  const Dict bd = MakeDict(8, rng_() % 2 == 0);
  ColumnData build = Coded(bd);
  ColumnData same = Coded(bd);
  ColumnData sorted = Coded(MakeDict(9, true));
  ColumnData unsorted = Coded(MakeDict(10, false));
  ColumnData plain = Plain(bd);
  for (const ColumnData* probe : {&same, &sorted, &unsorted, &plain}) {
    ExpectJoinMatches({&build}, {probe});
  }
  ExpectGroups({&build});
  ExpectGroups({&plain});
}

TEST_P(KeyFormTest, PlainStringBuild) {
  const Dict values = MakeDict(7, false);
  ColumnData build = Plain(values);
  ColumnData plain = Plain(values);
  ColumnData coded = Coded(MakeDict(9, true));
  ExpectJoinMatches({&build}, {&plain});
  ExpectJoinMatches({&build}, {&coded});
}

TEST_P(KeyFormTest, MultiColumnStringIntKeys) {
  const Dict d1 = MakeDict(4, true), d2 = MakeDict(5, false);
  ColumnData s1 = Coded(d1), s2 = Coded(d2), p1 = Plain(d1);
  ColumnData i1 = Ints(3), i2 = Ints(4), x = Doubles();
  ColumnData t1 = Coded(MakeDict(6, true)), t2 = Plain(d2);
  ColumnData q1 = Plain(d1), j1 = Ints(3), j2 = Ints(4), y = Doubles();
  // 2, 3 and 4 columns, probed through other dictionaries and plain strings.
  ExpectJoinMatches({&s1, &i1}, {&t1, &j1});
  ExpectJoinMatches({&s1, &i1, &p1}, {&q1, &j1, &t1});
  ExpectJoinMatches({&s1, &s2, &i1, &i2}, {&t1, &t2, &j1, &j2});
  ExpectJoinMatches({&p1, &x, &i2}, {&t1, &y, &j2});
  ExpectGroups({&s1, &i1});
  ExpectGroups({&s1, &i1, &p1});
  ExpectGroups({&s1, &s2, &i1, &i2});
  ExpectGroups({&p1, &x, &i2, &i1});
}

TEST_P(KeyFormTest, StringNumberMismatchNeverMatches) {
  const Dict d = MakeDict(5, true);
  ColumnData ints = Ints(5), coded = Coded(d), plain = Plain(d);
  ExpectJoinMatches({&ints}, {&coded});
  ExpectJoinMatches({&coded}, {&ints});
  ExpectJoinMatches({&plain}, {&ints});
  ExpectJoinMatches({&coded, &ints}, {&coded, &plain});
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyFormTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace vdm
