// Unit tests for the typed executor hash tables: key-layout selection,
// probes adapting to the build layout (other dictionaries, plain
// strings), match order, NULL handling, serialized fallback, group-id
// assignment, and parallel builds.
#include <gtest/gtest.h>

#include <memory>

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

TEST(ChooseKeyLayoutTest, SingleIntIsInt64) {
  ColumnData build = IntCol({1, 2});
  EXPECT_EQ(ChooseKeyLayout({&build}), KeyLayout::kInt64);
}

TEST(ChooseKeyLayoutTest, TwoFixedColumnsPack) {
  ColumnData a = IntCol({1});
  ColumnData b = IntCol({2});
  EXPECT_EQ(ChooseKeyLayout({&a, &b}), KeyLayout::kPacked16);
}

TEST(ChooseKeyLayoutTest, DictionaryUsesCodes) {
  // The layout depends on the build (or group) side alone; probes adapt.
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"y", "x"});  // unsorted is fine too
  ColumnData build = DictCol(dict, {0, 1});
  EXPECT_EQ(ChooseKeyLayout({&build}), KeyLayout::kDict32);
}

TEST(ChooseKeyLayoutTest, PlainStringsSerialize) {
  ColumnData build = StringCol({"a"});
  EXPECT_EQ(ChooseKeyLayout({&build}), KeyLayout::kSerialized);
}

TEST(ChooseKeyLayoutTest, ThreeColumnsSerialize) {
  ColumnData a = IntCol({1}), b = IntCol({2}), c = IntCol({3});
  EXPECT_EQ(ChooseKeyLayout({&a, &b, &c}), KeyLayout::kSerialized);
}

/// Matches of probe row `row` through the table's prober.
std::vector<size_t> ProbeAll(const JoinHashTable& table,
                             const std::vector<const ColumnData*>& probe,
                             size_t row) {
  JoinHashTable::Prober prober(table);
  prober.Bind(&probe);
  std::vector<size_t> out;
  prober.ProbeRow(row, &out);
  return out;
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
  EXPECT_EQ(table.layout(), KeyLayout::kInt64);
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
  EXPECT_EQ(table.layout(), KeyLayout::kDict32);
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
  EXPECT_EQ(table.layout(), KeyLayout::kDict32);
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
  EXPECT_EQ(table.layout(), KeyLayout::kDict32);
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

TEST(JoinHashTableTest, PackedTwoColumnKey) {
  ColumnData b1 = IntCol({1, 1, 2});
  ColumnData b2 = IntCol({10, 11, 10});
  ColumnData p1 = IntCol({1, 2});
  ColumnData p2 = IntCol({11, 99});
  JoinHashTable table({&b1, &b2});
  table.Build(nullptr);
  EXPECT_EQ(table.layout(), KeyLayout::kPacked16);
  EXPECT_EQ(ProbeAll(table, {&p1, &p2}, 0), (std::vector<size_t>{1}));
  EXPECT_TRUE(ProbeAll(table, {&p1, &p2}, 1).empty());
}

TEST(JoinHashTableTest, SerializedFallbackMatches) {
  ColumnData build = StringCol({"x", "y", "x"});
  ColumnData probe = StringCol({"x", "z"});
  JoinHashTable table({&build});
  table.Build(nullptr);
  EXPECT_EQ(table.layout(), KeyLayout::kSerialized);
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

TEST(GroupKeyTableTest, DictLayoutGroupsNullInBand) {
  auto dict = std::make_shared<const std::vector<std::string>>(
      std::vector<std::string>{"a", "b"});
  ColumnData keys = DictCol(dict, {0, -1, 1, 0, -1});
  GroupKeyTable table({&keys});
  EXPECT_EQ(table.layout(), KeyLayout::kDict32);
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

TEST(GroupKeyTableTest, MultiColumnSerializes) {
  ColumnData a = IntCol({1, 1, 2, 1});
  ColumnData b = IntCol({1, 2, 1, 1});
  GroupKeyTable table({&a, &b});
  EXPECT_EQ(table.layout(), KeyLayout::kSerialized);
  EXPECT_EQ(table.GetOrAdd(0), 0u);
  EXPECT_EQ(table.GetOrAdd(1), 1u);
  EXPECT_EQ(table.GetOrAdd(2), 2u);
  EXPECT_EQ(table.GetOrAdd(3), 0u);
}

}  // namespace
}  // namespace vdm
