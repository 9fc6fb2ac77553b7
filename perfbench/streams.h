// Seeded request streams for the three workloads.
//
// Everything the program under test receives is generated here from the
// workload seed, and nothing here touches a Database: the same seed gives
// byte-identical statements on any machine.
//
// Streams are stratified rather than drawn independently: every stretch of
// a connection's stream holds the workload's target mix (each page or
// report once per cycle, ad-hoc statements in Zipf proportion), and the
// seed decides the order. Runs then differ in arrival order, not in how
// much of the expensive work they happened to draw.
#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// --- paging (§4.4) ---------------------------------------------------

/// One page of the paging query: LIMIT `limit` OFFSET `offset`.
struct Page {
  int64_t limit = 0;
  int64_t offset = 0;
};

/// The 48 pages the paging workload rotates over: limit in {10, 100,
/// 1000} times 16 consecutive pages each.
const std::vector<Page>& PagingPages();

/// Request k of stream `stream` over `n` equally weighted items: each
/// cycle of n requests visits every item once, in a seeded order.
size_t CycleRequest(uint64_t seed, int stream, uint64_t k, size_t n);

/// Index into PagingPages() of request k on stream `stream`.
inline size_t PagingRequest(uint64_t seed, int stream, uint64_t k) {
  return CycleRequest(seed, stream, k, PagingPages().size());
}

// --- ad-hoc VDM reports -----------------------------------------------

/// Ad-hoc statements: each selects 2-20 of the view's columns under a
/// company-code filter, either as scalar aggregates or ordered by the
/// view's unique key before LIMIT, so every result is deterministic.
struct AdhocPool {
  std::vector<std::string> statements;
  std::vector<double> weights;  // Zipf weight of each popularity rank
  std::vector<uint32_t> rank_to_statement;
};

/// Builds `size` statements over `view` (whose columns are `columns`;
/// the key columns rldnr, gjahr, belnr, docln and the filter column
/// rbukrs must be among them), drawn with Zipf exponent `zipf_s`.
AdhocPool MakeAdhocPool(uint64_t seed, const std::string& view,
                        const std::vector<std::string>& columns, size_t size,
                        double zipf_s);

/// The first `length` statement indexes of stream `stream`: smooth
/// weighted round-robin over the Zipf weights from seeded starting
/// credits, so every prefix holds each statement in proportion.
std::vector<uint32_t> AdhocStream(const AdhocPool& pool, uint64_t seed,
                                  int stream, size_t length);

// --- HTAP postings ----------------------------------------------------

/// `count` (at most 16) fixed reports over the view, each for its own
/// company code and with its own extra columns: per-ledger hsl totals and
/// line counts, which balanced postings leave unchanged and grow by even
/// numbers respectively.
std::vector<std::string> MakeReports(uint64_t seed, const std::string& view,
                                     const std::vector<std::string>& columns,
                                     int count);

/// Index of the report read by request k on stream `stream`.
inline size_t ReportRequest(uint64_t seed, int stream, uint64_t k,
                            size_t reports) {
  return CycleRequest(seed, 0x100 + stream, k, reports);
}

/// One balanced journal entry: two INSERTs whose amounts cancel.
struct Posting {
  std::string insert_debit;
  std::string insert_credit;
};

/// Posting k into acdoca. Document numbers start at `first_belnr`, so
/// passes that post into the table use disjoint ranges.
Posting MakePosting(uint64_t seed, int64_t first_belnr, uint64_t k);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
