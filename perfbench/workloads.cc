#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/string_util.h"
#include "digest.h"
#include "engine/database.h"
#include "exec/kernels/kernels.h"
#include "loadgen.h"
#include "server/server.h"
#include "server/session.h"
#include "server/wire.h"
#include "stats.h"
#include "streams.h"
#include "trace.h"
#include "vdm/jeib.h"
#include "workload/s4.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using vdm::Chunk;
using vdm::Database;
using vdm::ExecMetrics;
using vdm::MsgType;
using vdm::QueryTiming;
using vdm::Status;
using vdm::StrFormat;

// --- fixed workload parameters (the run header prints them) ----------

constexpr double kTpchScale = 0.2;
constexpr int64_t kAcdocaRows = 50000;
/// Paging phase 1 offered rate: a quarter of the lowest rate four
/// closed-loop connections sustained on a shared 4-core x86 VM, so dips
/// in the host's speed do not tip the open loop into a growing backlog.
constexpr double kPagingOpenQps = 5000;
constexpr double kPostingsPerSecond = 100;
/// Delta rows at which a commit enqueues a background merge; at 100
/// postings/s (200 rows/s) several merges fire in every run.
constexpr size_t kMergeThresholdRows = 1000;
/// Four times the engine's 64-entry plan cache.
constexpr size_t kAdhocPoolSize = 256;
/// Zipf exponent of ad-hoc statement popularity, calibrated: at 0.4
/// vdm_adhoc reproduces an earlier measurement of ad-hoc JEIB reports on
/// 4 closed-loop connections, 15.6-16.0 requests/s at a p50 near 250 ms
/// (README.md has the calibration runs).
constexpr double kAdhocZipf = 0.4;
/// Requests per ad-hoc connection stream (more than any run issues).
constexpr size_t kAdhocStreamLength = 4096;
constexpr int kReports = 16;
/// Setup is repeated at least this many times, and until this many
/// seconds have gone, and setup_s is the median. On a shared host one
/// setup's time flips between a fast and a ~1.5x slower level in spells
/// of a fraction of a second, so the repeats span several seconds.
constexpr int kSetupRepeats = 5;
constexpr double kSetupSeconds = 3.0;
/// A run whose generator lag tail exceeds this is invalid.
constexpr double kMaxLagMs = 20.0;
/// Paging runs as this many rounds, each on a freshly started server: an
/// open-loop slice, then a closed-loop trial. Spreading both phases over
/// the whole run, and taking the best trial as throughput_qps, keeps a
/// slow spell of a shared host or an unlucky thread placement from
/// deciding a run; such noise only ever slows a trial down.
constexpr int kPagingTrials = 5;
/// Requests each paging connection keeps in flight in the closed-loop
/// phase: the server's per-connection queue never runs dry, so the phase
/// measures serving capacity rather than the host's thread wake-up
/// latency.
constexpr int kPagingWindow = 4;
/// Runs with many samples are cut into up to kWindows windows of at least
/// kWindowSamples (consecutive requests for latency, equal time slices
/// for throughput), and a bounded metric is the window value at the
/// better quartile: on a shared host, slow spells of the machine spoil the
/// windows they fall in, not the run. Runs with fewer samples use the
/// whole run, as smaller windows would add more noise than they remove.
constexpr size_t kWindows = 8;
constexpr size_t kWindowSamples = 1000;
/// Seed of the fixed statement pools (ad-hoc statements, HTAP reports).
/// The run seed orders the requests and draws posting values; the pools
/// stay the same, so runs differ in arrival order, not in which reports
/// exist.
constexpr uint64_t kPoolSeed = 1;
/// Traced wire loops put a transport probe in every this-many-th slot of
/// a connection.
constexpr uint64_t kProbeEvery = 4;
/// Spans written to the dump of a traced run (all are aggregated).
constexpr size_t kMaxWrittenSpans = 200000;

constexpr int64_t kWireBelnr = 90000000;
constexpr int64_t kEntryBelnr = 92000000;
constexpr uint64_t kWriteIdBit = uint64_t{1} << 62;
constexpr uint64_t kProbeIdBit = uint64_t{1} << 61;
/// A statement id no session hands out: EXECUTE on it is answered with
/// NotFound before the engine is reached, so its round trip is transport.
constexpr uint32_t kProbeStmtId = 0xFFFFFFFFu;
/// Statement index that marks a transport probe among paging requests.
constexpr uint32_t kProbeStmt = 0xFFFFFFFFu;
const char* const kView = "journalentryitembrowser";

uint64_t ReadId(int stream, uint64_t k) {
  return (static_cast<uint64_t>(stream) << 40) | k;
}
int StreamOf(uint64_t id) { return static_cast<int>((id >> 40) & 0xFFFFF); }
uint64_t IndexOf(uint64_t id) { return id & ((uint64_t{1} << 40) - 1); }

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

uint64_t Delta(uint64_t after, uint64_t before) {
  return after >= before ? after - before : 0;
}

std::vector<uint8_t> Payload(const std::vector<uint8_t>& frame) {
  return std::vector<uint8_t>(frame.begin() + vdm::kFrameHeaderBytes,
                              frame.end());
}

/// Decodes a RESULT or ERROR payload (type byte first).
vdm::Result<vdm::ResultMsg> DecodeReply(const std::vector<uint8_t>& payload) {
  if (payload.empty()) return Status::Internal("empty response");
  vdm::WireReader r(payload.data() + 1, payload.size() - 1);
  const auto type = static_cast<MsgType>(payload[0]);
  if (type == MsgType::kResult) {
    vdm::ResultMsg msg;
    VDM_RETURN_NOT_OK(vdm::DecodeResult(&r, &msg));
    return msg;
  }
  if (type == MsgType::kError) {
    vdm::ErrorMsg err;
    VDM_RETURN_NOT_OK(vdm::DecodeError(&r, &err));
    return Status(err.code, err.message);
  }
  return Status::Internal("unexpected response type");
}

bool IsAck(const std::vector<uint8_t>& payload) {
  return !payload.empty() && static_cast<MsgType>(payload[0]) == MsgType::kAck;
}

/// A transport probe: EXECUTE of kProbeStmtId, sent only on an idle
/// connection.
OpenRequest ProbeRequest(uint64_t id) {
  vdm::ExecuteMsg msg;
  msg.stmt_id = kProbeStmtId;
  OpenRequest req;
  req.id = kProbeIdBit | id;
  req.stmt = kProbeStmt;
  req.idle_only = true;
  req.frames.push_back(vdm::EncodeExecute(msg));
  return req;
}

/// A QUERY frame carrying statement `stmt` of the workload.
OpenRequest QueryRequest(uint64_t id, uint32_t stmt, const std::string& sql) {
  OpenRequest req;
  req.id = id;
  req.stmt = stmt;
  req.frames.push_back(vdm::EncodeQuery(sql));
  return req;
}

/// make() of a closed loop with one request in flight per connection:
/// request k of connection c is request(c, k), and traced runs put a
/// transport probe in every kProbeEvery-th slot of a connection.
std::function<OpenRequest(uint64_t, int)> ClosedMaker(
    int conns, bool trace,
    std::function<OpenRequest(int, uint64_t)> request) {
  const auto n = static_cast<size_t>(conns);
  return [trace, request = std::move(request),
          slots = std::vector<uint64_t>(n),
          next_k = std::vector<uint64_t>(n)](uint64_t, int c) mutable {
    const auto i = static_cast<size_t>(c);
    const uint64_t slot = slots[i]++;
    if (trace && slot % kProbeEvery == 0) return ProbeRequest(ReadId(c, slot));
    return request(c, next_k[i]++);
  };
}

/// Loopback connections that have said HELLO.
struct Conns {
  std::vector<std::unique_ptr<RawConn>> owned;
  std::vector<RawConn*> raw;

  Status Open(int port, int n) {
    for (int c = 0; c < n; ++c) {
      owned.push_back(std::make_unique<RawConn>());
      VDM_RETURN_NOT_OK(owned.back()->Connect(port));
      VDM_RETURN_NOT_OK(owned.back()->Hello());
      raw.push_back(owned.back().get());
    }
    return Status::OK();
  }
  void Close() {
    for (RawConn* c : raw) c->Send(vdm::EncodeEmpty(MsgType::kClose));
  }
};

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  return 0;
}

void RaiseTo(std::atomic<size_t>* max, size_t v) {
  size_t cur = max->load();
  while (v > cur && !max->compare_exchange_weak(cur, v)) {
  }
}

std::vector<double> Sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// One completed read of the wire pass.
struct Read {
  uint64_t id = 0;
  uint32_t stmt = 0;
  double done_s = 0;      // completion, seconds from the loop start
  double latency_ms = 0;  // from the scheduled (or issued) send
  bool hit = false;       // RESULT frame's plan-cache flag
  bool ok = false;
  uint64_t digest = 0;
};

/// Number of windows for `samples` samples.
size_t WindowsFor(size_t samples) {
  return std::clamp<size_t>(samples / kWindowSamples, 1, kWindows);
}

/// Successful reads per second in each of WindowsFor(reads) time slices.
std::vector<double> WindowQps(const std::vector<Read>& reads, double seconds) {
  size_t ok = 0;
  for (const Read& r : reads) ok += r.ok ? 1 : 0;
  const size_t windows = WindowsFor(ok);
  std::vector<double> counts(windows);
  const double width = seconds / static_cast<double>(windows);
  for (const Read& r : reads) {
    if (!r.ok) continue;
    const auto w = static_cast<size_t>(r.done_s / width);
    counts[std::min(w, windows - 1)] += 1;
  }
  for (double& c : counts) c /= width;
  return counts;
}

double UpperQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileOf(v, 0.75);
}
double LowerQuartile(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return PercentileOf(v, 0.25);
}

/// Attempted/failed accounting shared by every generator thread.
class Tally {
 public:
  void Attempt() { ++attempted_; }
  void Fail(const std::string& why) {
    ++failed_;
    std::lock_guard<std::mutex> lock(mu_);
    ++reasons_[why.substr(0, 160)];
  }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }
  std::map<std::string, int64_t> reasons() const {
    std::lock_guard<std::mutex> lock(mu_);
    return reasons_;
  }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  mutable std::mutex mu_;
  std::map<std::string, int64_t> reasons_;  // guarded by mu_
};

/// Per-thread layer accumulators of the entry-point pass.
struct LayerAcc {
  std::vector<double> encode_us, decode_us, result_bytes, admission_ms,
      rebind_us, wait_ms, commit_ms;
  int64_t requests = 0;
  int64_t execute_ns = 0, overhead_ns = 0, optimize_ns = 0, request_ns = 0;
  std::map<std::string, int64_t> op_ns;
  double rows_scanned = 0, rows_probe = 0, rows_decoded = 0, early_exits = 0,
         peak_mem_bytes = 0;

  void Merge(const LayerAcc& o) {
    using Pair = std::pair<std::vector<double>*, const std::vector<double>*>;
    for (const Pair& p :
         {Pair{&encode_us, &o.encode_us}, Pair{&decode_us, &o.decode_us},
          Pair{&result_bytes, &o.result_bytes},
          Pair{&admission_ms, &o.admission_ms},
          Pair{&rebind_us, &o.rebind_us}, Pair{&wait_ms, &o.wait_ms},
          Pair{&commit_ms, &o.commit_ms}}) {
      p.first->insert(p.first->end(), p.second->begin(), p.second->end());
    }
    requests += o.requests;
    execute_ns += o.execute_ns;
    overhead_ns += o.overhead_ns;
    optimize_ns += o.optimize_ns;
    request_ns += o.request_ns;
    for (const auto& [k, v] : o.op_ns) op_ns[k] += v;
    rows_scanned += o.rows_scanned;
    rows_probe += o.rows_probe;
    rows_decoded += o.rows_decoded;
    early_exits += o.early_exits;
    peak_mem_bytes += o.peak_mem_bytes;
  }
};

/// Solo compile-and-execute of one statement, plan cache off.
struct Solo {
  int64_t parse_ns = 0, bind_ns = 0, optimize_ns = 0;
  Chunk result;
  bool ok = false;
  std::string error;
};

struct Counters {
  vdm::ServerStats server;
  vdm::PlanCacheStats cache;
  vdm::TxnStats txn;
};

/// One call into a Database entry point, as the entry-point pass sees it.
struct EntryCall {
  vdm::Result<Chunk> result = Status::Internal("not run");
  uint32_t stmt = 0;
  const char* entry = "";
  int64_t t0 = 0;  // request decode starts
  int64_t a = 0;   // entry point called
  int64_t b = 0;   // entry point returned
  QueryTiming timing;
  ExecMetrics metrics;
};

/// Checks one result; returns "" when correct, else why not.
using Check = std::function<std::string(uint32_t stmt, const Chunk&)>;

// --- the run -----------------------------------------------------------

class Run {
 public:
  explicit Run(const RunConfig& config)
      : config_(config), conns_(std::min(4, config.nproc)) {}

  RunOutcome Execute();

 private:
  enum class Data { kTpch, kS4 };

  Status SetUpOnce(Data data);
  Status SetUp(Data data);
  Counters Snap() const {
    Counters c{server_->stats(), db_->plan_cache_stats(), db_->txn_stats()};
    c.server.frames += retired_frames_;
    c.server.protocol_errors += retired_protocol_errors_;
    return c;
  }
  std::vector<Solo> SoloRun(const std::vector<std::string>& sqls);
  /// Marks the run invalid when load would run on more than nproc
  /// threads or connections.
  bool CheckCap(int threads, int connections);
  void Fail(const std::string& why) { tally_.Fail(why); }
  void FailStatus(const Status& status);
  SpanBuffer* NewBuffer();

  void Paging();
  void Adhoc();
  void Htap();

  /// Reply check of a wire loop: decodes the RESULT, applies `check` and
  /// keeps the outcome in `by_seq` under the request's send index, with
  /// the result's ordered digest when `digest` is set. A probe expects
  /// an ERROR.
  bool CheckReply(std::vector<Read>* by_seq, const OpenRequest& req,
                  const std::vector<uint8_t>& payload, const Check& check,
                  bool digest);
  /// Folds a wire loop's completions into the reply checks' outcomes and
  /// returns its reads in send order. A probe becomes a transport sample:
  /// its round trip minus an in-process twin session's handling of the
  /// same frame. Traced runs record a request and a client.call span for
  /// every completion.
  std::vector<Read> CollectReads(const OpenResult& res,
                                 std::vector<Read> by_seq,
                                 const std::string& what);

  /// Entry-point pass of a traced run: replays each thread's share of the
  /// wire pass's requests through `call` for at most `seconds`, from a
  /// cold plan cache, recording the decomposition of every request.
  /// `on_caller`, when given, runs on the calling thread meanwhile.
  void EntryPass(const std::vector<std::vector<uint64_t>>& work,
                 double seconds,
                 const std::function<EntryCall(int, uint64_t)>& call,
                 const Check& check,
                 const std::function<double(uint32_t)>& solo_optimize_ns,
                 LayerAcc* acc,
                 const std::function<void(LayerAcc*)>& on_caller = nullptr);
  void RecordEntry(SpanBuffer* spans, LayerAcc* acc, uint64_t id,
                   const EntryCall& call, double solo_optimize_ns);

  /// Posts in process through Database::ExecuteSession; records txn
  /// spans and the commit time. True when it committed.
  bool PostInProcess(const Posting& posting, uint64_t id, SpanBuffer* spans,
                     LayerAcc* acc);

  /// <prefix>p50_ms and p90_ms over latencies in schedule order: the lower
  /// quartile over windows of each window's p50 and p90; <prefix>p99_ms:
  /// the whole run's tail under the tail rule.
  void ReportLatency(const std::string& prefix, const std::vector<double>& ms);
  void ReportLatency(const std::vector<Read>& reads);
  /// Stops the server and starts a fresh one over the same database.
  Status RestartServer();
  void ReportLayers(const Counters& before, const Counters& after,
                    const std::vector<Read>& wire_reads,
                    const std::vector<Solo>& solo, const LayerAcc& acc);
  void E2e(const std::string& name, double value, const std::string& unit) {
    out_.end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    out_.per_layer.push_back({name, value, unit});
  }
  void Note(const std::string& line) { out_.notes.push_back(line); }

  const RunConfig config_;
  const int conns_;
  RunOutcome out_;
  Tally tally_;
  double setup_s_ = 0;

  std::unique_ptr<Database> db_;
  std::unique_ptr<vdm::Server> server_;
  // Counters of servers already stopped by RestartServer.
  uint64_t retired_frames_ = 0;
  uint64_t retired_protocol_errors_ = 0;

  // Generator-side samples, appended only from the calling thread after
  // the load threads have been joined.
  std::vector<double> lag_ms_;        // lateness of every send
  std::vector<double> transport_ms_;  // probe round trip minus handling
  std::vector<double> call_ms_;       // client calls of CollectReads' reads
  std::atomic<size_t> delta_rows_max_{0};

  NameTable names_;
  std::mutex buffers_mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;  // guarded by mu
  int64_t wire_record_ns_ = 0;   // recorder cost during the wire pass
  int64_t wire_request_ns_ = 0;  // summed request spans of the wire pass
};

SpanBuffer* Run::NewBuffer() {
  std::lock_guard<std::mutex> lock(buffers_mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(&names_));
  return buffers_.back().get();
}

Status Run::SetUpOnce(Data data) {
  server_.reset();
  db_.reset();
  db_ = std::make_unique<Database>();
  Database& db = *db_;
  if (data == Data::kTpch) {
    vdm::TpchOptions tpch;
    tpch.scale = kTpchScale;
    VDM_RETURN_NOT_OK(vdm::CreateTpchSchema(&db, tpch));
    VDM_RETURN_NOT_OK(vdm::LoadTpchData(&db, tpch));
  } else {
    vdm::S4Options s4;
    s4.acdoca_rows = kAcdocaRows;
    VDM_RETURN_NOT_OK(vdm::CreateS4Schema(&db, s4));
    VDM_RETURN_NOT_OK(vdm::LoadS4Data(&db, s4));
    VDM_RETURN_NOT_OK(vdm::BuildJournalEntryItemBrowser(&db));
  }
  db.AnalyzeTables();
  db.EnablePlanCache();
  vdm::ExecOptions exec;
  // Paging runs single-threaded per statement as vdmload does: page-
  // bounded statements gain nothing from fan-out, and it keeps which rows
  // an unordered LIMIT returns deterministic for the page checks.
  if (data == Data::kTpch) exec.num_threads = 1;
  db.SetExecOptions(exec);
  vdm::ExecLimits limits;
  limits.timeout_ms = 30000;
  limits.max_queued_ms = 10000;
  db.set_default_limits(limits);
  db.SetMergeThreshold(kMergeThresholdRows);
  server_ = std::make_unique<vdm::Server>(&db);
  return server_->Start();
}

Status Run::SetUp(Data data) {
  std::vector<double> times;
  const int64_t start = NowNs();
  while (times.size() < kSetupRepeats ||
         static_cast<double>(NowNs() - start) / 1e9 < kSetupSeconds) {
    const int64_t t0 = NowNs();
    VDM_RETURN_NOT_OK(SetUpOnce(data));
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  setup_s_ = MedianOf(times);
  return Status::OK();
}

Status Run::RestartServer() {
  const vdm::ServerStats stats = server_->stats();
  retired_frames_ += stats.frames;
  retired_protocol_errors_ += stats.protocol_errors;
  server_ = std::make_unique<vdm::Server>(db_.get());
  return server_->Start();
}

std::vector<Solo> Run::SoloRun(const std::vector<std::string>& sqls) {
  db_->DisablePlanCache();
  std::vector<Solo> out(sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    QueryTiming timing;
    vdm::Result<Chunk> r =
        db_->Query(sqls[i], db_->default_limits(), nullptr, &timing);
    Solo& s = out[i];
    s.parse_ns = timing.parse_ns;
    s.bind_ns = timing.bind_ns;
    s.optimize_ns = timing.optimize_ns;
    s.ok = r.ok();
    if (r.ok()) {
      s.result = std::move(*r);
    } else {
      s.error = r.status().ToString();
    }
  }
  db_->EnablePlanCache();
  return out;
}

bool Run::CheckCap(int threads, int connections) {
  if (threads <= config_.nproc && connections <= config_.nproc) return true;
  out_.valid = false;
  out_.invalid_reason = StrFormat(
      "generator cap exceeded: %d threads, %d connections, nproc %d", threads,
      connections, config_.nproc);
  return false;
}

void Run::FailStatus(const Status& status) {
  switch (status.code()) {
    case vdm::StatusCode::kSerializationFailure:
      Fail("serialization failure: " + status.message());
      break;
    case vdm::StatusCode::kResourceExhausted:
      Fail("rejected: " + status.message());
      break;
    default:
      Fail("error: " + status.ToString());
  }
}

// --- load shapes ---------------------------------------------------------

bool Run::CheckReply(std::vector<Read>* by_seq, const OpenRequest& req,
                     const std::vector<uint8_t>& payload, const Check& check,
                     bool digest) {
  if (req.seq >= by_seq->size()) by_seq->resize(req.seq + 1);
  Read& read = (*by_seq)[req.seq];
  if (req.stmt == kProbeStmt) {
    read.stmt = kProbeStmt;
    return !payload.empty() &&
           static_cast<MsgType>(payload[0]) == MsgType::kError;
  }
  tally_.Attempt();
  vdm::Result<vdm::ResultMsg> r = DecodeReply(payload);
  if (!r.ok()) {
    FailStatus(r.status());
  } else if (std::string why = check(req.stmt, r->chunk); !why.empty()) {
    Fail(why);
  } else {
    read.ok = true;
    read.hit = (r->flags & vdm::kResultFlagCacheHit) != 0;
    if (digest) read.digest = ChunkDigest(r->chunk, true);
  }
  return read.ok;
}

std::vector<Read> Run::CollectReads(const OpenResult& res,
                                    std::vector<Read> by_seq,
                                    const std::string& what) {
  if (!res.error.empty()) Fail(what + ": " + res.error);
  for (int64_t i = 0; i < res.unanswered; ++i) Fail("unanswered request");
  lag_ms_.insert(lag_ms_.end(), res.lag_ms.begin(), res.lag_ms.end());
  SpanBuffer* spans = config_.trace ? NewBuffer() : nullptr;
  vdm::TenantRegistry tenants;
  vdm::Session twin(9000, db_.get(), &tenants);
  const std::vector<uint8_t> hello = Payload(vdm::EncodeHello(vdm::HelloMsg{}));
  twin.HandleFrame(hello.data(), hello.size());
  const std::vector<uint8_t> probe = Payload(ProbeRequest(0).frames[0]);
  std::vector<uint64_t> read_seqs;
  for (const OpenResult::Done& d : res.done) {
    Read& r = by_seq[d.seq];
    r.id = d.id;
    r.latency_ms = d.latency_ms;
    r.done_s = d.done_s;
    r.ok = r.ok && d.ok;
    if (d.stmt == kProbeStmt) {
      const int64_t h0 = NowNs();
      twin.HandleFrame(probe.data(), probe.size());
      const double handle_ms = Ms(NowNs() - h0);
      if (d.ok) transport_ms_.push_back(d.send_ms - handle_ms);
    } else {
      r.stmt = d.stmt;
      call_ms_.push_back(d.send_ms);
      read_seqs.push_back(d.seq);
    }
    if (spans != nullptr) {
      // Times relative to the loop start; only durations matter.
      const auto due = static_cast<int64_t>(d.due_s * 1e9);
      const auto done = due + static_cast<int64_t>(d.latency_ms * 1e6);
      const int64_t root = spans->Add(
          d.stmt == kProbeStmt ? "probe" : "request", due, done, -1, d.id);
      spans->Add("client.call", done - static_cast<int64_t>(d.send_ms * 1e6),
                 done, root, d.id);
      wire_request_ns_ += done - due;
    }
  }
  std::sort(read_seqs.begin(), read_seqs.end());
  std::vector<Read> reads;
  for (uint64_t seq : read_seqs) reads.push_back(by_seq[seq]);
  return reads;
}

void Run::EntryPass(const std::vector<std::vector<uint64_t>>& work,
                    double seconds,
                    const std::function<EntryCall(int, uint64_t)>& call,
                    const Check& check,
                    const std::function<double(uint32_t)>& solo_optimize_ns,
                    LayerAcc* acc,
                    const std::function<void(LayerAcc*)>& on_caller) {
  const int threads = static_cast<int>(work.size());
  if (!CheckCap(threads + (on_caller ? 1 : 0), 0)) return;
  db_->EnablePlanCache();
  std::vector<LayerAcc> accs(work.size() + 1);
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  RunThreads(
      threads,
      [&](int c) {
        SpanBuffer* spans = NewBuffer();
        LayerAcc* mine = &accs[static_cast<size_t>(c)];
        for (uint64_t id : work[static_cast<size_t>(c)]) {
          if (NowNs() >= end) break;
          EntryCall e = call(c, id);
          tally_.Attempt();
          if (!e.result.ok()) {
            FailStatus(e.result.status());
            continue;
          }
          if (std::string why = check(e.stmt, *e.result); !why.empty()) {
            Fail(why);
          }
          RecordEntry(spans, mine, id, e, solo_optimize_ns(e.stmt));
        }
      },
      on_caller ? std::function<void()>([&] { on_caller(&accs.back()); })
                : nullptr);
  for (const LayerAcc& a : accs) acc->Merge(a);
}

void Run::RecordEntry(SpanBuffer* spans, LayerAcc* acc, uint64_t id,
                      const EntryCall& e, double solo_optimize_ns) {
  const QueryTiming& timing = e.timing;
  const ExecMetrics& metrics = e.metrics;
  // What the worker does after the statement: encode the RESULT frame;
  // what the client does with it: decode.
  const int64_t e0 = NowNs();
  std::vector<uint8_t> frame = vdm::EncodeResult(
      timing.cache_hit ? vdm::kResultFlagCacheHit : 0, *e.result);
  const int64_t e1 = NowNs();
  vdm::ResultMsg decoded;
  vdm::WireReader reader(frame.data() + vdm::kFrameHeaderBytes + 1,
                         frame.size() - vdm::kFrameHeaderBytes - 1);
  Status st = vdm::DecodeResult(&reader, &decoded);
  const int64_t e2 = NowNs();
  if (!st.ok()) Fail("decode: " + st.ToString());

  acc->encode_us.push_back(static_cast<double>(e1 - e0) / 1e3);
  acc->decode_us.push_back(static_cast<double>(e2 - e1) / 1e3);
  acc->result_bytes.push_back(static_cast<double>(frame.size()));
  acc->admission_ms.push_back(
      Ms(static_cast<int64_t>(metrics.admission_wait_ns)));
  if (timing.used_cache) {
    acc->rebind_us.push_back(
        static_cast<double>(timing.parameterize_ns + timing.rebind_ns) / 1e3);
  }
  if (!timing.cache_hit && timing.optimize_ns > 0) {
    acc->wait_ms.push_back(
        (static_cast<double>(timing.optimize_ns) - solo_optimize_ns) / 1e6);
  }
  ++acc->requests;
  acc->execute_ns += timing.execute_ns;
  int64_t ops = 0;
  for (const auto& [kind, ns] : metrics.op_wall_ns) {
    acc->op_ns[kind] += static_cast<int64_t>(ns);
    ops += static_cast<int64_t>(ns);
  }
  acc->overhead_ns += timing.execute_ns - ops;
  acc->optimize_ns += timing.optimize_ns;
  acc->request_ns += e.b - e.a;
  acc->rows_scanned += static_cast<double>(metrics.rows_scanned);
  acc->rows_probe += static_cast<double>(metrics.rows_probe_input);
  acc->rows_decoded += static_cast<double>(metrics.rows_decoded);
  acc->early_exits += static_cast<double>(metrics.limit_early_exits);
  acc->peak_mem_bytes += static_cast<double>(metrics.peak_memory_bytes);

  const int64_t root = spans->Add("worker", e.t0, e2, -1, id);
  spans->Add("wire.decode_request", e.t0, e.a, root, id);
  const int64_t call = spans->Add(e.entry, e.a, e.b, root, id);
  // QueryTiming gives durations only: the compile phases are laid out
  // from the start of the call and execution at its end.
  int64_t at = e.a;
  using Phase = std::pair<const char*, int64_t>;
  for (const auto& [name, ns] :
       {Phase{"engine.parameterize", timing.parameterize_ns},
        Phase{"sql.parse", timing.parse_ns}, Phase{"sql.bind", timing.bind_ns},
        Phase{"optimizer.optimize", timing.optimize_ns},
        Phase{"engine.rebind", timing.rebind_ns}}) {
    if (ns <= 0) continue;
    spans->Add(name, at, at + ns, call, id);
    at += ns;
  }
  const int64_t exec_start = std::max(at, e.b - timing.execute_ns);
  const int64_t exec = spans->Add("exec.execute", exec_start, e.b, call, id);
  at = exec_start;
  for (const auto& [kind, ns] : metrics.op_wall_ns) {
    const int64_t op_end =
        std::min<int64_t>(e.b, at + static_cast<int64_t>(ns));
    spans->Add("exec.op." + kind, at, op_end, exec, id);
    at = op_end;
  }
  spans->Add("wire.encode", e0, e1, root, id);
  spans->Add("wire.decode", e1, e2, root, id);
}

// --- write path --------------------------------------------------------

bool Run::PostInProcess(const Posting& posting, uint64_t id,
                        SpanBuffer* spans, LayerAcc* acc) {
  vdm::Transaction* txn = nullptr;
  const vdm::ExecLimits& limits = db_->default_limits();
  using Step = std::pair<const char*, std::string>;
  const int64_t root_start = NowNs();
  std::vector<std::pair<const char*, int64_t>> parts;
  bool ok = true;
  for (const auto& [name, sql] :
       {Step{"txn.begin", "begin"}, Step{"txn.insert", posting.insert_debit},
        Step{"txn.insert", posting.insert_credit},
        Step{"txn.commit", "commit"}}) {
    const int64_t t0 = NowNs();
    vdm::Result<Chunk> r = db_->ExecuteSession(sql, &txn, limits);
    parts.emplace_back(name, NowNs() - t0);
    if (!r.ok()) {
      FailStatus(r.status());
      ok = false;
      break;
    }
  }
  if (!ok && txn != nullptr) {
    db_->ExecuteSession("rollback", &txn, limits).status();
  }
  if (spans != nullptr) {
    const int64_t root =
        spans->Add("inproc.posting", root_start, NowNs(), -1, id);
    int64_t at = root_start;
    for (const auto& [name, ns] : parts) {
      spans->Add(name, at, at + ns, root, id);
      at += ns;
    }
  }
  if (ok) acc->commit_ms.push_back(Ms(parts.back().second));
  return ok;
}

// --- reporting ---------------------------------------------------------

void Run::ReportLatency(const std::string& prefix,
                        const std::vector<double>& ms) {
  const size_t windows = WindowsFor(ms.size());
  const size_t per_window = ms.size() / windows;
  std::vector<double> p50s, p90s;
  for (size_t w = 0; w < windows; ++w) {
    const auto begin = ms.begin() + static_cast<std::ptrdiff_t>(w * per_window);
    const std::vector<double> slice = Sorted(std::vector<double>(
        begin, begin + static_cast<std::ptrdiff_t>(per_window)));
    p50s.push_back(PercentileOf(slice, 0.5));
    p90s.push_back(PercentileOf(slice, 0.9));
  }
  const std::vector<double> all = Sorted(ms);
  const Tail tail = TailOf(all);
  E2e(prefix + "p50_ms", LowerQuartile(p50s), "ms");
  E2e(prefix + "p90_ms", LowerQuartile(p90s), "ms");
  E2e(prefix + "p99_ms", tail.value, "ms");
  Note(StrFormat("%slatency: %zu samples in %zu windows; p50/p90 are the "
                 "lower quartile over windows; whole run p50 %.3f ms, p90 "
                 "%.3f ms, p%.2f %.3f ms (reported as %sp99_ms)",
                 prefix.c_str(), ms.size(), windows, PercentileOf(all, 0.5),
                 PercentileOf(all, 0.9), tail.pct * 100, tail.value,
                 prefix.c_str()));
}

void Run::ReportLatency(const std::vector<Read>& reads) {
  std::vector<double> ms;
  for (const Read& r : reads) {
    if (r.ok) ms.push_back(r.latency_ms);
  }
  ReportLatency("", ms);
}

void Run::ReportLayers(const Counters& before, const Counters& after,
                       const std::vector<Read>& wire_reads,
                       const std::vector<Solo>& solo, const LayerAcc& acc) {
  auto per_request = [&](double total) {
    return acc.requests > 0 ? total / static_cast<double>(acc.requests) : 0;
  };
  auto count = [&](const std::string& name, uint64_t a, uint64_t b) {
    Layer(name, static_cast<double>(Delta(a, b)), "count");
  };

  // server: probe round trip minus in-process handling of the same frame.
  const std::vector<double> transport = Sorted(transport_ms_);
  Layer("server.transport_p50_ms", PercentileOf(transport, 0.5), "ms");
  Layer("server.transport_p99_ms", TailOf(transport).value, "ms");
  Layer("server.transport_samples", static_cast<double>(transport.size()),
        "count");
  count("server.frames", after.server.frames, before.server.frames);
  count("server.protocol_errors", after.server.protocol_errors,
        before.server.protocol_errors);

  // server/wire
  Layer("wire.encode_us", MeanOf(acc.encode_us), "us");
  Layer("wire.decode_us", MeanOf(acc.decode_us), "us");
  Layer("wire.result_bytes", MeanOf(acc.result_bytes), "bytes");

  // common (governor)
  Layer("governor.admission_wait_ms", TailOf(Sorted(acc.admission_ms)).value,
        "ms");

  // engine: the hit ratio from the RESULT frames' cache-hit flag, with
  // the PlanCacheStats counter beside it.
  size_t reads = 0, hits = 0;
  for (const Read& r : wire_reads) {
    if (!r.ok) continue;
    ++reads;
    if (r.hit) ++hits;
  }
  const uint64_t c_hits = Delta(after.cache.hits, before.cache.hits);
  const uint64_t c_lookups =
      c_hits + Delta(after.cache.misses, before.cache.misses);
  Layer("plan_cache.hit_ratio",
        reads > 0 ? static_cast<double>(hits) / static_cast<double>(reads)
                  : 0,
        "ratio");
  Layer("plan_cache.reads", static_cast<double>(reads), "count");
  Layer("plan_cache.counter_hit_ratio",
        c_lookups > 0
            ? static_cast<double>(c_hits) / static_cast<double>(c_lookups)
            : 0,
        "ratio");
  count("plan_cache.evictions", after.cache.evictions,
        before.cache.evictions);
  count("plan_cache.invalidations", after.cache.invalidations,
        before.cache.invalidations);
  Layer("engine.rebind_us", MeanOf(acc.rebind_us), "us");

  // sql + optimizer: the workload's distinct statements compiled solo.
  std::vector<double> parse, bind, optimize;
  for (const Solo& s : solo) {
    if (!s.ok) continue;
    parse.push_back(Ms(s.parse_ns));
    bind.push_back(Ms(s.bind_ns));
    optimize.push_back(Ms(s.optimize_ns));
  }
  Layer("sql.parse_ms", MeanOf(parse), "ms");
  Layer("sql.bind_ms", MeanOf(bind), "ms");
  Layer("optimizer.optimize_ms", MeanOf(optimize), "ms");
  Layer("optimizer.wait_ms", MeanOf(acc.wait_ms), "ms");
  Layer("optimizer.compiles", static_cast<double>(acc.wait_ms.size()),
        "count");

  // exec, per request of the entry-point pass
  Layer("exec.execute_ms", per_request(Ms(acc.execute_ns)), "ms");
  Layer("exec.overhead_ms", per_request(Ms(acc.overhead_ns)), "ms");
  for (const char* kind : {"Scan", "Join"}) {
    auto it = acc.op_ns.find(kind);
    Layer(std::string("exec.op_ms.") + kind,
          per_request(it == acc.op_ns.end() ? 0 : Ms(it->second)), "ms");
  }
  for (const auto& [kind, ns] : acc.op_ns) {
    Note(StrFormat("exec.op_ms.%s %.4f ms per request", kind.c_str(),
                   per_request(Ms(ns))));
  }
  Layer("exec.rows_scanned", per_request(acc.rows_scanned), "rows");
  Layer("exec.rows_probe_input", per_request(acc.rows_probe), "rows");
  Layer("exec.rows_decoded", per_request(acc.rows_decoded), "rows");
  Layer("exec.limit_early_exits", per_request(acc.early_exits), "count");
  Layer("exec.peak_memory_mb", per_request(acc.peak_mem_bytes) / 1048576.0,
        "MB");

  // txn + storage
  const std::vector<double> commit = Sorted(acc.commit_ms);
  Layer("txn.commit_p50_ms", PercentileOf(commit, 0.5), "ms");
  Layer("txn.commit_p99_ms", TailOf(commit).value, "ms");
  count("txn.commits", after.txn.commits, before.txn.commits);
  count("txn.conflicts", after.txn.conflicts, before.txn.conflicts);
  count("txn.retries", after.txn.retries, before.txn.retries);
  count("txn.rollbacks", after.txn.rollbacks, before.txn.rollbacks);
  count("storage.merges", after.txn.merges, before.txn.merges);
  Layer("storage.delta_rows_max", static_cast<double>(delta_rows_max_.load()),
        "rows");

  // validity
  Layer("loadgen.lag_p99_ms", TailOf(Sorted(lag_ms_)).value, "ms");
  Layer("trace.overhead_frac",
        wire_request_ns_ > 0 ? static_cast<double>(wire_record_ns_) /
                                   static_cast<double>(wire_request_ns_)
                             : 0,
        "frac");

  // The intended split of a request: compile (optimize, waits included)
  // in process, and transport plus the wire codecs over the wire.
  Layer("split.compile_share",
        acc.request_ns > 0 ? static_cast<double>(acc.optimize_ns) /
                                 static_cast<double>(acc.request_ns)
                           : 0,
        "frac");
  const double call = MeanOf(call_ms_);
  Layer("split.transport_share",
        call > 0 ? (MeanOf(transport_ms_) +
                    (MeanOf(acc.encode_us) + MeanOf(acc.decode_us)) / 1e3) /
                       call
                 : 0,
        "frac");
}

// --- paging -------------------------------------------------------------

void Run::Paging() {
  if (Status st = SetUp(Data::kTpch); !st.ok()) {
    Fail("setup: " + st.ToString());
    return;
  }
  const std::vector<Page>& pages = PagingPages();
  // Expected rows of every page, computed serially before any traffic.
  std::vector<std::string> page_sql;
  for (const Page& p : pages) {
    page_sql.push_back(vdm::PagingQuerySql(p.limit, p.offset));
  }
  std::vector<Solo> solo = SoloRun(page_sql);
  std::vector<uint64_t> expected(pages.size());
  for (size_t i = 0; i < solo.size(); ++i) {
    if (!solo[i].ok) {
      Fail("page precompute: " + solo[i].error);
      return;
    }
    expected[i] = ChunkDigest(solo[i].result, false);
    solo[i].result = Chunk();
  }
  const Check check = [&](uint32_t page, const Chunk& chunk) {
    return ChunkDigest(chunk, false) == expected[page]
               ? std::string()
               : StrFormat("wrong rows for page %u", page);
  };
  const bool trace = config_.trace;
  const double phase_s = config_.seconds / 2;
  const Counters before = Snap();

  // Connections with the paging statement PREPAREd on each.
  struct PagingConns : Conns {
    std::vector<uint32_t> stmt_ids;
  };
  auto connect = [&](PagingConns* out) {
    Status st = out->Open(server_->port(), conns_);
    for (RawConn* c : out->raw) {
      if (!st.ok()) break;
      vdm::Result<uint32_t> id = c->Prepare(vdm::PagingQuerySql(10, 0));
      st = id.status();
      if (id.ok()) out->stmt_ids.push_back(*id);
    }
    if (!st.ok()) Fail("paging: connection setup: " + st.ToString());
    return st.ok();
  };
  auto page_request = [&](const PagingConns& pc, int conn, int stream,
                          uint64_t k) {
    OpenRequest req;
    req.id = ReadId(stream, k);
    req.stmt = static_cast<uint32_t>(PagingRequest(config_.seed, stream, k));
    vdm::ExecuteMsg msg;
    msg.stmt_id = pc.stmt_ids[static_cast<size_t>(conn)];
    msg.limit = pages[req.stmt].limit;
    msg.offset = pages[req.stmt].offset;
    req.frames.push_back(vdm::EncodeExecute(msg));
    return req;
  };

  // Phase 1: open loop at a fixed offered rate, pipelined. Traced runs
  // put a transport probe in every kProbeEvery-th slot of a connection
  // that has nothing in flight. Phase 2: closed loop, each connection
  // keeping kPagingWindow requests in flight.
  if (!CheckCap(1, conns_)) return;
  const double slice_s = phase_s / kPagingTrials;
  std::vector<Read> wire_reads, open_reads;
  std::vector<double> qps;
  for (int t = 0; t < kPagingTrials; ++t) {
    if (Status st = RestartServer(); !st.ok()) {
      Fail("server restart: " + st.ToString());
      return;
    }
    PagingConns pc;
    if (!connect(&pc)) return;
    const int open_base = t * conns_;
    std::vector<Read> by_seq;
    const OpenResult open = RunLoop(
        pc.raw, LoopShape{kPagingOpenQps, 0}, slice_s, 10.0,
        [&](uint64_t i, int conn) {
          const int stream = open_base + conn;
          const uint64_t k = i / static_cast<uint64_t>(conns_);
          if (trace && k % kProbeEvery == kProbeEvery - 1) {
            return ProbeRequest(ReadId(stream, k));
          }
          return page_request(pc, conn, stream, k);
        },
        [&](const OpenRequest& req, size_t, const std::vector<uint8_t>& p) {
          return CheckReply(&by_seq, req, p, check, false);
        });
    for (const Read& r :
         CollectReads(open, std::move(by_seq), "paging phase 1")) {
      open_reads.push_back(r);
      if (r.ok) wire_reads.push_back(r);
    }

    const int closed_base = 64 + t * conns_;
    std::vector<uint64_t> next_k(static_cast<size_t>(conns_));
    by_seq.clear();
    const OpenResult res = RunLoop(
        pc.raw, LoopShape{0, kPagingWindow}, slice_s, 10.0,
        [&](uint64_t, int conn) {
          return page_request(pc, conn, closed_base + conn,
                              next_k[static_cast<size_t>(conn)]++);
        },
        [&](const OpenRequest& req, size_t, const std::vector<uint8_t>& p) {
          return CheckReply(&by_seq, req, p, check, false);
        });
    if (!res.error.empty()) Fail("paging phase 2: " + res.error);
    for (int64_t i = 0; i < res.unanswered; ++i) Fail("unanswered request");
    lag_ms_.insert(lag_ms_.end(), res.lag_ms.begin(), res.lag_ms.end());
    size_t in_time = 0;
    for (const OpenResult::Done& d : res.done) {
      Read& r = by_seq[d.seq];
      r.id = d.id;
      r.stmt = d.stmt;
      r.ok = r.ok && d.ok;
      if (r.ok) wire_reads.push_back(r);
      if (r.ok && d.done_s <= slice_s) ++in_time;
    }
    qps.push_back(static_cast<double>(in_time) / slice_s);
    pc.Close();
  }
  ReportLatency(open_reads);
  E2e("throughput_qps", *std::max_element(qps.begin(), qps.end()), "1/s");
  Note("throughput per trial (1/s):" + [&] {
    std::string out;
    for (double q : qps) out += StrFormat(" %.1f", q);
    return out;
  }());
  const Counters after = Snap();
  // No writes on this workload: the write metrics read 0.
  ReportLatency("write_", {});
  if (!trace) return;
  for (const auto& b : buffers_) wire_record_ns_ += b->record_ns();

  // Entry-point pass over the same requests, in process.
  std::vector<std::vector<uint64_t>> work(static_cast<size_t>(conns_));
  for (const Read& r : wire_reads) {
    work[static_cast<size_t>(StreamOf(r.id) % conns_)].push_back(r.id);
  }
  std::vector<std::shared_ptr<const vdm::PreparedStatement>> prepared;
  for (int c = 0; c < conns_; ++c) {
    vdm::Result<std::shared_ptr<const vdm::PreparedStatement>> stmt =
        db_->Prepare(vdm::PagingQuerySql(10, 0));
    if (!stmt.ok()) {
      Fail("entry pass: prepare: " + stmt.status().ToString());
      return;
    }
    prepared.push_back(*stmt);
  }
  double solo_optimize_ns = 0;
  for (const Solo& s : solo) {
    solo_optimize_ns += static_cast<double>(s.optimize_ns);
  }
  solo_optimize_ns /= static_cast<double>(solo.size());
  LayerAcc acc;
  EntryPass(
      work, phase_s,
      [&](int c, uint64_t id) {
        EntryCall e;
        e.entry = "engine.ExecutePrepared";
        e.stmt = static_cast<uint32_t>(
            PagingRequest(config_.seed, StreamOf(id), IndexOf(id)));
        vdm::ExecuteMsg msg;
        msg.limit = pages[e.stmt].limit;
        msg.offset = pages[e.stmt].offset;
        const std::vector<uint8_t> payload = Payload(vdm::EncodeExecute(msg));
        e.t0 = NowNs();
        vdm::ExecuteMsg decoded;
        vdm::WireReader reader(payload.data() + 1, payload.size() - 1);
        Status st = vdm::DecodeExecute(&reader, &decoded);
        e.a = NowNs();
        if (st.ok()) {
          e.result = db_->ExecutePrepared(
              *prepared[static_cast<size_t>(c)], decoded.params,
              decoded.limit, decoded.offset, db_->default_limits(),
              &e.metrics, &e.timing);
        } else {
          e.result = st;
        }
        e.b = NowNs();
        return e;
      },
      check, [&](uint32_t) { return solo_optimize_ns; }, &acc);
  ReportLayers(before, after, wire_reads, solo, acc);
}

// --- vdm_adhoc ---------------------------------------------------------

std::vector<std::string> ViewColumns(Database* db) {
  vdm::Result<Chunk> r =
      db->Query(StrFormat("select * from %s limit 0", kView));
  return r.ok() ? r->names : std::vector<std::string>{};
}

/// EntryCall of a QUERY frame carrying `sql`, through Database::Query.
EntryCall QueryEntry(Database* db, uint32_t stmt, const std::string& sql) {
  EntryCall e;
  e.entry = "engine.Query";
  e.stmt = stmt;
  const std::vector<uint8_t> payload = Payload(vdm::EncodeQuery(sql));
  e.t0 = NowNs();
  std::string decoded;
  vdm::WireReader reader(payload.data() + 1, payload.size() - 1);
  Status st = vdm::DecodeQuery(&reader, &decoded);
  e.a = NowNs();
  if (st.ok()) {
    e.result = db->Query(decoded, db->default_limits(), &e.metrics, &e.timing);
  } else {
    e.result = st;
  }
  e.b = NowNs();
  return e;
}

void Run::Adhoc() {
  if (Status st = SetUp(Data::kS4); !st.ok()) {
    Fail("setup: " + st.ToString());
    return;
  }
  const AdhocPool pool = MakeAdhocPool(
      kPoolSeed, kView, ViewColumns(db_.get()), kAdhocPoolSize, kAdhocZipf);
  std::vector<std::vector<uint32_t>> streams;
  for (int c = 0; c < conns_; ++c) {
    streams.push_back(AdhocStream(pool, config_.seed, c, kAdhocStreamLength));
  }
  auto stmt_of = [&](int stream, uint64_t k) {
    const std::vector<uint32_t>& st = streams[static_cast<size_t>(stream)];
    return st[k % st.size()];
  };
  const Counters before = Snap();
  if (!CheckCap(1, conns_)) return;
  Conns conns;
  if (Status st = conns.Open(server_->port(), conns_); !st.ok()) {
    Fail("vdm_adhoc: connection setup: " + st.ToString());
    return;
  }
  // Digests are compared with solo recomputations after the run.
  const Check record_only = [](uint32_t, const Chunk&) {
    return std::string();
  };
  std::vector<Read> by_seq;
  const int64_t start = NowNs();
  const OpenResult res = RunLoop(
      conns.raw, LoopShape{0, 1}, config_.seconds, 30.0,
      ClosedMaker(conns_, config_.trace,
                  [&](int c, uint64_t k) {
                    const uint32_t stmt = stmt_of(c, k);
                    return QueryRequest(ReadId(c, k), stmt,
                                        pool.statements[stmt]);
                  }),
      [&](const OpenRequest& req, size_t, const std::vector<uint8_t>& p) {
        return CheckReply(&by_seq, req, p, record_only, true);
      });
  const double run_s = static_cast<double>(NowNs() - start) / 1e9;
  conns.Close();
  const std::vector<Read> wire_reads =
      CollectReads(res, std::move(by_seq), "vdm_adhoc");
  E2e("throughput_qps", UpperQuartile(WindowQps(wire_reads, run_s)), "1/s");
  ReportLatency(wire_reads);
  const Counters after = Snap();

  // Every distinct statement issued, recomputed solo in process.
  std::set<uint32_t> distinct;
  for (const Read& r : wire_reads) distinct.insert(r.stmt);
  const std::vector<uint32_t> ids(distinct.begin(), distinct.end());
  std::vector<std::string> sqls;
  for (uint32_t id : ids) sqls.push_back(pool.statements[id]);
  std::vector<Solo> solo = SoloRun(sqls);
  std::unordered_map<uint32_t, uint64_t> digest_of;
  std::unordered_map<uint32_t, double> optimize_of;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!solo[i].ok) {
      Fail("recompute failed: " + solo[i].error);
      continue;
    }
    digest_of[ids[i]] = ChunkDigest(solo[i].result, true);
    optimize_of[ids[i]] = static_cast<double>(solo[i].optimize_ns);
    solo[i].result = Chunk();
  }
  for (const Read& r : wire_reads) {
    auto it = digest_of.find(r.stmt);
    if (r.ok && it != digest_of.end() && it->second != r.digest) {
      Fail(StrFormat("wrong result for statement %u", r.stmt));
    }
  }
  Note(StrFormat("vdm_adhoc: %zu requests over %zu distinct statements",
                 wire_reads.size(), ids.size()));
  // No writes on this workload: the write metrics read 0.
  ReportLatency("write_", {});
  if (!config_.trace) return;
  for (const auto& b : buffers_) wire_record_ns_ += b->record_ns();

  std::vector<std::vector<uint64_t>> work(static_cast<size_t>(conns_));
  for (const Read& r : wire_reads) {
    work[static_cast<size_t>(StreamOf(r.id))].push_back(r.id);
  }
  const Check verify = [&](uint32_t stmt, const Chunk& chunk) {
    auto it = digest_of.find(stmt);
    return it != digest_of.end() && it->second == ChunkDigest(chunk, true)
               ? std::string()
               : StrFormat("wrong result for statement %u", stmt);
  };
  LayerAcc acc;
  EntryPass(
      work, config_.seconds / 2,
      [&](int, uint64_t id) {
        const uint32_t stmt = stmt_of(StreamOf(id), IndexOf(id));
        return QueryEntry(db_.get(), stmt, pool.statements[stmt]);
      },
      verify,
      [&](uint32_t stmt) {
        auto it = optimize_of.find(stmt);
        return it == optimize_of.end() ? 0.0 : it->second;
      },
      &acc);
  ReportLayers(before, after, wire_reads, solo, acc);
}

// --- htap_postings ------------------------------------------------------

/// Per-ledger hsl totals and line counts of one report result.
struct LedgerTotals {
  std::map<std::string, std::pair<int64_t, int64_t>> by_ledger;
  bool ok = false;
};

LedgerTotals ParseReport(const Chunk& chunk) {
  LedgerTotals out;
  if (chunk.NumColumns() < 3) return out;
  const vdm::ColumnData& ledger = chunk.columns[0];
  const vdm::ColumnData& total = chunk.columns[1];
  const vdm::ColumnData& lines = chunk.columns[2];
  if (!total.type().IsIntegerBacked() || !lines.type().IsIntegerBacked()) {
    return out;
  }
  for (size_t r = 0; r < chunk.NumRows(); ++r) {
    out.by_ledger[ledger.StringAt(r)] = {total.ints()[r], lines.ints()[r]};
  }
  out.ok = true;
  return out;
}

void Run::Htap() {
  if (Status st = SetUp(Data::kS4); !st.ok()) {
    Fail("setup: " + st.ToString());
    return;
  }
  const std::vector<std::string> reports =
      MakeReports(kPoolSeed, kView, ViewColumns(db_.get()), kReports);
  std::vector<Solo> solo = SoloRun(reports);
  std::vector<LedgerTotals> expected;
  for (Solo& s : solo) {
    expected.push_back(s.ok ? ParseReport(s.result) : LedgerTotals{});
    if (!expected.back().ok) {
      Fail("report precompute failed: " + s.error);
      return;
    }
    s.result = Chunk();
  }
  auto count_rows = [&] {
    vdm::Result<Chunk> r = db_->Query("select count(*) from acdoca");
    return r.ok() && r->NumRows() == 1 ? r->columns[0].ints()[0] : -1;
  };
  const int64_t base_rows = count_rows();
  const vdm::Table* acdoca = db_->storage().FindTable("acdoca");

  // Postings are balanced, so every total is unchanged and every line
  // count grew by an even number; a torn snapshot breaks one of them.
  const Check check = [&](uint32_t report, const Chunk& chunk) {
    const LedgerTotals got = ParseReport(chunk);
    bool ok = got.ok &&
              got.by_ledger.size() == expected[report].by_ledger.size();
    for (const auto& [ledger, want] : expected[report].by_ledger) {
      auto it = got.by_ledger.find(ledger);
      if (!ok || it == got.by_ledger.end() || it->second.first != want.first ||
          it->second.second < want.second ||
          (it->second.second - want.second) % 2 != 0) {
        ok = false;
        break;
      }
    }
    return ok ? std::string()
              : StrFormat("report %u: totals changed (torn snapshot)", report);
  };

  const bool trace = config_.trace;
  const int readers = conns_ - 1;
  const Counters before = Snap();
  // Two load threads, the readers' event loop and the writer's, over
  // readers + 1 connections.
  if (!CheckCap(2, readers + 1)) return;
  Conns reader_conns, writer_conn;
  Status st = reader_conns.Open(server_->port(), readers);
  if (st.ok()) st = writer_conn.Open(server_->port(), 1);
  if (!st.ok()) {
    Fail("htap_postings: connection setup: " + st.ToString());
    return;
  }

  // Readers: closed loop, one request in flight per connection. The
  // writer: balanced postings, open loop, the four frames of one posting
  // pipelined at its scheduled time, on the calling thread meanwhile.
  std::vector<Read> by_seq;
  OpenResult read_res, write_res;
  const int64_t start = NowNs();
  RunThreads(
      1,
      [&](int) {
        read_res = RunLoop(
            reader_conns.raw, LoopShape{0, 1}, config_.seconds, 30.0,
            ClosedMaker(readers, trace,
                        [&](int c, uint64_t k) {
                          const auto stmt = static_cast<uint32_t>(
                              ReportRequest(config_.seed, c, k,
                                            reports.size()));
                          return QueryRequest(ReadId(c, k), stmt,
                                              reports[stmt]);
                        }),
            [&](const OpenRequest& req, size_t,
                const std::vector<uint8_t>& p) {
              return CheckReply(&by_seq, req, p, check, false);
            });
      },
      [&] {
        write_res = RunLoop(
            writer_conn.raw, LoopShape{kPostingsPerSecond, 0},
            config_.seconds, 10.0,
            [&](uint64_t k, int) {
              const Posting p = MakePosting(config_.seed, kWireBelnr, k);
              OpenRequest req;
              req.id = kWriteIdBit | k;
              req.frames = {vdm::EncodeEmpty(MsgType::kBegin),
                            vdm::EncodeQuery(p.insert_debit),
                            vdm::EncodeQuery(p.insert_credit),
                            vdm::EncodeEmpty(MsgType::kCommit)};
              return req;
            },
            [&](const OpenRequest&, size_t frame,
                const std::vector<uint8_t>& p) {
              if (frame == 1 || frame == 2) return DecodeReply(p).ok();
              if (frame == 3 && acdoca != nullptr) {
                RaiseTo(&delta_rows_max_, acdoca->NumDeltaRows());
              }
              return IsAck(p);
            });
      });
  const double run_s = static_cast<double>(NowNs() - start) / 1e9;
  reader_conns.Close();
  writer_conn.Close();
  const std::vector<Read> wire_reads =
      CollectReads(read_res, std::move(by_seq), "htap_postings readers");

  if (!write_res.error.empty()) Fail("htap writer: " + write_res.error);
  for (int64_t i = 0; i < write_res.unanswered; ++i) {
    Fail("unanswered posting");
  }
  lag_ms_.insert(lag_ms_.end(), write_res.lag_ms.begin(),
                 write_res.lag_ms.end());
  SpanBuffer* spans = trace ? NewBuffer() : nullptr;
  std::vector<double> write_ms;
  int64_t posted = 0;
  for (const OpenResult::Done& d : write_res.done) {
    tally_.Attempt();
    if (!d.ok) {
      Fail("posting failed");
      continue;
    }
    ++posted;
    write_ms.push_back(d.latency_ms);
    if (spans != nullptr) {
      const auto due = static_cast<int64_t>(d.due_s * 1e9);
      const auto done = due + static_cast<int64_t>(d.latency_ms * 1e6);
      const int64_t root = spans->Add("posting", due, done, -1, d.id);
      spans->Add("client.call", done - static_cast<int64_t>(d.send_ms * 1e6),
                 done, root, d.id);
      wire_request_ns_ += done - due;
    }
  }
  E2e("throughput_qps", UpperQuartile(WindowQps(wire_reads, run_s)), "1/s");
  ReportLatency(wire_reads);
  ReportLatency("write_", write_ms);
  const Counters after = Snap();

  auto check_rows = [&] {
    const int64_t rows = count_rows();
    if (rows != base_rows + 2 * posted) {
      Fail(StrFormat("acdoca has %lld rows, expected %lld + 2 x %lld",
                     static_cast<long long>(rows),
                     static_cast<long long>(base_rows),
                     static_cast<long long>(posted)));
    }
  };
  check_rows();
  if (!trace) return;
  for (const auto& b : buffers_) wire_record_ns_ += b->record_ns();

  std::vector<std::vector<uint64_t>> work(static_cast<size_t>(readers));
  for (const Read& r : wire_reads) {
    work[static_cast<size_t>(StreamOf(r.id))].push_back(r.id);
  }
  const double replay_s = config_.seconds / 2;
  LayerAcc acc;
  EntryPass(
      work, replay_s,
      [&](int, uint64_t id) {
        const auto stmt = static_cast<uint32_t>(ReportRequest(
            config_.seed, StreamOf(id), IndexOf(id), reports.size()));
        return QueryEntry(db_.get(), stmt, reports[stmt]);
      },
      check,
      [&](uint32_t stmt) {
        return static_cast<double>(solo[stmt].optimize_ns);
      },
      &acc,
      [&](LayerAcc* writer_acc) {
        // The same posting rate in process, through ExecuteSession.
        SpanBuffer* spans = NewBuffer();
        const int64_t t0 = NowNs();
        for (uint64_t k = 0;; ++k) {
          const int64_t due =
              t0 + static_cast<int64_t>(static_cast<double>(k) /
                                        kPostingsPerSecond * 1e9);
          if (static_cast<double>(due - t0) / 1e9 >= replay_s) break;
          std::this_thread::sleep_until(
              Clock::time_point(std::chrono::nanoseconds(due)));
          lag_ms_.push_back(Ms(NowNs() - due));
          tally_.Attempt();
          if (PostInProcess(
                  MakePosting(config_.seed, kEntryBelnr, k),
                  kWriteIdBit | k, spans, writer_acc)) {
            ++posted;
          }
        }
      });
  check_rows();
  ReportLayers(before, after, wire_reads, solo, acc);
}

// --- run ---------------------------------------------------------------

RunOutcome Run::Execute() {
  out_.header = {
      {"workload", config_.workload},
      {"seed", std::to_string(config_.seed)},
      {"seconds", StrFormat("%g", config_.seconds)},
      {"trace", config_.trace ? "1" : "0"},
      {"nproc", std::to_string(config_.nproc)},
      {"connections", std::to_string(conns_)},
      {"simd", vdm::kernels::SimdEnabled()    ? "avx2"
               : vdm::kernels::SimdCompiled() ? "scalar (avx2 not usable)"
                                              : "scalar"},
      {"tpch_scale", StrFormat("%g", kTpchScale)},
      {"s4_acdoca_rows", std::to_string(kAcdocaRows)},
      {"paging_open_qps", StrFormat("%g", kPagingOpenQps)},
      {"postings_per_s", StrFormat("%g", kPostingsPerSecond)},
      {"merge_threshold_rows", std::to_string(kMergeThresholdRows)},
      {"adhoc_pool",
       StrFormat("%zu statements, zipf %g", kAdhocPoolSize, kAdhocZipf)},
  };
  if (config_.workload == "paging") {
    Paging();
  } else if (config_.workload == "vdm_adhoc") {
    Adhoc();
  } else {
    Htap();
  }
  server_.reset();

  const Tail lag = TailOf(Sorted(lag_ms_));
  if (out_.valid && lag.valid && lag.value > kMaxLagMs) {
    out_.valid = false;
    out_.invalid_reason = StrFormat(
        "generator fell behind: lag p%.2f %.3f ms exceeds %.1f ms",
        lag.pct * 100, lag.value, kMaxLagMs);
  }
  Note(StrFormat("generator lag: %zu samples, p%.2f %.4f ms (bound %.1f ms)",
                 lag.samples, lag.pct * 100, lag.value, kMaxLagMs));
  E2e("setup_s", setup_s_, "s");
  E2e("peak_rss_mb", PeakRssMb(), "MB");
  out_.attempted = tally_.attempted();
  out_.failed = tally_.failed();
  out_.correct = out_.failed == 0 && out_.attempted > 0;
  E2e("failed_frac",
      out_.attempted > 0 ? static_cast<double>(out_.failed) /
                               static_cast<double>(out_.attempted)
                         : 1,
      "frac");
  for (const auto& [why, n] : tally_.reasons()) {
    Note(StrFormat("failure x%lld: %s", static_cast<long long>(n),
                   why.c_str()));
  }
  if (config_.trace) {
    // Read tails and write latencies swing too much between runs on a
    // shared host to carry a bound, so they are reported per layer.
    for (const Metric& m : out_.end_to_end) {
      if (m.name == "p90_ms" || m.name == "p99_ms" ||
          m.name.rfind("write_", 0) == 0) {
        out_.per_layer.push_back(m);
      }
    }
    std::vector<Span> spans;
    for (const auto& b : buffers_) AppendSpans(b->spans(), &spans);
    for (const auto& [name, t] : TotalsByName(spans, names_)) {
      Note(StrFormat("span %-24s n=%-8llu total %11.3f ms  self %11.3f ms",
                     name.c_str(), static_cast<unsigned long long>(t.count),
                     Ms(t.total_ns), Ms(t.self_ns)));
    }
    if (!config_.out_dir.empty()) {
      const std::string path =
          StrFormat("%s/spans_%s_%llu.tsv", config_.out_dir.c_str(),
                    config_.workload.c_str(),
                    static_cast<unsigned long long>(config_.seed));
      if (WriteSpans(path, spans, names_, kMaxWrittenSpans)) {
        Note(StrFormat("spans written to %s (%zu of %zu)", path.c_str(),
                       std::min(kMaxWrittenSpans, spans.size()),
                       spans.size()));
      }
    }
  }
  db_.reset();
  return std::move(out_);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"paging", "vdm_adhoc",
                                                 "htap_postings"};
  return names;
}

RunOutcome RunWorkload(const RunConfig& config) {
  Run run(config);
  return run.Execute();
}

}  // namespace perfbench
