// perfbench: drives ode::Session in a closed loop and prints one JSON
// result line. See perfbench/README.md for the workloads, the metrics and
// what each per-layer number is expected to move.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--store-dir <dir>] [--spans-out <file>]
//
// --trace 0 prints the end-to-end metrics of one untraced window. Its
// times are given at a reference host speed: the benchmark times a fixed
// reference op next to the program's work and scales by how slow that op
// ran (see "Host speed" below and in perfbench/README.md).
// --trace 1 alternates untraced and traced rounds (paired, order swapped
// every pair) and prints the per-layer ledger: counts from the untraced
// rounds, span times from the traced ones, and the tracing overhead as
// the median of the paired throughput differences.
#include <fcntl.h>
#include <malloc.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "odepp/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ode::Session;
using ode::Status;

// ------------------------------------------------------------ arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string store_dir = ".";
  std::string spans_out;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;
/// Objects created (and triggers activated) per populate transaction.
constexpr uint32_t kPopulateBatch = 256;

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--store-dir") a.store_dir = v;
    else if (flag == "--spans-out") a.spans_out = v;
    else Die("unknown flag " + flag);
  }
  if (a.workload.empty()) Die("--workload is required");
  if (a.seconds <= 0) Die("--seconds must be positive");
  return a;
}

// ---------------------------------------------------------- statistics

template <typename T>
double Percentile(std::vector<T>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method); a single value is its own quartiles.
std::array<double, 3> Quartiles(std::vector<double> v) {
  if (v.empty()) return {0, 0, 0};
  if (v.size() == 1) return {v[0], v[0], v[0]};
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  std::array<double, 3> q;
  for (long i = 1; i <= 3; ++i) {
    long j = std::clamp(i * m / 4, 1L, ld - 1);
    const double delta = static_cast<double>(i * m - j * 4);
    q[i - 1] = (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
  }
  return q;
}

// ----------------------------------------------------------- host speed
//
// The host this benchmark runs on is shared: its speed swings by up to
// 1.7x over minutes and by 1.5x within a second, on the program and on a
// plain CPU loop alike, with no CPU steal to account for it. So the
// bounded figures are scaled to a reference host speed: client 0 times a
// small fixed reference op every kRefEveryNs, and a time measured while
// the median reference op took `ref` us is multiplied by
// kRefNominalUs / ref, per quarter-second round. Sampling often with a small op tracks the host's speed far
// better than sampling seldom with a large one. The unscaled figures are
// in the per-layer ledger. Set-up time is not scaled: the reference op
// timed during populate did not follow it (see README, "Host speed").

/// Iterations of the reference op's loop.
constexpr int kRefIters = 100;
/// The reference op's time at the reference host speed: a round figure
/// just under the fastest window median seen on the 4-vCPU Xeon VM the
/// benchmark was tuned on, so that scaled and unscaled figures are close
/// when that host is quiet.
constexpr double kRefNominalUs = 10;
/// How often the window's client 0 times the reference op (about 1% of
/// its time).
constexpr uint64_t kRefEveryNs = 1'000'000;

std::atomic<uint64_t> ref_sink{0};

/// The reference op: single-threaded work shaped like a transaction's
/// (small allocations, hash lookups, byte copies) that touches nothing of
/// the program. Returns its time in us.
double RefOpUs() {
  const uint64_t t0 = NowNs();
  std::unordered_map<uint32_t, std::string> map;
  uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (int i = 0; i < kRefIters; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::string& v = map[static_cast<uint32_t>(x >> 33) % 1024];
    v.assign(24 + (x >> 60), static_cast<char>('a' + (x & 15)));
    std::vector<uint64_t> tmp(8, x);
    sum += tmp[3] + v.size();
  }
  ref_sink.fetch_add(sum, std::memory_order_relaxed);
  return (NowNs() - t0) / 1e3;
}

/// Reference-op samples taken over one stretch of work, and the time the
/// samples themselves took (to be taken off the stretch's time).
struct HostSpeed {
  std::vector<double> ref_us;
  uint64_t spent_ns = 0;

  void Sample() {
    const uint64_t t0 = NowNs();
    ref_us.push_back(RefOpUs());
    spent_ns += NowNs() - t0;
  }
  /// How many times slower than the reference speed the host ran
  /// (`fallback` when there is no sample).
  double Slowness(double fallback = 1) const {
    return ref_us.empty() ? fallback : Median(ref_us) / kRefNominalUs;
  }
};

// -------------------------------------------------------- probe points

/// Program counters read from outside at round boundaries: metric
/// registry counters and histograms, storage stats, and the WAL size.
enum Probe {
  kPosts, kMoves, kFires, kMaskEvals, kStateHits, kStateMisses,
  kLookupHits, kLookupMisses, kWritebacks, kCommits, kAborts,
  kLockWaitNs, kLockConflicts, kDeadlocks, kLockTimeouts, kFsyncs,
  kSpansRecorded, kShed, kRetriesExhausted,
  kPostN, kPostSum, kActN0, kActSum0, kActN1, kActSum1, kActN2, kActSum2,
  kActN3, kActSum3, kReadN, kReadSum, kFsyncN, kFsyncSum, kAppendN,
  kAppendSum, kLeaderN, kLeaderSum, kBatchN, kBatchSum,
  kPageReads, kPageWrites, kBufHits, kBufMisses, kWalRecords, kObjReads,
  kObjWrites, kWalBytes,
  kProbeCount
};

using Probes = std::array<double, kProbeCount>;

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

/// Resident memory of the process now, from /proc/self/statm.
double RssMb() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  statm >> size >> resident;
  return resident * static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1 << 20);
}

Probes Take(Session* s, const std::string& wal_path) {
  static const std::pair<Probe, const char*> kCounters[] = {
      {kPosts, "ode_trigger_posts_total"},
      {kMoves, "ode_trigger_fsm_moves_total"},
      {kFires, "ode_trigger_fires_total"},
      {kMaskEvals, "ode_trigger_mask_evals_total"},
      {kStateHits, "ode_trigger_state_cache_hits_total"},
      {kStateMisses, "ode_trigger_state_cache_misses_total"},
      {kLookupHits, "ode_trigger_lookup_cache_hits_total"},
      {kLookupMisses, "ode_trigger_lookup_cache_misses_total"},
      {kWritebacks, "ode_trigger_state_writebacks_total"},
      {kCommits, "ode_txn_commits_total"},
      {kAborts, "ode_txn_aborts_total"},
      {kLockWaitNs, "ode_lock_wait_ns_total"},
      {kLockConflicts, "ode_lock_conflicts_total"},
      {kDeadlocks, "ode_lock_deadlocks_total"},
      {kLockTimeouts, "ode_lock_timeouts_total"},
      {kFsyncs, "ode_commit_fsyncs_total"},
      {kSpansRecorded, "ode_trace_spans_recorded_total"},
      {kShed, "ode_trigger_actions_shed_total"},
      {kRetriesExhausted, "ode_action_retries_exhausted_total"},
  };
  static const std::pair<Probe, const char*> kHistograms[] = {
      {kPostN, "ode_trigger_post_latency_ns"},
      {kActN0, "ode_trigger_action_latency_ns_immediate"},
      {kActN1, "ode_trigger_action_latency_ns_deferred"},
      {kActN2, "ode_trigger_action_latency_ns_dependent"},
      {kActN3, "ode_trigger_action_latency_ns_independent"},
      {kReadN, "ode_storage_read_latency_ns"},
      {kFsyncN, "ode_wal_fsync_latency_ns"},
      {kAppendN, "ode_wal_append_latency_ns"},
      {kLeaderN, "ode_commit_leader_wait_latency_ns"},
      {kBatchN, "ode_group_commit_batch_size"},
  };
  Probes p{};
  const ode::MetricsSnapshot snap = s->MetricsSnapshot();
  for (const auto& [slot, name] : kCounters) {
    p[slot] = static_cast<double>(snap.CounterValue(name));
  }
  for (const auto& [slot, name] : kHistograms) {
    const ode::HistogramData h = snap.HistogramValue(name);
    p[slot] = static_cast<double>(h.count);
    p[slot + 1] = static_cast<double>(h.sum);  // the *Sum slot follows
  }
  const ode::StorageStats st = s->db()->store()->stats();
  p[kPageReads] = st.page_reads;
  p[kPageWrites] = st.page_writes;
  p[kBufHits] = st.buffer_hits;
  p[kBufMisses] = st.buffer_misses;
  p[kWalRecords] = st.wal_records;
  p[kObjReads] = st.object_reads;
  p[kObjWrites] = st.object_writes;
  p[kWalBytes] = wal_path.empty() ? 0 : FileBytes(wal_path);
  return p;
}

// -------------------------------------------------------------- clients

enum Tally { kCommitted, kIntended, kFailed, kTallies };

struct Client {
  int id = 0;
  Rng rng{0};
  Model model;
  uint64_t next_seq = 0;
  // Per round: latencies (ns, saturating at ~4.3 s) of untraced ops that
  // did not fail, and tallies.
  std::vector<std::vector<uint32_t>> write_ns, read_ns;
  std::vector<std::array<uint64_t, kTallies>> rounds;
  std::vector<Span> spans;
  std::vector<std::string> errors;  // first few failures, verbatim
  uint64_t wrong_reads = 0;
  uint64_t attempted = 0, failed = 0;  // warm-up and window
};

uint64_t ClientSeed(uint64_t seed, int client) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x1000 + client;
}

/// Executes one op, folds it into the model, and returns its outcome.
Outcome Step(Workload* wl, Session* s, Client* c, std::vector<Span>* spans,
             uint64_t* ns, bool* read_only) {
  const Op op = wl->Next(c->id, c->rng);
  const uint64_t seq = (static_cast<uint64_t>(c->id) << 48) | c->next_seq++;
  const uint64_t start = NowNs();
  ExecResult r = wl->Execute(s, op, seq, spans);
  *ns = NowNs() - start;
  *read_only = op.read_only;
  wl->Apply(op, r.outcome, &c->model);
  ++c->attempted;
  if (r.outcome == Outcome::kFailed) {
    ++c->failed;
    if (c->errors.size() < 5) c->errors.push_back(r.error);
  }
  if (!r.wrong.empty()) {
    ++c->wrong_reads;
    if (c->errors.size() < 5) c->errors.push_back(r.wrong);
  }
  return r.outcome;
}

// ---------------------------------------------------------------- setup

struct SetupTimes {
  double freeze = 0, open = 0, populate = 0, warmup = 0;
  double total() const { return freeze + open + populate + warmup; }
};

double Secs(uint64_t from_ns) { return (NowNs() - from_ns) / 1e9; }

void RemoveStore(const std::string& path) {
  for (const char* suffix : {"", ".wal", ".flight.json"}) {
    std::remove((path + suffix).c_str());
  }
}

uint32_t WarmupOps(const Workload& wl) {
  return wl.storage() == ode::StorageKind::kMainMemory ? 2000 : 300;
}

struct Store {
  std::unique_ptr<ode::Schema> schema;
  std::unique_ptr<Session> session;
  std::string path;  // empty for main memory
  std::vector<Client> clients;
  Probes at_warmup{};  // program counters when the warm-up began
};

/// Freeze, open, populate + activate, warm up. Returns the store with
/// its clients positioned just after the warm-up ops.
Store Setup(Workload* wl, const Args& args, int rep, SetupTimes* t) {
  Store st;
  if (wl->storage() == ode::StorageKind::kDisk) {
    st.path = args.store_dir + "/" + wl->name() + "-" +
              std::to_string(::getpid()) + "-" + std::to_string(rep) + ".db";
    RemoveStore(st.path);
  }
  uint64_t t0 = NowNs();
  st.schema = std::make_unique<ode::Schema>();
  wl->Declare(st.schema.get());
  Status fst = st.schema->Freeze();
  if (!fst.ok()) Die("Schema::Freeze: " + fst.ToString());
  t->freeze = Secs(t0);

  t0 = NowNs();
  auto opened = Session::Open(wl->storage(), st.path, st.schema.get());
  if (!opened.ok()) Die("Session::Open: " + opened.status().ToString());
  st.session = std::move(opened).value();
  t->open = Secs(t0);

  t0 = NowNs();
  wl->ResetObjects();
  const uint32_t n = wl->objects();
  for (uint32_t first = 0; first < n; first += kPopulateBatch) {
    const uint32_t last = std::min(n, first + kPopulateBatch);
    Status pst = st.session->WithTransaction([&](ode::Transaction* txn) {
      for (uint32_t i = first; i < last; ++i) {
        ODE_RETURN_NOT_OK(wl->Create(st.session.get(), txn, i));
      }
      return Status::OK();
    });
    if (!pst.ok()) Die("populate: " + pst.ToString());
  }
  t->populate = Secs(t0);

  t0 = NowNs();
  st.at_warmup =
      Take(st.session.get(), st.path.empty() ? "" : st.path + ".wal");
  st.clients.resize(wl->clients());
  for (int c = 0; c < wl->clients(); ++c) {
    st.clients[c].id = c;
    st.clients[c].rng = Rng(ClientSeed(args.seed, c));
    st.clients[c].model = wl->NewModel();
  }
  std::vector<std::thread> threads;
  for (Client& c : st.clients) {
    threads.emplace_back([&, cp = &c] {
      uint64_t ns;
      bool ro;
      for (uint32_t i = 0; i < WarmupOps(*wl); ++i) {
        Step(wl, st.session.get(), cp, nullptr, &ns, &ro);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  t->warmup = Secs(t0);
  return st;
}

// --------------------------------------------------------------- window

/// The window's op at which `rss_mb` is read. A fixed amount of work, not
/// the end of the window: the program's memory grows with the number of
/// transactions run, and a time window would make it follow host speed.
constexpr uint64_t kRssAtOps = 50000;

struct Window {
  std::vector<bool> traced;        // per round
  std::vector<double> seconds;     // per round
  std::vector<HostSpeed> host;     // per round, sampled by client 0
  std::vector<Probes> probes;      // at each round boundary (n + 1)
  std::atomic<uint64_t> ops{0};    // ops completed in the window
  double rss_mb = 0;               // read when `ops` reached kRssAtOps

  /// Every reference-op sample of the window, pooled.
  HostSpeed AllHost() const {
    HostSpeed all;
    for (const HostSpeed& h : host) {
      all.ref_us.insert(all.ref_us.end(), h.ref_us.begin(), h.ref_us.end());
      all.spent_ns += h.spent_ns;
    }
    return all;
  }
};

/// Untraced runs measure in quarter-second rounds, each scaled by its own
/// host speed; traced runs in paired half-second rounds, one
/// traced and one untraced per pair.
void Measure(Workload* wl, Store* st, const Args& args, Window* w) {
  w->traced.clear();
  w->seconds.clear();
  w->probes.clear();
  w->ops = 0;
  w->rss_mb = 0;
  w->host.clear();
  const int whole_seconds =
      std::max(1, static_cast<int>(std::lround(args.seconds)));
  const int n_rounds = 2 * whole_seconds * (args.trace ? 1 : 2);
  for (int r = 0; r < n_rounds; ++r) {
    // Pairs of rounds; the traced half goes second in even pairs and
    // first in odd ones, so drift does not bias the difference.
    const bool second = r % 2 == 1;
    const bool odd_pair = (r / 2) % 2 == 1;
    w->traced.push_back(args.trace && second != odd_pair);
  }
  const double round_s = args.seconds / n_rounds;
  w->host.resize(n_rounds);
  const std::string wal = st->path.empty() ? "" : st->path + ".wal";
  for (Client& c : st->clients) {
    c.rounds.assign(n_rounds, {});
    c.write_ns.assign(n_rounds, {});
    c.read_ns.assign(n_rounds, {});
  }

  std::atomic<int> round{-1};
  std::vector<std::thread> threads;
  for (Client& c : st->clients) {
    threads.emplace_back([&, cp = &c] {
      while (round.load(std::memory_order_acquire) < 0) {
        std::this_thread::yield();
      }
      uint64_t next_ref = 0;
      for (int r; (r = round.load(std::memory_order_acquire)) < n_rounds;) {
        if (cp->id == 0 && NowNs() >= next_ref) {
          w->host[r].Sample();
          next_ref = NowNs() + kRefEveryNs;
        }
        const bool traced = w->traced[r];
        uint64_t ns;
        bool read_only;
        const Outcome o = Step(wl, st->session.get(), cp,
                               traced ? &cp->spans : nullptr, &ns, &read_only);
        ++cp->rounds[r][o == Outcome::kCommitted ? kCommitted
                        : o == Outcome::kIntendedAbort ? kIntended
                                                       : kFailed];
        if (!traced && o != Outcome::kFailed) {
          (read_only ? cp->read_ns : cp->write_ns)[r].push_back(
              static_cast<uint32_t>(std::min<uint64_t>(ns, UINT32_MAX)));
        }
        if (w->ops.fetch_add(1, std::memory_order_relaxed) + 1 == kRssAtOps) {
          w->rss_mb = RssMb();
        }
      }
    });
  }
  w->probes.push_back(Take(st->session.get(), wal));
  const uint64_t start = NowNs();
  uint64_t prev = start;
  round.store(0, std::memory_order_release);
  for (int r = 0; r < n_rounds; ++r) {
    const uint64_t due = start + static_cast<uint64_t>((r + 1) * round_s * 1e9);
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<uint64_t>(20000, (due - NowNs()) / 1000 + 1)));
    }
    const uint64_t now = NowNs();
    w->seconds.push_back((now - prev) / 1e9);
    prev = now;
    round.store(r + 1, std::memory_order_release);
    w->probes.push_back(Take(st->session.get(), wal));
  }
  for (std::thread& th : threads) th.join();
}

// ------------------------------------------------------------- checking

struct CheckResult {
  std::vector<std::string> mismatches;
  uint64_t user_bytes = 0;
  int64_t missing_firings = 0;  // detached firings the store never shows
};

CheckResult Check(Workload* wl, Session* s, const std::vector<Expect>& want) {
  CheckResult out;
  const uint32_t n = wl->objects();
  for (uint32_t first = 0; first < n; first += 512) {
    Status st = s->WithTransaction([&](ode::Transaction* txn) {
      for (uint32_t i = first; i < std::min(n, first + 512); ++i) {
        Expect got;
        size_t bytes = 0;
        ODE_RETURN_NOT_OK(wl->Read(s, txn, i, &got, &bytes));
        out.user_bytes += bytes;
        std::string diff =
            wl->Compare(i, want[i], got, &out.missing_firings);
        if (!diff.empty() && out.mismatches.size() < 10) {
          out.mismatches.push_back(diff);
        }
      }
      return Status::OK();
    });
    if (!st.ok()) out.mismatches.push_back("read failed: " + st.ToString());
  }
  return out;
}

std::vector<Expect> Merge(const Workload& wl, const std::vector<Client>& cs) {
  std::vector<Expect> all = wl.initial();
  for (const Client& c : cs) {
    for (size_t i = 0; i < all.size(); ++i) {
      const Expect& e = c.model.objects[i];
      all[i].value += e.value;
      for (size_t k = 0; k < e.fires.size(); ++k) all[i].fires[k] += e.fires[k];
      all[i].uncertain += e.uncertain;
    }
  }
  return all;
}

/// The checker must accept the first object's stored state as its own
/// expectation, and reject that expectation with one more unit of value
/// or one more firing of any trigger. An extra detached firing shows as
/// one the store is missing. (The state itself is checked by Check.)
bool CheckerSelfTest(const Workload& wl, const Expect& got0) {
  auto rejects = [&](const Expect& e) {
    int64_t missing = 0;
    return !wl.Compare(0, e, got0, &missing).empty() || missing > 0;
  };
  if (rejects(got0)) return false;
  Expect wrong = got0;
  ++wrong.value;
  if (!rejects(wrong)) return false;
  for (size_t k = 0; k < got0.fires.size(); ++k) {
    wrong = got0;
    ++wrong.fires[k];
    if (!rejects(wrong)) return false;
  }
  return true;
}

// ----------------------------------------------------------- provenance

std::string FsType(const std::string& dir) {
  struct statfs sf;
  if (::statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794C7630: return "overlayfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

/// Timings of Debug, sanitizer or lock-rank-checking builds describe a
/// different program; refuse them.
std::string BuildRefusal() {
#if !defined(NDEBUG)
  return "assertions are on (not an optimized build)";
#elif ODE_LOCK_RANK_CHECKS
  return "built with ODE_LOCK_RANK_CHECKS";
#elif PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#else
  return "";
#endif
}

std::string Env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "unknown";
}

uint64_t StreamDigest(Workload* wl, uint64_t seed) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (int c = 0; c < wl->clients(); ++c) {
    Rng rng(ClientSeed(seed, c));
    for (int i = 0; i < 4096; ++i) {
      const Op op = wl->Next(c, rng);
      mix(op.read_only);
      mix(op.calls);
      for (int k = 0; k < op.calls; ++k) {
        mix(op.obj[k]);
        mix(op.method[k]);
        mix(static_cast<uint64_t>(op.arg[k]));
      }
    }
  }
  return h;
}

// --------------------------------------------------------------- output

struct Metric {
  double value;
  const char* unit;
};

std::string Json(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, metric] : m) {
    if (out.size() > 1) out += ", ";
    std::snprintf(buf, sizeof buf, "%.9g", metric.value);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  return out + "}";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

void WriteSpans(const std::string& path, const Args& args,
                const std::vector<Client>& clients) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write span file " + path);
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"clock\": "
               "\"steady_clock ns\", \"parent_of_every_child\": \"txn\"}\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed));
  for (const Client& c : clients) {
    for (const Span& sp : c.spans) {
      std::fprintf(f,
                   "{\"seq\": %llu, \"name\": \"%s\", \"parent\": %s, "
                   "\"start_ns\": %llu, \"dur_ns\": %llu}\n",
                   static_cast<unsigned long long>(sp.seq), SpanName(sp.kind),
                   sp.kind == SpanKind::kTxn ? "null" : "\"txn\"",
                   static_cast<unsigned long long>(sp.start_ns),
                   static_cast<unsigned long long>(sp.end_ns - sp.start_ns));
    }
  }
  std::fclose(f);
}

struct SpanStats {
  std::vector<uint64_t> by_kind[5];
  double sum_by_kind[5] = {};
  uint64_t overfull = 0;  // txns whose children cover more than the txn
};

SpanStats AnalyzeSpans(const std::vector<Client>& clients) {
  SpanStats s;
  for (const Client& c : clients) {
    uint64_t children = 0;
    for (const Span& sp : c.spans) {
      const uint64_t dur = sp.end_ns - sp.start_ns;
      const int k = static_cast<int>(sp.kind);
      s.by_kind[k].push_back(dur);
      s.sum_by_kind[k] += dur;
      if (sp.kind == SpanKind::kTxn) {
        if (children > dur) ++s.overfull;
        children = 0;
      } else {
        children += dur;
      }
    }
  }
  return s;
}

// ----------------------------------------------------------- quiet host

/// Mean latency (us) of 200 synchronous 4 KiB writes to a scratch file in
/// `dir`: how fast this host's disk syncs right now, apart from the
/// program. The mean, not the median, so that the stalls of tens of ms
/// another tenant's I/O causes count. Negative when the file cannot be
/// written.
double SyncWriteUs(const std::string& dir) {
  const std::string path =
      dir + "/syncprobe-" + std::to_string(::getpid()) + ".tmp";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_DSYNC, 0644);
  if (fd < 0) return -1;
  std::vector<double> us;
  char block[4096];
  std::memset(block, 'p', sizeof block);
  for (int i = 0; i < 200; ++i) {
    const uint64_t t0 = NowNs();
    if (::pwrite(fd, block, sizeof block, (i % 16) * sizeof block) !=
        static_cast<ssize_t>(sizeof block)) {
      us.clear();
      break;
    }
    us.push_back((NowNs() - t0) / 1e3);
  }
  ::close(fd);
  std::remove(path.c_str());
  if (us.empty()) return -1;
  double sum = 0;
  for (double u : us) sum += u;
  return sum / us.size();
}

/// Sync writes slower than this, on average, mean another tenant of the
/// host is using the disk: idle, the disk this benchmark was tuned on
/// syncs a 4 KiB write in 55-80 us on average; busy, in 100-600 us, with
/// single writes stalling for 10-25 ms.
constexpr double kQuietSyncUs = 120;
/// Longest a disk run waits, in all, for the disk to be quiet.
constexpr double kQuietWaitS = 30;

struct HostGate {
  double before_us = 0, after_us = 0, waited_s = 0;
  int windows = 0;
};

/// Polls SyncWriteUs once a second until the disk is quiet or the run's
/// wait budget is spent; returns the last reading.
double WaitForQuietDisk(const std::string& dir, HostGate* gate) {
  const uint64_t start = NowNs();
  const double spent = gate->waited_s;
  for (;;) {
    const double us = SyncWriteUs(dir);
    gate->waited_s = spent + Secs(start);
    if (us <= kQuietSyncUs || gate->waited_s >= kQuietWaitS) return us;
    std::this_thread::sleep_for(std::chrono::seconds(1));
  }
}

int Run(const Args& args) {
  const std::string refusal = BuildRefusal();
  if (!refusal.empty()) {
    std::fprintf(stderr, "perfbench: refusing to time this build: %s\n",
                 refusal.c_str());
    return 3;
  }
  std::unique_ptr<Workload> wl = MakeWorkload(args.workload);
  if (wl == nullptr) Die("unknown workload " + args.workload);
  wl->set_seed(args.seed);
  std::vector<std::string> failures;  // check failures: exit non-zero

  // Generator determinism: the same seed gives the same stream, another
  // seed a different one.
  const uint64_t digest = StreamDigest(wl.get(), args.seed);
  if (StreamDigest(wl.get(), args.seed) != digest) {
    failures.push_back("op stream is not a function of the seed");
  }
  if (StreamDigest(wl.get(), args.seed + 1) == digest) {
    failures.push_back("op stream ignores the seed");
  }

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"nproc\": %ld, "
      "\"clients\": %d, \"objects\": %u, \"compiler\": %s, \"build_type\": "
      "\"%s\", \"git_commit\": %s, \"source_digest\": %s, \"store_fs\": "
      "\"%s\", \"options\": \"Session::Options defaults\", "
      "\"stream_digest\": \"%016llx\"}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      ::sysconf(_SC_NPROCESSORS_ONLN), wl->clients(), wl->objects(),
      Quote(__VERSION__).c_str(), PERFBENCH_BUILD_TYPE,
      Quote(Env("PERFBENCH_GIT_COMMIT")).c_str(),
      Quote(Env("PERFBENCH_SOURCE_DIGEST")).c_str(),
      FsType(args.store_dir).c_str(),
      static_cast<unsigned long long>(digest));
  std::fflush(stdout);

  // Set up several times; keep the last store, report medians.
  std::vector<SetupTimes> setups;
  Store st;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    SetupTimes t;
    Store fresh = Setup(wl.get(), args, rep, &t);
    setups.push_back(t);
    if (rep + 1 < kSetupReps) {
      fresh.clients.clear();
      Status cst = fresh.session->Close();
      if (!cst.ok()) Die("Close: " + cst.ToString());
      fresh.session.reset();
      fresh.schema.reset();
      if (!fresh.path.empty()) RemoveStore(fresh.path);
      ::malloc_trim(0);  // so rss_mb does not count set-ups already gone
    } else {
      st = std::move(fresh);
    }
  }
  auto median_of = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return Median(v);
  };
  std::vector<double> totals;
  for (const SetupTimes& t : setups) totals.push_back(t.total());

  // Disk runs measure while the host's disk is quiet: they wait for it
  // (set-up time excludes the wait), and measure the window once more
  // if the disk turned busy while it ran.
  Window w;
  HostGate gate;
  const bool disk = wl->storage() == ode::StorageKind::kDisk;
  for (;;) {
    if (disk) gate.before_us = WaitForQuietDisk(args.store_dir, &gate);
    Measure(wl.get(), &st, args, &w);
    ++gate.windows;
    if (!disk) break;
    gate.after_us = SyncWriteUs(args.store_dir);
    if (gate.after_us <= kQuietSyncUs || gate.windows == 2 ||
        gate.waited_s >= kQuietWaitS) {
      break;
    }
  }
  const double rss_end_mb = RssMb();
  if (w.rss_mb == 0) {
    std::fprintf(stderr,
                 "perfbench: the window ended before op %llu: rss_mb is "
                 "read at its end instead\n",
                 static_cast<unsigned long long>(kRssAtOps));
    w.rss_mb = rss_end_mb;
  }

  // ---- tallies: failures over warm-up and window, ledger over the
  // untraced rounds
  uint64_t attempted_txns = 0, failed_txns = 0;
  for (const Client& c : st.clients) {
    attempted_txns += c.attempted;
    failed_txns += c.failed;
  }
  const std::string wal = disk ? st.path + ".wal" : "";
  const Probes since_warmup = [&] {
    Probes p = Take(st.session.get(), wal);
    for (int k = 0; k < kProbeCount; ++k) p[k] -= st.at_warmup[k];
    return p;
  }();
  // Each round's host slowness; the window's for a round without sample.
  const HostSpeed window_host = w.AllHost();
  const double window_slowness = window_host.Slowness();
  std::vector<double> slow;
  for (const HostSpeed& h : w.host) slow.push_back(h.Slowness(window_slowness));
  double untraced_s = 0;
  // The untraced rounds' time at the reference speed, less the clients'
  // share of the time client 0 spent timing the reference op.
  double untraced_ref_s = 0;
  Probes d{};  // program counters, summed over untraced rounds
  uint64_t untraced_txns = 0, untraced_commits = 0;
  std::vector<double> rates;  // committed txn/s of each untraced round
  for (size_t r = 0; r < w.traced.size(); ++r) {
    if (w.traced[r]) continue;
    untraced_s += w.seconds[r];
    untraced_ref_s += (w.seconds[r] - w.host[r].spent_ns / 1e9 /
                                          st.clients.size()) /
                      slow[r];
    for (int k = 0; k < kProbeCount; ++k) {
      d[k] += w.probes[r + 1][k] - w.probes[r][k];
    }
    uint64_t done = 0;
    for (const Client& c : st.clients) {
      untraced_txns += c.rounds[r][kCommitted] + c.rounds[r][kIntended] +
                       c.rounds[r][kFailed];
      done += c.rounds[r][kCommitted];
    }
    untraced_commits += done;
    rates.push_back(done / w.seconds[r]);
  }
  const Probes whole = [&] {
    Probes p{};
    for (int k = 0; k < kProbeCount; ++k) {
      p[k] = w.probes.back()[k] - w.probes.front()[k];
    }
    return p;
  }();

  // ---- output checks: live store, then (disk) after Close + reopen
  Session* s = st.session.get();
  uint64_t dead_letters = 0, quarantined = 0;
  if (auto dl = s->DeadLetters(); dl.ok()) dead_letters = dl->size();
  else failures.push_back("DeadLetters: " + dl.status().ToString());
  if (auto q = s->QuarantinedTriggers(); q.ok()) quarantined = q->size();
  else failures.push_back("QuarantinedTriggers: " + q.status().ToString());

  // Firings the program reports losing since the warm-up began: shed,
  // retries exhausted (each of which is dead-lettered). Detached actions
  // finish inside Commit/Abort, so a detached firing the store does not
  // show, beyond these, was dropped silently: the check fails.
  const double reported_lost = std::max<double>(
      dead_letters, since_warmup[kShed] + since_warmup[kRetriesExhausted]);
  auto check_missing = [&](const char* when, const CheckResult& r) {
    if (r.missing_firings > reported_lost) {
      failures.push_back(std::string(when) + ": " +
                         std::to_string(r.missing_firings) +
                         " detached firings missing from the store, but the "
                         "program reports " +
                         std::to_string(std::llround(reported_lost)) +
                         " lost");
    }
  };
  const std::vector<Expect> want = Merge(*wl, st.clients);
  CheckResult live = Check(wl.get(), s, want);
  for (const std::string& m : live.mismatches) failures.push_back("live " + m);
  check_missing("live", live);
  {
    Expect got0;
    size_t bytes;
    Status rst = s->WithTransaction([&](ode::Transaction* txn) {
      return wl->Read(s, txn, 0, &got0, &bytes);
    });
    if (!rst.ok() || !CheckerSelfTest(*wl, got0)) {
      failures.push_back("checker self-test: a wrong expectation passed");
    }
  }
  const uint64_t mm_store_bytes = s->db()->store()->stats().bytes;
  for (const Client& c : st.clients) {
    if (c.wrong_reads > 0) {
      failures.push_back("client " + std::to_string(c.id) + ": " +
                         std::to_string(c.wrong_reads) + " wrong reads");
    }
  }
  Status cst = s->Close();
  if (!cst.ok()) failures.push_back("Close: " + cst.ToString());
  st.session.reset();
  double space_amp = 0, db_bytes = 0;
  if (disk) {
    db_bytes = FileBytes(st.path) + FileBytes(wal);
    auto reopened = Session::Open(wl->storage(), st.path, st.schema.get());
    if (!reopened.ok()) {
      failures.push_back("reopen: " + reopened.status().ToString());
    } else {
      CheckResult again = Check(wl.get(), reopened->get(), want);
      for (const std::string& m : again.mismatches) {
        failures.push_back("after reopen " + m);
      }
      check_missing("after reopen", again);
      Status rc = (*reopened)->Close();
      if (!rc.ok()) failures.push_back("Close after reopen: " + rc.ToString());
    }
    RemoveStore(st.path);
  } else {
    db_bytes = static_cast<double>(mm_store_bytes);
  }
  if (live.user_bytes > 0) space_amp = db_bytes / live.user_bytes;

  // ---- end-to-end metrics: the untraced rounds of the window, pooled;
  // unscaled, and each latency scaled by its round's host slowness
  std::vector<uint32_t> write_ns, read_ns, write_ref_ns, read_ref_ns;
  std::vector<double> round_write_p99;  // diagnostic: each round's tail
  for (size_t r = 0; r < w.traced.size(); ++r) {
    if (w.traced[r]) continue;
    std::vector<uint32_t> round_writes;
    for (const Client& c : st.clients) {
      round_writes.insert(round_writes.end(), c.write_ns[r].begin(),
                          c.write_ns[r].end());
      read_ns.insert(read_ns.end(), c.read_ns[r].begin(), c.read_ns[r].end());
    }
    write_ns.insert(write_ns.end(), round_writes.begin(), round_writes.end());
    round_write_p99.push_back(Percentile(round_writes, 99) / 1e3);
    for (const Client& c : st.clients) {
      for (uint32_t ns : c.write_ns[r]) {
        write_ref_ns.push_back(static_cast<uint32_t>(ns / slow[r]));
      }
      for (uint32_t ns : c.read_ns[r]) {
        read_ref_ns.push_back(static_cast<uint32_t>(ns / slow[r]));
      }
    }
  }
  auto percentile_us = [&](std::vector<uint32_t>& v, double p,
                           const char* what) {
    if (p == 99 && v.size() < 1000) {
      failures.push_back(std::string(what) + " p99 has " +
                         std::to_string(v.size() / 100) +
                         " samples beyond it (need 10)");
    }
    return Percentile(v, p) / 1e3;
  };
  // Unscaled (per-layer ledger), and at the reference host speed.
  const double txn_per_s = untraced_commits / untraced_s;
  const double write_p50_us = percentile_us(write_ns, 50, "write");
  const double read_p50_us = percentile_us(read_ns, 50, "read");
  std::map<std::string, Metric> e2e;
  e2e["txn_per_s_at_ref"] = {untraced_commits / untraced_ref_s, "1/s"};
  e2e["write_p50_us_at_ref"] = {percentile_us(write_ref_ns, 50, "write"),
                                "us"};
  e2e["read_p50_us_at_ref"] = {percentile_us(read_ref_ns, 50, "read"), "us"};
  // The p99s follow the host's stalls more than the program (see README,
  // "Why the p99s are not bounded"), so they are reported but not
  // bounded: on the sizes line here and in the per-layer ledger.
  const double write_p99_us = percentile_us(write_ns, 99, "write");
  const double read_p99_us = percentile_us(read_ns, 99, "read");
  e2e["setup_s"] = {Median(totals), "s"};
  e2e["rss_mb"] = {w.rss_mb, "MB"};
  e2e["space_amp"] = {space_amp, "ratio"};

  const uint64_t attempted = attempted_txns + since_warmup[kFires];
  const uint64_t failed =
      failed_txns + static_cast<uint64_t>(reported_lost) + quarantined;
  const double error_share = attempted > 0 ? double(failed) / attempted : 0;

  // ---- per-layer ledger
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double txns = static_cast<double>(untraced_txns);
  std::map<std::string, Metric> layer;
  std::map<std::string, std::string> not_applicable;
  auto na = [&](const std::string& metric, const std::string& why) {
    auto it = layer.find(metric);
    layer[metric] = {0, it != layer.end() ? it->second.unit : "-"};
    not_applicable[metric] = why;
  };

  layer["trigger.posts_per_txn"] = {per(d[kPosts], txns), "count"};
  layer["trigger.moves_per_post"] = {per(d[kMoves], d[kPosts]), "count"};
  layer["trigger.fires_per_move"] = {per(d[kFires], d[kMoves]), "ratio"};
  layer["trigger.mask_evals_per_post"] = {per(d[kMaskEvals], d[kPosts]),
                                         "count"};
  layer["trigger.state_loads_per_txn"] = {per(d[kStateMisses], txns), "count"};
  layer["trigger.state_cache_hit_ratio"] = {
      per(d[kStateHits], d[kStateHits] + d[kStateMisses]), "ratio"};
  layer["trigger.lookup_cache_hit_ratio"] = {
      per(d[kLookupHits], d[kLookupHits] + d[kLookupMisses]), "ratio"};
  layer["trigger.post_us_mean"] = {per(d[kPostSum], d[kPostN]) / 1e3, "us"};
  layer["trigger.writebacks_per_txn"] = {per(d[kWritebacks], txns), "count"};
  const char* modes[] = {"immediate", "deferred", "dependent", "independent"};
  for (int m = 0; m < 4; ++m) {
    const std::string name = std::string("trigger.action_us_mean.") + modes[m];
    layer[name] = {per(d[kActSum0 + 2 * m], d[kActN0 + 2 * m]) / 1e3, "us"};
    if (d[kActN0 + 2 * m] == 0) {
      na(name, std::string("no ") + modes[m] +
                   " trigger fires in this workload");
    }
  }
  const double user_done = txns;
  const double system_txns =
      std::max(0.0, d[kCommits] + d[kAborts] - user_done);
  layer["txn.system_txns_per_txn"] = {per(system_txns, txns), "count"};
  layer["txn.aborts_per_txn"] = {per(d[kAborts], txns), "count"};
  layer["lock.wait_us_per_txn"] = {per(d[kLockWaitNs], txns) / 1e3, "us"};
  layer["lock.conflicts_per_txn"] = {per(d[kLockConflicts], txns), "count"};
  layer["lock.deadlocks_total"] = {whole[kDeadlocks], "count"};
  layer["lock.timeouts_total"] = {whole[kLockTimeouts], "count"};
  layer["storage.object_reads_per_txn"] = {per(d[kObjReads], txns), "count"};
  layer["storage.object_writes_per_txn"] = {per(d[kObjWrites], txns), "count"};
  layer["storage.buffer_hit_ratio"] = {
      per(d[kBufHits], d[kBufHits] + d[kBufMisses]), "ratio"};
  layer["storage.page_reads_per_txn"] = {per(d[kPageReads], txns), "count"};
  layer["storage.page_writes_per_txn"] = {per(d[kPageWrites], txns), "count"};
  layer["storage.read_us_mean"] = {per(d[kReadSum], d[kReadN]) / 1e3, "us"};
  layer["storage.wal_records_per_txn"] = {per(d[kWalRecords], txns), "count"};
  layer["storage.wal_bytes_per_txn"] = {per(d[kWalBytes], txns), "bytes"};
  layer["storage.fsyncs_per_commit"] = {per(d[kFsyncs], d[kCommits]), "count"};
  layer["storage.batch_size_mean"] = {per(d[kBatchSum], d[kBatchN]), "count"};
  layer["storage.fsync_us_mean"] = {per(d[kFsyncSum], d[kFsyncN]) / 1e3, "us"};
  layer["storage.wal_append_us_mean"] = {per(d[kAppendSum], d[kAppendN]) / 1e3,
                                         "us"};
  layer["storage.leader_wait_us_mean"] = {per(d[kLeaderSum], d[kLeaderN]) / 1e3,
                                          "us"};
  if (!disk) {
    for (const char* m :
         {"storage.buffer_hit_ratio", "storage.page_reads_per_txn",
          "storage.page_writes_per_txn", "storage.wal_records_per_txn",
          "storage.wal_bytes_per_txn", "storage.fsyncs_per_commit",
          "storage.batch_size_mean", "storage.fsync_us_mean",
          "storage.wal_append_us_mean", "storage.leader_wait_us_mean"}) {
      na(m, "main-memory store: no pages, buffer pool, WAL or fsync");
    }
    if (d[kReadN] == 0) {
      na("storage.read_us_mean", "main-memory store records no read latency");
    }
  }
  layer["common.spans_per_txn"] = {per(d[kSpansRecorded], txns), "count"};
  layer["setup.freeze_s"] = {median_of(&SetupTimes::freeze), "s"};
  layer["setup.open_s"] = {median_of(&SetupTimes::open), "s"};
  layer["setup.populate_s"] = {median_of(&SetupTimes::populate), "s"};
  layer["setup.warmup_s"] = {median_of(&SetupTimes::warmup), "s"};
  layer["bench.txn_per_s"] = {txn_per_s, "1/s"};
  layer["bench.write_p50_us"] = {write_p50_us, "us"};
  layer["bench.read_p50_us"] = {read_p50_us, "us"};
  layer["bench.ref_op_us"] = {Median(window_host.ref_us), "us"};
  layer["bench.error_share"] = {error_share, "ratio"};
  layer["bench.write_p99_us"] = {write_p99_us, "us"};
  layer["bench.read_p99_us"] = {read_p99_us, "us"};

  // Benchmark spans (traced rounds): the odepp and txn boundaries.
  SpanStats sp = AnalyzeSpans(st.clients);
  auto kind = [](SpanKind k) { return static_cast<int>(k); };
  const double txn_sum = sp.sum_by_kind[kind(SpanKind::kTxn)];
  auto p_us = [&](SpanKind k, double p) {
    return Percentile(sp.by_kind[kind(k)], p) / 1e3;
  };
  layer["odepp.invoke_us_p50"] = {p_us(SpanKind::kInvoke, 50), "us"};
  layer["odepp.invoke_us_p99"] = {p_us(SpanKind::kInvoke, 99), "us"};
  layer["odepp.invoke_share"] = {
      per(sp.sum_by_kind[kind(SpanKind::kInvoke)], txn_sum), "ratio"};
  layer["odepp.load_us_p50"] = {p_us(SpanKind::kLoad, 50), "us"};
  layer["odepp.load_us_p99"] = {p_us(SpanKind::kLoad, 99), "us"};
  layer["txn.begin_us_p50"] = {p_us(SpanKind::kBegin, 50), "us"};
  layer["txn.commit_us_p50"] = {p_us(SpanKind::kCommit, 50), "us"};
  layer["txn.commit_us_p99"] = {p_us(SpanKind::kCommit, 99), "us"};
  layer["txn.commit_share"] = {
      per(sp.sum_by_kind[kind(SpanKind::kCommit)], txn_sum), "ratio"};
  double children = 0;
  for (SpanKind k : {SpanKind::kBegin, SpanKind::kInvoke, SpanKind::kLoad,
                     SpanKind::kCommit}) {
    children += sp.sum_by_kind[kind(k)];
  }
  layer["bench.txn_self_share"] = {per(txn_sum - children, txn_sum), "ratio"};

  // Paired-round tracing overhead: median of per-pair drops in throughput
  // at the reference speed.
  std::vector<double> overheads;
  for (size_t r = 0; r + 1 < w.traced.size(); r += 2) {
    double tput[2] = {0, 0};
    for (size_t k = r; k < r + 2; ++k) {
      uint64_t c = 0;
      for (const Client& cl : st.clients) c += cl.rounds[k][kCommitted];
      tput[w.traced[k] ? 1 : 0] = c * slow[k] / w.seconds[k];
    }
    if (tput[0] > 0) overheads.push_back((tput[0] - tput[1]) / tput[0] * 100);
  }
  const double overhead = Median(overheads);
  const std::array<double, 3> oq = Quartiles(overheads);
  const double overhead_spread = oq[2] - oq[0];
  layer["bench.trace_overhead_pct"] = {overhead, "%"};

  // ---- plausibility guards
  if (args.trace) {
    if (sp.overfull > 0) {
      failures.push_back(std::to_string(sp.overfull) +
                         " txn spans shorter than their children");
    }
    if (overhead < -overhead_spread) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "trace overhead %.2f%% is below minus its spread "
                    "(%.2f points): a failed measurement, not a speed-up",
                    overhead, overhead_spread);
      failures.push_back(buf);
    }
    for (const char* name : {"odepp.invoke_us_p99", "odepp.load_us_p99",
                             "txn.commit_us_p99"}) {
      const SpanKind k = std::strstr(name, "invoke") ? SpanKind::kInvoke
                         : std::strstr(name, "load") ? SpanKind::kLoad
                                                     : SpanKind::kCommit;
      const size_t n = sp.by_kind[kind(k)].size();
      if (n == 0) {
        na(name, "no such call in this workload");
      } else if (n < 1000) {
        failures.push_back(std::string(name) + " rests on " +
                           std::to_string(n) + " samples (need 1000)");
      }
    }
  }
  for (const auto& [name, m] : layer) {
    if (std::string(m.unit) == "ratio" && name != "bench.trace_overhead_pct" &&
        (m.value < 0 || m.value > 1 || std::isnan(m.value))) {
      failures.push_back(name + " = " + std::to_string(m.value) +
                         " is outside [0, 1]");
    }
  }
  if (space_amp <= 0) failures.push_back("space_amp not measured");

  // ---- report
  if (args.trace && !args.spans_out.empty()) {
    WriteSpans(args.spans_out, args, st.clients);
  }
  std::printf("{\"failures\": {\"attempted\": %llu, \"failed\": %llu, "
              "\"error_share\": %.6g, \"failed_txns\": %llu, "
              "\"reported_lost_firings\": %.0f, \"missing_in_store\": "
              "%lld, \"dead_letters\": %llu, "
              "\"quarantined\": %llu, \"deadlocks\": %.0f, "
              "\"lock_timeouts\": %.0f, \"first_errors\": [",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), error_share,
              static_cast<unsigned long long>(failed_txns), reported_lost,
              static_cast<long long>(live.missing_firings),
              static_cast<unsigned long long>(dead_letters),
              static_cast<unsigned long long>(quarantined), whole[kDeadlocks],
              whole[kLockTimeouts]);
  bool first = true;
  for (const Client& c : st.clients) {
    for (const std::string& e : c.errors) {
      std::printf("%s%s", first ? "" : ", ", Quote(e).c_str());
      first = false;
    }
  }
  std::printf("]}}\n");
  auto list = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) {
      if (!out.empty()) out += ", ";
      out += std::to_string(std::lround(x));
    }
    return out;
  };
  std::printf("{\"sizes\": {\"store_bytes\": %.0f, \"user_bytes\": %llu, "
              "\"rss_end_mb\": %.1f, "
              "\"buffer_hit_ratio\": %.4f, \"samples\": {\"write\": %zu, "
              "\"read\": %zu}, \"write_p99_us\": %.1f, \"read_p99_us\": %.1f, "
              "\"untraced_s\": %.3f, \"round_txn_per_s\": [%s], "
              "\"round_write_p99_us\": [%s], \"ref_op_us\": %.1f, "
              "\"ref_op_samples\": %zu}}\n",
              db_bytes, static_cast<unsigned long long>(live.user_bytes),
              rss_end_mb, per(d[kBufHits], d[kBufHits] + d[kBufMisses]), write_ns.size(),
              read_ns.size(), write_p99_us, read_p99_us, untraced_s,
              list(rates).c_str(),
              list(round_write_p99).c_str(), Median(window_host.ref_us),
              window_host.ref_us.size());
  if (disk) {
    std::printf("{\"host\": {\"sync_write_us_before\": %.1f, "
                "\"sync_write_us_after\": %.1f, \"quiet_limit_us\": %.0f, "
                "\"waited_s\": %.1f, \"windows\": %d}}\n",
                gate.before_us, gate.after_us, kQuietSyncUs, gate.waited_s,
                gate.windows);
    if (gate.after_us > kQuietSyncUs) {
      std::fprintf(stderr,
                   "perfbench: the host's disk was busy (sync write %.0f us "
                   "after the window, quiet is <= %.0f us): disk figures of "
                   "this run are noisy\n",
                   gate.after_us, kQuietSyncUs);
    }
  }
  if (args.trace) {
    size_t spans = 0;
    for (const std::vector<uint64_t>& v : sp.by_kind) spans += v.size();
    std::printf("{\"trace\": {\"overhead_pairs\": %zu, "
                "\"overhead_spread_pct\": %.4f, \"spans\": %zu}}\n",
                overheads.size(), overhead_spread, spans);
    std::string na_json = "{";
    for (const auto& [m, why] : not_applicable) {
      if (na_json.size() > 1) na_json += ", ";
      na_json += Quote(m) + ": " + Quote(why);
    }
    std::printf("{\"not_applicable\": %s}}\n", na_json.c_str());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Json(args.trace ? layer : e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::Parse(argc, argv));
}
