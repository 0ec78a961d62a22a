#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace perfbench {

using ode::CouplingMode;
using ode::Decoder;
using ode::Encoder;
using ode::MaskEvalContext;
using ode::Oid;
using ode::PRef;
using ode::Result;
using ode::Session;
using ode::Status;
using ode::Transaction;
using ode::TriggerFireContext;

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kTxn: return "txn";
    case SpanKind::kBegin: return "begin";
    case SpanKind::kInvoke: return "invoke";
    case SpanKind::kLoad: return "load";
    case SpanKind::kCommit: return "commit";
  }
  return "?";
}

Zipf::Zipf(uint32_t n, double theta, uint64_t seed)
    : cdf_(n), key_of_rank_(n) {
  double sum = 0;
  for (uint32_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
  for (uint32_t i = 0; i < n; ++i) key_of_rank_[i] = i;
  Rng rng(seed ^ 0x5A17F00DULL);
  for (uint32_t i = n - 1; i > 0; --i) {
    std::swap(key_of_rank_[i], key_of_rank_[rng.Below(i + 1)]);
  }
}

uint32_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const size_t rank = std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                      cdf_.begin();
  return key_of_rank_[std::min(rank, cdf_.size() - 1)];
}

namespace {

/// Runs `fn` and, when `spans` is non-null, records it as one span.
template <typename F>
auto Timed(std::vector<Span>* spans, uint64_t seq, SpanKind kind, F&& fn) {
  if (spans == nullptr) return fn();
  const uint64_t start = NowNs();
  auto result = fn();
  spans->push_back(Span{seq, start, NowNs(), kind});
  return result;
}

Result<int64_t> EventArg(MaskEvalContext& ctx) {
  ODE_ASSIGN_OR_RETURN(auto args, ode::UnpackParams<int64_t>(
                                      ode::Slice(ctx.event_args())));
  return std::get<0>(args);
}

template <typename T>
size_t ImageBytes(const char* class_name, const T& value) {
  Encoder enc;
  enc.PutString(class_name);
  value.Encode(enc);
  return enc.buffer().size();
}

/// Picks `k` distinct indices from `draw()`.
template <typename Draw>
void Distinct(int k, Op* op, Draw draw) {
  for (int i = 0; i < k; ++i) {
    uint32_t pick;
    do {
      pick = draw();
    } while (std::find(op->obj.begin(), op->obj.begin() + i, pick) !=
             op->obj.begin() + i);
    op->obj[i] = pick;
  }
}

/// Begin, `body`, Commit, with spans. `body` returns the status of the
/// first failing call; kTransactionAborted means the transaction is gone.
template <typename Body>
ExecResult RunTxn(Session* s, uint64_t seq, std::vector<Span>* spans,
                  bool abort_intended, Body body) {
  const uint64_t start = spans != nullptr ? NowNs() : 0;
  ExecResult out;
  Result<Transaction*> begun =
      Timed(spans, seq, SpanKind::kBegin, [&] { return s->Begin(); });
  if (!begun.ok()) {
    out.outcome = Outcome::kFailed;
    out.error = begun.status().ToString();
    return out;
  }
  Transaction* txn = *begun;
  Status st = body(txn);
  if (st.ok()) {
    st = Timed(spans, seq, SpanKind::kCommit, [&] { return s->Commit(txn); });
  } else if (!st.IsTransactionAborted()) {
    (void)s->Abort(txn);
  }
  if (spans != nullptr) {
    spans->push_back(Span{seq, start, NowNs(), SpanKind::kTxn});
  }
  if (st.ok()) return out;
  if (st.IsTransactionAborted() && abort_intended) {
    out.outcome = Outcome::kIntendedAbort;
    return out;
  }
  out.outcome = Outcome::kFailed;
  out.error = st.ToString();
  return out;
}

}  // namespace

// ------------------------------------------------------------- Workload

std::string Workload::Compare(uint32_t index, const Expect& want,
                              const Expect& got, int64_t* lost) const {
  std::string diff;
  auto report = [&](const std::string& what, int64_t w, int64_t g) {
    diff += " " + what + " want " + std::to_string(w) + " got " +
            std::to_string(g);
  };
  if (want.value != got.value) report("value", want.value, got.value);
  for (size_t k = 0; k < want.fires.size(); ++k) {
    const int64_t w = want.fires[k];
    const int64_t g = got.fires[k];
    const std::string what = "fires[" + std::to_string(k) + "]";
    if (detached_fires() >> k & 1) {
      if (g > w + want.uncertain) report(what, w, g);
      if (g < w) *lost += w - g;
    } else if (g != w) {
      report(what, w, g);
    }
  }
  if (diff.empty()) return diff;
  return "object " + std::to_string(index) + ":" + diff;
}

Model Workload::NewModel() const {
  Model m;
  m.objects.assign(objects(), Expect{});
  m.last_event.assign(objects(), 0xFF);
  m.last_big.assign(objects(), 0);
  m.armed.assign(objects(), 0);
  return m;
}

std::string Workload::Memo(uint32_t index) const {
  Rng rng(seed_ * 0x100000001B3ULL + index);
  std::string memo(8 + rng.Below(41), ' ');
  for (char& c : memo) c = static_cast<char>('a' + rng.Below(26));
  return memo;
}

template <typename T>
ExecResult Workload::ExecuteRead(Session* s, const Op& op, uint64_t seq,
                                 std::vector<Span>* spans) {
  std::array<uint32_t, 4> order = op.obj;
  const int calls = std::min<int>(op.calls, 4);
  std::sort(order.begin(), order.begin() + calls,
            [&](uint32_t a, uint32_t b) { return oids_[a] < oids_[b]; });
  std::string wrong;
  ExecResult out = RunTxn(s, seq, spans, false, [&](Transaction* txn) {
    for (int i = 0; i < calls; ++i) {
      Result<T> got = Timed(spans, seq, SpanKind::kLoad, [&] {
        return s->Load(txn, PRef<T>(oids_[order[i]]));
      });
      if (!got.ok()) return got.status();
      if (got->memo != Memo(order[i])) {
        wrong = "object " + std::to_string(order[i]) + " read a wrong memo";
      }
    }
    return Status::OK();
  });
  out.wrong = wrong;
  return out;
}

// ------------------------------------------------------ trigger_dense_mm
//
// Main memory, 1 client over 4,096 objects (with more clients, each would
// get a disjoint slice). Every object
// carries 16 perpetual immediate triggers over 8 declared events; the
// two triggers of pair j mention only `after Mj`, so at most two react to
// any posted event while all sixteen machines are advanced by it.
//   Pair_j: (after Mj & Big()), after Mj            — sequence + mask
//   Arm_j:  relative((after Mj & Big()), (after Mj & Big()))

namespace {

constexpr int kDenseEvents = 8;
constexpr int64_t kDenseBig = 900;  // Big(): argument above this (10%)

struct Gauge {
  int64_t total = 0;
  std::array<int32_t, 2 * kDenseEvents> fires{};
  std::string memo;

  void M0(int64_t x) { total += x; }
  void M1(int64_t x) { total += x; }
  void M2(int64_t x) { total += x; }
  void M3(int64_t x) { total += x; }
  void M4(int64_t x) { total += x; }
  void M5(int64_t x) { total += x; }
  void M6(int64_t x) { total += x; }
  void M7(int64_t x) { total += x; }

  void Encode(Encoder& enc) const {
    enc.PutI64(total);
    for (int32_t f : fires) enc.PutI32(f);
    enc.PutString(memo);
  }
  static Result<Gauge> Decode(Decoder& dec) {
    Gauge g;
    ODE_RETURN_NOT_OK(dec.GetI64(&g.total));
    for (int32_t& f : g.fires) ODE_RETURN_NOT_OK(dec.GetI32(&f));
    ODE_RETURN_NOT_OK(dec.GetString(&g.memo));
    return g;
  }
};

/// prefix + j (appending, which sidesteps a GCC 12 -Wrestrict false
/// positive on `"literal" + std::to_string(j)`).
std::string Numbered(const char* prefix, int j) {
  std::string s(prefix);
  s += std::to_string(j);
  return s;
}

using GaugeMethod = void (Gauge::*)(int64_t);
constexpr GaugeMethod kGaugeMethods[kDenseEvents] = {
    &Gauge::M0, &Gauge::M1, &Gauge::M2, &Gauge::M3,
    &Gauge::M4, &Gauge::M5, &Gauge::M6, &Gauge::M7};

class TriggerDenseMM final : public Workload {
 public:
  std::string name() const override { return "trigger_dense_mm"; }
  ode::StorageKind storage() const override {
    return ode::StorageKind::kMainMemory;
  }
  int clients() const override { return 1; }
  uint32_t objects() const override { return 4096; }

  void Declare(ode::Schema* schema) override {
    auto def = schema->DeclareClass<Gauge>("Gauge");
    for (int j = 0; j < kDenseEvents; ++j) {
      def.Event(Numbered("after M", j))
          .Method(Numbered("M", j), kGaugeMethods[j]);
    }
    def.Mask("Big()", [](const Gauge&, MaskEvalContext& ctx) -> Result<bool> {
      ODE_ASSIGN_OR_RETURN(int64_t x, EventArg(ctx));
      return x > kDenseBig;
    });
    for (int j = 0; j < kDenseEvents; ++j) {
      const std::string ev = Numbered("after M", j);
      const std::string big = "(" + ev + " & Big())";
      def.Trigger(Numbered("Pair", j), big + ", " + ev, Bump(2 * j),
                  CouplingMode::kImmediate, /*perpetual=*/true);
      def.Trigger(Numbered("Arm", j), "relative(" + big + ", " + big + ")",
                  Bump(2 * j + 1),
                  CouplingMode::kImmediate, /*perpetual=*/true);
    }
  }

  Status Create(Session* s, Transaction* txn, uint32_t index) override {
    Gauge g;
    g.memo = Memo(index);
    ODE_ASSIGN_OR_RETURN(PRef<Gauge> ref, s->New(txn, g));
    for (int j = 0; j < kDenseEvents; ++j) {
      for (const char* kind : {"Pair", "Arm"}) {
        ODE_RETURN_NOT_OK(
            s->Activate(txn, ref, Numbered(kind, j)).status());
      }
    }
    oids_[index] = ref.oid();
    return Status::OK();
  }

  Op Next(int client, Rng& rng) const override {
    const uint32_t slice = objects() / clients();
    const uint32_t base = client * slice;
    Op op;
    if (rng.Below(8) == 0) {
      op.read_only = true;
      op.calls = 4;
      Distinct(4, &op, [&] { return base + uint32_t(rng.Below(slice)); });
      return op;
    }
    op.calls = 4;
    Distinct(2, &op, [&] { return base + uint32_t(rng.Below(slice)); });
    op.obj[2] = op.obj[0];
    op.obj[3] = op.obj[1];
    for (int i = 0; i < 4; ++i) {
      op.method[i] = static_cast<uint8_t>(rng.Below(kDenseEvents));
      op.arg[i] = 1 + static_cast<int64_t>(rng.Below(1000));
    }
    return op;
  }

  ExecResult Execute(Session* s, const Op& op, uint64_t seq,
                     std::vector<Span>* spans) override {
    if (op.read_only) return ExecuteRead<Gauge>(s, op, seq, spans);
    return RunTxn(s, seq, spans, false, [&](Transaction* txn) {
      for (int i = 0; i < op.calls; ++i) {
        Status st = Timed(spans, seq, SpanKind::kInvoke, [&] {
          return s->Invoke(txn, PRef<Gauge>(oids_[op.obj[i]]),
                           kGaugeMethods[op.method[i]], op.arg[i]);
        });
        if (!st.ok()) return st;
      }
      return Status::OK();
    });
  }

  void Apply(const Op& op, Outcome outcome, Model* model) const override {
    if (op.read_only || outcome != Outcome::kCommitted) return;
    for (int i = 0; i < op.calls; ++i) {
      const uint32_t o = op.obj[i];
      const int j = op.method[i];
      const bool big = op.arg[i] > kDenseBig;
      Expect& e = model->objects[o];
      e.value += op.arg[i];
      if (model->last_event[o] == j && model->last_big[o]) ++e.fires[2 * j];
      if (big && (model->armed[o] >> j & 1)) ++e.fires[2 * j + 1];
      if (big) model->armed[o] |= uint8_t(1u << j);
      model->last_event[o] = static_cast<uint8_t>(j);
      model->last_big[o] = big;
    }
  }

  Status Read(Session* s, Transaction* txn, uint32_t index, Expect* got,
              size_t* image_bytes) override {
    ODE_ASSIGN_OR_RETURN(Gauge g, s->Load(txn, PRef<Gauge>(oids_[index])));
    got->value = g.total;
    for (size_t k = 0; k < g.fires.size(); ++k) got->fires[k] = g.fires[k];
    *image_bytes = ImageBytes("Gauge", g);
    return Status::OK();
  }

 private:
  static std::function<Status(Gauge&, TriggerFireContext&)> Bump(int k) {
    return [k](Gauge& g, TriggerFireContext&) -> Status {
      ++g.fires[k];
      return Status::OK();
    };
  }
};

// ------------------------------------------------ commit_disk, commit_mm
//
// 4,096 objects, one masked immediate trigger per object: one FSM move
// per posting, against 16 on trigger_dense_mm.
//   commit_disk: 4 clients, one Invoke per transaction on a uniformly
//     chosen object. Sync group commit (the default): the WAL append and
//     fsync dominate, and 4 clients give the group commit batches.
//   commit_mm: main memory, with trigger_dense_mm's transaction shape (1
//     client, 4 Invokes on 2 objects), so that the two differ only in how
//     many triggers each object carries.

constexpr int64_t kMarkEvery = 8;  // Marked(): argument divisible by 8

struct Tally {
  int64_t total = 0;
  int32_t marks = 0;
  std::string memo;

  void Bump(int64_t x) { total += x; }

  void Encode(Encoder& enc) const {
    enc.PutI64(total);
    enc.PutI32(marks);
    enc.PutString(memo);
  }
  static Result<Tally> Decode(Decoder& dec) {
    Tally t;
    ODE_RETURN_NOT_OK(dec.GetI64(&t.total));
    ODE_RETURN_NOT_OK(dec.GetI32(&t.marks));
    ODE_RETURN_NOT_OK(dec.GetString(&t.memo));
    return t;
  }
};

class Commit final : public Workload {
 public:
  explicit Commit(ode::StorageKind storage) : storage_(storage) {}
  std::string name() const override {
    return storage_ == ode::StorageKind::kDisk ? "commit_disk" : "commit_mm";
  }
  ode::StorageKind storage() const override { return storage_; }
  int clients() const override {
    return storage_ == ode::StorageKind::kDisk ? 4 : 1;
  }
  uint32_t objects() const override { return 4096; }

  void Declare(ode::Schema* schema) override {
    schema->DeclareClass<Tally>("Tally")
        .Event("after Bump")
        .Method("Bump", &Tally::Bump)
        .Mask("Marked()",
              [](const Tally&, MaskEvalContext& ctx) -> Result<bool> {
                ODE_ASSIGN_OR_RETURN(int64_t x, EventArg(ctx));
                return x % kMarkEvery == 0;
              })
        .Trigger("Mark", "after Bump & Marked()",
                 [](Tally& t, TriggerFireContext&) -> Status {
                   ++t.marks;
                   return Status::OK();
                 },
                 CouplingMode::kImmediate, /*perpetual=*/true);
  }

  Status Create(Session* s, Transaction* txn, uint32_t index) override {
    Tally t;
    t.memo = Memo(index);
    ODE_ASSIGN_OR_RETURN(PRef<Tally> ref, s->New(txn, t));
    ODE_RETURN_NOT_OK(s->Activate(txn, ref, "Mark").status());
    oids_[index] = ref.oid();
    return Status::OK();
  }

  Op Next(int client, Rng& rng) const override {
    const bool disk = storage_ == ode::StorageKind::kDisk;
    const uint32_t span = disk ? objects() : objects() / clients();
    const uint32_t base = disk ? 0 : client * span;
    auto pick = [&] { return base + uint32_t(rng.Below(span)); };
    Op op;
    if (rng.Below(8) == 0) {
      op.read_only = true;
      op.calls = 4;
      Distinct(4, &op, pick);
      return op;
    }
    if (disk) {
      op.calls = 1;
      op.obj[0] = pick();
    } else {
      op.calls = 4;
      Distinct(2, &op, pick);
      op.obj[2] = op.obj[0];
      op.obj[3] = op.obj[1];
    }
    for (int i = 0; i < op.calls; ++i) {
      op.arg[i] = 1 + static_cast<int64_t>(rng.Below(1000));
    }
    return op;
  }

  ExecResult Execute(Session* s, const Op& op, uint64_t seq,
                     std::vector<Span>* spans) override {
    if (op.read_only) return ExecuteRead<Tally>(s, op, seq, spans);
    return RunTxn(s, seq, spans, false, [&](Transaction* txn) {
      for (int i = 0; i < op.calls; ++i) {
        Status st = Timed(spans, seq, SpanKind::kInvoke, [&] {
          return s->Invoke(txn, PRef<Tally>(oids_[op.obj[i]]), &Tally::Bump,
                           op.arg[i]);
        });
        if (!st.ok()) return st;
      }
      return Status::OK();
    });
  }

  void Apply(const Op& op, Outcome outcome, Model* model) const override {
    if (op.read_only || outcome != Outcome::kCommitted) return;
    for (int i = 0; i < op.calls; ++i) {
      Expect& e = model->objects[op.obj[i]];
      e.value += op.arg[i];
      if (op.arg[i] % kMarkEvery == 0) ++e.fires[0];
    }
  }

  Status Read(Session* s, Transaction* txn, uint32_t index, Expect* got,
              size_t* image_bytes) override {
    ODE_ASSIGN_OR_RETURN(Tally t, s->Load(txn, PRef<Tally>(oids_[index])));
    got->value = t.total;
    got->fires[0] = t.marks;
    *image_bytes = ImageBytes("Tally", t);
    return Status::OK();
  }

 private:
  const ode::StorageKind storage_;
};

// ------------------------------------------------------------ ledger_disk
//
// Disk store, 4 clients, 8,192 accounts under Zipf skew. Half the
// transactions are read-only inquiries (Load of 4 accounts), half are
// transfers (Withdraw + Deposit, invoked in ascending oid order). Each
// account carries one trigger per coupling mode:
//   Cap       immediate   after Withdraw & OverCap()  -> tabort (intended)
//   Notice    end         after Withdraw & Sizeable() -> ++notices
//   Statement dependent   after Deposit & Sizeable()  -> ++statements
//   Audit     !dependent  after Withdraw & Large()    -> ++audits
// Audits run even when the transfer aborts, so the model counts them for
// intended aborts too.

constexpr int64_t kInitialBalance = 1000000;
constexpr int64_t kCap = 5000;       // OverCap(): amount above the cap
constexpr int64_t kSizeable = 500;   // Sizeable(): amount >= 500 (~50%)
constexpr int64_t kLarge = 900;      // Large(): amount >= 900 (~11%)
constexpr double kLedgerTheta = 0.8;

enum LedgerFire { kFireCap = 0, kFireNotice, kFireStatement, kFireAudit };

struct Account {
  int64_t balance = 0;
  int32_t notices = 0;
  int32_t statements = 0;
  int32_t audits = 0;
  std::string memo;

  void Withdraw(int64_t x) { balance -= x; }
  void Deposit(int64_t x) { balance += x; }

  void Encode(Encoder& enc) const {
    enc.PutI64(balance);
    enc.PutI32(notices);
    enc.PutI32(statements);
    enc.PutI32(audits);
    enc.PutString(memo);
  }
  static Result<Account> Decode(Decoder& dec) {
    Account a;
    ODE_RETURN_NOT_OK(dec.GetI64(&a.balance));
    ODE_RETURN_NOT_OK(dec.GetI32(&a.notices));
    ODE_RETURN_NOT_OK(dec.GetI32(&a.statements));
    ODE_RETURN_NOT_OK(dec.GetI32(&a.audits));
    ODE_RETURN_NOT_OK(dec.GetString(&a.memo));
    return a;
  }
};

std::function<Result<bool>(const Account&, MaskEvalContext&)> AmountAtLeast(
    int64_t threshold) {
  return [threshold](const Account&, MaskEvalContext& ctx) -> Result<bool> {
    ODE_ASSIGN_OR_RETURN(int64_t x, EventArg(ctx));
    return x >= threshold;
  };
}

class LedgerDisk final : public Workload {
 public:
  std::string name() const override { return "ledger_disk"; }
  ode::StorageKind storage() const override { return ode::StorageKind::kDisk; }
  int clients() const override { return 4; }
  uint32_t objects() const override { return 8192; }

  void Declare(ode::Schema* schema) override {
    schema->DeclareClass<Account>("Account")
        .Event("after Withdraw")
        .Event("after Deposit")
        .Method("Withdraw", &Account::Withdraw)
        .Method("Deposit", &Account::Deposit)
        .Mask("OverCap()", AmountAtLeast(kCap + 1))
        .Mask("Sizeable()", AmountAtLeast(kSizeable))
        .Mask("Large()", AmountAtLeast(kLarge))
        .Trigger("Cap", "after Withdraw & OverCap()",
                 [](Account&, TriggerFireContext& ctx) -> Status {
                   ctx.Tabort("transfer over cap");
                   return Status::OK();
                 },
                 CouplingMode::kImmediate, /*perpetual=*/true)
        .Trigger("Notice", "after Withdraw & Sizeable()",
                 [](Account& a, TriggerFireContext&) -> Status {
                   ++a.notices;
                   return Status::OK();
                 },
                 CouplingMode::kDeferred, /*perpetual=*/true)
        .Trigger("Statement", "after Deposit & Sizeable()",
                 [](Account& a, TriggerFireContext&) -> Status {
                   ++a.statements;
                   return Status::OK();
                 },
                 CouplingMode::kDependent, /*perpetual=*/true)
        .Trigger("Audit", "after Withdraw & Large()",
                 [](Account& a, TriggerFireContext&) -> Status {
                   ++a.audits;
                   return Status::OK();
                 },
                 CouplingMode::kIndependent, /*perpetual=*/true);
  }

  Status Create(Session* s, Transaction* txn, uint32_t index) override {
    Account a;
    a.balance = kInitialBalance;
    a.memo = Memo(index);
    ODE_ASSIGN_OR_RETURN(PRef<Account> ref, s->New(txn, a));
    for (const char* trigger : {"Cap", "Notice", "Statement", "Audit"}) {
      ODE_RETURN_NOT_OK(s->Activate(txn, ref, trigger).status());
    }
    oids_[index] = ref.oid();
    initial_[index].value = kInitialBalance;
    return Status::OK();
  }

  Op Next(int, Rng& rng) const override {
    Op op;
    if (rng.Below(2) == 0) {
      op.read_only = true;
      op.calls = 4;
      Distinct(4, &op, [&] { return zipf_->Sample(rng); });
      return op;
    }
    op.calls = 2;  // obj[0] pays (Withdraw), obj[1] receives (Deposit)
    Distinct(2, &op, [&] { return zipf_->Sample(rng); });
    const int64_t amount =
        rng.Below(100) == 0 ? kCap + 1 + int64_t(rng.Below(kCap))
                            : 1 + int64_t(rng.Below(1000));
    op.arg[0] = op.arg[1] = amount;
    return op;
  }

  ExecResult Execute(Session* s, const Op& op, uint64_t seq,
                     std::vector<Span>* spans) override {
    if (op.read_only) return ExecuteRead<Account>(s, op, seq, spans);
    const PRef<Account> from(oids_[op.obj[0]]);
    const PRef<Account> to(oids_[op.obj[1]]);
    const int64_t amount = op.arg[0];
    auto withdraw = [&](Transaction* txn) {
      return Timed(spans, seq, SpanKind::kInvoke, [&] {
        return s->Invoke(txn, from, &Account::Withdraw, amount);
      });
    };
    auto deposit = [&](Transaction* txn) {
      return Timed(spans, seq, SpanKind::kInvoke, [&] {
        return s->Invoke(txn, to, &Account::Deposit, amount);
      });
    };
    // Ascending oid order on both sides keeps transfers deadlock-free.
    const bool from_first = from.oid() < to.oid();
    return RunTxn(s, seq, spans, amount > kCap, [&](Transaction* txn) {
      Status st = from_first ? withdraw(txn) : deposit(txn);
      if (!st.ok()) return st;
      return from_first ? deposit(txn) : withdraw(txn);
    });
  }

  void Apply(const Op& op, Outcome outcome, Model* model) const override {
    if (op.read_only) return;
    Expect& from = model->objects[op.obj[0]];
    Expect& to = model->objects[op.obj[1]];
    const int64_t amount = op.arg[0];
    switch (outcome) {
      case Outcome::kCommitted:
        from.value -= amount;
        to.value += amount;
        if (amount >= kSizeable) {
          ++from.fires[kFireNotice];
          ++to.fires[kFireStatement];
        }
        if (amount >= kLarge) ++from.fires[kFireAudit];
        break;
      case Outcome::kIntendedAbort:
        ++from.fires[kFireAudit];  // !dependent: fires for aborts too
        break;
      case Outcome::kFailed:
        // The transfer rolled back, but a !dependent audit survives the
        // abort if the Withdraw was posted before the failure.
        ++from.uncertain;
        break;
    }
  }

  Status Read(Session* s, Transaction* txn, uint32_t index, Expect* got,
              size_t* image_bytes) override {
    ODE_ASSIGN_OR_RETURN(Account a,
                         s->Load(txn, PRef<Account>(oids_[index])));
    got->value = a.balance;
    got->fires[kFireNotice] = a.notices;
    got->fires[kFireStatement] = a.statements;
    got->fires[kFireAudit] = a.audits;
    *image_bytes = ImageBytes("Account", a);
    return Status::OK();
  }

  void OnSeed() override {
    zipf_ = std::make_unique<Zipf>(objects(), kLedgerTheta, seed_);
  }

  uint32_t detached_fires() const override {
    return 1u << kFireStatement | 1u << kFireAudit;
  }

 private:
  std::unique_ptr<Zipf> zipf_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "trigger_dense_mm") return std::make_unique<TriggerDenseMM>();
  if (name == "commit_disk") {
    return std::make_unique<Commit>(ode::StorageKind::kDisk);
  }
  if (name == "commit_mm") {
    return std::make_unique<Commit>(ode::StorageKind::kMainMemory);
  }
  if (name == "ledger_disk") return std::make_unique<LedgerDisk>();
  return nullptr;
}

}  // namespace perfbench
