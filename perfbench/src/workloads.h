// The Session-level workloads: their schemas, operation generators,
// executors and the reference model the output checker compares against.
//
// Every workload follows one contract. Ops come from a per-client stream
// that is a pure function of (seed, client). Each client executes its
// stream in a closed loop and folds the outcome of every op into its own
// Model. After the run the per-client models are merged and every object
// of the store is compared with the merged expectation. Masks read only
// the invocation's own argument, so the expectation never depends on how
// the clients interleaved.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "odepp/session.h"

namespace perfbench {

/// splitmix64: small, fast and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Zipf(theta) over [0, n) by inverse CDF, with ranks scattered over the
/// key space by a seeded permutation so hot keys do not share pages.
class Zipf {
 public:
  Zipf(uint32_t n, double theta, uint64_t seed);
  uint32_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<uint32_t> key_of_rank_;
};

/// One user transaction. Write ops invoke `calls` methods; read-only ops
/// Load `calls` distinct objects in ascending oid order.
struct Op {
  bool read_only = false;
  uint8_t calls = 0;
  std::array<uint32_t, 4> obj{};
  std::array<uint8_t, 4> method{};
  std::array<int64_t, 4> arg{};
};

enum class Outcome : uint8_t {
  kCommitted,
  kIntendedAbort,  // the workload's own tabort trigger fired
  kFailed,         // any other error: deadlock, lock timeout, I/O, ...
};

/// Benchmark-side spans around the calls into the program. A traced op
/// fills one of these per call; untraced ops never touch it.
enum class SpanKind : uint8_t { kTxn, kBegin, kInvoke, kLoad, kCommit };
const char* SpanName(SpanKind kind);

struct Span {
  uint64_t seq = 0;  // the transaction's sequence id, shared by its spans
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  SpanKind kind = SpanKind::kTxn;
};

uint64_t NowNs();

/// Per-object expectation. Which fields a workload uses is its own
/// business; the merge sums every field.
struct Expect {
  int64_t value = 0;                 // balance / running total
  std::array<int64_t, 16> fires{};   // per-trigger (dense) or per-mode
  int64_t uncertain = 0;             // failed ops that touched the object
};

/// A client's view of the reference model: expectations for every
/// object plus any per-client automaton state.
struct Model {
  std::vector<Expect> objects;
  // trigger_dense_mm: per-object memory of the machines (the client that
  // owns an object is the only one that posts to it).
  std::vector<uint8_t> last_event;   // 0xFF = none yet
  std::vector<uint8_t> last_big;
  std::vector<uint8_t> armed;        // bit j: Arm_j saw a big M_j
};

struct ExecResult {
  Outcome outcome = Outcome::kCommitted;
  std::string error;  // set when outcome == kFailed
  std::string wrong;  // set when a read returned a wrong value
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string name() const = 0;
  virtual ode::StorageKind storage() const = 0;
  virtual int clients() const = 0;
  virtual uint32_t objects() const = 0;

  /// Declares the classes, events, masks and triggers.
  virtual void Declare(ode::Schema* schema) = 0;

  /// Creates object `index` and activates its triggers. Records the
  /// object's oid and its initial expectation.
  virtual ode::Status Create(ode::Session* s, ode::Transaction* txn,
                             uint32_t index) = 0;

  /// The next op of a client's stream.
  virtual Op Next(int client, Rng& rng) const = 0;

  /// Runs one op as one transaction. `spans` is null when untraced.
  virtual ExecResult Execute(ode::Session* s, const Op& op, uint64_t seq,
                             std::vector<Span>* spans) = 0;

  /// Folds an op's outcome into the client's model.
  virtual void Apply(const Op& op, Outcome outcome, Model* model) const = 0;

  /// Reads object `index`; fills `got` and its stored image size.
  virtual ode::Status Read(ode::Session* s, ode::Transaction* txn,
                           uint32_t index, Expect* got,
                           size_t* image_bytes) = 0;

  /// Compares one object with its expectation; empty string when equal.
  /// Counts of triggers whose actions run in detached system transactions
  /// (`detached_fires()`) may fall short of the expectation when the
  /// program loses a firing (sheds it, exhausts its retries or
  /// dead-letters it): the shortfall is added to `*lost`, and the caller
  /// fails the check unless the program reports at least that many
  /// losses. Such a count may never exceed the expectation (plus
  /// `uncertain`).
  std::string Compare(uint32_t index, const Expect& want, const Expect& got,
                      int64_t* lost) const;

  /// Bit k set: fires[k] counts a dependent or !dependent trigger.
  virtual uint32_t detached_fires() const { return 0; }

  Model NewModel() const;

  /// Stable per-object text the reads verify (varies with seed, so stored
  /// sizes differ from seed to seed).
  std::string Memo(uint32_t index) const;

  void set_seed(uint64_t seed) {
    seed_ = seed;
    OnSeed();
  }
  /// Forgets the objects of a previous setup.
  void ResetObjects() {
    oids_.assign(objects(), ode::Oid());
    initial_.assign(objects(), Expect{});
  }
  const std::vector<Expect>& initial() const { return initial_; }

 protected:
  /// Loads `op.calls` distinct objects in ascending oid order, checking
  /// each memo. Shared by every workload's read-only inquiry.
  template <typename T>
  ExecResult ExecuteRead(ode::Session* s, const Op& op, uint64_t seq,
                         std::vector<Span>* spans);

  /// Builds seed-dependent generator tables.
  virtual void OnSeed() {}

  uint64_t seed_ = 0;
  std::vector<ode::Oid> oids_;
  std::vector<Expect> initial_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
