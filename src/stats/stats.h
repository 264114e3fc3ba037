// Execution statistics matching the panels of the paper's figures: a
// breakdown of how critical sections committed (HTM / ROT / serial lock /
// uninstrumented read) and why speculative attempts aborted (the six
// categories in the figures' legends), plus the BRAVO and transaction-
// chopping event counters.
//
// Counters are sharded per thread slot and written without synchronization
// by the owning thread; aggregation happens between runs.
#ifndef RWLE_SRC_STATS_STATS_H_
#define RWLE_SRC_STATS_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/abort.h"

namespace rwle {

// ---------------------------------------------------------------------------
// Counter families. Each family is declared once, as an X-macro list of
// X(enumerator, key, label) rows in legend order:
//   - `key` is the stable machine-readable identifier: the snapshot field
//     name and the JSON key (committed baselines, bench_compare.py). Labels
//     may change; keys must not.
//   - `label` is the legend entry the figure tables print.
// RWLE_STATS_FAMILY generates, for a family `Enum`, the enum class,
// k<Enum>Count, <Enum>Name() (label), <Enum>Key() and the named-field
// snapshot struct with Total() and Entries(). ThreadStats, StatsSnapshot
// and the serializer's per-family blocks come from RWLE_STATS_FAMILIES.
//
// Adding a counter is a one-line edit to its family list, plus regenerating
// the serialized-schema golden, tests/data/golden_result.json:
//   RWLE_REGEN_GOLDEN=1 build/tests/json_result_test
// ---------------------------------------------------------------------------

// How a critical section committed: the commit-type panels.
#define RWLE_COMMIT_PATHS(X)                                    \
  /* committed as a regular hardware transaction */             \
  X(kHtm, htm, "HTM")                                           \
  /* committed as a rollback-only transaction */                \
  X(kRot, rot, "ROT")                                           \
  /* executed under the serial (SGL / NS) lock */               \
  X(kSerial, serial, "SGL")                                     \
  /* RW-LE read critical section (no speculation) */            \
  X(kUninstrumentedRead, uninstrumented_read, "Uninstrumented")

// Why a speculative attempt aborted: the abort legend of Figures 3-10.
#define RWLE_ABORT_CATEGORIES(X)                                \
  /* conflict with another hardware transaction */              \
  X(kHtmTxConflict, htm_tx_conflict, "HTM tx")                  \
  /* non-transactional conflict / interrupt */                  \
  X(kHtmNonTx, htm_non_tx, "HTM non-tx")                        \
  X(kHtmCapacity, htm_capacity, "HTM capacity")                 \
  /* global lock busy upon subscription */                      \
  X(kLockAborts, lock_aborts, "Lock aborts")                    \
  X(kRotConflict, rot_conflict, "ROT conflicts")                \
  X(kRotCapacity, rot_capacity, "ROT capacity")

// BRAVO bias / revocation events (src/locks/bravo_lock.h and the BRAVO
// fallback inside RwLeLock). Counted separately from commits/aborts: one
// read section can tick several of these (publish, collide, retry slow).
#define RWLE_BRAVO_COUNTERS(X)                                  \
  /* read admitted through the distributed table */             \
  X(kFastRead, fast_reads, "BRAVO fast")                        \
  /* read fell through to the centralized underlay */           \
  X(kSlowRead, slow_reads, "BRAVO slow")                        \
  /* RW-LE fallback: read parked awaiting an NS writer */       \
  X(kParkedRead, parked_reads, "BRAVO parked")                  \
  /* slot-hash collision degraded the read to centralized */    \
  X(kAliasedPark, aliased_parks, "BRAVO aliased")               \
  /* bias switched on (off -> on transitions) */                \
  X(kBiasArm, bias_arms, "BRAVO bias arms")                     \
  /* writer revoked the bias */                                 \
  X(kRevocation, revocations, "BRAVO revocations")              \
  /* occupied table entries drained during revocations */       \
  X(kRevokedReader, revoked_readers, "BRAVO revoked readers")

// Transaction-chopping events (src/chop/chopped_section.h). A chopped write
// section commits as a chain of piece-wise HTM/ROT commits; these counters
// expose how chains progressed and where they fell off the speculative
// ladder. Counted alongside commits/aborts: each piece attempt still ticks
// the regular commit/abort breakdowns.
#define RWLE_CHOP_COUNTERS(X)                                   \
  /* chains that committed (final piece published) */           \
  X(kChain, chains, "Chop chains")                              \
  /* piece commits captured into a chain carryover */           \
  X(kPiece, pieces, "Chop pieces")                              \
  /* speculative piece attempts that aborted */                 \
  X(kPieceAbort, piece_aborts, "Chop piece aborts")             \
  /* chains unwound after a piece exhausted its retries */      \
  X(kChainUnwind, chain_unwinds, "Chop unwinds")                \
  /* chopped sections demoted to the NS serial path */          \
  X(kNsFallback, ns_fallbacks, "Chop NS fallbacks")             \
  /* bytes of captured stores carried between pieces */         \
  X(kCarryoverBytes, carryover_bytes, "Chop carryover bytes")

// Whether a run that recorded none of a family's events still carries its
// block in serialized results. Commits and aborts are the figures' two
// legends and always present; the other families are omitted when empty.
enum class BlockPresence : std::uint8_t { kAlways, kOmitWhenEmpty };

// The families, in serialization order: X(Enum, Breakdown, member, LIST,
// presence). `member` names the ThreadStats array, the StatsSnapshot field
// and the JSON block.
#define RWLE_STATS_FAMILIES(X)                                                              \
  X(CommitPath, CommitBreakdown, commits, RWLE_COMMIT_PATHS, BlockPresence::kAlways)        \
  X(AbortCategory, AbortBreakdown, aborts, RWLE_ABORT_CATEGORIES, BlockPresence::kAlways)   \
  X(BravoCounter, BravoBreakdown, bravo, RWLE_BRAVO_COUNTERS, BlockPresence::kOmitWhenEmpty) \
  X(ChopCounter, ChopBreakdown, chop, RWLE_CHOP_COUNTERS, BlockPresence::kOmitWhenEmpty)

// One named counter of a breakdown, in legend order: the human label used
// by the table renderer, the stable key used by the JSON serializer, and
// the count itself.
struct CounterView {
  const char* label;
  const char* key;
  std::uint64_t count;
};

// Row expanders for a family list.
#define RWLE_STATS_ENUMERATOR(enumerator, key, label) enumerator,
#define RWLE_STATS_PLUS_ONE(enumerator, key, label) +1
#define RWLE_STATS_LABEL(enumerator, key, label) label,
#define RWLE_STATS_KEY(enumerator, key, label) #key,
#define RWLE_STATS_FIELD(enumerator, key, label) std::uint64_t key = 0;
#define RWLE_STATS_LOAD(enumerator, key, label) \
  breakdown.key = counts[static_cast<int>(Counter::enumerator)];
#define RWLE_STATS_SUM(enumerator, key, label) +key
#define RWLE_STATS_VIEW(enumerator, key, label) CounterView{label, #key, key},

// Everything derived from one family list. The Breakdown is the named view
// of the family's raw counters; the figure renderer and the result
// serializer consume it rather than indexing raw arrays.
#define RWLE_STATS_FAMILY(Enum, Breakdown, member, LIST, presence)                   \
  enum class Enum : std::uint8_t { LIST(RWLE_STATS_ENUMERATOR) };                    \
  inline constexpr int k##Enum##Count = 0 LIST(RWLE_STATS_PLUS_ONE);                 \
  constexpr const char* Enum##Name(Enum counter) {                                   \
    constexpr const char* kLabels[] = {LIST(RWLE_STATS_LABEL)};                      \
    const auto i = static_cast<int>(counter);                                        \
    return i < k##Enum##Count ? kLabels[i] : "?";                                    \
  }                                                                                  \
  constexpr const char* Enum##Key(Enum counter) {                                    \
    constexpr const char* kKeys[] = {LIST(RWLE_STATS_KEY)};                          \
    const auto i = static_cast<int>(counter);                                        \
    return i < k##Enum##Count ? kKeys[i] : "unknown";                                \
  }                                                                                  \
  struct Breakdown {                                                                 \
    using Counter = Enum;                                                            \
    LIST(RWLE_STATS_FIELD)                                                           \
                                                                                     \
    static Breakdown FromCounts(const std::uint64_t (&counts)[k##Enum##Count]) {     \
      Breakdown breakdown;                                                           \
      LIST(RWLE_STATS_LOAD)                                                          \
      return breakdown;                                                              \
    }                                                                                \
    std::uint64_t Total() const { return 0 LIST(RWLE_STATS_SUM); }                   \
    std::array<CounterView, k##Enum##Count> Entries() const {                        \
      return {{LIST(RWLE_STATS_VIEW)}};                                              \
    }                                                                                \
    template <typename Visit>                                                        \
    void ForEachField(Visit&& visit) const {                                         \
      for (const CounterView& entry : Entries()) {                                   \
        visit(entry.key, entry.count);                                               \
      }                                                                              \
    }                                                                                \
    bool operator==(const Breakdown&) const = default;                               \
  };

RWLE_STATS_FAMILIES(RWLE_STATS_FAMILY)

// Maps an HTM-facility abort to the figure category, given the kind of
// transaction that died.
constexpr AbortCategory ClassifyAbort(TxKind kind, AbortCause cause) {
  if (kind == TxKind::kRot) {
    if (cause == AbortCause::kCapacityRead || cause == AbortCause::kCapacityWrite) {
      return AbortCategory::kRotCapacity;
    }
    if (cause == AbortCause::kExplicit) {
      return AbortCategory::kLockAborts;
    }
    return AbortCategory::kRotConflict;
  }
  switch (cause) {
    case AbortCause::kConflictTx:
      return AbortCategory::kHtmTxConflict;
    case AbortCause::kCapacityRead:
    case AbortCause::kCapacityWrite:
      return AbortCategory::kHtmCapacity;
    case AbortCause::kExplicit:
      return AbortCategory::kLockAborts;
    case AbortCause::kConflictNonTx:
    case AbortCause::kInterrupt:
    default:
      return AbortCategory::kHtmNonTx;
  }
}

struct StatsSnapshot {
#define RWLE_STATS_SNAPSHOT_MEMBER(Enum, Breakdown, member, LIST, presence) Breakdown member;
  RWLE_STATS_FAMILIES(RWLE_STATS_SNAPSHOT_MEMBER)

  std::uint64_t TotalAttempts() const { return commits.Total() + aborts.Total(); }
};

// Flat measurement blocks attached to a RunResult, each declared once as an
// X-macro list of X(type, name) fields. Names are serialized verbatim as
// JSON keys, in list order; the serializer omits a block whose fields all
// hold their defaults.
#define RWLE_SNAPSHOT_FIELD(type, name) type name{};
#define RWLE_SNAPSHOT_VISIT(type, name) visit(#name, name);
#define RWLE_SNAPSHOT_MEMBERS(Snapshot, FIELDS)     \
  FIELDS(RWLE_SNAPSHOT_FIELD)                       \
                                                    \
  template <typename Visit>                         \
  void ForEachField(Visit&& visit) const {          \
    FIELDS(RWLE_SNAPSHOT_VISIT)                     \
  }                                                 \
  bool operator==(const Snapshot&) const = default;

// Open-loop service measurement (bench/scenarios/service.cc): a Poisson
// arrival stream pushed through a fixed server pool, with per-request
// sojourn time (queue wait + service time) summarized against a latency
// SLO. Attached to a RunResult by RunServiceBenchmark; closed-loop runs
// leave it default.
#define RWLE_SERVICE_FIELDS(X)                      \
  /* configured Poisson arrival rate, ops/s */      \
  X(double, offered_rate_ops)                       \
  /* completions / horizon_seconds */               \
  X(double, achieved_rate_ops)                      \
  X(std::uint64_t, arrivals)                        \
  X(std::uint64_t, completions)                     \
  /* modeled time until the last completion */      \
  X(double, horizon_seconds)                        \
  /* sojourn = queue wait + service time */         \
  X(double, sojourn_mean_ns)                        \
  X(std::uint64_t, sojourn_p50_ns)                  \
  X(std::uint64_t, sojourn_p90_ns)                  \
  X(std::uint64_t, sojourn_p99_ns)                  \
  X(std::uint64_t, sojourn_p999_ns)                 \
  X(std::uint64_t, sojourn_max_ns)                  \
  X(double, queue_delay_mean_ns)                    \
  X(std::uint64_t, queue_delay_max_ns)              \
  /* 0 = no target configured */                    \
  X(std::uint64_t, slo_p99_ns)                      \
  X(std::uint64_t, slo_p999_ns)                     \
  X(bool, slo_met)

struct ServiceSnapshot {
  RWLE_SNAPSHOT_MEMBERS(ServiceSnapshot, RWLE_SERVICE_FIELDS)
};

// Portability-matrix measurement (bench/scenarios/portability.cc): one
// benchmark cell run under a named hardware profile (src/htm/hw_profile.h),
// with the workload's own pair-invariant checks folded in. `torn_observed`
// counts section executions that saw a half-updated pair (zombie windows
// included -- the lazy-subscription hazard); `torn_committed` counts
// sections whose *final* execution still saw one (the section was not
// aborted afterwards -- the limited-tracking hazard). Runs outside the
// portability scenario leave it default.
#define RWLE_PORTABILITY_FIELDS(X) \
  X(std::string, hw_profile)       \
  X(std::uint64_t, torn_observed)  \
  X(std::uint64_t, torn_committed)

struct PortabilitySnapshot {
  RWLE_SNAPSHOT_MEMBERS(PortabilitySnapshot, RWLE_PORTABILITY_FIELDS)
};

struct ThreadStats {
#define RWLE_STATS_COUNTS(Enum, Breakdown, member, LIST, presence) \
  std::uint64_t member[k##Enum##Count] = {};
  RWLE_STATS_FAMILIES(RWLE_STATS_COUNTS)

  std::uint64_t TotalCommits() const {
    std::uint64_t total = 0;
    for (const auto c : commits) {
      total += c;
    }
    return total;
  }

  std::uint64_t TotalAborts() const {
    std::uint64_t total = 0;
    for (const auto a : aborts) {
      total += a;
    }
    return total;
  }

  // The named view of these counters (see RWLE_STATS_FAMILY).
  StatsSnapshot Snapshot() const {
    StatsSnapshot snapshot;
#define RWLE_STATS_SNAPSHOT_LOAD(Enum, Breakdown, member, LIST, presence) \
  snapshot.member = Breakdown::FromCounts(member);
    RWLE_STATS_FAMILIES(RWLE_STATS_SNAPSHOT_LOAD)
    return snapshot;
  }

  ThreadStats& operator+=(const ThreadStats& other) {
#define RWLE_STATS_MERGE(Enum, Breakdown, member, LIST, presence) \
  for (int i = 0; i < k##Enum##Count; ++i) {                      \
    member[i] += other.member[i];                                 \
  }
    RWLE_STATS_FAMILIES(RWLE_STATS_MERGE)
    return *this;
  }
};

// One shard per thread slot, cache-line separated. Deliberately a direct
// static array, not lazily allocated shards like LatencyRegistry /
// MemoryTraceSink lanes: a shard is one cache line (vs 64 KiB / 512 KiB
// there), so even at kMaxThreads = 1024 the whole table is 128 KiB per lock
// instance, and Local() sits on the per-operation hot path where an extra
// pointer chase measurably regresses rwle_read_section (~+20% ns/op).
class StatsRegistry {
 public:
  // The calling thread's shard (requires a registered ScopedThreadSlot).
  ThreadStats& Local() { return shards_[CurrentThreadSlot()].stats; }

  void RecordCommit(CommitPath path) {
    Local().commits[static_cast<int>(path)]++;
  }

  void RecordAbort(TxKind kind, AbortCause cause) {
    Local().aborts[static_cast<int>(ClassifyAbort(kind, cause))]++;
  }

  void RecordBravo(BravoCounter counter, std::uint64_t n = 1) {
    Local().bravo[static_cast<int>(counter)] += n;
  }

  void RecordChop(ChopCounter counter, std::uint64_t n = 1) {
    Local().chop[static_cast<int>(counter)] += n;
  }

  ThreadStats Aggregate() const {
    ThreadStats total;
    for (const auto& shard : shards_) {
      total += shard.stats;
    }
    return total;
  }

  void Reset() {
    for (auto& shard : shards_) {
      shard.stats = ThreadStats{};
    }
  }

 private:
  struct alignas(kCacheLineBytes) Shard {
    ThreadStats stats;
  };

  Shard shards_[kMaxThreads];
};

}  // namespace rwle

#endif  // RWLE_SRC_STATS_STATS_H_
