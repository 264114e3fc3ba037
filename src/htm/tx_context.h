// Per-thread transaction context of the simulated HTM facility.
//
// The heart of the design is the status word, a single atomic that packs
//   [ epoch : 48 | abort cause : 8 | phase : 8 ]
// Every transition in a transaction's life is a CAS on this word, which is
// what makes cross-thread dooming race-free:
//   - a conflicting thread dooms a transaction by CAS'ing
//     (epoch, ACTIVE|SUSPENDED) -> (epoch, cause, DOOMED);
//   - the owner commits by CAS'ing (epoch, ACTIVE) -> (epoch, COMMITTING),
//     writing its buffer back, then publishing (epoch+1, IDLE).
// Because footprint bits in the conflict table are cleared before the epoch
// advances, a doomer that re-verifies the footprint bit and then CAS'es with
// the exact status snapshot it read can never kill the thread's *next*
// transaction (see DESIGN.md §3).
#ifndef RWLE_SRC_HTM_TX_CONTEXT_H_
#define RWLE_SRC_HTM_TX_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/cpu.h"
#include "src/htm/abort.h"
#include "src/htm/conflict_table.h"
#include "src/htm/tx_write_set.h"

namespace rwle {

enum class TxPhase : std::uint8_t {
  kIdle = 0,
  kActive = 1,
  kSuspended = 2,
  kCommitting = 3,
  kDoomed = 4,
};

constexpr std::uint64_t PackStatus(std::uint64_t epoch, AbortCause cause, TxPhase phase) {
  return (epoch << 16) | (static_cast<std::uint64_t>(cause) << 8) |
         static_cast<std::uint64_t>(phase);
}

constexpr TxPhase StatusPhase(std::uint64_t status) {
  return static_cast<TxPhase>(status & 0xFF);
}

constexpr AbortCause StatusCause(std::uint64_t status) {
  return static_cast<AbortCause>((status >> 8) & 0xFF);
}

constexpr std::uint64_t StatusEpoch(std::uint64_t status) { return status >> 16; }

class HtmRuntime;

// Each context starts on its own host line: the owner writes its access
// counter, write buffer and set logs on every fabric access while other
// threads CAS status_ to doom it, so packed neighbours would false-share.
class alignas(kHostLineBytes) TxContext {
 public:
  TxContext() = default;
  TxContext(const TxContext&) = delete;
  TxContext& operator=(const TxContext&) = delete;

  std::uint32_t thread_slot() const { return thread_slot_; }
  TxKind kind() const { return kind_; }

  TxPhase phase() const { return StatusPhase(status_.load()); }
  std::uint64_t epoch() const { return StatusEpoch(status_.load()); }

  bool InActiveTx() const { return phase() == TxPhase::kActive; }
  bool InSuspendedTx() const { return phase() == TxPhase::kSuspended; }
  bool HasLiveTx() const {
    const TxPhase p = phase();
    return p == TxPhase::kActive || p == TxPhase::kSuspended || p == TxPhase::kDoomed;
  }

  // Token other threads use to name this context's current transaction in
  // conflict-table writer fields.
  OwnerToken CurrentToken() const {
    return MakeOwnerToken(thread_slot_, StatusEpoch(status_.load()));
  }

  // Cross-thread doom attempt against the exact status snapshot `expected`
  // (which must have phase ACTIVE or SUSPENDED). Returns true if this call
  // transitioned the transaction to DOOMED.
  bool CasDoom(std::uint64_t expected, AbortCause cause) {
    const std::uint64_t doomed =
        PackStatus(StatusEpoch(expected), cause, TxPhase::kDoomed);
    return status_.compare_exchange_strong(expected, doomed);
  }

  std::uint64_t StatusSnapshot() const { return status_.load(); }

  // Footprint sizes, exposed read-only for the analysis build's invariant
  // checks (e.g. "ROTs keep an empty read set"). Owner thread data; callers
  // on other threads only get a racy hint.
  std::size_t read_set_lines() const { return read_line_indices_.size(); }
  std::size_t write_set_lines() const { return owned_line_indices_.size(); }

 private:
  friend class HtmRuntime;

  std::atomic<std::uint64_t> status_{PackStatus(0, AbortCause::kNone, TxPhase::kIdle)};
  std::uint32_t thread_slot_ = kInvalidThreadSlot;
  TxKind kind_ = TxKind::kHtm;

  // Fabric accesses since the last modeled preemption; counts up to
  // HtmConfig::yield_access_period and resets (a compare, not a modulo, on
  // the access fast path). Owner thread only.
  std::uint64_t access_counter_ = 0;

  // True between TxSuspend and TxResume. Only the owning thread touches it.
  // Needed because an asynchronous doom overwrites the SUSPENDED phase, yet
  // the thread's escape actions must keep running non-transactionally (the
  // abort surfaces at resume+commit, as on real hardware) -- whereas a doom
  // during *active* execution must abort at the very next fabric access,
  // never fall through to direct non-transactional writes.
  bool escape_mode_ = false;

  // Speculative redo buffer: cell -> buffered value. Invisible to other
  // threads until commit write-back (open-addressed flat map; see
  // tx_write_set.h for why not unordered_map).
  TxWriteSet write_buffer_;

  // Chain carryover (src/chop/): while a chopped chain is live on this
  // thread, earlier pieces' captured stores live here and transactional
  // loads consult it after the write buffer -- read-own-chain-writes
  // without re-reading (or re-tracking) the cells. Null outside a chain.
  // Owner thread only; set by BeginChain, cleared by EndChain.
  const TxWriteSet* chain_redo_ = nullptr;

  // Per-transaction set logs: the conflict-table slot indices this
  // transaction owns (write set) or has marked with its reader bit (read
  // set). Commit and abort release exactly these slots -- O(footprint), not
  // a table scan -- and their sizes drive capacity aborts. Indices are
  // recorded at access time (the access already computed the slot hash), so
  // release never re-hashes. These hold *slot* indices and are naturally
  // deduplicated: two lines aliasing to one slot log it only once, because
  // the second access finds the slot already owned / the reader bit already
  // set (see tests/set_log_test.cc).
  std::vector<std::uint32_t> owned_line_indices_;
  std::vector<std::uint32_t> read_line_indices_;
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_TX_CONTEXT_H_
