// Transaction chopping for oversized write sections (DESIGN.md §14).
//
// A write section whose footprint exceeds the HTM capacity (HtmConfig
// max_read_lines / max_write_lines) can never commit speculatively: every
// attempt dies with a persistent capacity abort and RwLeLock demotes it to
// the serial NS path, where it blocks all readers for its full duration.
// ChoppedSection instead runs the section as a *chain* of small pieces,
// each committed as its own hardware transaction via
// HtmRuntime::TxCommitChained: a piece commit wins the regular commit race
// but captures its write buffer into a carryover TxWriteSet instead of
// publishing it, so the chain's intermediate state stays invisible to
// readers. Later pieces read their own chain's stores through the
// carryover (untracked, no capacity cost). When the final piece has been
// captured, the owner opens a short NS publication window, runs ONE
// quiescence barrier for the whole chain (the §3.3 amortization: one scan
// per chain, not per piece), stores the carryover back non-transactionally,
// and releases. Readers therefore see either none or all of the chain.
//
// Failure handling: a piece abort is retried up to max_piece_retries; a
// persistent abort (or retry exhaustion) unwinds the whole chain -- the
// carryover is discarded and the chain restarts from piece 0 (piece bodies
// must tolerate re-execution, like RwLeLock::Write bodies). After
// max_chain_unwinds the section falls back to the plain NS serial path.
//
// Two chain-serialization modes (ChopPolicy::serialize_chains):
//   - serialized (default, sound for any workload): the chain holds the
//     lock's write word as kRotLocked for its whole duration -- the chain
//     token. Readers proceed (they only defer to kNsLocked); all other
//     writers are excluded, so pieces only ever conflict with readers.
//     Publication upgrades the token in place to kNsLocked
//     (LockWord::Upgrade), which both blocks new readers and dooms
//     subscribed transactions.
//   - concurrent (serialize_chains = false): chains of different threads
//     run their pieces in parallel and serialize only on the NS publication
//     window. This recovers writer scalability past the capacity cliff,
//     but committed-and-captured pieces of a live chain are no longer
//     conflict-monitored, and in-flight pieces do not subscribe the lock
//     word (a subscription would let every publication doom every other
//     chain's pieces). Correctness therefore requires the classic chopping
//     precondition (Shasha & Snir): concurrent write sections' pieces must
//     be pairwise conflict-free or commutative (e.g. disjoint write
//     stripes); readers still conflict with pieces through the pieces' own
//     footprints and are drained by the publication barrier. The
//     capacity-sweep scenario uses disjoint per-writer stripes.
//
// Chopping defeats *capacity* aborts, not conflicts: a chain is only worth
// it when the section's footprint, not contention, is what kills elision.
#ifndef RWLE_SRC_CHOP_CHOPPED_SECTION_H_
#define RWLE_SRC_CHOP_CHOPPED_SECTION_H_

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "src/common/cpu.h"
#include "src/common/thread_registry.h"
#include "src/htm/tx_write_set.h"
#include "src/rwle/rwle_lock.h"

namespace rwle {

struct ChopPolicy {
  // Speculative attempts per piece before the chain unwinds.
  std::uint32_t max_piece_retries = 8;
  // Chain restarts before the section falls back to the NS serial path.
  std::uint32_t max_chain_unwinds = 8;
  // See the header comment: hold the chain token (sound default) vs run
  // chains concurrently under the chopping precondition.
  bool serialize_chains = true;
};

class ChoppedSection {
 public:
  explicit ChoppedSection(RwLeLock& lock, const ChopPolicy& policy = ChopPolicy{});

  ChoppedSection(const ChoppedSection&) = delete;
  ChoppedSection& operator=(const ChoppedSection&) = delete;

  // Executes `piece(0) .. piece(piece_count - 1)` as one chopped write
  // section on the underlying lock. Atomicity is all-or-nothing with
  // respect to the lock's readers. Piece bodies must confine shared-state
  // access to TxVar cells, must tolerate re-execution (of a piece, and of
  // the whole chain after an unwind), and must not take the underlying
  // lock themselves. Must not be called inside a Read/Write section of the
  // underlying lock.
  template <typename PieceFn>
  void Write(std::size_t piece_count, PieceFn&& piece) {
    WriteImpl(piece_count, PieceRef(piece));
  }

  const ChopPolicy& policy() const { return policy_; }

 private:
  // Non-owning reference to a `void(std::size_t)` callable, so the chain
  // driver can live in the .cc (same pattern as common/function_ref.h).
  class PieceRef {
   public:
    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, PieceRef>>>
    PieceRef(F&& f)  // NOLINT(google-explicit-constructor): intentional
        : object_(const_cast<void*>(static_cast<const void*>(&f))),
          invoke_([](void* object, std::size_t index) {
            (*static_cast<std::remove_reference_t<F>*>(object))(index);
          }) {}

    void operator()(std::size_t index) const { invoke_(object_, index); }

   private:
    void* object_;
    void (*invoke_)(void*, std::size_t);
  };

  void WriteImpl(std::size_t piece_count, PieceRef piece);

  // One speculative attempt of piece `index` (begin, body, chained commit).
  // Throws TxAbortException on a doomed piece; rethrows user exceptions
  // after cancelling the transaction.
  void RunPiece(std::size_t index, PieceRef piece);

  // Opens the NS publication window (upgrade the chain token, or acquire
  // the NS lock in concurrent mode), drains readers with the chain's single
  // quiescence barrier, publishes the carryover, ends the chain, releases.
  void PublishChain(std::uint32_t slot, std::uint64_t token, std::size_t pieces);

  // Serial-path escape hatch: runs all pieces pessimistically under the NS
  // lock, exactly like RwLeLock::Write's kNs arm.
  void RunNsFallback(std::uint32_t slot, std::uint64_t token, std::size_t piece_count,
                     PieceRef piece);

  RwLeLock& lock_;
  ChopPolicy policy_;

  // Per-thread carryover set, owner thread only. Cache-line separated so
  // concurrent chains do not false-share; capacity is retained across
  // chains like the runtime's write buffers.
  struct alignas(kCacheLineBytes) CarryoverShard {
    TxWriteSet set;
  };
  CarryoverShard carryover_[kMaxThreads];
};

}  // namespace rwle

#endif  // RWLE_SRC_CHOP_CHOPPED_SECTION_H_
