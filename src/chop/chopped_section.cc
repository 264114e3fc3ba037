#include "src/chop/chopped_section.h"

#include "src/common/check.h"
#include "src/common/sched_hooks.h"
#include "src/htm/htm_runtime.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_sink.h"

namespace rwle {
namespace {

// Sentinel for "no chain token held" (concurrent mode). A held lock word
// always has a non-zero state byte, so 0 never aliases a real token.
constexpr std::uint64_t kNoToken = 0;

// SerialSectionScope that only engages in serialized-chain mode.
class ConditionalSerialScope {
 public:
  ConditionalSerialScope(bool engage, SerialScope scope) : engaged_(engage) {
    if (engaged_) {
      CostMeter::Global().EnterSerial(scope_ = scope);
    }
  }
  ~ConditionalSerialScope() {
    if (engaged_) {
      CostMeter::Global().ExitSerial(scope_);
    }
  }
  ConditionalSerialScope(const ConditionalSerialScope&) = delete;
  ConditionalSerialScope& operator=(const ConditionalSerialScope&) = delete;

 private:
  bool engaged_;
  SerialScope scope_ = SerialScope::kWriters;
};

}  // namespace

ChoppedSection::ChoppedSection(RwLeLock& lock, const ChopPolicy& policy)
    : lock_(lock), policy_(policy) {
  // The chain protocol manages the single write word directly (acquire as
  // kRotLocked, upgrade to kNsLocked); the split-lock layout would need a
  // second token and a different publication handshake.
  RWLE_CHECK(!lock_.policy().split_rot_ns_locks &&
             "chopped sections require the single-lock layout");
}

void ChoppedSection::RunPiece(std::size_t index, PieceRef piece) {
  HtmRuntime& runtime = HtmRuntime::Global();
  if (!policy_.serialize_chains) {
    // Concurrent chains: wait out NS writers / publication windows so piece
    // work does not overlap a serial section's bulk, but do NOT subscribe
    // the lock word. Subscribing would let every publication CAS doom every
    // in-flight piece of every other chain -- and it buys nothing here: the
    // chopping precondition (pairwise conflict-free write sections, see the
    // header) already covers piece-vs-publication and piece-vs-fallback
    // overlap, and readers conflict through the pieces' own footprints.
    std::uint32_t spins = 0;
    while (lock_.wlock_.State() != LockState::kFree) {
      SpinBackoff(spins++);
    }
    runtime.TxBegin(TxKind::kHtm);
  } else {
    // Serialized chains hold the chain token (kRotLocked): NS writers and
    // other speculative writers are excluded for the chain's duration, so
    // the piece only needs conflict detection against readers -- no lock
    // subscription required (and subscribing would self-doom on upgrade).
    runtime.TxBegin(TxKind::kHtm);
  }
  try {
    piece(index);
  } catch (const TxAbortException&) {
    throw;
  } catch (...) {
    runtime.TxCancel();
    throw;  // user exception; WriteImpl unwinds the chain
  }
  runtime.TxCommitChained(carryover_[CurrentThreadSlot()].set);  // throws if doomed
}

void ChoppedSection::PublishChain(std::uint32_t slot, std::uint64_t token,
                                  std::size_t pieces) {
  HtmRuntime& runtime = HtmRuntime::Global();
  TxWriteSet& carryover = carryover_[slot].set;
  const std::uint64_t held =
      policy_.serialize_chains
          ? lock_.wlock_.Upgrade(token, LockState::kNsLocked)
          : lock_.AcquireNsPath();
  SerialSectionScope publish_scope(SerialScope::kGlobal);
  if (lock_.policy().fallback == FallbackScheme::kBravo) {
    lock_.BravoDrainAdmitted(slot);
  }
  // The chain's single quiescence barrier (§3.3 amortization): readers are
  // blocked by the NS word, so the blocked-reader scan drains everyone who
  // entered before the window opened. Pieces ran no barrier at all.
#ifdef RWLE_ANALYSIS
  if (!runtime.fault_injection().skip_quiescence)
#endif
  {
    lock_.SynchronizeNs(held);
  }
#ifdef RWLE_ANALYSIS
  bool dropped_one = false;
#endif
  for (const TxWriteSet::Entry& entry : carryover) {
#ifdef RWLE_ANALYSIS
    if (runtime.fault_injection().chop_drop_publish_entry && !dropped_one) {
      dropped_one = true;  // injected torn publish: skip the first entry
      continue;
    }
#endif
    runtime.CellStore(entry.cell, entry.value);
  }
  runtime.EndChain(/*committed=*/true);
  EmitTraceEvent(slot, TraceEventType::kChopChainCommit,
                 static_cast<std::uint8_t>(pieces), 0, carryover.size());
  carryover.Clear();
  lock_.ReleaseNsPath(held);
  lock_.stats().RecordChop(ChopCounter::kChain);
  lock_.stats().RecordCommit(CommitPath::kHtm);
}

void ChoppedSection::RunNsFallback(std::uint32_t slot, std::uint64_t token,
                                   std::size_t piece_count, PieceRef piece) {
  const std::uint64_t held =
      policy_.serialize_chains
          ? lock_.wlock_.Upgrade(token, LockState::kNsLocked)
          : lock_.AcquireNsPath();
  SerialSectionScope ns_scope(SerialScope::kGlobal);
  if (lock_.policy().fallback == FallbackScheme::kBravo) {
    lock_.BravoDrainAdmitted(slot);
  }
  lock_.SynchronizeNs(held);
  try {
    for (std::size_t i = 0; i < piece_count; ++i) {
      piece(i);
    }
  } catch (...) {
    lock_.ReleaseNsPath(held);
    throw;  // NS sections cannot abort; this is a user exception
  }
  lock_.ReleaseNsPath(held);
  lock_.stats().RecordChop(ChopCounter::kNsFallback);
  lock_.stats().RecordCommit(CommitPath::kSerial);
}

void ChoppedSection::WriteImpl(std::size_t piece_count, PieceRef piece) {
  const std::uint32_t slot = CurrentThreadSlot();
  RWLE_CHECK(slot != kInvalidThreadSlot);
  RwLeLock::Nesting& nesting = lock_.nesting_[slot];
  RWLE_CHECK(nesting.read_depth == 0 && nesting.write_depth == 0 &&
             "chopped sections do not nest with lock sections");
  if (piece_count == 0) {
    return;
  }
  // Mark the thread as inside a write section so a stray nested lock_.Read
  // in a piece body flattens (subsumed) instead of deadlocking on the token.
  const RwLeLock::NestingScope write_scope(&nesting.write_depth);

  HtmRuntime& runtime = HtmRuntime::Global();
  StatsRegistry& stats = lock_.stats();
  TxWriteSet& carryover = carryover_[slot].set;
  RWLE_CHECK(carryover.empty() && "carryover leaked from a previous chain");

  std::uint64_t token = kNoToken;
  if (policy_.serialize_chains) {
    token = lock_.wlock_.Acquire(LockState::kRotLocked);
  }
  // Serialized chains occupy the writer-serial bucket for their whole
  // duration (like the ROT path); concurrent chains' pieces run in the
  // parallel bucket and only the publication window is serial.
  const ConditionalSerialScope chain_scope(policy_.serialize_chains,
                                           SerialScope::kWriters);

  runtime.BeginChain(&carryover);
  bool chain_open = true;
  std::uint32_t unwinds = 0;
  try {
    for (;;) {  // chain attempts
      bool unwound = false;
      AbortCause unwind_cause = AbortCause::kNone;
      for (std::size_t i = 0; i < piece_count && !unwound; ++i) {
        std::uint32_t attempts = 0;
        for (;;) {  // piece retries
          try {
            RunPiece(i, piece);
            stats.RecordChop(ChopCounter::kPiece);
            if (i + 1 < piece_count) {
              // Gauge of inter-piece carried state: carryover footprint at
              // each piece boundary, summed over boundaries.
              stats.RecordChop(ChopCounter::kCarryoverBytes,
                               sizeof(TxWriteSet::Entry) * carryover.size());
            }
            break;
          } catch (const TxAbortException& abort) {
            stats.RecordAbort(abort.kind(), abort.cause());
            stats.RecordChop(ChopCounter::kPieceAbort);
            ++attempts;
            if (abort.persistent() || attempts > policy_.max_piece_retries) {
              unwound = true;
              unwind_cause = abort.cause();
              break;
            }
          }
        }
      }
      if (!unwound) {
        break;  // every piece captured; go publish
      }
      // Abort-of-piece => unwind-of-chain: discard the carryover and
      // restart from piece 0, or give up and go serial.
      stats.RecordChop(ChopCounter::kChainUnwind);
      EmitTraceEvent(slot, TraceEventType::kChopChainUnwind, 0,
                     static_cast<std::uint8_t>(unwind_cause));
      runtime.EndChain(/*committed=*/false);
      chain_open = false;
#ifdef RWLE_ANALYSIS
      if (!runtime.fault_injection().chop_keep_carryover_on_unwind)
#endif
      {
        carryover.Clear();
      }
      ++unwinds;
      if (unwinds > policy_.max_chain_unwinds) {
        carryover.Clear();
        // The fallback takes over the lock word (upgrade + release), so the
        // cleanup handler below must not release the stale token again.
        const std::uint64_t fallback_token = token;
        token = kNoToken;
        RunNsFallback(slot, fallback_token, piece_count, piece);
        return;
      }
      runtime.BeginChain(&carryover);
      chain_open = true;
    }
    {
      // Publication takes over the lock word (upgrade + release) as well.
      const std::uint64_t publish_token = token;
      token = kNoToken;
      PublishChain(slot, publish_token, piece_count);
    }
  } catch (...) {
    // A user exception escaped a piece body (the transaction was already
    // cancelled) or the NS fallback (which released the word itself).
    // Abandon the chain and restore the lock word before propagating.
    if (chain_open) {
      runtime.EndChain(/*committed=*/false);
    }
    carryover.Clear();
    if (token != kNoToken) {
      lock_.wlock_.Release(token);
    }
    throw;
  }
}

}  // namespace rwle
