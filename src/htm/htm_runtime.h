// The simulated POWER8 HTM facility: transaction control (begin / commit /
// abort / suspend / resume, HTM and ROT kinds) plus the shared-memory access
// fabric every TxVar load/store goes through. The fabric plays the role of
// the cache-coherence protocol: it is how an *uninstrumented* reader's load
// dooms a conflicting (possibly suspended) writer transaction.
//
// Concurrency protocol summary (full argument in DESIGN.md §3; the
// configurable deviations below are specified in DESIGN.md §15):
//  - Requester wins (default): any access that hits another transaction's
//    write set dooms that transaction; any store that hits a transaction's
//    read set dooms the reader transaction. Under
//    ResolutionPolicy::kCommitterWins, tx-vs-tx conflicts instead resolve
//    for the current line owner: a transactional load of an owned line
//    reads the backing value (and is doomed when the owner commits), a
//    transactional store to an owned line self-aborts, and reader
//    invalidation is deferred from claim time to the owner's commit point.
//    Non-transactional accesses doom eagerly in both modes.
//  - With HtmConfig::tracked_{read,write}_lines = K > 0, only a
//    transaction's first K distinct lines per set are conflict-tracked;
//    accesses beyond K are invisible to detection (FORTH limited-tracking
//    model) instead of aborting on capacity.
//  - Commit is aggregate-store: phase ACTIVE -> COMMITTING wins the race
//    against doomers; accesses that lose wait for write-back to finish, so
//    they observe all of the transaction's stores or none.
//  - Suspended transactions keep their footprint monitored; their own
//    accesses while suspended take the non-transactional path.
#ifndef RWLE_SRC_HTM_HTM_RUNTIME_H_
#define RWLE_SRC_HTM_HTM_RUNTIME_H_

#include <atomic>
#include <cstdint>

#include "src/common/check.h"
#include "src/common/sched_hooks.h"
#include "src/common/thread_registry.h"
#include "src/htm/abort.h"
#include "src/htm/conflict_table.h"
#include "src/htm/fabric_observer.h"
#include "src/htm/htm_config.h"
#include "src/htm/tx_context.h"
#include "src/stats/cost_meter.h"

namespace rwle {

// Implemented by the paging model (src/memory/paging_model.h). Called on
// every fabric access; returns true if the access incurred a page fault /
// interrupt, which dooms any in-flight transaction of the calling thread.
class InterruptSource {
 public:
  virtual ~InterruptSource() = default;
  virtual bool OnAccess(std::uint32_t thread_slot, const void* address) = 0;
};

class HtmRuntime {
 public:
  // The process-wide facility (one "machine"). Tests reconfigure it via
  // set_config between runs; TxVar routes through it unconditionally.
  // Inline so every TxVar access skips a call; constructed on first use, so
  // no static initialiser can see it unconstructed.
  static HtmRuntime& Global() {
    static HtmRuntime runtime;
    return runtime;
  }

  HtmRuntime(const HtmRuntime&) = delete;
  HtmRuntime& operator=(const HtmRuntime&) = delete;

  const HtmConfig& config() const { return config_; }
  // Must not be called while any transaction *or chopped chain* is in
  // flight (checked in debug builds): a live transaction could straddle two
  // capacity limits, and a chain's later pieces would begin under different
  // limits than the pieces whose captured state they extend.
  void set_config(const HtmConfig& config) {
#ifndef NDEBUG
    for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
      RWLE_DCHECK(!contexts_[slot].HasLiveTx() &&
                  "set_config called while a transaction is in flight");
    }
    // Relaxed: a zero count while no Begin/EndChain runs concurrently (the
    // caller's contract) needs no ordering; this is a debug-only guard.
    RWLE_DCHECK(live_chains_.load(std::memory_order_relaxed) == 0 &&
                "set_config called while a chopped chain is live");
#endif
    config_ = config;
  }

  // Interrupt injection (paging model). Null disables it.
  void set_interrupt_source(InterruptSource* source) { interrupt_source_ = source; }
  InterruptSource* interrupt_source() const { return interrupt_source_; }

  // Context of the calling thread, or nullptr if the thread never
  // registered a ScopedThreadSlot.
  TxContext* CurrentContext();

  TxContext& ContextAt(std::uint32_t thread_slot) { return contexts_[thread_slot]; }

  // --- Transaction control (operates on the calling thread's context) ---

  // Starts a transaction of the given kind. The calling thread must be
  // registered and must not already be in a transaction.
  void TxBegin(TxKind kind);

  // Commits the current transaction, atomically publishing its buffered
  // stores. Throws TxAbortException if the transaction was doomed.
  void TxCommit();

  // --- Chopped-chain support (src/chop/) --------------------------------
  //
  // A chopped chain runs one oversized critical section as several small
  // transactions ("pieces"). Pieces commit with TxCommitChained, which wins
  // the same ACTIVE -> COMMITTING race as TxCommit but *captures* the write
  // buffer into `carryover` instead of publishing it, so nothing becomes
  // visible to other threads until the chain's owner publishes the whole
  // carryover set at chain end (ChoppedSection does that under its chain
  // lock, after one quiescence barrier). Footprint is released and the
  // epoch advances exactly as in TxCommit, so conflict detection for the
  // next piece starts clean.

  // Marks a chain live on the calling thread: `carryover` becomes the
  // thread's chain-redo set (transactional loads consult it after the write
  // buffer, untracked -- read-own-chain-writes with no capacity cost), and
  // set_config is forbidden until EndChain. No transaction may be live.
  void BeginChain(const TxWriteSet* carryover);
  void EndChain(bool committed);

  // Commits the current piece into `carryover`. Throws TxAbortException if
  // the piece was doomed (the caller unwinds the chain or retries the
  // piece; the carryover set is untouched by a failed piece).
  void TxCommitChained(TxWriteSet& carryover);

  // Self-aborts the current transaction with the given cause and throws.
  [[noreturn]] void TxAbort(AbortCause cause);

  // Like TxAbort but does not throw; used to unwind cleanly when a foreign
  // exception propagates out of a speculative critical section. No-op if no
  // transaction is live.
  void TxCancel(AbortCause cause = AbortCause::kExplicit);

  // Suspends / resumes the current transaction (POWER8 tsuspend./tresume.).
  // While suspended, the thread's accesses are non-transactional but the
  // transaction's footprint stays monitored; conflicts doom it and the
  // doom surfaces at TxCommit.
  void TxSuspend();
  void TxResume();

  // True if the calling thread is between TxBegin and TxCommit and not
  // suspended (i.e. its accesses are transactional).
  bool InTx();

  // --- Shared-memory access fabric (used by TxVar) ---

  // Inline fast path: the access prologue (scheduling point, kAccess
  // charge, interrupt check, preemption counter -- in that order) and the
  // common uninstrumented case, a thread with no live transaction loading
  // an unowned line. Everything that can track, doom or wait runs out of
  // line in CellLoadSlow.
  std::uint64_t CellLoad(std::atomic<std::uint64_t>* cell) {
    RWLE_SCHED_POINT(kFabricLoad, cell);
    // One thread-local read per access: the slot feeds context lookup and
    // cost accounting.
    const std::uint32_t self = CurrentThreadSlot();
    CostMeter::Global().ChargeAt(self, CostModel::kAccess);
    TxContext* ctx = self == kInvalidThreadSlot ? nullptr : &contexts_[self];
    MaybeInjectInterrupt(ctx, cell);
    MaybePreempt(ctx);
    if ((ctx == nullptr || ctx->phase() == TxPhase::kIdle) &&
        table_.SlotFor(cell).writer.load() == 0) {
      return FabricLoad(FabricAccess::kNonTx, self, cell);
    }
    return CellLoadSlow(ctx, cell);
  }
  void CellStore(std::atomic<std::uint64_t>* cell, std::uint64_t value);

  // Non-transactional compare-and-swap on a fabric cell, used by lock
  // acquisition paths (never called inside a transaction). On success it
  // dooms every transaction that subscribed to (transactionally read) the
  // cell's line -- the "acquiring the lock aborts all fast-path
  // transactions" semantics HLE relies on.
  bool CellCas(std::atomic<std::uint64_t>* cell, std::uint64_t expected,
               std::uint64_t desired);

  ConflictTable& conflict_table() { return table_; }

  // --- Analysis build (txsan) support -----------------------------------
  //
  // The observer pointer exists in every build so src/analysis can link
  // against an unmodified interface, but all invocation sites are inside
  // #ifdef RWLE_ANALYSIS: production hot paths never test it.
  void set_analysis_observer(FabricObserver* observer) {
    // Release: publishes the observer object's construction to threads that
    // load the pointer with acquire below.
    analysis_observer_.store(observer, std::memory_order_release);
  }
  FabricObserver* analysis_observer() const {
    // Acquire: pairs with the release store above so a non-null observer is
    // seen fully constructed.
    return analysis_observer_.load(std::memory_order_acquire);
  }

#ifdef RWLE_ANALYSIS
  // Test-only semantic-bug injection used by the txsan self-tests: each flag
  // breaks one invariant of the DESIGN.md §3 contract so the self-test can
  // assert the checker catches it. Never set outside tests.
  struct FaultInjection {
    bool skip_requester_wins_doom = false;  // TryDoomOwner pretends owner is gone
    bool drop_write_back_entry = false;     // commit skips one buffered store
    bool write_back_on_abort = false;       // doomed tx publishes its buffer
    bool leak_speculative_store = false;    // TxStore writes through to memory
    bool rot_tracks_reads = false;          // ROT loads take read-set entries
    bool unmonitor_on_suspend = false;      // suspend releases write ownership
    bool skip_quiescence = false;           // RW-LE commit skips Synchronize()
    // Chopping-layer bugs (src/chop/):
    bool chop_eager_piece_publish = false;   // piece capture also hits memory
    bool chop_drop_publish_entry = false;    // chain publish skips one entry
    bool chop_keep_carryover_on_unwind = false;  // unwind keeps stale redo
  };
  FaultInjection& fault_injection() { return fault_injection_; }

  // Entry points for TxVar::LoadDirect/StoreDirect and construction in
  // analysis builds, so even fabric-bypassing accesses reach the observer.
  std::uint64_t DirectCellLoad(std::atomic<std::uint64_t>* cell) {
    if (FabricObserver* obs = analysis_observer()) {
      return obs->ObservedLoad(FabricAccess::kDirect, CurrentThreadSlot(), cell);
    }
    // Relaxed: Direct accesses are contractually race-free (no transaction
    // in flight), so no ordering is required.
    return cell->load(std::memory_order_relaxed);
  }
  void DirectCellStore(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
    if (FabricObserver* obs = analysis_observer()) {
      obs->ObservedStore(FabricAccess::kDirect, CurrentThreadSlot(), cell, value);
      return;
    }
    // Relaxed: same contract as DirectCellLoad above -- race-free by spec.
    cell->store(value, std::memory_order_relaxed);
  }
  void CellInit(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
    RWLE_TXSAN_HOOK(*this, OnCellInit(cell, value));
  }
#endif  // RWLE_ANALYSIS

 private:
  enum class DoomOutcome {
    kDoomed,         // this call doomed the owner
    kAlreadyDoomed,  // owner already dead; speculative state discarded
    kGone,           // token is stale; owner's transaction already ended
    kCommitting,     // owner is writing back; caller must wait
  };

  HtmRuntime();

  DoomOutcome TryDoomOwner(OwnerToken token, AbortCause cause);
  void DoomReaders(std::uint32_t index, std::uint32_t skip_thread_slot, AbortCause cause);
  void WaitWhileCommitting(OwnerToken token);

  // Non-dooming owner probe for the committer-wins resolution policy,
  // which must inspect an owner's state without disturbing it. Callers that
  // must distinguish committing from live owners take one status snapshot
  // and switch on its phase instead (see ClaimLineForWrite): two separate
  // probes would misclassify an owner racing ACTIVE->COMMITTING as dead.
  bool OwnerCommitting(OwnerToken token) {
    const std::uint64_t status = contexts_[OwnerTokenSlot(token)].status_.load();
    return StatusEpoch(status) == OwnerTokenEpoch(token) &&
           StatusPhase(status) == TxPhase::kCommitting;
  }

  // CellLoad past its fast path: transactional loads, doomed contexts,
  // suspended transactions and owned lines.
  std::uint64_t CellLoadSlow(TxContext* ctx, std::atomic<std::uint64_t>* cell);
  std::uint64_t TxLoad(TxContext& ctx, std::atomic<std::uint64_t>* cell);
  std::uint64_t NonTxLoad(TxContext* ctx, std::atomic<std::uint64_t>* cell);
  void TxStore(TxContext& ctx, std::atomic<std::uint64_t>* cell, std::uint64_t value);
  void NonTxStore(TxContext* ctx, std::atomic<std::uint64_t>* cell, std::uint64_t value);

  // Claims write ownership of the cell's line for ctx (resolving
  // conflicting transactions per the resolution policy) and records it in
  // the write set. Returns false if limited tracking left the line
  // *untracked* (FORTH model: the store is buffered and written back, but
  // invisible to conflict detection until then).
  bool ClaimLineForWrite(TxContext& ctx, std::atomic<std::uint64_t>* cell);

  // Throws (after cleanup) if ctx has been doomed by another thread.
  void ThrowIfDoomed(TxContext& ctx);

  // Releases footprint, discards the buffer, advances the epoch. Returns
  // the recorded abort cause.
  AbortCause FinishAbort(TxContext& ctx);

  // Releases the footprint of ctx's transaction `epoch` -- owned lines,
  // reader bits, then the summary bit -- and empties its buffer and logs.
  // Every commit and abort path ends with this, before the epoch advance.
  void ReleaseFootprint(TxContext& ctx, std::uint64_t epoch);

  [[noreturn]] void AbortSelf(TxContext& ctx, AbortCause cause);

  // Calls the interrupt source, if one is installed; on a fault with a live
  // transaction, dooms it (and throws if the transaction is currently
  // active).
  void MaybeInjectInterrupt(TxContext* ctx, const void* address) {
    if (interrupt_source_ != nullptr) {
      InjectInterrupt(ctx, address);
    }
  }
  void InjectInterrupt(TxContext* ctx, const void* address);

  // Terminal fabric accesses. In analysis builds these route through the
  // observer (which performs the access under its own serialization); in
  // production builds they compile to the bare atomic operation.
  std::uint64_t FabricLoad(FabricAccess access, std::uint32_t slot,
                           std::atomic<std::uint64_t>* cell) {
#ifdef RWLE_ANALYSIS
    if (FabricObserver* obs = analysis_observer()) {
      return obs->ObservedLoad(access, slot, cell);
    }
#else
    (void)access;
    (void)slot;
#endif
    return cell->load();
  }
  void FabricStore(FabricAccess access, std::uint32_t slot,
                   std::atomic<std::uint64_t>* cell, std::uint64_t value) {
#ifdef RWLE_ANALYSIS
    if (FabricObserver* obs = analysis_observer()) {
      obs->ObservedStore(access, slot, cell, value);
      return;
    }
#else
    (void)access;
    (void)slot;
#endif
    cell->store(value);
  }
  bool FabricCas(std::uint32_t slot, std::atomic<std::uint64_t>* cell,
                 std::uint64_t expected, std::uint64_t desired) {
#ifdef RWLE_ANALYSIS
    if (FabricObserver* obs = analysis_observer()) {
      return obs->ObservedCas(slot, cell, expected, desired);
    }
#else
    (void)slot;
#endif
    return cell->compare_exchange_strong(expected, desired);
  }

  // Preemption model: yields every config_.yield_access_period accesses so
  // critical sections overlap in time even on hosts with few cores. Counts
  // up to the period and resets -- a compare, not a modulo, per access --
  // and delivers the yield out of line.
  void MaybePreempt(TxContext* ctx) {
    if (ctx == nullptr || config_.yield_access_period == 0) {
      return;
    }
    if (++ctx->access_counter_ >= config_.yield_access_period) {
      ctx->access_counter_ = 0;
      DeliverPreemption();
    }
  }
  void DeliverPreemption();

  HtmConfig config_;
  // Static, and constant-initialised where it is defined: the ~12 MB table
  // sits in zero-filled storage that no constructor walks, so slots (and
  // overflow reader words) that no access touches never become resident.
  // One table per process matches the one runtime Global() constructs.
  static ConflictTable table_;
  TxContext contexts_[kMaxThreads];
  // Chains currently live across all threads; guards set_config against
  // changing capacity limits mid-chain (see the DCHECK above).
  std::atomic<std::uint32_t> live_chains_{0};
  InterruptSource* interrupt_source_ = nullptr;
  std::atomic<FabricObserver*> analysis_observer_{nullptr};
#ifdef RWLE_ANALYSIS
  FaultInjection fault_injection_;
#endif
};

// RAII bracket for an RW-LE elided write critical section; no-op outside
// analysis builds.
class AnalysisElidedWriteScope {
 public:
  explicit AnalysisElidedWriteScope(HtmRuntime& runtime, std::uint32_t slot)
      : runtime_(runtime), slot_(slot) {
    RWLE_TXSAN_HOOK(runtime_, OnElidedWriteBegin(slot_));
  }
  ~AnalysisElidedWriteScope() { RWLE_TXSAN_HOOK(runtime_, OnElidedWriteEnd(slot_)); }
  AnalysisElidedWriteScope(const AnalysisElidedWriteScope&) = delete;
  AnalysisElidedWriteScope& operator=(const AnalysisElidedWriteScope&) = delete;

 private:
  [[maybe_unused]] HtmRuntime& runtime_;
  [[maybe_unused]] std::uint32_t slot_;
};

}  // namespace rwle

#endif  // RWLE_SRC_HTM_HTM_RUNTIME_H_
