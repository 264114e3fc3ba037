#include "src/htm/htm_runtime.h"

#include <thread>

#include "src/common/check.h"
#include "src/common/cpu.h"
#include "src/common/sched_hooks.h"
#include "src/htm/preemption.h"
#include "src/stats/cost_meter.h"
#include "src/trace/trace_sink.h"

namespace rwle {

#ifdef RWLE_ANALYSIS
namespace txsan {
// Defined in src/analysis/txsan.cc; installs the observer when RWLE_TXSAN=1
// is set in the environment. Referencing it here (rather than relying on a
// static initializer in the analysis library) guarantees the linker keeps
// the txsan objects in analysis builds.
void InitFromEnv(HtmRuntime* runtime);
}  // namespace txsan
#endif

// Zero-filled at load time; see the declaration.
constinit ConflictTable HtmRuntime::table_;

HtmRuntime::HtmRuntime() {
  for (std::uint32_t slot = 0; slot < kMaxThreads; ++slot) {
    contexts_[slot].thread_slot_ = slot;
  }
#ifdef RWLE_ANALYSIS
  // Sanctioned bootstrap: the one place analysis builds wire txsan into the
  // runtime; it is inside #ifdef RWLE_ANALYSIS so production stays hook-free.
  // Global() constructs the runtime exactly once, so this runs once.
  txsan::InitFromEnv(this);  // rwle-lint: disable(hook-hygiene)
#endif
}

TxContext* HtmRuntime::CurrentContext() {
  const std::uint32_t slot = CurrentThreadSlot();
  if (slot == kInvalidThreadSlot) {
    return nullptr;
  }
  return &contexts_[slot];
}

// --- Transaction control ----------------------------------------------------

void HtmRuntime::TxBegin(TxKind kind) {
  RWLE_SCHED_POINT(kTxBegin, nullptr);
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr && "TxBegin requires a registered thread");
  const std::uint64_t status = ctx->status_.load();
  RWLE_CHECK(StatusPhase(status) == TxPhase::kIdle && "nested transactions unsupported");

  ctx->kind_ = kind;
  ctx->escape_mode_ = false;
  // Buffer and set logs were cleared on the way out of the previous
  // transaction (TxCommit / FinishAbort); don't re-touch them here.
  RWLE_DCHECK(ctx->write_buffer_.empty());
  RWLE_DCHECK(ctx->owned_line_indices_.empty());
  RWLE_DCHECK(ctx->read_line_indices_.empty());
  CostMeter::Global().ChargeAt(ctx->thread_slot_, CostModel::kTxBegin);
  // Same epoch, ACTIVE phase. Plain store is safe: nobody dooms an IDLE
  // context (TryDoomOwner requires an epoch-matching ACTIVE/SUSPENDED
  // snapshot, and all footprint bits of epoch e-1 were cleared before the
  // epoch advanced). Release, not seq_cst: a doomer can only find this
  // context through footprint it publishes later, and every footprint
  // publication is a seq_cst RMW (line-claim CAS / reader-bit fetch_or)
  // that carries this store with it. seq_cst would buy nothing and costs
  // a full fence per transaction on x86.
  ctx->status_.store(PackStatus(StatusEpoch(status), AbortCause::kNone, TxPhase::kActive),
                     std::memory_order_release);
  RWLE_TXSAN_HOOK(*this, OnTxBegin(ctx->thread_slot_, kind));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kTxBegin, static_cast<std::uint8_t>(kind));
}

void HtmRuntime::TxCommit() {
  // Placed before the ACTIVE -> COMMITTING race so the scheduler can insert
  // a doomer between the last access and the commit attempt.
  RWLE_SCHED_POINT(kTxCommit, nullptr);
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  const std::uint64_t epoch = StatusEpoch(ctx->status_.load());
  std::uint64_t expected = PackStatus(epoch, AbortCause::kNone, TxPhase::kActive);
  const std::uint64_t committing = PackStatus(epoch, AbortCause::kNone, TxPhase::kCommitting);
  if (!ctx->status_.compare_exchange_strong(expected, committing)) {
    // Lost the race against a doomer (or resumed already-doomed): abort.
    RWLE_CHECK(StatusPhase(expected) == TxPhase::kDoomed);
    const AbortCause cause = FinishAbort(*ctx);
    throw TxAbortException(cause, ctx->kind_);
  }

  // Aggregate-store write-back: conflicting accesses observe COMMITTING and
  // wait, so the buffer publishes all-or-nothing.
  RWLE_TXSAN_HOOK(*this, OnTxCommitting(ctx->thread_slot_));
  if (config_.resolution == ResolutionPolicy::kCommitterWins) {
    // Committer-wins defers reader invalidation from claim time to the
    // commit point: only now that this transaction is certain to commit do
    // its stores invalidate concurrent readers' monitors. Before the
    // write-back, so no doomed reader can observe a half-published buffer
    // and survive to commit; a reader that publishes its bit after this
    // scan self-aborts in TxLoad's post-bit owner re-check.
    for (const std::uint32_t index : ctx->owned_line_indices_) {
      DoomReaders(index, ctx->thread_slot_, AbortCause::kConflictTx);
    }
  }
#ifdef RWLE_ANALYSIS
  bool dropped_one = false;
#endif
  for (const TxWriteSet::Entry& entry : ctx->write_buffer_) {
#ifdef RWLE_ANALYSIS
    if (fault_injection_.drop_write_back_entry && !dropped_one) {
      dropped_one = true;  // injected bug: aggregate commit loses a store
      continue;
    }
    if (FabricObserver* obs = analysis_observer()) {
      obs->ObservedWriteBack(ctx->thread_slot_, entry.cell, entry.value);
      continue;
    }
#endif
    // Release is enough for the write-back itself: a conflicting access
    // either (a) still sees the line owned and waits for the status word's
    // final release-store below, or (b) sees the slot-release CAS -- a
    // seq_cst RMW sequenced after every one of these stores -- and
    // synchronizes through it. Either path makes the whole buffer visible;
    // per-store full fences here would serialize the commit loop.
    entry.cell->store(entry.value, std::memory_order_release);
  }

  ReleaseFootprint(*ctx, epoch);
  CostMeter::Global().ChargeAt(ctx->thread_slot_, CostModel::kTxCommit);
  RWLE_TXSAN_HOOK(*this, OnTxCommitted(ctx->thread_slot_, ctx->kind_));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kTxCommit,
                 static_cast<std::uint8_t>(ctx->kind_));
  // Publishes "write-back done" to anyone spinning in WaitWhileCommitting:
  // release orders the buffered cell stores and footprint clears before the
  // epoch advance. (The slot-release CASes above are full fences already.)
  ctx->status_.store(PackStatus(epoch + 1, AbortCause::kNone, TxPhase::kIdle),
                     std::memory_order_release);
}

// --- Chopped chains (src/chop/) ---------------------------------------------

void HtmRuntime::BeginChain(const TxWriteSet* carryover) {
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr && "BeginChain requires a registered thread");
  RWLE_CHECK(!ctx->HasLiveTx() && "BeginChain inside a transaction");
  RWLE_CHECK(ctx->chain_redo_ == nullptr && "nested chains unsupported");
  RWLE_CHECK(carryover != nullptr);
  ctx->chain_redo_ = carryover;
  // Relaxed: the counter only feeds the debug-only set_config guard, whose
  // contract already requires no Begin/EndChain runs concurrently with it;
  // no cross-thread ordering hangs off this count.
  live_chains_.fetch_add(1, std::memory_order_relaxed);
  RWLE_TXSAN_HOOK(*this, OnChainBegin(ctx->thread_slot_));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kChopChainBegin);
}

void HtmRuntime::EndChain(bool committed) {
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  RWLE_CHECK(ctx->chain_redo_ != nullptr && "EndChain without BeginChain");
  RWLE_CHECK(!ctx->HasLiveTx() && "EndChain with a live piece");
  ctx->chain_redo_ = nullptr;
  // Relaxed: see BeginChain -- debug-only guard, no ordering required.
  live_chains_.fetch_sub(1, std::memory_order_relaxed);
  RWLE_TXSAN_HOOK(*this, OnChainEnd(ctx->thread_slot_, committed));
  (void)committed;  // consumed only by the txsan hook in analysis builds
}

void HtmRuntime::TxCommitChained(TxWriteSet& carryover) {
  // Same commit race as TxCommit: the scheduler can insert a doomer between
  // the piece's last access and its commit attempt.
  RWLE_SCHED_POINT(kTxCommit, nullptr);
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  RWLE_CHECK(ctx->chain_redo_ == &carryover && "TxCommitChained outside its chain");
  const std::uint64_t epoch = StatusEpoch(ctx->status_.load());
  std::uint64_t expected = PackStatus(epoch, AbortCause::kNone, TxPhase::kActive);
  const std::uint64_t committing = PackStatus(epoch, AbortCause::kNone, TxPhase::kCommitting);
  if (!ctx->status_.compare_exchange_strong(expected, committing)) {
    // Lost the race against a doomer: the piece aborts, the carryover set
    // is untouched, and the caller decides retry-vs-unwind.
    RWLE_CHECK(StatusPhase(expected) == TxPhase::kDoomed);
    const AbortCause cause = FinishAbort(*ctx);
    throw TxAbortException(cause, ctx->kind_);
  }

  // Capture instead of write-back: the piece's buffered stores move into the
  // chain's carryover set and never reach memory, so readers keep observing
  // pre-chain state. A conflicting access that lost the COMMITTING race
  // waits exactly as for TxCommit and then reads the (unchanged) backing
  // value -- intermediate chain state stays invisible. Committer-wins needs
  // no deferred reader invalidation here: a capture publishes nothing, so
  // concurrent readers' observations of the backing values stay valid; the
  // chain's eventual NS publication dooms readers through the plain store
  // path, which is eager under every resolution policy.
  RWLE_TXSAN_HOOK(*this, OnTxCommitting(ctx->thread_slot_));
  for (const TxWriteSet::Entry& entry : ctx->write_buffer_) {
    carryover.Put(entry.cell, entry.value);
#ifdef RWLE_ANALYSIS
    if (fault_injection_.chop_eager_piece_publish) {
      // Injected bug: the capture also writes through to real memory,
      // exposing intermediate chain state to concurrent readers.
      entry.cell->store(entry.value);
    }
#endif
  }

  ReleaseFootprint(*ctx, epoch);
  CostMeter::Global().ChargeAt(ctx->thread_slot_, CostModel::kTxCommit);
  // OnChainCapture, not OnTxCommitted: the piece deliberately violates the
  // committed-transaction contract (no entry was written back), so txsan
  // mirrors the buffer into its chain shadow instead of checking write-back.
  RWLE_TXSAN_HOOK(*this, OnChainCapture(ctx->thread_slot_));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kChopPieceCommit,
                 static_cast<std::uint8_t>(ctx->kind_), 0, carryover.size());
  // Footprint is clear: advance the epoch and go idle, release-ordered for
  // the same reason as TxCommit's epoch advance.
  ctx->status_.store(PackStatus(epoch + 1, AbortCause::kNone, TxPhase::kIdle),
                     std::memory_order_release);
}

void HtmRuntime::TxAbort(AbortCause cause) {
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  AbortSelf(*ctx, cause);
}

void HtmRuntime::TxCancel(AbortCause cause) {
  TxContext* ctx = CurrentContext();
  if (ctx == nullptr) {
    return;
  }
  for (;;) {
    const std::uint64_t status = ctx->status_.load();
    switch (StatusPhase(status)) {
      case TxPhase::kIdle:
        return;
      case TxPhase::kActive:
      case TxPhase::kSuspended:
        if (ctx->CasDoom(status, cause)) {
          FinishAbort(*ctx);
          return;
        }
        break;  // lost to a concurrent doomer; retry and clean up
      case TxPhase::kDoomed:
        FinishAbort(*ctx);
        return;
      case TxPhase::kCommitting:
        RWLE_CHECK(false && "TxCancel during commit");
        return;
    }
  }
}

void HtmRuntime::TxSuspend() {
  RWLE_SCHED_POINT(kTxSuspend, nullptr);
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  const std::uint64_t epoch = StatusEpoch(ctx->status_.load());
  std::uint64_t expected = PackStatus(epoch, AbortCause::kNone, TxPhase::kActive);
  const std::uint64_t suspended = PackStatus(epoch, AbortCause::kNone, TxPhase::kSuspended);
  if (!ctx->status_.compare_exchange_strong(expected, suspended)) {
    // Already doomed: stay doomed. The suspended region still runs
    // (non-transactionally); the abort surfaces at TxCommit.
    RWLE_CHECK(StatusPhase(expected) == TxPhase::kDoomed);
  }
  ctx->escape_mode_ = true;
#ifdef RWLE_ANALYSIS
  if (fault_injection_.unmonitor_on_suspend) {
    // Injected bug: suspend releases write ownership, so the suspended
    // footprint is no longer monitored against conflicting writers.
    const OwnerToken token = MakeOwnerToken(ctx->thread_slot_, epoch);
    for (const std::uint32_t index : ctx->owned_line_indices_) {
      OwnerToken mine = token;
      table_.SlotAt(index).writer.compare_exchange_strong(mine, 0);
    }
  }
#endif
  RWLE_TXSAN_HOOK(*this, OnTxSuspend(ctx->thread_slot_));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kTxSuspend,
                 static_cast<std::uint8_t>(ctx->kind_));
}

void HtmRuntime::TxResume() {
  RWLE_SCHED_POINT(kTxResume, nullptr);
  TxContext* ctx = CurrentContext();
  RWLE_CHECK(ctx != nullptr);
  const std::uint64_t epoch = StatusEpoch(ctx->status_.load());
  std::uint64_t expected = PackStatus(epoch, AbortCause::kNone, TxPhase::kSuspended);
  const std::uint64_t active = PackStatus(epoch, AbortCause::kNone, TxPhase::kActive);
  ctx->escape_mode_ = false;
  if (!ctx->status_.compare_exchange_strong(expected, active)) {
    RWLE_CHECK(StatusPhase(expected) == TxPhase::kDoomed);
  }
  RWLE_TXSAN_HOOK(*this, OnTxResume(ctx->thread_slot_));
  EmitTraceEvent(ctx->thread_slot_, TraceEventType::kTxResume,
                 static_cast<std::uint8_t>(ctx->kind_));
}

bool HtmRuntime::InTx() {
  TxContext* ctx = CurrentContext();
  return ctx != nullptr && ctx->InActiveTx();
}

void HtmRuntime::ThrowIfDoomed(TxContext& ctx) {
  if (StatusPhase(ctx.status_.load()) == TxPhase::kDoomed) {
    const AbortCause cause = FinishAbort(ctx);
    throw TxAbortException(cause, ctx.kind_);
  }
}

AbortCause HtmRuntime::FinishAbort(TxContext& ctx) {
  // Covers every abort flavor (self-abort, doomed-at-commit, cancel): the
  // scheduler can interleave other threads with the footprint release.
  RWLE_SCHED_POINT(kTxAbort, nullptr);
  const std::uint64_t status = ctx.status_.load();
  RWLE_CHECK(StatusPhase(status) == TxPhase::kDoomed);
  const std::uint64_t epoch = StatusEpoch(status);
  const AbortCause cause = StatusCause(status);

#ifdef RWLE_ANALYSIS
  if (fault_injection_.write_back_on_abort) {
    // Injected bug: the doomed transaction publishes its dead buffer.
    for (const TxWriteSet::Entry& entry : ctx.write_buffer_) {
      entry.cell->store(entry.value);
    }
  }
#endif

  ReleaseFootprint(ctx, epoch);
  CostMeter::Global().ChargeAt(ctx.thread_slot_, CostModel::kTxAbort);
  RWLE_TXSAN_HOOK(*this, OnTxAborted(ctx.thread_slot_, ctx.kind_, cause));
  EmitTraceEvent(ctx.thread_slot_, TraceEventType::kTxAbort,
                 static_cast<std::uint8_t>(ctx.kind_), static_cast<std::uint8_t>(cause));
  // Footprint is clear: safe to advance the epoch and go idle. Release for
  // the same reason as the commit-side epoch advance: the footprint-release
  // RMWs above are what doomers synchronize through.
  ctx.status_.store(PackStatus(epoch + 1, AbortCause::kNone, TxPhase::kIdle),
                    std::memory_order_release);
  return cause;
}

void HtmRuntime::ReleaseFootprint(TxContext& ctx, std::uint64_t epoch) {
  // CAS, not store: a dead owner's line may already have been reclaimed by
  // another transaction.
  const OwnerToken token = MakeOwnerToken(ctx.thread_slot_, epoch);
  for (const std::uint32_t index : ctx.owned_line_indices_) {
    OwnerToken mine = token;
    table_.SlotAt(index).writer.compare_exchange_strong(mine, 0);
  }
  if (!ctx.read_line_indices_.empty()) {
    for (const std::uint32_t index : ctx.read_line_indices_) {
      table_.ClearReaderBit(index, ctx.thread_slot_);
    }
    // Last, so a clear summary bit always means no reader bit is set.
    table_.ExitReader(ctx.thread_slot_);
  }
  ctx.write_buffer_.Clear();
  ctx.owned_line_indices_.clear();
  ctx.read_line_indices_.clear();
}

void HtmRuntime::AbortSelf(TxContext& ctx, AbortCause cause) {
  const std::uint64_t status = ctx.status_.load();
  const TxPhase phase = StatusPhase(status);
  if (phase == TxPhase::kActive || phase == TxPhase::kSuspended) {
    // May lose to a concurrent doomer; either way the transaction is doomed
    // and FinishAbort picks up whichever cause won.
    ctx.CasDoom(status, cause);
  }
  const AbortCause recorded = FinishAbort(ctx);
  throw TxAbortException(recorded, ctx.kind_);
}

// --- Cross-thread dooming ---------------------------------------------------

HtmRuntime::DoomOutcome HtmRuntime::TryDoomOwner(OwnerToken token, AbortCause cause) {
#ifdef RWLE_ANALYSIS
  if (fault_injection_.skip_requester_wins_doom) {
    return DoomOutcome::kGone;  // injected bug: requester-wins doom skipped
  }
#endif
  TxContext& owner = contexts_[OwnerTokenSlot(token)];
  std::uint32_t spins = 0;
  for (;;) {
    const std::uint64_t status = owner.status_.load();
    if (StatusEpoch(status) != OwnerTokenEpoch(token)) {
      return DoomOutcome::kGone;
    }
    switch (StatusPhase(status)) {
      case TxPhase::kIdle:
        return DoomOutcome::kGone;
      case TxPhase::kActive:
      case TxPhase::kSuspended:
        if (owner.CasDoom(status, cause)) {
          return DoomOutcome::kDoomed;
        }
        SpinBackoff(spins++);
        break;  // status changed under us; re-evaluate
      case TxPhase::kCommitting:
        return DoomOutcome::kCommitting;
      case TxPhase::kDoomed:
        return DoomOutcome::kAlreadyDoomed;
    }
  }
}

void HtmRuntime::WaitWhileCommitting(OwnerToken token) {
  TxContext& owner = contexts_[OwnerTokenSlot(token)];
  std::uint32_t spins = 0;
  for (;;) {
    const std::uint64_t status = owner.status_.load();
    if (StatusEpoch(status) != OwnerTokenEpoch(token) ||
        StatusPhase(status) != TxPhase::kCommitting) {
      return;
    }
    SpinBackoff(spins++);
  }
}

void HtmRuntime::DoomReaders(std::uint32_t index, std::uint32_t skip_thread_slot,
                             AbortCause cause) {
  table_.ForEachReader(index, [&](std::uint32_t reader_slot) {
    if (reader_slot == skip_thread_slot) {
      return;
    }
    TxContext& reader = contexts_[reader_slot];
    std::uint32_t spins = 0;
    for (;;) {
      const std::uint64_t status = reader.status_.load();
      const TxPhase phase = StatusPhase(status);
      if (phase != TxPhase::kActive && phase != TxPhase::kSuspended) {
        // Idle/doomed: stale bit about to be cleared. Committing: the
        // reader already won the race and serializes before this store.
        break;
      }
      // Re-verify the bit, then CAS against the exact snapshot: if the
      // reader's transaction ended meanwhile, its status changed and the
      // CAS fails, so we can never doom its *next* transaction.
      if (!table_.TestReaderBit(index, reader_slot)) {
        break;
      }
      if (reader.CasDoom(status, cause)) {
        break;
      }
      SpinBackoff(spins++);
    }
  });
}

// --- Access fabric ----------------------------------------------------------

PreemptionState& ThreadPreemptionState() {
  thread_local PreemptionState state;
  return state;
}

void HtmRuntime::DeliverPreemption() {
  PreemptionState& state = ThreadPreemptionState();
  if (state.defer_depth > 0) {
    state.pending = true;  // delivered when the defer scope closes
  } else {
    PreemptionYield();
  }
}

void HtmRuntime::InjectInterrupt(TxContext* ctx, const void* address) {
  const std::uint32_t slot = ctx != nullptr ? ctx->thread_slot_ : kInvalidThreadSlot;
  if (!interrupt_source_->OnAccess(slot, address)) {
    return;
  }
  if (ctx == nullptr) {
    return;
  }
  const std::uint64_t status = ctx->status_.load();
  const TxPhase phase = StatusPhase(status);
  if (phase == TxPhase::kActive) {
    AbortSelf(*ctx, AbortCause::kInterrupt);  // throws
  }
  if (phase == TxPhase::kSuspended) {
    // Interrupt while suspended dooms the transaction; the suspended
    // (non-transactional) code keeps running and the abort surfaces at
    // resume+commit.
    ctx->CasDoom(status, AbortCause::kInterrupt);
  }
}

std::uint64_t HtmRuntime::CellLoadSlow(TxContext* ctx, std::atomic<std::uint64_t>* cell) {
  if (ctx != nullptr) {
    const TxPhase phase = ctx->phase();
    if (phase == TxPhase::kActive) {
      return TxLoad(*ctx, cell);
    }
    // A doom that struck mid-attempt must abort at the next access -- it
    // must never fall through to a direct non-transactional access, which
    // would leak the dead attempt's control flow into real memory. The
    // exception is a suspended escape region, which keeps running and
    // surfaces the abort at resume+commit.
    if (phase == TxPhase::kDoomed && !ctx->escape_mode_) {
      ThrowIfDoomed(*ctx);
    }
  }
  return NonTxLoad(ctx, cell);
}

void HtmRuntime::CellStore(std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  RWLE_SCHED_POINT(kFabricStore, cell);
  const std::uint32_t self = CurrentThreadSlot();
  CostMeter::Global().ChargeAt(self, CostModel::kAccess);
  TxContext* ctx = self == kInvalidThreadSlot ? nullptr : &contexts_[self];
  MaybeInjectInterrupt(ctx, cell);
  MaybePreempt(ctx);
  if (ctx != nullptr) {
    const TxPhase phase = ctx->phase();
    if (phase == TxPhase::kActive) {
      TxStore(*ctx, cell, value);
      return;
    }
    if (phase == TxPhase::kDoomed && !ctx->escape_mode_) {
      ThrowIfDoomed(*ctx);  // throws (see CellLoad)
    }
  }
  NonTxStore(ctx, cell, value);
}

std::uint64_t HtmRuntime::TxLoad(TxContext& ctx, std::atomic<std::uint64_t>* cell) {
  ThrowIfDoomed(ctx);

  // Read-own-writes.
  if (const std::uint64_t* buffered = ctx.write_buffer_.Find(cell)) {
    RWLE_TXSAN_HOOK(*this, OnBufferedLoad(ctx.thread_slot_, cell, *buffered));
    return *buffered;
  }

  // Read-own-chain-writes: a cell captured by an earlier piece of this
  // thread's chopped chain is served from the carryover set, *untracked* --
  // no reader bit, no capacity cost -- because the chain owner's publication
  // lock already orders it against every conflicting writer, and the value
  // cannot change under us (the carryover is thread-private).
  if (ctx.chain_redo_ != nullptr) {
    if (const std::uint64_t* captured = ctx.chain_redo_->Find(cell)) {
      RWLE_TXSAN_HOOK(*this, OnBufferedLoad(ctx.thread_slot_, cell, *captured));
      return *captured;
    }
  }

  // Hash once: the index both resolves the slot and goes into the read-set
  // log, so commit/abort release without re-hashing.
  const std::uint32_t index = table_.IndexFor(cell);
  ConflictTable::LineSlot& slot = table_.SlotAt(index);
  const OwnerToken my_token = ctx.CurrentToken();

  // Resolve a conflicting write owner per the resolution policy.
  std::uint32_t spins = 0;
  for (;;) {
    const OwnerToken token = slot.writer.load();
    if (token == 0 || token == my_token) {
      break;
    }
    if (config_.resolution == ResolutionPolicy::kCommitterWins) {
      // Committer-wins: a live owner keeps its line. Its stores are still
      // buffered, so the backing value is the consistent pre-speculative
      // one and the load may proceed; the conflict resolves at the owner's
      // commit (its commit-time reader scan dooms us). Only a write-back in
      // flight must be waited out so it is never observed half-done.
      if (OwnerCommitting(token)) {
        WaitWhileCommitting(token);
        SpinBackoff(spins++);
        continue;
      }
      break;
    }
    if (TryDoomOwner(token, AbortCause::kConflictTx) == DoomOutcome::kCommitting) {
      WaitWhileCommitting(token);
    }
    SpinBackoff(spins++);
    // Re-read: the dead owner's field may be reclaimed by yet another tx.
    if (slot.writer.load() == token) {
      break;  // doomed-but-unreleased owner; its buffer is dead, backing is valid
    }
  }

  bool track_reads = ctx.kind_ == TxKind::kHtm;
#ifdef RWLE_ANALYSIS
  // Injected bug: ROT loads take read-set entries like HTM loads.
  track_reads = track_reads || fault_injection_.rot_tracks_reads;
#endif
  bool tracked_line = false;
  if (track_reads) {
    if (table_.TestReaderBit(index, ctx.thread_slot_)) {
      tracked_line = true;
    } else if (config_.tracked_read_lines != 0 &&
               ctx.read_line_indices_.size() >= config_.tracked_read_lines) {
      // Limited tracking (FORTH model): read line K+1 and beyond is not
      // conflict-tracked. No reader bit, no capacity abort -- the facility
      // silently stops detecting, so a concurrent writer of this line can
      // commit without dooming us. That lost conflict is the modeled
      // hazard the portability matrix demonstrates, not a simulator race.
    } else {
      if (ctx.read_line_indices_.size() >= config_.max_read_lines) {
        AbortSelf(ctx, AbortCause::kCapacityRead);  // throws
      }
      if (ctx.read_line_indices_.empty()) {
        // Summary RMW before the first bit RMW. This load then does summary
        // RMW -> bit RMW -> writer-token load; a writer does claim CAS ->
        // summary load -> bit load, all seq_cst. If our token load
        // precedes the writer's claim in the single total order, so do our
        // summary and bit RMWs, and the writer's later loads see both; if it
        // follows the claim, the re-check below sees the writer. Either way
        // one side notices the conflict.
        table_.EnterReader(ctx.thread_slot_);
      }
      table_.SetReaderBit(index, ctx.thread_slot_);
      ctx.read_line_indices_.push_back(index);
      tracked_line = true;
      // Close the race window: a writer that claimed the line between our
      // owner check and our bit publication scanned reader bits (at claim
      // time or, under committer-wins, at commit time) before we set ours,
      // so neither side would notice the conflict. Re-check.
      const OwnerToken token = slot.writer.load();
      if (token != 0 && token != my_token) {
        if (config_.resolution == ResolutionPolicy::kCommitterWins) {
          // The owner keeps its line; if it is already committing, its
          // reader scan may have passed before our bit published, so the
          // requester loses -- the committer-wins rule applied to us.
          if (OwnerCommitting(token)) {
            AbortSelf(ctx, AbortCause::kConflictTx);  // throws
          }
        } else if (TryDoomOwner(token, AbortCause::kConflictTx) ==
                   DoomOutcome::kCommitting) {
          WaitWhileCommitting(token);
        }
      }
    }
  }
  // ROT loads are untracked: no reader bit, no capacity, no re-check. A
  // writer that claims the line after our owner check goes unnoticed --
  // exactly the weaker ROT semantics the paper builds on. Limited-tracking
  // HTM loads beyond K behave the same way, and report the dedicated
  // untracked access kind so txsan models them instead of flagging them.
  FabricAccess access = FabricAccess::kTxHtm;
  if (ctx.kind_ == TxKind::kRot) {
    access = FabricAccess::kTxRot;
  } else if (!tracked_line) {
    access = FabricAccess::kTxHtmUntracked;
  }
  return FabricLoad(access, ctx.thread_slot_, cell);
}

std::uint64_t HtmRuntime::NonTxLoad(TxContext* ctx, std::atomic<std::uint64_t>* cell) {
  ConflictTable::LineSlot& slot = table_.SlotFor(cell);
  const std::uint32_t self = ctx != nullptr ? ctx->thread_slot_ : kInvalidThreadSlot;
  std::uint32_t spins = 0;
  for (;;) {
    const OwnerToken token = slot.writer.load();
    if (token == 0) {
      return FabricLoad(FabricAccess::kNonTx, self, cell);
    }
    if (ctx != nullptr && token == ctx->CurrentToken()) {
      // Own suspended transaction: non-transactional loads of its own write
      // set see the buffered (speculative) value, like same-thread loads
      // hitting the transactional L1 lines on real hardware.
      if (ctx->InSuspendedTx()) {
        if (const std::uint64_t* buffered = ctx->write_buffer_.Find(cell)) {
          RWLE_TXSAN_HOOK(*this, OnBufferedLoad(self, cell, *buffered));
          return *buffered;
        }
      }
      return FabricLoad(FabricAccess::kNonTx, self, cell);
    }
    switch (TryDoomOwner(token, AbortCause::kConflictNonTx)) {
      case DoomOutcome::kCommitting:
        WaitWhileCommitting(token);
        SpinBackoff(spins++);
        continue;  // re-read: backing now holds the committed value
      case DoomOutcome::kDoomed:
      case DoomOutcome::kAlreadyDoomed:
      case DoomOutcome::kGone:
        // Speculative state discarded; backing holds the pre-tx value.
        return FabricLoad(FabricAccess::kNonTx, self, cell);
    }
  }
}

bool HtmRuntime::ClaimLineForWrite(TxContext& ctx, std::atomic<std::uint64_t>* cell) {
  // Hash once; the index is also the write-set log entry (see TxLoad).
  const std::uint32_t index = table_.IndexFor(cell);
  ConflictTable::LineSlot& slot = table_.SlotAt(index);
  const OwnerToken my_token = ctx.CurrentToken();

  std::uint32_t spins = 0;
  for (;;) {
    OwnerToken current = slot.writer.load();
    if (current == my_token) {
      return true;  // already own this line
    }
    // Limited tracking (FORTH model): write line K+1 and beyond is not
    // claimed at all. The store stays in the buffer (written back at
    // commit) but the line carries no ownership, so neither a conflicting
    // writer nor a reader of the line can detect this transaction -- the
    // modeled hazard, in place of a capacity abort.
    if (config_.tracked_write_lines != 0 &&
        ctx.owned_line_indices_.size() >= config_.tracked_write_lines) {
      return false;
    }
    if (current != 0) {
      if (config_.resolution == ResolutionPolicy::kCommitterWins) {
        // Single status snapshot per iteration (mirrors TryDoomOwner): two
        // separate committing/live probes would misclassify an owner moving
        // ACTIVE->COMMITTING between them as dead and CAS-steal the line
        // from a mid-write-back committer.
        const std::uint64_t status =
            contexts_[OwnerTokenSlot(current)].status_.load();
        if (StatusEpoch(status) == OwnerTokenEpoch(current)) {
          switch (StatusPhase(status)) {
            case TxPhase::kCommitting:
              WaitWhileCommitting(current);
              SpinBackoff(spins++);
              continue;
            case TxPhase::kActive:
            case TxPhase::kSuspended:
              // Committer-wins: the incumbent owner keeps the line and the
              // requester loses -- self-abort instead of dooming it.
              AbortSelf(ctx, AbortCause::kConflictTx);  // throws
            case TxPhase::kIdle:
            case TxPhase::kDoomed:
              break;  // dead owner: its speculative state can never commit
          }
        }
        // Dead or stale owner: take over its field directly.
        if (!slot.writer.compare_exchange_strong(current, my_token)) {
          SpinBackoff(spins++);
          continue;
        }
      } else {
        switch (TryDoomOwner(current, AbortCause::kConflictTx)) {
          case DoomOutcome::kCommitting:
            WaitWhileCommitting(current);
            SpinBackoff(spins++);
            continue;
          case DoomOutcome::kDoomed:
          case DoomOutcome::kAlreadyDoomed:
          case DoomOutcome::kGone:
            // Take over the dead owner's field directly.
            if (!slot.writer.compare_exchange_strong(current, my_token)) {
              SpinBackoff(spins++);
              continue;
            }
            break;
        }
      }
    } else if (!slot.writer.compare_exchange_strong(current, my_token)) {
      SpinBackoff(spins++);
      continue;
    }

    // Newly claimed: account capacity, then kill all transactional readers
    // of this line (a store invalidates their read monitors). Under
    // committer-wins the kill is deferred to TxCommit -- a doomed-on-claim
    // reader would contradict "the requester yields to live owners".
    ctx.owned_line_indices_.push_back(index);
    if (ctx.owned_line_indices_.size() > config_.max_write_lines) {
      AbortSelf(ctx, AbortCause::kCapacityWrite);  // throws; line released in cleanup
    }
    if (config_.resolution == ResolutionPolicy::kRequesterWins) {
      DoomReaders(index, ctx.thread_slot_, AbortCause::kConflictTx);
    }
    return true;
  }
}

void HtmRuntime::TxStore(TxContext& ctx, std::atomic<std::uint64_t>* cell, std::uint64_t value) {
  ThrowIfDoomed(ctx);
  const bool tracked = ClaimLineForWrite(ctx, cell);
  ctx.write_buffer_.Put(cell, value);
  RWLE_TXSAN_HOOK(*this, OnSpeculativeStore(ctx.thread_slot_, cell, value, tracked));
  (void)tracked;  // consumed only by the txsan hook in analysis builds
#ifdef RWLE_ANALYSIS
  if (fault_injection_.leak_speculative_store) {
    // Injected bug: the speculative store writes through to real memory,
    // making it visible to other threads before commit.
    cell->store(value);
  }
#endif
}

bool HtmRuntime::CellCas(std::atomic<std::uint64_t>* cell, std::uint64_t expected,
                         std::uint64_t desired) {
  RWLE_SCHED_POINT(kFabricCas, cell);
  const std::uint32_t self = CurrentThreadSlot();
  CostMeter::Global().ChargeAt(self, CostModel::kLockOp);
  TxContext* ctx = self == kInvalidThreadSlot ? nullptr : &contexts_[self];
  RWLE_CHECK(ctx == nullptr || !ctx->InActiveTx());
  if (ctx != nullptr && ctx->phase() == TxPhase::kDoomed && !ctx->escape_mode_) {
    ThrowIfDoomed(*ctx);  // doomed mid-attempt: abort before touching locks
  }
  MaybeInjectInterrupt(ctx, cell);

  const std::uint32_t index = table_.IndexFor(cell);
  ConflictTable::LineSlot& slot = table_.SlotAt(index);

  std::uint32_t spins = 0;
  for (;;) {
    const OwnerToken token = slot.writer.load();
    if (token == 0) {
      break;
    }
    if (TryDoomOwner(token, AbortCause::kConflictNonTx) == DoomOutcome::kCommitting) {
      WaitWhileCommitting(token);
      SpinBackoff(spins++);
      continue;
    }
    break;
  }
  if (!FabricCas(self, cell, expected, desired)) {
    return false;
  }
  // The store succeeded: invalidate transactional readers (subscribers).
  DoomReaders(index, self, AbortCause::kConflictNonTx);
  return true;
}

void HtmRuntime::NonTxStore(TxContext* ctx, std::atomic<std::uint64_t>* cell,
                            std::uint64_t value) {
  const std::uint32_t index = table_.IndexFor(cell);
  ConflictTable::LineSlot& slot = table_.SlotAt(index);
  const std::uint32_t self = ctx != nullptr ? ctx->thread_slot_ : kInvalidThreadSlot;

  std::uint32_t spins = 0;
  for (;;) {
    const OwnerToken token = slot.writer.load();
    if (token == 0) {
      break;
    }
    // Note: a non-transactional store to the thread's *own* suspended write
    // set would doom it here; RW-LE never does that and real hardware makes
    // it undefined, so self-dooming is the conservative choice.
    if (TryDoomOwner(token, AbortCause::kConflictNonTx) == DoomOutcome::kCommitting) {
      WaitWhileCommitting(token);
      SpinBackoff(spins++);
      continue;
    }
    break;
  }
  // A store invalidates transactional read monitors on this line.
  DoomReaders(index, self, AbortCause::kConflictNonTx);
  FabricStore(FabricAccess::kNonTx, self, cell, value);
}

}  // namespace rwle
