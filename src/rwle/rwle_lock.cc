#include "src/rwle/rwle_lock.h"

#include "src/htm/fabric_observer.h"

namespace rwle {

RwLeLock::RwLeLock(const RwLePolicy& policy) : policy_(policy) {}

// Algorithm 2 lines 11-17 with the §3.3 entry optimization: optimistically
// raise the clock first, so the uncontended case costs a single lock-word
// check; only on collision with a non-speculative writer do we back out,
// wait, and retry.
void RwLeLock::ReadEnter(std::uint32_t slot) {
  for (;;) {
    clocks_.Enter(slot);
    if (wlock_.State() != LockState::kNsLocked) {
      return;
    }
    // A non-speculative writer is in (or slipped in): defer to it through
    // the configured fallback scheme.
    clocks_.Exit(slot);
    EmitTraceEvent(TraceEventType::kReaderBlockBegin);
    if (policy_.fallback == FallbackScheme::kBravo) {
      BravoReaderWait(slot);
    } else {
      wlock_.WaitWhileState(LockState::kNsLocked);
      // Wake-up stampede: the writer's release invalidates the lock-word
      // line in every blocked reader's cache at once, and the line's
      // request queue serves the re-fetches serially, so each waiter pays a
      // queue-depth-proportional (thread-count) cost. This is the
      // centralized-fallback failure mode the BRAVO fallback's private
      // parking entries exist to avoid.
      CostMeter::Global().ChargeContended(CostModel::kLockOp);
    }
    EmitTraceEvent(TraceEventType::kReaderBlockEnd);
  }
}

// --- BRAVO fallback parking protocol (policy_.fallback == kBravo) ---
//
// Park:   the blocked reader CASes its hashed fallback_table_ entry
//         kEmpty -> kParked, then re-checks the NS lock once. If the
//         re-check still sees kNsLocked, the park preceded that writer's
//         release in the seq_cst order (a load cannot return a value that
//         was already overwritten), so the writer's post-release grant
//         sweep is guaranteed to find the entry: the reader then spins
//         purely on its private word, never on the centralized lock word.
//         If the re-check sees the lock free, the sweep may already have
//         passed the entry, so the reader self-admits.
// Grant:  the releasing NS writer sweeps the table, CASing each kParked
//         entry to kGranted (BravoGrantParked). A failed CAS means the
//         owner self-admitted meanwhile; nobody is lost either way.
// Admit:  the granted reader stores kActive and returns to the optimistic
//         entry loop above (clock up, lock re-check). If yet another NS
//         writer slipped in, the re-check turns it around and it
//         downgrades kActive -> kParked to wait again.
// Drain:  the next NS writer, after acquiring, waits for every kActive
//         entry to empty or downgrade (BravoDrainAdmitted) -- the
//         revocation analog, and how writer demotion "dooms" distributed
//         readers. kParked and kGranted owners need not be awaited: they
//         cannot complete section entry while the NS lock is held, because
//         the entry loop's lock re-check reads the current fabric state.
//
// Unlike the standalone BravoLock (anonymous biased readers, slot-hashed
// entries, aliasing tolerated), the fallback indexes the table by registry
// slot directly: parked readers are registered threads with dense unique
// slots, so entries never alias and the writer's drain/grant sweeps stop at
// the registry high watermark instead of walking all kSlots.

void RwLeLock::BravoReaderWait(std::uint32_t slot) {
  std::atomic<std::uint64_t>& word = fallback_table_.Word(slot);
  const std::uint64_t current = word.load();
  if (BravoReaderTable::EntryState(current) == BravoReaderTable::kActive &&
      BravoReaderTable::EntryOwner(current) == slot) {
    // Re-parking: we were admitted, but another NS writer slipped in before
    // our lock re-check. Downgrade so that writer's drain stops waiting on
    // us (hook first: txsan must see the section closed no later than the
    // drain can observe the downgrade).
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderExit(slot, &fallback_table_));
    word.store(BravoReaderTable::Encode(slot, BravoReaderTable::kParked));
    CostMeter::Global().Charge(CostModel::kLockOp);
  } else if (!fallback_table_.TryClaim(slot, slot, BravoReaderTable::kParked)) {
    // Unreachable under identity indexing (nobody else claims our slot's
    // entry), but degrade to the centralized wait rather than corrupt the
    // table if the invariant is ever broken.
    stats_.RecordBravo(BravoCounter::kAliasedPark);
    wlock_.WaitWhileState(LockState::kNsLocked);
    CostMeter::Global().ChargeContended(CostModel::kLockOp);
    return;
  }
  stats_.RecordBravo(BravoCounter::kParkedRead);
  if (wlock_.State() != LockState::kNsLocked) {
    // Park-then-recheck found the lock already free: the grant sweep may
    // have passed our entry before the park published, so self-admit.
    std::uint64_t expected =
        BravoReaderTable::Encode(slot, BravoReaderTable::kParked);
    if (word.compare_exchange_strong(
            expected, BravoReaderTable::Encode(slot, BravoReaderTable::kActive))) {
      CostMeter::Global().Charge(CostModel::kLockOp);
      RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderEnter(slot, &fallback_table_));
      return;
    }
    // CAS lost to a concurrent grant; take it in the loop below.
  }
  std::uint32_t spins = 0;
  for (;;) {
    RWLE_SCHED_POINT(kLockAcquire, &word);
    if (BravoReaderTable::EntryState(word.load()) == BravoReaderTable::kGranted) {
      word.store(BravoReaderTable::Encode(slot, BravoReaderTable::kActive));
      CostMeter::Global().Charge(CostModel::kLockOp);
      RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderEnter(slot, &fallback_table_));
      return;
    }
    SpinBackoff(spins++);
  }
}

void RwLeLock::BravoReaderExit(std::uint32_t slot) {
  std::atomic<std::uint64_t>& word = fallback_table_.Word(slot);
  // Relaxed: we only act on our own entry, and only this thread ever stores
  // our slot in kActive state, so a stale read can at worst miss an entry
  // this thread does not hold.
  const std::uint64_t entry = word.load(std::memory_order_relaxed);
  if (BravoReaderTable::EntryState(entry) == BravoReaderTable::kActive &&
      BravoReaderTable::EntryOwner(entry) == slot) {
    // Hook before the withdraw: txsan must see the section closed no later
    // than a draining writer can observe the entry empty.
    RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnReaderExit(slot, &fallback_table_));
    fallback_table_.Withdraw(slot);
  }
}

void RwLeLock::BravoDrainAdmitted(std::uint32_t slot) {
  EmitTraceEvent(slot, TraceEventType::kBravoRevokeBegin);
  RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceBegin(slot, &fallback_table_));
  // Identity indexing: every parked/admitted reader sits at its registry
  // slot, so the sweep stops at the high watermark.
  const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
  CostMeter::Global().Charge(BravoReaderTable::ScanCharge(n));
  std::uint64_t drained = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    bool counted = false;
    std::uint32_t spins = 0;
    for (;;) {
      RWLE_SCHED_POINT(kLockAcquire, &fallback_table_.Word(i));
      // Acquire: pairs with the admitted reader's releasing withdraw (or
      // its seq_cst downgrade), so its section loads complete before this
      // writer's section stores.
      const std::uint64_t entry =
          fallback_table_.Word(i).load(std::memory_order_acquire);
      if (BravoReaderTable::EntryState(entry) != BravoReaderTable::kActive) {
        break;  // empty, parked, or granted: not (and cannot get) in-section
      }
      if (!counted) {
        counted = true;
        ++drained;
      }
      SpinBackoff(spins++);
    }
  }
  RWLE_TXSAN_HOOK(HtmRuntime::Global(), OnQuiescenceEnd(slot, &fallback_table_));
  stats_.RecordBravo(BravoCounter::kRevocation);
  stats_.RecordBravo(BravoCounter::kRevokedReader, drained);
  EmitTraceEvent(slot, TraceEventType::kBravoRevokeEnd, 0, 0, drained);
}

void RwLeLock::BravoGrantParked() {
  const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
  CostMeter::Global().Charge(BravoReaderTable::ScanCharge(n));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::atomic<std::uint64_t>& word = fallback_table_.Word(i);
    RWLE_SCHED_POINT(kLockRelease, &word);
    std::uint64_t entry = word.load();
    if (BravoReaderTable::EntryState(entry) != BravoReaderTable::kParked) {
      continue;
    }
    // Wake through the owner's private word; the parked reader never
    // re-fetches the centralized lock word. A failed CAS means the owner
    // self-admitted between our load and the exchange.
    word.compare_exchange_strong(
        entry, BravoReaderTable::Encode(BravoReaderTable::EntryOwner(entry),
                                        BravoReaderTable::kGranted));
  }
}

// FAIR variant (§3.3): publish a copy of the lock word *after* raising the
// clock, so a writer can tell whether this reader predates its acquisition
// (copied version < writer's version => wait) or not (=> skip; the reader
// is itself waiting for the writer to release).
void RwLeLock::ReadEnterFair(std::uint32_t slot) {
  clocks_.Enter(slot);
  std::uint32_t spins = 0;
  for (;;) {
    const std::uint64_t word = wlock_.Load();
    local_locks_[slot].word.store(word, std::memory_order_seq_cst);
    if (LockWordState(word) != LockState::kNsLocked) {
      return;
    }
    // Wait for this owner to release, then re-copy (the version moved).
    EmitTraceEvent(TraceEventType::kReaderBlockBegin);
    while (wlock_.Load() == word) {
      SpinBackoff(spins++);
    }
    EmitTraceEvent(TraceEventType::kReaderBlockEnd);
  }
}

std::uint64_t RwLeLock::AcquireRotPath() {
  if (!policy_.split_rot_ns_locks) {
    return wlock_.Acquire(LockState::kRotLocked);
  }
  // Split mode: take the dedicated ROT lock, deferring to NS writers. The
  // re-check closes the race where an NS writer acquires wlock_ between
  // our check and our CAS; backing off keeps the pair deadlock-free (the
  // NS path waits for rot_lock_ while holding wlock_).
  std::uint32_t spins = 0;
  for (;;) {
    while (wlock_.State() == LockState::kNsLocked) {
      SpinBackoff(spins++);
    }
    const std::uint64_t held = rot_lock_.Acquire(LockState::kRotLocked);
    if (wlock_.State() != LockState::kNsLocked) {
      return held;
    }
    rot_lock_.Release(held);
    SpinBackoff(spins++);
  }
}

void RwLeLock::ReleaseRotPath(std::uint64_t held_word) {
  if (policy_.split_rot_ns_locks) {
    rot_lock_.Release(held_word);
  } else {
    wlock_.Release(held_word);
  }
}

std::uint64_t RwLeLock::AcquireNsPath() {
  const std::uint64_t held = wlock_.Acquire(LockState::kNsLocked);
  if (policy_.split_rot_ns_locks) {
    // Drain any in-flight ROT writer; new ones see wlock_ busy and defer.
    rot_lock_.WaitWhileState(LockState::kRotLocked);
  }
  return held;
}

void RwLeLock::HtmPrologue() {
  // Line 42: let non-HTM writers finish before starting the transaction.
  // In split-lock mode only the NS lock gates us: hardware transactions
  // may run concurrently with a ROT writer (§3.3).
  std::uint32_t spins = 0;
  while (wlock_.State() != LockState::kFree) {
    SpinBackoff(spins++);
  }
  HtmRuntime::Global().TxBegin(TxKind::kHtm);
  // Line 44: eager subscription. The load puts the lock word in our read
  // set; a writer acquiring any fallback path dooms us instantly.
  if (wlock_.State() != LockState::kFree) {
    HtmRuntime::Global().TxAbort(AbortCause::kExplicit);  // throws
  }
}

void RwLeLock::HtmEpilogue() {
  HtmRuntime& runtime = HtmRuntime::Global();
  runtime.TxSuspend();
  // While suspended: our speculative stores stay hidden and monitored; the
  // clock scan below runs non-transactionally (escape actions).
#ifdef RWLE_ANALYSIS
  if (!runtime.fault_injection().skip_quiescence)
#endif
  {
    clocks_.Synchronize();
  }
  runtime.TxResume();
  if (policy_.split_rot_ns_locks) {
    // Lazy subscription of the ROT lock (§3.3): committing while a ROT
    // writer is in flight is unsafe (its loads are untracked), so abort;
    // the transactional load also puts the ROT lock in our read set, so a
    // ROT acquiring after this check still dooms us before we commit.
    if (rot_lock_.State() != LockState::kFree) {
      runtime.TxAbort(AbortCause::kExplicit);  // throws
    }
  }
  runtime.TxCommit();  // throws if a reader/writer doomed us meanwhile
}

void RwLeLock::RotEpilogue() {
#ifdef RWLE_ANALYSIS
  if (!HtmRuntime::Global().fault_injection().skip_quiescence)
#endif
  {
    clocks_.Synchronize();
  }
  HtmRuntime::Global().TxCommit();
}

void RwLeLock::SynchronizeNs(std::uint64_t held_word) {
  if (policy_.variant != RwLeVariant::kFair) {
    if (policy_.single_scan_ns_sync) {
      // Readers are blocked by the NS lock, so one scan suffices (§3.3).
      clocks_.SynchronizeBlockedReaders();
    } else {
      clocks_.Synchronize();
    }
    return;
  }

  // FAIR: wait only for readers that entered before this acquisition
  // (their published lock-word copy has a smaller version). Readers that
  // entered after are waiting for our release and must not be waited upon.
  const std::uint64_t my_version = LockWordVersion(held_word);
  const std::uint32_t n = ThreadRegistry::Global().HighWatermark();
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t spins = 0;
    for (;;) {
      const std::uint64_t clock = clocks_.Value(i);
      if (!EpochClocks::IsInCriticalSection(clock)) {
        break;
      }
      const std::uint64_t copied = local_locks_[i].word.load(std::memory_order_seq_cst);
      if (LockWordVersion(copied) >= my_version) {
        break;  // reader started after us (or is waiting on us)
      }
      // Re-check both conditions: the reader either leaves its critical
      // section or publishes a fresher lock-word copy.
      if (clocks_.Value(i) != clock ||
          local_locks_[i].word.load(std::memory_order_seq_cst) != copied) {
        continue;
      }
      SpinBackoff(spins++);
    }
  }
}

}  // namespace rwle
