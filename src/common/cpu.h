// Low-level CPU helpers shared by every module: pause/yield primitives for
// spin loops and the cache-line geometry the simulated coherence fabric uses.
#ifndef RWLE_SRC_COMMON_CPU_H_
#define RWLE_SRC_COMMON_CPU_H_

#include <cstddef>
#include <cstdint>
#include <thread>

#include "src/common/sched_hooks.h"

namespace rwle {

// Cache-line geometry of the simulated machine. POWER8 uses 128-byte lines;
// we keep that so capacity accounting matches the paper's platform.
inline constexpr std::size_t kCacheLineBytes = 128;
inline constexpr std::size_t kCacheLineShift = 7;

static_assert((std::size_t{1} << kCacheLineShift) == kCacheLineBytes,
              "line shift and size must agree");

// Coherence granule of the *host* running the simulator (x86-64 and most
// AArch64 parts), distinct from the modeled line above. Layouts that must
// keep the simulator's own atomics from false-sharing use this.
inline constexpr std::size_t kHostLineBytes = 64;

// Hint to the CPU that we are in a spin-wait loop. On x86 this lowers power
// and relaxes the pipeline; elsewhere it is a no-op.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  asm volatile("" ::: "memory");
#endif
}

// Spin-wait backoff that stays live on oversubscribed hosts. `iteration` is
// the caller's loop counter. Three tiers:
//   1. single pause          -- the common "owner releases in a few cycles"
//                               case stays in the pipeline hint;
//   2. exponential pause     -- growing pause batches (2, 4, ... capped at
//      batches                  64) back congested lines off without the
//                               latency cliff of a syscall;
//   3. sched_yield           -- only after a few hundred pauses, when the
//                               waited-on thread is likely descheduled and
//                               spinning further burns its CPU time.
// The previous single-threshold version (16 pauses then yield) hit the
// yield syscall on moderately contended lines that tier 2 now absorbs.
//
// Under the cooperative scheduler every backoff iteration is a scheduling
// point: a participant spinning on a condition hands control back to the
// scheduler, which can run the thread that will satisfy it. Without that,
// serialized execution would deadlock on any spin loop. The hook must stay
// first so replayed schedules never depend on the backoff shape below it.
inline void SpinBackoff(std::uint32_t iteration) {
#ifdef RWLE_SCHED
  if (sched_hooks::NotifySchedPoint(sched_hooks::SchedPoint::kSpinWait, nullptr)) {
    return;
  }
#endif
  if (iteration < 8) {
    CpuRelax();
  } else if (iteration < 16) {
    const std::uint32_t exponent = iteration - 7;  // batches of 2..64 pauses
    const std::uint32_t spins = 1u << (exponent < 6 ? exponent : 6);
    for (std::uint32_t i = 0; i < spins; ++i) {
      CpuRelax();
    }
  } else {
    std::this_thread::yield();
  }
}

}  // namespace rwle

#endif  // RWLE_SRC_COMMON_CPU_H_
