// Creates any of the evaluation's synchronization schemes by name; the
// figure binaries use this to sweep over schemes uniformly.
#ifndef RWLE_SRC_LOCKS_LOCK_FACTORY_H_
#define RWLE_SRC_LOCKS_LOCK_FACTORY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/locks/elidable_lock.h"

namespace rwle {

// Construction knobs shared by every scheme. Knobs a scheme has no use for
// are ignored (e.g. ROT retries by HLE, both retry budgets by the
// non-speculative locks), so one options value can configure a whole sweep.
// The rest of an RW-LE lock's policy comes from its scheme name; the
// ablation scenario builds RwLePolicy values directly.
struct LockOptions {
  std::uint32_t max_htm_retries = 5;  // speculative attempts before demoting
  std::uint32_t max_rot_retries = 5;  // ROT attempts before the NS path
};

// Scheme-name grammar: "<base>[+<fallback>]".
//   - Bases: "rwle" (alias for "rwle-opt"), "rwle-opt", "rwle-pes",
//     "rwle-fair", "rwle-norot" (ROT fallback disabled, Figure 7),
//     "rwle-split" (split ROT/NS locks, §3.3), "hle", "brlock", "rwl",
//     "sgl", "bravo" (standalone BRAVO-biased rw-lock).
//   - Fallback suffix, valid on RW-LE bases only: "+bravo" parks blocked
//     readers in a distributed visible-reader table, "+centralized" (the
//     default) spins them on the lock word. The suffix is the only way to
//     pick an RW-LE lock's fallback. "rwle+bravo" is the paper comparison's
//     composed scheme; "hle+bravo" is rejected.
// The authoritative list is AllSchemes(). Returns nullptr for unknown
// names and invalid compositions.
std::unique_ptr<ElidableLock> MakeLock(const std::string& name,
                                       const LockOptions& options = LockOptions{});

// All scheme names, in the order the paper's plots list them. This is the
// *default sweep set* (the six schemes the figures compare); MakeLock
// accepts the larger set below.
const std::vector<std::string>& AllLockNames();

// Every scheme MakeLock accepts, with a one-line description; backs the
// driver's --list-schemes. Derived from the factory's one registration
// table: base entries first, then the composed "<base>+bravo" forms. The
// "+centralized" suffix is also accepted everywhere a "+bravo" is, but is
// identical to the bare base and therefore not listed separately.
struct SchemeInfo {
  std::string name;
  std::string description;
};
const std::vector<SchemeInfo>& AllSchemes();

}  // namespace rwle

#endif  // RWLE_SRC_LOCKS_LOCK_FACTORY_H_
