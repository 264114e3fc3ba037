// The PATH retry policy of Algorithm 2 (lines 28-40): attempt the write
// critical section some number of times per path, switching immediately on
// persistent aborts, ultimately defaulting to the non-speculative path.
//
// The paper evaluates two writer-path policies (§4.1):
//   RW-LE_OPT: HTM x5, then ROT x5, then NS.
//   RW-LE_PES: ROT x5, then NS (writers always serialized).
// Figure 7 additionally runs with ROTs disabled (HTM x5, then NS).
#ifndef RWLE_SRC_RWLE_PATH_POLICY_H_
#define RWLE_SRC_RWLE_PATH_POLICY_H_

#include <cstdint>

namespace rwle {

enum class RwLeVariant : std::uint8_t {
  kOpt = 0,   // optimistic: HTM first
  kPes = 1,   // pessimistic: ROT first, writers serialized
  kFair = 2,  // like kOpt plus version-based reader/writer fairness (§3.3)
};

enum class WritePath : std::uint8_t { kHtm = 0, kRot = 1, kNs = 2 };

// Which fallback-lock scheme backs the non-speculative path. RW-LE readers
// are uninstrumented either way (epoch clocks); the fallback governs how a
// reader that collides with an NS writer waits and becomes visible again:
//   kCentralized: all blocked readers spin on the one NS lock word and
//     stampede it on release -- the reader-scalability cliff BRAVO targets.
//   kBravo: blocked readers park in a distributed visible-reader table
//     (one slot-hashed entry each) and the NS writer wakes them through
//     their private entries, BRAVO-style (Dice & Kogan).
enum class FallbackScheme : std::uint8_t { kCentralized = 0, kBravo = 1 };

constexpr const char* FallbackSchemeName(FallbackScheme scheme) {
  switch (scheme) {
    case FallbackScheme::kCentralized:
      return "centralized";
    case FallbackScheme::kBravo:
      return "bravo";
  }
  return "?";
}

constexpr const char* WritePathName(WritePath path) {
  switch (path) {
    case WritePath::kHtm:
      return "HTM";
    case WritePath::kRot:
      return "ROT";
    case WritePath::kNs:
      return "NS";
  }
  return "?";
}

struct RwLePolicy {
  RwLeVariant variant = RwLeVariant::kOpt;
  std::uint32_t max_htm_retries = 5;  // MAX-HTM
  std::uint32_t max_rot_retries = 5;  // MAX-ROT
  bool use_rot = true;                // Figure 7 disables the ROT fallback
  // §3.3 optimization: single-traversal quiescence on the NS path (readers
  // are blocked there, so snapshot+wait collapses to one scan). Off = the
  // unoptimized Algorithm 1 barrier; kept as a switch for the ablation
  // bench.
  bool single_scan_ns_sync = true;
  // §3.3 optimization: split the global lock into a ROT lock and an NS
  // lock. The HTM path then subscribes the NS lock eagerly but the ROT lock
  // only lazily in its commit phase, which lets hardware transactions run
  // concurrently with a ROT writer (profitable when conflicts are rare).
  bool split_rot_ns_locks = false;
  // Which fallback-lock scheme serves the non-speculative path (see
  // FallbackScheme above). Selected per lock instance by the "+bravo"
  // scheme-name suffix.
  FallbackScheme fallback = FallbackScheme::kCentralized;
};

// Per-acquisition path state machine. Reads the lock's policy in place, so
// `policy` must outlive it.
class PathPolicy {
 public:
  explicit PathPolicy(const RwLePolicy& policy) : policy_(policy) {
    if (policy_.variant == RwLeVariant::kPes && policy_.use_rot) {
      path_ = WritePath::kRot;
      trials_left_ = policy_.max_rot_retries;
    } else {
      path_ = WritePath::kHtm;
      trials_left_ = policy_.max_htm_retries;
    }
    if (trials_left_ == 0) {
      Demote();
    }
  }
  explicit PathPolicy(const RwLePolicy&&) = delete;  // would dangle

  WritePath current() const { return path_; }

  // Registers an abort of the current attempt and selects the next path.
  void OnAbort(bool persistent) {
    if (persistent) {
      trials_left_ = 0;
    } else if (trials_left_ > 0) {
      --trials_left_;
    }
    if (trials_left_ == 0) {
      Demote();
    }
  }

 private:
  void Demote() {
    switch (path_) {
      case WritePath::kHtm:
        if (policy_.use_rot && policy_.max_rot_retries > 0) {
          path_ = WritePath::kRot;
          trials_left_ = policy_.max_rot_retries;
        } else {
          path_ = WritePath::kNs;
        }
        break;
      case WritePath::kRot:
        path_ = WritePath::kNs;
        break;
      case WritePath::kNs:
        break;  // NS always succeeds; nothing to demote to
    }
  }

  const RwLePolicy& policy_;
  WritePath path_;
  std::uint32_t trials_left_;
};

}  // namespace rwle

#endif  // RWLE_SRC_RWLE_PATH_POLICY_H_
