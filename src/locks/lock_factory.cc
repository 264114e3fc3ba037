#include "src/locks/lock_factory.h"

#include "src/locks/br_lock.h"
#include "src/locks/bravo_lock.h"
#include "src/locks/hle_lock.h"
#include "src/locks/rw_lock.h"
#include "src/locks/sgl_lock.h"
#include "src/rwle/rwle_lock.h"

namespace rwle {

namespace {

// Every make function wraps its lock in a LockAdapter named with the full
// scheme string (suffix included), so it round-trips through
// ElidableLock::name(). Each takes the fallback parsed from the name's
// suffix; only the RW-LE bases (the ones registered with rwle_base) use it.
template <RwLeVariant V, bool UseRot = true, bool Split = false>
std::unique_ptr<ElidableLock> MakeRwLe(const std::string& name, const LockOptions& options,
                                       FallbackScheme fallback) {
  RwLePolicy policy;
  policy.variant = V;
  policy.max_htm_retries = options.max_htm_retries;
  policy.max_rot_retries = options.max_rot_retries;
  policy.use_rot = UseRot;
  policy.split_rot_ns_locks = Split;
  policy.fallback = fallback;
  return std::make_unique<LockAdapter<RwLeLock>>(name, policy);
}

std::unique_ptr<ElidableLock> MakeHle(const std::string& name, const LockOptions& options,
                                      FallbackScheme) {
  return std::make_unique<LockAdapter<HleLock>>(name, options.max_htm_retries);
}

template <typename Lock>
std::unique_ptr<ElidableLock> MakeSimple(const std::string& name, const LockOptions&,
                                         FallbackScheme) {
  return std::make_unique<LockAdapter<Lock>>(name);
}

// The one registration table: MakeLock dispatch, AllLockNames() and
// AllSchemes() all derive from it, so a scheme added here shows up
// everywhere at once (and nowhere else needs touching).
struct SchemeDef {
  const char* name;
  const char* description;
  bool rwle_base;      // takes the "+<fallback>" suffix
  bool default_sweep;  // member of AllLockNames(), in table order
  std::unique_ptr<ElidableLock> (*make)(const std::string& name,
                                        const LockOptions& options,
                                        FallbackScheme fallback);
};

constexpr SchemeDef kSchemes[] = {
    {"rwle", "alias for rwle-opt (the grammar's base: rwle[+<fallback>])", true,
     false, MakeRwLe<RwLeVariant::kOpt>},
    {"rwle-opt", "RW-LE, OPT variant (Algorithm 2, eager readers)", true, true,
     MakeRwLe<RwLeVariant::kOpt>},
    {"rwle-pes", "RW-LE, PES variant (pessimistic writer ROTs)", true, true,
     MakeRwLe<RwLeVariant::kPes>},
    {"rwle-fair", "RW-LE FAIR variant with the ROT fallback off (Figure 7)", true,
     false, MakeRwLe<RwLeVariant::kFair, false>},
    {"rwle-norot", "RW-LE with the ROT fallback disabled (Figure 7 baseline)", true,
     false, MakeRwLe<RwLeVariant::kOpt, false>},
    {"rwle-split", "RW-LE with split ROT/NS locks (§3.3 optimization)", true, false,
     MakeRwLe<RwLeVariant::kOpt, true, true>},
    {"hle", "classic HTM lock elision (every section speculates)", false, true,
     MakeHle},
    {"brlock", "big-reader lock (per-thread reader mutexes)", false, true,
     MakeSimple<BrLock>},
    {"bravo", "standalone BRAVO-biased rw-lock (distributed visible readers)",
     false, false, MakeSimple<BravoLock>},
    {"rwl", "pthread-style centralized read-write lock", false, true,
     MakeSimple<RwLock>},
    {"sgl", "single global lock, no elision", false, true, MakeSimple<SglLock>},
};

const SchemeDef* FindScheme(const std::string& base) {
  for (const SchemeDef& def : kSchemes) {
    if (base == def.name) {
      return &def;
    }
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<ElidableLock> MakeLock(const std::string& name, const LockOptions& options) {
  const std::size_t plus = name.find('+');
  const SchemeDef* def = FindScheme(name.substr(0, plus));
  if (def == nullptr) {
    return nullptr;
  }
  FallbackScheme fallback = FallbackScheme::kCentralized;
  if (plus != std::string::npos) {
    if (!def->rwle_base) {
      return nullptr;  // e.g. "hle+bravo": only RW-LE bases take a fallback
    }
    const std::string suffix = name.substr(plus + 1);
    if (suffix == FallbackSchemeName(FallbackScheme::kBravo)) {
      fallback = FallbackScheme::kBravo;
    } else if (suffix != FallbackSchemeName(FallbackScheme::kCentralized)) {
      return nullptr;
    }
  }
  return def->make(name, options, fallback);
}

const std::vector<std::string>& AllLockNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> sweep;
    for (const SchemeDef& def : kSchemes) {
      if (def.default_sweep) {
        sweep.push_back(def.name);
      }
    }
    return sweep;
  }();
  return names;
}

const std::vector<SchemeInfo>& AllSchemes() {
  static const std::vector<SchemeInfo> schemes = [] {
    std::vector<SchemeInfo> all;
    for (const SchemeDef& def : kSchemes) {
      all.push_back({def.name, def.description});
    }
    const char* suffix = FallbackSchemeName(FallbackScheme::kBravo);
    for (const SchemeDef& def : kSchemes) {
      if (def.rwle_base) {
        all.push_back({std::string(def.name) + "+" + suffix,
                       std::string(def.description) +
                           ", BRAVO distributed-reader fallback"});
      }
    }
    return all;
  }();
  return schemes;
}

}  // namespace rwle
