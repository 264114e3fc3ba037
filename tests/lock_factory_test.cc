// Drift tests for the lock factory and the LockOptions construction API:
// the scheme registry, the default sweep set, name round-tripping through
// the adapter, and option propagation into the concrete locks.
#include "src/locks/lock_factory.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "src/common/thread_registry.h"
#include "src/locks/bravo_lock.h"
#include "src/locks/elidable_lock.h"
#include "src/rwle/rwle_lock.h"

namespace rwle {
namespace {

// The default sweep set (the six schemes the paper's figures compare) must
// stay a subset of the full registry backing --list-schemes, or a figure
// sweep could name a scheme the factory cannot build.
TEST(LockFactoryTest, DefaultSweepIsSubsetOfAllSchemes) {
  std::set<std::string> known;
  for (const SchemeInfo& scheme : AllSchemes()) {
    EXPECT_FALSE(scheme.name.empty());
    EXPECT_FALSE(scheme.description.empty());
    EXPECT_TRUE(known.insert(scheme.name).second)
        << "duplicate scheme: " << scheme.name;
  }
  for (const std::string& name : AllLockNames()) {
    EXPECT_TRUE(known.count(name) > 0)
        << "default sweep scheme missing from AllSchemes(): " << name;
  }
}

TEST(LockFactoryTest, EverySchemeConstructsAndKeepsItsName) {
  for (const SchemeInfo& scheme : AllSchemes()) {
    auto lock = MakeLock(scheme.name);
    ASSERT_NE(lock, nullptr) << scheme.name;
    EXPECT_EQ(lock->name(), scheme.name);
  }
}

TEST(LockFactoryTest, UnknownNamesReturnNull) {
  EXPECT_EQ(MakeLock("bogus"), nullptr);
  EXPECT_EQ(MakeLock(""), nullptr);
  EXPECT_EQ(MakeLock("RWLE-OPT"), nullptr);  // names are case-sensitive
}

// The scheme grammar "<base>[+<fallback>]": the suffix selects the
// blocked-reader fallback on RW-LE bases and is rejected anywhere else.
TEST(LockFactoryTest, FallbackSuffixConfiguresRwLeBases) {
  const struct {
    const char* name;
    RwLeVariant variant;
    FallbackScheme fallback;
  } cases[] = {
      {"rwle", RwLeVariant::kOpt, FallbackScheme::kCentralized},
      {"rwle+bravo", RwLeVariant::kOpt, FallbackScheme::kBravo},
      {"rwle+centralized", RwLeVariant::kOpt, FallbackScheme::kCentralized},
      {"rwle-opt+bravo", RwLeVariant::kOpt, FallbackScheme::kBravo},
      {"rwle-pes+bravo", RwLeVariant::kPes, FallbackScheme::kBravo},
  };
  for (const auto& expected : cases) {
    auto lock = MakeLock(expected.name);
    ASSERT_NE(lock, nullptr) << expected.name;
    EXPECT_EQ(lock->name(), expected.name);  // suffix included: results keep it
    auto* adapter = dynamic_cast<LockAdapter<RwLeLock>*>(lock.get());
    ASSERT_NE(adapter, nullptr) << expected.name;
    EXPECT_EQ(adapter->lock().policy().variant, expected.variant) << expected.name;
    EXPECT_EQ(adapter->lock().policy().fallback, expected.fallback) << expected.name;
  }
}

TEST(LockFactoryTest, InvalidCompositionsReturnNull) {
  EXPECT_EQ(MakeLock("hle+bravo"), nullptr);    // fallback needs an RW-LE base
  EXPECT_EQ(MakeLock("bravo+bravo"), nullptr);  // standalone bravo is not a base
  EXPECT_EQ(MakeLock("sgl+centralized"), nullptr);
  EXPECT_EQ(MakeLock("rwle+"), nullptr);
  EXPECT_EQ(MakeLock("rwle+bogus"), nullptr);
  EXPECT_EQ(MakeLock("+bravo"), nullptr);
}

TEST(LockFactoryTest, StandaloneBravoConstructs) {
  auto lock = MakeLock("bravo");
  ASSERT_NE(lock, nullptr);
  EXPECT_EQ(lock->name(), "bravo");
  auto* adapter = dynamic_cast<LockAdapter<BravoLock>*>(lock.get());
  ASSERT_NE(adapter, nullptr);
  EXPECT_TRUE(adapter->lock().bias_armed());  // read-biased out of the box
}

// LockOptions must actually reach the constructed lock, not just compile:
// the retry budgets land in the RwLePolicy of an RW-LE scheme.
TEST(LockFactoryTest, OptionsPropagateIntoRwLePolicy) {
  LockOptions options;
  options.max_htm_retries = 7;
  options.max_rot_retries = 3;

  auto lock = MakeLock("rwle-opt", options);
  ASSERT_NE(lock, nullptr);
  auto* adapter = dynamic_cast<LockAdapter<RwLeLock>*>(lock.get());
  ASSERT_NE(adapter, nullptr);
  const RwLePolicy& policy = adapter->lock().policy();
  EXPECT_EQ(policy.variant, RwLeVariant::kOpt);
  EXPECT_EQ(policy.max_htm_retries, 7u);
  EXPECT_EQ(policy.max_rot_retries, 3u);
}

TEST(LockFactoryTest, VariantSchemesConfigureTheirPolicies) {
  const struct {
    const char* name;
    RwLeVariant variant;
    bool use_rot;
    bool split;
  } cases[] = {
      {"rwle-opt", RwLeVariant::kOpt, true, false},
      {"rwle-pes", RwLeVariant::kPes, true, false},
      {"rwle-fair", RwLeVariant::kFair, false, false},
      {"rwle-norot", RwLeVariant::kOpt, false, false},
      {"rwle-split", RwLeVariant::kOpt, true, true},
  };
  for (const auto& expected : cases) {
    auto lock = MakeLock(expected.name);
    ASSERT_NE(lock, nullptr) << expected.name;
    auto* adapter = dynamic_cast<LockAdapter<RwLeLock>*>(lock.get());
    ASSERT_NE(adapter, nullptr) << expected.name;
    const RwLePolicy& policy = adapter->lock().policy();
    EXPECT_EQ(policy.variant, expected.variant) << expected.name;
    EXPECT_EQ(policy.use_rot, expected.use_rot) << expected.name;
    EXPECT_EQ(policy.split_rot_ns_locks, expected.split) << expected.name;
  }
}

// Retry budgets are observable in behavior, not only in the stored policy:
// with both budgets at 0 every RW-LE scheme starts writers on the NS path,
// so no speculative commit can occur. The fallback scenario relies on this
// for every scheme it is given.
TEST(LockFactoryTest, ZeroRetryBudgetSkipsHtmPath) {
  LockOptions options;
  options.max_htm_retries = 0;
  options.max_rot_retries = 0;
  ScopedThreadSlot slot;
  int rwle_schemes = 0;
  for (const SchemeInfo& scheme : AllSchemes()) {
    auto lock = MakeLock(scheme.name, options);
    ASSERT_NE(lock, nullptr) << scheme.name;
    if (dynamic_cast<LockAdapter<RwLeLock>*>(lock.get()) == nullptr) {
      continue;
    }
    ++rwle_schemes;
    for (int i = 0; i < 10; ++i) {
      lock->Write([] {});
    }
    const ThreadStats& stats = lock->stats().Local();
    EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kHtm)], 0u) << scheme.name;
    EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kRot)], 0u) << scheme.name;
    EXPECT_EQ(stats.commits[static_cast<int>(CommitPath::kSerial)], 10u) << scheme.name;
  }
  EXPECT_GT(rwle_schemes, 0);
}

// The single-argument form must keep working with every knob at its
// documented default.
TEST(LockFactoryTest, DefaultOptionsMatchDocumentedDefaults) {
  auto lock = MakeLock("rwle-pes");
  ASSERT_NE(lock, nullptr);
  auto* adapter = dynamic_cast<LockAdapter<RwLeLock>*>(lock.get());
  ASSERT_NE(adapter, nullptr);
  const RwLePolicy& policy = adapter->lock().policy();
  EXPECT_EQ(policy.max_htm_retries, 5u);
  EXPECT_EQ(policy.max_rot_retries, 5u);
  EXPECT_TRUE(policy.single_scan_ns_sync);
}

// Every factory lock owns a latency registry and records into it through
// the adapter; the snapshot is where the JSON percentiles come from.
TEST(LockFactoryTest, AdapterRecordsLatenciesForEveryScheme) {
  ScopedThreadSlot slot;
  for (const SchemeInfo& scheme : AllSchemes()) {
    auto lock = MakeLock(scheme.name);
    ASSERT_NE(lock, nullptr) << scheme.name;
    lock->Write([] {});
    lock->Read([] {});
    const LatencySnapshot snapshot = lock->latency().Snapshot();
    EXPECT_EQ(snapshot.op[static_cast<int>(OpKind::kWrite)].count, 1u)
        << scheme.name;
    EXPECT_EQ(snapshot.op[static_cast<int>(OpKind::kRead)].count, 1u)
        << scheme.name;
  }
}

}  // namespace
}  // namespace rwle
