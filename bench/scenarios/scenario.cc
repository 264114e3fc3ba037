#include "bench/scenarios/scenario.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/locks/lock_factory.h"

namespace rwle {

bool ScenarioSpec::Accepts(const std::string& scheme) const {
  return std::find(default_schemes.begin(), default_schemes.end(), scheme) !=
             default_schemes.end() ||
         (lock_factory_schemes && MakeLock(scheme) != nullptr);
}

ScenarioRegistry& ScenarioRegistry::Global() {
  static ScenarioRegistry registry;
  return registry;
}

void ScenarioRegistry::Register(ScenarioSpec spec) {
  RWLE_CHECK(!spec.name.empty());
  RWLE_CHECK(!spec.panel_values.empty());
  RWLE_CHECK(spec.run != nullptr);
  RWLE_CHECK(spec.default_ops > 0);
  RWLE_CHECK(spec.full_ops >= spec.default_ops);
  RWLE_CHECK(Find(spec.name) == nullptr);
  specs_.push_back(std::move(spec));
}

const ScenarioSpec* ScenarioRegistry::Find(const std::string& name) const {
  for (const auto& spec : specs_) {
    if (spec.name == name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string> ScenarioRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(specs_.size());
  for (const auto& spec : specs_) {
    names.push_back(spec.name);
  }
  return names;
}

}  // namespace rwle
