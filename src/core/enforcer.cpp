#include "core/enforcer.hpp"

#include "cpu/core.hpp"

namespace ptb {

namespace {
// The baseline techniques (thrifty barrier / meeting points) are driven by
// CMP-level controllers, not by this per-core budget enforcer.
bool is_budget_enforcer(TechniqueKind k) {
  return k == TechniqueKind::kDvfs || k == TechniqueKind::kDfs ||
         k == TechniqueKind::kTwoLevel;
}
bool uses_dvfs(TechniqueKind k) { return is_budget_enforcer(k); }
bool uses_microarch(TechniqueKind k) {
  return k == TechniqueKind::kTwoLevel;
}
bool freq_only(TechniqueKind k) { return k == TechniqueKind::kDfs; }
}  // namespace

PowerEnforcer::PowerEnforcer(const SimConfig& cfg, TechniqueKind kind)
    : kind_(kind),
      active_(is_budget_enforcer(kind)),
      ctrl_(cfg, uses_dvfs(kind), uses_microarch(kind), freq_only(kind)) {}

void PowerEnforcer::tick(Cycle now, double est_power, double budget,
                         bool enforce, double relax_threshold, Core& core) {
  if (!active_) return;
  ctrl_.tick(now, est_power, budget, enforce, relax_threshold, core);
}

void PowerEnforcer::register_stats(StatsRegistry& reg,
                                   const std::string& prefix) const {
  if (!active()) return;
  ctrl_.register_stats(reg, prefix);
}

}  // namespace ptb
