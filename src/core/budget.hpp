// Global and local power budgets (Section III.C of the paper).
//
// The global budget is a fraction of the CMP's peak power (the paper
// evaluates 50%); without PTB each core simply receives an equal local
// share (the "naive" split the paper shows failing for parallel workloads).
#pragma once

#include <string>

#include "common/config.hpp"
#include "power/power_model.hpp"

namespace ptb {

class StatsRegistry;

class BudgetManager {
 public:
  explicit BudgetManager(const SimConfig& cfg)
      : peak_core_(analytic_peak_core_power(cfg.power, cfg.core)),
        num_cores_(cfg.num_cores),
        global_(peak_core_ * cfg.num_cores * cfg.budget_fraction) {}

  /// Per-core analytic peak power (tokens/cycle).
  double peak_core_power() const { return peak_core_; }
  /// CMP-wide peak.
  double peak_power() const { return peak_core_ * num_cores_; }
  /// Global power budget (tokens/cycle).
  double global_budget() const { return global_; }
  /// Naive equal per-core share.
  double local_budget() const { return global_ / num_cores_; }

  /// Registers the budget/peak gauges under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

 private:
  double peak_core_;
  std::uint32_t num_cores_;
  double global_;
};

}  // namespace ptb
