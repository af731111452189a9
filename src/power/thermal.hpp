// Lumped-RC thermal model, one node per core (HotSpot-lite).
//
// Used for the temperature-stability extension experiment: the paper claims
// PTB's accurate budget matching yields a lower average chip temperature
// with minimal standard deviation (Sections I and V).
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace ptb {

class StatsRegistry;

class ThermalModel {
 public:
  ThermalModel(const ThermalConfig& cfg, std::uint32_t num_cores);

  /// Advance core `c` by `cycles` with average power `power` over the step.
  /// Exact exponential update of dT/dt = (T_steady - T)/tau with
  /// T_steady = ambient + R * power.
  void step(CoreId c, double power, double cycles);

  double temperature(CoreId c) const { return temp_[c]; }
  const RunningStat& history(CoreId c) const { return hist_[c]; }
  double max_temperature() const;

  /// Registers per-core temperature gauges (current + run mean/stddev)
  /// under `prefix`.N (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support: node temperatures + their history stats.
  void save_state(ByteWriter& w) const {
    w.f64_vec(temp_);
    w.u64(hist_.size());
    for (const RunningStat& h : hist_) h.save_state(w);
  }
  void load_state(ByteReader& r) {
    std::vector<double> t;
    r.f64_vec(t);
    if (t.size() != temp_.size() || r.u64() != hist_.size()) {
      r.fail();
      return;
    }
    temp_ = std::move(t);
    for (RunningStat& h : hist_) h.load_state(r);
  }

 private:
  ThermalConfig cfg_;
  std::vector<double> temp_;
  std::vector<RunningStat> hist_;
};

}  // namespace ptb
