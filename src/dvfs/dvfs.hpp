// DVFS / DFS power-mode controller (Sections II.A and III.C of the paper).
//
// Five modes, exactly the paper's: (VDD%, F%) = (100,100) (95,95) (90,90)
// (90,75) (90,65). The DFS variant keeps VDD at 100% and scales only
// frequency. Mode transitions follow Kim et al. (HPCA'08) fast on-chip
// regulators: 30-50 mV/ns, i.e. ~12 mV per 3 GHz cycle; the core stalls for
// the transition.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

class EventTracer;
class StatsRegistry;

struct DvfsMode {
  double vdd_ratio;
  double freq_ratio;
};

inline constexpr std::array<DvfsMode, 5> kDvfsModes{{
    {1.00, 1.00},
    {0.95, 0.95},
    {0.90, 0.90},
    {0.90, 0.75},
    {0.90, 0.65},
}};

class DvfsController {
 public:
  /// `freq_only` selects the DFS variant (VDD pinned at 100%).
  DvfsController(const DvfsConfig& cfg, const PowerConfig& power,
                 bool freq_only);

  /// Feed one cycle of (estimated) core power; the controller averages over
  /// its window and steps the mode at window boundaries. `budget` is the
  /// core's current local power budget; `enforce` is false while the CMP is
  /// globally under budget (the controller then relaxes toward mode 0).
  void tick(Cycle now, double inst_power, double budget, bool enforce);

  double vdd_ratio() const { return vdd_of(mode_); }
  double freq_ratio() const { return kDvfsModes[mode_].freq_ratio; }
  std::uint32_t mode() const { return mode_; }
  /// True while the regulator is ramping; the core must stall.
  bool in_transition(Cycle now) const { return now < transition_until_; }
  Cycle transition_until() const { return transition_until_; }

  /// Cycles a VDD swing of `delta_v` (in volts) takes at the configured
  /// regulator slew rate.
  Cycle transition_cycles(double delta_v) const;

  /// Attach/detach the event tracer (src/trace): every mode change emits a
  /// kDvfsTransition event for `core` with its regulator stall window.
  void set_tracer(EventTracer* t, std::uint32_t core) {
    tracer_ = t;
    core_ = core;
  }

  // Statistics.
  std::uint64_t transitions = 0;

  /// Registers the transition counter and current-mode gauge under `prefix`
  /// (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support.
  void save_state(ByteWriter& w) const {
    w.u32(mode_);
    w.u64(transition_until_);
    w.f64(window_acc_);
    w.u32(window_n_);
    w.u64(transitions);
  }
  void load_state(ByteReader& r) {
    const std::uint32_t m = r.u32();
    if (m >= kDvfsModes.size()) {
      r.fail();
      return;
    }
    mode_ = m;
    transition_until_ = r.u64();
    window_acc_ = r.f64();
    window_n_ = r.u32();
    transitions = r.u64();
  }

 private:
  double vdd_of(std::uint32_t m) const {
    return freq_only_ ? 1.0 : kDvfsModes[m].vdd_ratio;
  }
  void change_mode(Cycle now, std::uint32_t next);

  DvfsConfig cfg_;
  double vdd_nominal_;
  bool freq_only_;
  std::uint32_t mode_ = 0;
  Cycle transition_until_ = 0;
  double window_acc_ = 0.0;
  std::uint32_t window_n_ = 0;
  EventTracer* tracer_ = nullptr;  // owned by the running simulator
  std::uint32_t core_ = 0;
};

}  // namespace ptb
