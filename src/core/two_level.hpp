// The 2-level hybrid power controller (Cebrián et al., IPDPS 2009 — the
// paper's reference [2], re-used here as the per-core local mechanism).
//
// Level 1: coarse-grained DVFS steers the window-average power toward the
// local budget. Level 2: fine-grained microarchitectural techniques remove
// the remaining per-cycle spikes; the technique is chosen by how far the
// core is over budget (progressively: halve fetch width, serialize fetch,
// gate fetch entirely).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "dvfs/dvfs.hpp"

namespace ptb {

class Core;
class StatsRegistry;

class TwoLevelController {
 public:
  /// Flags select the paper's technique variants: DVFS-only, DFS-only, or
  /// the full 2-level (DVFS + microarchitectural spike removal).
  TwoLevelController(const SimConfig& cfg, bool use_dvfs, bool use_microarch,
                     bool freq_only);

  /// One control cycle. `budget` is the core's (possibly PTB-augmented)
  /// local budget; `enforce` is the global over-budget condition;
  /// `relax_threshold` delays level-2 triggering (Section IV.C).
  void tick(Cycle now, double est_power, double budget, bool enforce,
            double relax_threshold, Core& core);

  double vdd_ratio() const { return use_dvfs_ ? dvfs_.vdd_ratio() : 1.0; }
  double freq_ratio() const { return use_dvfs_ ? dvfs_.freq_ratio() : 1.0; }
  /// Core must stall while the regulator ramps.
  bool stalled(Cycle now) const {
    return use_dvfs_ && dvfs_.in_transition(now);
  }
  const DvfsController& dvfs() const { return dvfs_; }
  std::uint32_t microarch_level() const { return level_; }

  /// Attach/detach the event tracer (src/trace): forwards to the DVFS
  /// controller and emits a kThrottleLevel event on every level-2
  /// (microarchitectural) throttle change for `core`.
  void set_tracer(EventTracer* t, std::uint32_t core) {
    tracer_ = t;
    core_ = core;
    dvfs_.set_tracer(t, core);
  }

  // Statistics.
  std::uint64_t level_cycles[4] = {0, 0, 0, 0};

  /// Registers level residency, the current throttle level and the DVFS
  /// controller's stats under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support: DVFS controller + throttle level + residency.
  void save_state(ByteWriter& w) const {
    dvfs_.save_state(w);
    w.u32(level_);
    for (const std::uint64_t c : level_cycles) w.u64(c);
  }
  void load_state(ByteReader& r) {
    dvfs_.load_state(r);
    const std::uint32_t l = r.u32();
    if (l > 3) {
      r.fail();
      return;
    }
    level_ = l;
    for (std::uint64_t& c : level_cycles) c = r.u64();
  }

 private:
  const SimConfig& cfg_;
  DvfsController dvfs_;
  bool use_dvfs_;
  bool use_microarch_;
  std::uint32_t level_ = 0;  // 0 = off, 1..3 = progressively stronger
  EventTracer* tracer_ = nullptr;  // owned by the running simulator
  std::uint32_t core_ = 0;
};

}  // namespace ptb
