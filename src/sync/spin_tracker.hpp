// Per-core execution-state bookkeeping for the Figure 3 time breakdown
// (lock-acquisition / lock-release / barrier / busy) and the Figure 4
// spinlock-power analysis.
//
// The *program* knows its own state (it is the one spinning); it updates the
// tracker as it transitions. The CMP attributes each cycle (and that cycle's
// power) to the core's current state.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "trace/trace.hpp"

namespace ptb {

class StatsRegistry;

enum class ExecState : std::uint8_t {
  kBusy = 0,
  kLockAcq,
  kLockRel,
  kBarrier,
  kCount,
};

inline constexpr std::uint32_t kNumExecStates =
    static_cast<std::uint32_t>(ExecState::kCount);

const char* exec_state_name(ExecState s);

class SpinTracker {
 public:
  void set_state(ExecState s) {
    if (s == state_) return;
    if (tracer_) {
      // A spin *phase* is any non-busy interval: exiting one state and
      // entering another (lock-release right after lock-acquisition) emits
      // both edges at the same cycle.
      if (state_ != ExecState::kBusy) {
        tracer_->emit(TraceEventType::kSpinExit, core_,
                      static_cast<std::uint64_t>(state_), 0.0);
      }
      if (s != ExecState::kBusy) {
        tracer_->emit(TraceEventType::kSpinEnter, core_,
                      static_cast<std::uint64_t>(s), 0.0);
      }
    }
    state_ = s;
  }
  ExecState state() const { return state_; }

  /// Attach/detach the event tracer (src/trace) for this tracker's core.
  void set_tracer(EventTracer* t, std::uint32_t core) {
    tracer_ = t;
    core_ = core;
  }

  /// True while the core is in any spinning/synchronization state.
  bool spinning() const { return state_ != ExecState::kBusy; }

  /// Attribute one global cycle at power `p` to the current state.
  void attribute_cycle(double p) {
    const auto i = static_cast<std::size_t>(state_);
    cycles_[i] += 1;
    power_[i] += p;
  }

  Cycle cycles_in(ExecState s) const {
    return cycles_[static_cast<std::size_t>(s)];
  }
  double power_in(ExecState s) const {
    return power_[static_cast<std::size_t>(s)];
  }
  Cycle total_cycles() const {
    Cycle t = 0;
    for (auto c : cycles_) t += c;
    return t;
  }
  double total_power() const {
    double t = 0;
    for (auto p : power_) t += p;
    return t;
  }
  /// Energy spent while in spin states (everything but kBusy).
  double spin_power() const {
    return total_power() - power_[static_cast<std::size_t>(ExecState::kBusy)];
  }

  /// Registers per-state cycle counters and energy gauges under `prefix`
  /// (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support (tracer wiring is per-run, not state).
  void save_state(ByteWriter& w) const {
    w.u8(static_cast<std::uint8_t>(state_));
    for (const Cycle c : cycles_) w.u64(c);
    for (const double p : power_) w.f64(p);
  }
  void load_state(ByteReader& r) {
    const std::uint8_t s = r.u8();
    if (s >= kNumExecStates) {
      r.fail();
      return;
    }
    state_ = static_cast<ExecState>(s);
    for (Cycle& c : cycles_) c = r.u64();
    for (double& p : power_) p = r.f64();
  }

 private:
  ExecState state_ = ExecState::kBusy;
  std::array<Cycle, kNumExecStates> cycles_{};
  std::array<double, kNumExecStates> power_{};
  EventTracer* tracer_ = nullptr;  // owned by the running simulator
  std::uint32_t core_ = 0;
};

}  // namespace ptb
