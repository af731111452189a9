// Power-token model (Section III.B of the paper).
//
// A power-token unit is the energy of one instruction staying in the ROB for
// one cycle. An instruction's consumption = base tokens (all its regular
// structure accesses, known per static instruction) + its ROB residency in
// cycles. Base tokens are "profiled" once (here: synthesized per static PC
// around per-class means, standing in for the paper's SPECint2000 run) and
// grouped with a k-means into 8 groups; the PTHT stores grouped last-run
// values. The paper reports <1% error vs exact accounting; a test asserts
// the same property for this implementation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "isa/microop.hpp"
#include "power/kmeans.hpp"

namespace ptb {

class StatsRegistry;

class BaseEnergyModel {
 public:
  BaseEnergyModel(const PowerConfig& cfg, std::uint64_t seed);

  /// Process-wide memoized constructor: the model is a pure function of
  /// (cfg, seed) but costs a full k-means over the synthesized profiling
  /// population, which dominated CmpSimulator construction when every
  /// run_one() of a RunPool grid rebuilt it. Returns a shared immutable
  /// instance (thread-safe; exact config equality, never a hash).
  static std::shared_ptr<const BaseEnergyModel> shared(const PowerConfig& cfg,
                                                       std::uint64_t seed);

  /// Mean base tokens of an instruction class (pre-jitter).
  double class_mean(OpClass c) const {
    return class_mean_[static_cast<std::size_t>(c)];
  }

  /// "True" base tokens of the static instruction at (cls, pc): class mean
  /// with a deterministic per-PC jitter (stand-in for real profiled values).
  double exact_base(OpClass cls, Pc pc) const;

  /// Base tokens quantized to the nearest of the 8 k-means group centroids —
  /// what the hardware tables carry.
  double grouped_base(OpClass cls, Pc pc) const;

  /// Quantizes an already-computed exact base cost (callers that memoize
  /// exact_base can group without recomputing the jitter).
  double grouped_of(double exact_tokens) const {
    return centroids_[nearest_centroid(centroids_, exact_tokens)];
  }

  const std::vector<double>& centroids() const { return centroids_; }

  /// Aggregate (signed, cancelling) relative error of grouped vs exact
  /// accounting over the profiling population — the paper's <1% metric.
  double grouping_error() const { return grouping_error_; }

  /// Mean per-instruction |grouped - exact| / exact — a stricter measure
  /// that actually discriminates group counts (see the ablation bench).
  double grouping_abs_error() const { return grouping_abs_error_; }

  /// Registers the model's grouping-quality gauges and per-class means
  /// under `prefix` (src/stats). The model is immutable, so these are
  /// constants of the run.
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

 private:
  double jitter_factor(Pc pc) const;

  // Copied, not referenced: callers (tests, ad-hoc tools) routinely pass a
  // temporary config, which a stored reference would dangle on.
  PowerConfig cfg_;
  std::array<double, kNumOpClasses> class_mean_{};
  std::vector<double> centroids_;
  double grouping_error_ = 0.0;
  double grouping_abs_error_ = 0.0;
};

/// Per-core activity snapshot for one global cycle.
struct CoreActivity {
  double fetch_tokens = 0.0;        // sum of base tokens fetched this cycle
  std::uint32_t rob_occupancy = 0;  // instructions resident in the ROB
  bool active = false;              // core ticked this cycle (freq gating)
  bool gated = false;               // clock-gated (idle: empty ROB, no fetch)
  double vdd_ratio = 1.0;           // current VDD / nominal
};

/// Instantaneous core power (tokens/cycle) for one global cycle.
/// Dynamic power scales with VDD^2 and is spent only on active cycles;
/// leakage scales ~linearly with VDD and is always paid.
double core_cycle_power(const PowerConfig& cfg, const CoreActivity& a);

/// Structure-of-arrays view of every core's activity for one global cycle
/// (borrowed pointers into the simulator's CycleFrame, length n).
struct CoreActivityBatch {
  const double* fetch_exact;      // exact base tokens fetched (actual power)
  const double* fetch_estimated;  // PTHT-estimated tokens (control signal)
  const std::uint32_t* rob_occupancy;
  const std::uint8_t* active;
  const std::uint8_t* gated;
  const double* vdd_ratio;
};

/// Batched core_cycle_power over all cores of one cycle. `act[i]` receives
/// the actual-power evaluation (fetch_exact + ROB residency); `est[i]` (when
/// non-null) the control estimate (fetch_estimated only — residency is folded
/// into the stored PTHT values). Both are scaled by `scale` (the PTB wire
/// overhead factor). Bit-identical to the equivalent per-core
/// core_cycle_power calls; the batch form exists so the cycle loop evaluates
/// the model once over packed arrays instead of 2n scattered calls.
void core_cycle_power_batch(const PowerConfig& cfg, const CoreActivityBatch& b,
                            std::size_t n, double scale, double* act,
                            double* est);

/// Analytic reference peak per-core power used to define the global power
/// budget (paper: budget = 50% of the processor's peak). TDP-like: leakage +
/// uncore + a full-width fetch group at the class-mix mean cost + a full ROB.
/// Instantaneous power can transiently exceed it (as real chips exceed TDP).
double analytic_peak_core_power(const PowerConfig& cfg,
                                const CoreConfig& core);

}  // namespace ptb
