// Hierarchical stats registry (gem5-style) — the typed metrics plane over
// the simulator. Components *register* their existing counters once per
// run; the registry never sits on the hot path:
//
//   - a Counter/Gauge binds to the owning component's member (the component
//     keeps incrementing its own field exactly as before; the registry
//     reads it at sample/dump time), or to a pull callback;
//   - a Distribution is a registry-owned Histogram the owner pushes into
//     behind its own `if (stats)` guard (the audit/trace hook pattern);
//   - a Formula is a derived metric evaluated lazily at sample/dump time
//     (AoPB fraction, IPC, token grant ratio, ...).
//
// Zero overhead when disabled: no registry is allocated unless
// RunOptions::stats is set, and nothing in the cycle loop changes.
//
// Names are dotted paths ("core.3.rob.occupancy",
// "ptb.balancer.tokens_granted"). Iteration is deterministic: dumps walk
// the name-sorted index (byte-stable across --jobs and across sessions),
// while `at()` preserves registration order for consumers that pin their
// own order (run_summary_kv).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace ptb {

enum class StatKind : std::uint8_t { kCounter, kGauge, kDistribution,
                                     kFormula };

const char* stat_kind_name(StatKind k);

/// Parses stat_kind_name output; returns false on anything else.
bool parse_stat_kind(std::string_view s, StatKind& out);

/// One registered stat. Scalar stats (counter/gauge/formula) produce a
/// double via value(); integral counters additionally expose the exact
/// 64-bit value. Distribution stats expose their Histogram instead.
class Stat {
 public:
  const std::string& name() const { return name_; }
  const std::string& desc() const { return desc_; }
  StatKind kind() const { return kind_; }
  /// Volatile stats (wall-clock self-profiling) are not deterministic
  /// functions of (profile, config, seed); deterministic dumps and the
  /// sample buffer exclude them.
  bool is_volatile() const { return volatile_; }
  bool scalar() const { return kind_ != StatKind::kDistribution; }
  /// True when backed by an integer source (prints without a decimal
  /// point; exact via value_u64).
  bool integral() const { return u64_ != nullptr || u32_ != nullptr ||
                                 integral_fn_; }

  double value() const;
  std::uint64_t value_u64() const;
  const Histogram* histogram() const { return hist_.get(); }

  /// Fixed precision for flat key=value rendering (run_summary_kv).
  int kv_precision() const { return kv_precision_; }
  /// `name=value` with pinned, locale-independent formatting.
  std::string kv_string() const;

 private:
  friend class StatsRegistry;
  Stat() = default;

  std::string name_;
  std::string desc_;
  StatKind kind_ = StatKind::kGauge;
  bool volatile_ = false;
  bool integral_fn_ = false;
  int kv_precision_ = 3;
  const std::uint64_t* u64_ = nullptr;
  const std::uint32_t* u32_ = nullptr;
  const double* f64_ = nullptr;
  std::function<double()> fn_;
  std::unique_ptr<Histogram> hist_;
};

class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // --- registration -----------------------------------------------------
  // Bound sources must outlive the registry (they are read at sample /
  // dump time). Duplicate or empty names abort via PTB_ASSERT.
  void counter(std::string name, std::string desc, const std::uint64_t* src);
  void counter(std::string name, std::string desc, const std::uint32_t* src);
  /// Token totals accumulate as doubles; kv_precision pins their flat
  /// key=value rendering (run_summary_kv compatibility).
  void counter(std::string name, std::string desc, const double* src,
               int kv_precision = 1);
  /// Pull-callback counter rendered as an integer (derived event counts).
  void counter_fn(std::string name, std::string desc,
                  std::function<double()> fn);
  void gauge(std::string name, std::string desc, const double* src,
             int kv_precision = 3);
  void gauge_fn(std::string name, std::string desc,
                std::function<double()> fn, int kv_precision = 3,
                bool is_volatile = false);
  /// Registry-owned histogram; the returned reference stays valid for the
  /// registry's lifetime (push samples behind your own stats guard).
  Histogram& distribution(std::string name, std::string desc, double lo,
                          double hi, std::size_t buckets);
  /// Derived metric; evaluate other stats / captured state lazily.
  void formula(std::string name, std::string desc,
               std::function<double()> fn, int kv_precision = 3);

  // --- lookup / iteration ----------------------------------------------
  /// Dotted-path lookup; null when absent.
  const Stat* find(std::string_view dotted_name) const;
  std::size_t size() const { return stats_.size(); }
  /// Registration order (pinned by the registering code).
  const Stat& at(std::size_t i) const { return *stats_[i]; }
  /// Name-sorted order — the deterministic dump/sample order.
  std::vector<const Stat*> sorted() const;

 private:
  Stat& add(std::string name, std::string desc, StatKind kind);

  std::vector<std::unique_ptr<Stat>> stats_;           // registration order
  std::map<std::string, std::size_t, std::less<>> index_;  // name-sorted
};

/// Columnar time-series buffer over a registry's deterministic (sorted,
/// non-volatile) scalar stats: one column per stat, one row per sample.
/// Drives RunOptions::stats_sample_every.
class SampleBuffer {
 public:
  explicit SampleBuffer(const StatsRegistry& reg);

  /// Appends one row: every column's current value at cycle `now`.
  void sample(Cycle now);

  std::size_t num_columns() const { return stats_.size(); }
  std::size_t num_samples() const { return cycles_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Cycle>& cycles() const { return cycles_; }
  const std::vector<double>& column(std::size_t i) const { return data_[i]; }

  // Checkpoint support (sim/checkpoint): accumulated rows. The column set
  // comes from the (re-registered) registry; a restore into a registry with
  // a different column set fails the reader.
  void save_state(ByteWriter& w) const {
    w.u64(columns_.size());
    for (const std::string& c : columns_) w.str(c);
    w.u64_vec(cycles_);
    for (const std::vector<double>& col : data_) w.f64_vec(col);
  }
  void load_state(ByteReader& r) {
    const std::uint64_t nc = r.u64();
    if (nc != columns_.size()) {
      r.fail();
      return;
    }
    for (const std::string& c : columns_) {
      if (r.str() != c) {
        r.fail();
        return;
      }
    }
    std::vector<Cycle> cyc;
    r.u64_vec(cyc);
    std::vector<std::vector<double>> cols(data_.size());
    for (std::vector<double>& col : cols) {
      r.f64_vec(col);
      if (col.size() != cyc.size()) {
        r.fail();
        return;
      }
    }
    if (!r.ok()) return;
    cycles_ = std::move(cyc);
    data_ = std::move(cols);
  }

 private:
  std::vector<const Stat*> stats_;        // sorted, scalar, non-volatile
  std::vector<std::string> columns_;      // their names
  std::vector<Cycle> cycles_;
  std::vector<std::vector<double>> data_;  // column-major
};

/// Flat `name=value` rendering of the registry in registration order, one
/// stat per line — the single source of truth behind run_summary_kv.
std::string stats_kv(const StatsRegistry& reg);

}  // namespace ptb
