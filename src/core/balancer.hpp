// The PTB load-balancer (Sections III.E and IV of the paper) — the paper's
// primary contribution.
//
// Every cycle, cores under their local power budget offer their spare
// tokens; the centralized balancer re-grants them to cores over budget.
// Tokens are a currency (counts travel on a dedicated wire layer, not the
// tokens themselves): 4 wires each way bound a message to 0..15 quanta.
// Nothing is banked across cycles. A donating core tightens its own budget
// by the donated amount until the grant lands (wire latency: 3 cycles at
// 2-4 cores, 5 at 8, 10 at 16 — Xilinx ISE estimates from the paper).
//
// Policies: ToAll (split among all over-budget cores) and ToOne (all to the
// neediest core); the dynamic selector in core/policy.hpp switches between
// them based on the kind of spinning observed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

class EventTracer;
class StatsRegistry;

/// The canonical reduction order for per-core power/budget totals: a serial
/// left-to-right sum over core order. FP addition is not associative, so
/// every consumer of a CMP-wide total (the global over-budget signal, the
/// balancer's aggregation, energy accounting) must use this one order, so
/// a reordered or vectorized sum can never silently change a result byte.
inline double deterministic_total(const double* v, std::uint32_t n) {
  double sum = 0.0;
  for (std::uint32_t i = 0; i < n; ++i) sum += v[i];
  return sum;
}

class PtbLoadBalancer {
 public:
  PtbLoadBalancer(const PtbConfig& cfg, std::uint32_t num_cores,
                  double local_budget);

  /// One balancing round. `est_power[i]` is core i's PTHT-estimated
  /// instantaneous power; `global_over` gates donation (cores only donate
  /// while the CMP exceeds the global budget); `policy` distributes the
  /// arriving pool. On return `eff_budget[i]` is core i's budget this cycle
  /// (local share - outstanding donations + arriving grants). Both arrays
  /// must have num_cores() entries; this is the allocation-free hot path
  /// the CMP cycle loop drives (sim/cmp.cpp, CycleFrame).
  void cycle(Cycle now, const double* est_power, bool global_over,
             PtbPolicy policy, double* eff_budget);

  /// Vector convenience overload (tests, examples, microbenches): sizes
  /// `eff_budget` for the caller, then runs the pointer hot path.
  void cycle(Cycle now, const std::vector<double>& est_power,
             bool global_over, PtbPolicy policy,
             std::vector<double>& eff_budget) {
    PTB_ASSERTF(est_power.size() == num_cores_,
                "power vector has %zu entries for %u cores",
                est_power.size(), num_cores_);
    eff_budget.resize(num_cores_);
    cycle(now, est_power.data(), global_over, policy, eff_budget.data());
  }

  std::uint32_t wire_latency() const { return latency_; }
  /// Tokens represented by one wire count (budget / (2^bits - 1)).
  double token_quantum() const { return quantum_; }

  /// Re-derives the per-core budget (and with it the wire quantum) from a
  /// new local budget — the hook for mid-run global-budget changes (budget
  /// schedules / ablations). Outstanding donations stay debited against
  /// the donors, so eff_budget tracks the new budget from the next cycle
  /// on and in-flight tokens still land and recover as usual.
  void set_local_budget(double local_budget) {
    PTB_ASSERT(local_budget > 0.0, "local budget must be positive");
    local_budget_ = local_budget;
    quantum_ = local_budget / static_cast<double>(max_count_);
  }

  // Introspection for the invariant auditor (src/audit) and tests.
  std::uint32_t num_cores() const { return num_cores_; }
  double local_budget() const { return local_budget_; }
  /// Largest per-core wire message per cycle, in quanta (2^bits - 1).
  std::uint32_t max_wire_count() const { return max_count_; }
  /// Tokens currently travelling on the wires (donated, not yet landed).
  double in_flight_tokens() const;
  /// Sum of the donors' outstanding budget debits; equals
  /// in_flight_tokens() whenever the balancer is consistent.
  double outstanding_total() const;

  /// Paper-configured round-trip latency for a core count.
  static std::uint32_t latency_for_cores(std::uint32_t num_cores);

  /// Attach/detach the event tracer (src/trace): Donate/Grant/Evaporate
  /// events are emitted against it when non-null. `core_offset` maps this
  /// balancer's local core indices to CMP core ids and `pool_tag` tags the
  /// token events' pool (both non-zero only under ClusteredBalancer).
  void set_tracer(EventTracer* t, std::uint32_t core_offset = 0,
                  std::uint64_t pool_tag = 0) {
    tracer_ = t;
    core_offset_ = core_offset;
    pool_tag_ = pool_tag;
  }

  // --- statistics ---
  double tokens_donated = 0.0;
  double tokens_granted = 0.0;
  double tokens_evaporated = 0.0;  // arrived with no needy core
  std::uint64_t donation_events = 0;
  std::uint64_t grant_events = 0;

  /// Registers the token counters, event counters and wire parameters under
  /// `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support: in-flight wire state (slot-indexed rings —
  // positions are pure functions of the cycle number, which the checkpoint
  // also carries) + donor debits + token statistics.
  void save_state(ByteWriter& w) const {
    w.f64_vec(pool_arriving_);
    w.f64_vec(returning_);
    w.f64_vec(outstanding_);
    w.f64(tokens_donated);
    w.f64(tokens_granted);
    w.f64(tokens_evaporated);
    w.u64(donation_events);
    w.u64(grant_events);
  }
  void load_state(ByteReader& r) {
    std::vector<double> pa, rt, os;
    r.f64_vec(pa);
    r.f64_vec(rt);
    r.f64_vec(os);
    if (pa.size() != pool_arriving_.size() ||
        rt.size() != returning_.size() || os.size() != outstanding_.size()) {
      r.fail();
      return;
    }
    pool_arriving_ = std::move(pa);
    returning_ = std::move(rt);
    outstanding_ = std::move(os);
    tokens_donated = r.f64();
    tokens_granted = r.f64();
    tokens_evaporated = r.f64();
    donation_events = r.u64();
    grant_events = r.u64();
  }

 private:
  std::size_t slot(Cycle t) const { return t % ring_; }

  std::uint32_t num_cores_;
  double local_budget_;
  std::uint32_t latency_;
  std::uint32_t max_count_;  // 2^wire_bits - 1
  double quantum_;
  bool toall_redistribute_;
  std::size_t ring_;

  std::vector<double> pool_arriving_;  // [ring]
  std::vector<double> returning_;      // [ring * cores], slot-major
  std::vector<double> outstanding_;    // per core
  std::vector<double> deficit_;        // per-cycle scratch (grant passes)

  EventTracer* tracer_ = nullptr;  // owned by the running simulator
  std::uint32_t core_offset_ = 0;
  std::uint64_t pool_tag_ = 0;
};

}  // namespace ptb
