// Clustered PTB (Section III.E.2): "one approach to make PTB more scalable
// (>32 cores) consists of clustering the PTB load-balancer into groups of 8
// or 16 cores and replicating the structure as needed" — the paper argues a
// group of 8-16 cores already carries enough slack to balance well.
//
// Each cluster runs its own PtbLoadBalancer over its members at the small-
// cluster wire latency; clusters do not exchange tokens.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "core/balancer.hpp"

namespace ptb {

class ClusteredBalancer {
 public:
  /// Partitions `num_cores` into contiguous clusters of at most
  /// `cluster_size` cores (the paper suggests 8 or 16).
  ClusteredBalancer(const PtbConfig& cfg, std::uint32_t num_cores,
                    std::uint32_t cluster_size, double local_budget);

  /// Same contract as PtbLoadBalancer::cycle, applied per cluster. The
  /// `global_over` gate uses each *cluster's* aggregate (a cluster only has
  /// its own wires), which is what makes the scheme scalable. Both arrays
  /// must have num_cores() entries (allocation-free hot path).
  void cycle(Cycle now, const double* est_power, double cluster_budget_total,
             PtbPolicy policy, double* eff_budget);

  /// Vector convenience overload (tests and benches).
  void cycle(Cycle now, const std::vector<double>& est_power,
             double cluster_budget_total, PtbPolicy policy,
             std::vector<double>& eff_budget) {
    PTB_ASSERT(est_power.size() == num_cores_, "power vector arity mismatch");
    eff_budget.resize(num_cores_);
    cycle(now, est_power.data(), cluster_budget_total, policy,
          eff_budget.data());
  }

  /// Forwards a new per-core budget to every cluster balancer (mid-run
  /// global-budget changes; see PtbLoadBalancer::set_local_budget).
  void set_local_budget(double local_budget);

  std::uint32_t num_clusters() const {
    return static_cast<std::uint32_t>(clusters_.size());
  }
  std::uint32_t cluster_size() const { return cluster_size_; }
  /// Cluster k's balancer and the index of its first core (auditing).
  const PtbLoadBalancer& cluster(std::uint32_t k) const {
    return *clusters_[k];
  }
  std::uint32_t cluster_begin(std::uint32_t k) const {
    return k * cluster_size_;
  }
  std::uint32_t wire_latency() const {
    return clusters_.empty() ? 0 : clusters_[0]->wire_latency();
  }

  double tokens_donated() const;
  double tokens_granted() const;

  /// Registers CMP-wide token totals under `prefix` plus every cluster
  /// balancer's stats under `prefix`.cluster.K (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  /// Attach/detach the event tracer on every cluster balancer; cluster k
  /// emits token events with its global core ids and pool tag k.
  void set_tracer(EventTracer* t);

  // Checkpoint support: every cluster balancer, in cluster order.
  void save_state(ByteWriter& w) const {
    w.u64(clusters_.size());
    for (const auto& c : clusters_) c->save_state(w);
  }
  void load_state(ByteReader& r) {
    if (r.u64() != clusters_.size()) {
      r.fail();
      return;
    }
    for (auto& c : clusters_) c->load_state(r);
  }

 private:
  std::uint32_t num_cores_;
  std::uint32_t cluster_size_;
  std::vector<std::unique_ptr<PtbLoadBalancer>> clusters_;
};

}  // namespace ptb
