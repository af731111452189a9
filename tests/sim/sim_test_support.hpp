// Shared fixtures for the simulator tests: a lock- and barrier-heavy
// profile and a bitwise RunResult comparator.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "sim/cmp.hpp"
#include "workloads/phases.hpp"

namespace ptb {

// Lock- and barrier-heavy, so sync completions and the thrifty/meeting
// gating paths run often, not just the plain-compute fast path.
inline WorkloadProfile sync_heavy_profile() {
  WorkloadProfile p;
  p.name = "shards";
  p.iterations = 3;
  p.ops_per_iteration = 4000;
  p.imbalance = 0.25;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 12;
  p.hot_lock_frac = 0.5;
  return p;
}

// Exact (bitwise, EXPECT_EQ on doubles) comparison of every deterministic
// RunResult field, including the per-core breakdowns the figures consume.
inline void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.num_cores, b.num_cores);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.hit_max_cycles, b.hit_max_cycles);
  EXPECT_EQ(a.energy, b.energy);
  EXPECT_EQ(a.aopb, b.aopb);
  EXPECT_EQ(a.budget, b.budget);
  EXPECT_EQ(a.peak_power, b.peak_power);
  EXPECT_EQ(a.power.count(), b.power.count());
  EXPECT_EQ(a.power.mean(), b.power.mean());
  EXPECT_EQ(a.power.max(), b.power.max());
  EXPECT_EQ(a.power.variance(), b.power.variance());
  EXPECT_EQ(a.spin_energy, b.spin_energy);
  EXPECT_EQ(a.total_committed, b.total_committed);
  EXPECT_EQ(a.tokens_donated, b.tokens_donated);
  EXPECT_EQ(a.tokens_granted, b.tokens_granted);
  EXPECT_EQ(a.tokens_evaporated, b.tokens_evaporated);
  EXPECT_EQ(a.dvfs_transitions, b.dvfs_transitions);
  EXPECT_EQ(a.to_one_cycles, b.to_one_cycles);
  EXPECT_EQ(a.to_all_cycles, b.to_all_cycles);
  EXPECT_EQ(a.spin_gated_cycles, b.spin_gated_cycles);
  EXPECT_EQ(a.barrier_sleep_cycles, b.barrier_sleep_cycles);
  EXPECT_EQ(a.meeting_point_episodes, b.meeting_point_episodes);
  EXPECT_EQ(a.machine_fingerprint, b.machine_fingerprint);
  ASSERT_EQ(a.cores.size(), b.cores.size());
  for (std::size_t i = 0; i < a.cores.size(); ++i) {
    SCOPED_TRACE(i);
    const CoreResult& x = a.cores[i];
    const CoreResult& y = b.cores[i];
    EXPECT_EQ(x.finish_cycle, y.finish_cycle);
    EXPECT_EQ(x.committed, y.committed);
    EXPECT_EQ(x.flushes, y.flushes);
    for (std::uint32_t s = 0; s < kNumExecStates; ++s) {
      EXPECT_EQ(x.state_cycles[s], y.state_cycles[s]);
    }
    EXPECT_EQ(x.spin_energy, y.spin_energy);
    EXPECT_EQ(x.energy, y.energy);
    EXPECT_EQ(x.temp_mean, y.temp_mean);
    EXPECT_EQ(x.temp_std, y.temp_std);
  }
}

}  // namespace ptb
