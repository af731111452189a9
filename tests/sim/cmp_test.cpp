// CMP simulator end-to-end behaviour on small configurations.
#include "sim/cmp.hpp"

#include <gtest/gtest.h>

#include <ios>
#include <string>
#include <string_view>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/trace_export.hpp"
#include "stats/dump.hpp"
#include "trace/trace.hpp"
#include "workloads/suite.hpp"
#include "sim_test_support.hpp"

namespace ptb {
namespace {

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "small";
  p.iterations = 2;
  p.ops_per_iteration = 4000;
  p.imbalance = 0.1;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 10;
  return p;
}

SimConfig cfg_for(std::uint32_t cores,
                  TechniqueKind kind = TechniqueKind::kNone,
                  bool ptb = false) {
  TechniqueSpec t{"t", kind, ptb, PtbPolicy::kToAll, 0.0};
  SimConfig cfg = make_sim_config(cores, t);
  cfg.max_cycles = 500000;
  return cfg;
}

TEST(CmpSimulator, RunsToCompletion) {
  CmpSimulator sim(cfg_for(4), small_profile());
  const RunResult r = sim.run();
  EXPECT_FALSE(r.hit_max_cycles);
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.total_committed, 2u * 4000u);
  EXPECT_GT(r.energy, 0.0);
}

TEST(CmpSimulator, DeterministicAcrossRuns) {
  const WorkloadProfile p = small_profile();
  const RunResult a = CmpSimulator(cfg_for(4), p).run();
  const RunResult b = CmpSimulator(cfg_for(4), p).run();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
  EXPECT_DOUBLE_EQ(a.aopb, b.aopb);
  EXPECT_EQ(a.total_committed, b.total_committed);
}

TEST(CmpSimulator, SeedChangesExecution) {
  const WorkloadProfile p = small_profile();
  SimConfig c1 = cfg_for(4), c2 = cfg_for(4);
  c2.seed = 999;
  const RunResult a = CmpSimulator(c1, p).run();
  const RunResult b = CmpSimulator(c2, p).run();
  EXPECT_NE(a.energy, b.energy);
}

TEST(CmpSimulator, EnergyEqualsPowerIntegral) {
  CmpSimulator sim(cfg_for(2), small_profile());
  const RunResult r = sim.run();
  EXPECT_NEAR(r.energy, r.power.mean() * static_cast<double>(r.cycles),
              r.energy * 1e-9);
}

TEST(CmpSimulator, AopbIsZeroWithInfiniteBudget) {
  SimConfig cfg = cfg_for(2);
  cfg.budget_fraction = 100.0;  // budget far above any possible power
  CmpSimulator sim(cfg, small_profile());
  const RunResult r = sim.run();
  EXPECT_DOUBLE_EQ(r.aopb, 0.0);
}

TEST(CmpSimulator, SpinEnergyPositiveWithContention) {
  WorkloadProfile p = small_profile();
  p.cs_per_1k_ops = 20.0;
  p.hot_lock_frac = 1.0;
  CmpSimulator sim(cfg_for(4), p);
  const RunResult r = sim.run();
  EXPECT_GT(r.spin_energy, 0.0);
  EXPECT_LT(r.spin_energy, r.energy);
}

TEST(CmpSimulator, AllCoresCommitWork) {
  CmpSimulator sim(cfg_for(4), small_profile());
  const RunResult r = sim.run();
  for (const auto& c : r.cores) {
    EXPECT_GT(c.committed, 1000u);
    EXPECT_GT(c.finish_cycle, 0u);
  }
}

TEST(CmpSimulator, CoherenceInvariantHoldsAfterRun) {
  CmpSimulator sim(cfg_for(4), small_profile());
  sim.run();
  sim.memory().check_swmr();
}

TEST(CmpSimulator, PtbBalancerMovesTokensUnderContention) {
  WorkloadProfile p = small_profile();
  p.cs_per_1k_ops = 20.0;
  p.hot_lock_frac = 1.0;
  CmpSimulator sim(cfg_for(4, TechniqueKind::kTwoLevel, true), p);
  const RunResult r = sim.run();
  EXPECT_GT(r.tokens_donated, 0.0);
  EXPECT_GT(r.tokens_granted, 0.0);
  EXPECT_LE(r.tokens_granted, r.tokens_donated + 1e-6);
}

TEST(CmpSimulator, TracesRecordedOnRequest) {
  RunOptions opts;
  opts.record_cmp_trace = true;
  opts.record_core_traces = true;
  CmpSimulator sim(cfg_for(2), small_profile());
  const RunResult r = sim.run(opts);
  EXPECT_GT(r.cmp_power_trace.size(), 10u);
  ASSERT_EQ(r.core_power_traces.size(), 2u);
  EXPECT_GT(r.core_power_traces[0].size(), 10u);
}

TEST(CmpSimulator, ThermalTracksEnergy) {
  CmpSimulator sim(cfg_for(2), small_profile());
  const RunResult r = sim.run();
  for (const auto& c : r.cores) {
    EXPECT_GT(c.temp_mean, 0.0);
  }
}

TEST(CmpSimulator, DvfsTechniqueChangesModes) {
  // Force a crushing budget so DVFS must engage.
  SimConfig cfg = cfg_for(4, TechniqueKind::kDvfs);
  cfg.budget_fraction = 0.2;
  CmpSimulator sim(cfg, small_profile());
  const RunResult r = sim.run();
  EXPECT_GT(r.dvfs_transitions, 0u);
}

TEST(CmpSimulator, TightBudgetSlowsExecution) {
  const WorkloadProfile p = small_profile();
  SimConfig free_cfg = cfg_for(4, TechniqueKind::kNone);
  SimConfig tight = cfg_for(4, TechniqueKind::kTwoLevel);
  tight.budget_fraction = 0.25;
  const RunResult a = CmpSimulator(free_cfg, p).run();
  const RunResult b = CmpSimulator(tight, p).run();
  EXPECT_GT(b.cycles, a.cycles);
  // And it does cut over-budget energy relative to the budget line.
  EXPECT_LT(b.power.mean(), a.power.mean());
}

TEST(CmpSimulator, SingleCoreDegenerateCaseWorks) {
  WorkloadProfile p = small_profile();
  p.num_locks = 1;
  CmpSimulator sim(cfg_for(1), p);
  const RunResult r = sim.run();
  EXPECT_FALSE(r.hit_max_cycles);
  EXPECT_EQ(r.cores.size(), 1u);
}

// Golden cycle-loop digests: FNV-1a over the run summary, the serialized
// all-category event trace and the sampled deterministic stats dump of the
// sync-heavy profile. The table pins every byte the cycle loop produces
// across the controller families (each exercises a different gating and
// control path), so a loop restructuring that changes any emitted byte —
// result, trace order or stats — fails here. A legitimate result change
// must update the table and say why. The rows with core overrides pin the
// edges of the issue stage: a non-power-of-two ROB (the modulo slot path),
// a single-issue core and a ROB smaller than the issue window. The DFS rows
// pin frequency-only tick skipping (a core sits out whole cycles with ops in
// flight); they run at a 30% budget because DFS never throttles this
// profile at the default 50%. The small-LSQ row pins the LSQ-full fetch
// stall, which the default 64-entry LSQ never reaches. Every row also
// asserts the activity of the controller it names (token grants, DVFS
// transitions, barrier sleeps, meeting-point episodes). The default-budget
// DVFS rows make no transition on this profile, so they are marked as
// pinning the idle-enforcer path; the 30%-budget DVFS rows pin real DVFS.
std::uint64_t fnv1a(std::uint64_t h, std::string_view s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct GoldenCase {
  const char* label;
  std::uint32_t cores;
  TechniqueSpec tech;
  bool gate_spinners;
  std::uint32_t cluster_size;
  std::uint64_t digest;
  std::uint32_t rob_entries = 0;  // 0 = the default core
  std::uint32_t issue_width = 0;  // 0 = the default core
  std::uint32_t lsq_entries = 0;  // 0 = the default core
  double budget_fraction = 0.0;   // 0 = the default budget
  // The enforcer never fires on this row (0 DVFS transitions): it pins the
  // idle-enforcer path, not DVFS itself.
  bool idle_enforcer = false;
};

TEST(CmpSimulator, GoldenCycleLoopDigests) {
  const TechniqueSpec base{"base", TechniqueKind::kNone, false,
                           PtbPolicy::kToAll, 0.0};
  const TechniqueSpec dvfs{"dvfs", TechniqueKind::kDvfs, false,
                           PtbPolicy::kToAll, 0.0};
  const TechniqueSpec ptb_dyn{"ptb+2l(dyn)", TechniqueKind::kTwoLevel, true,
                              PtbPolicy::kDynamic, 0.0};
  const TechniqueSpec ptb_one{"ptb+2l(toone)", TechniqueKind::kTwoLevel,
                              true, PtbPolicy::kToOne, 0.0};
  const TechniqueSpec dfs{"dfs", TechniqueKind::kDfs, false,
                          PtbPolicy::kToAll, 0.0};
  const TechniqueSpec thrifty{"thrifty", TechniqueKind::kThriftyBarrier,
                              false, PtbPolicy::kToAll, 0.0};
  const TechniqueSpec meeting{"meeting", TechniqueKind::kMeetingPoints,
                              false, PtbPolicy::kToAll, 0.0};
  const std::vector<GoldenCase> cases = {
      {"base", 4, base, false, 0, 0x79465eca4d92134aull},
      {"dvfs", 4, dvfs, false, 0, 0xa5b8ba4e9df03df5ull, 0, 0, 0, 0.0, true},
      {"ptb+2l(dyn)", 4, ptb_dyn, false, 0, 0xe9b8d83b2dfec6c0ull},
      {"thrifty", 4, thrifty, false, 0, 0x0909fb56113f4e8eull},
      {"meeting", 4, meeting, false, 0, 0xa3d932958abace12ull},
      {"base", 16, base, false, 0, 0xdae274c3cde7b1d5ull},
      {"dvfs", 16, dvfs, false, 0, 0x1bfd7b705ffb447dull, 0, 0, 0, 0.0,
       true},
      {"ptb+2l(dyn)", 16, ptb_dyn, false, 0, 0x841712e75c1fc629ull},
      {"ptb+2l(toone)", 16, ptb_one, false, 0, 0x653ff68305a33a14ull},
      {"thrifty", 16, thrifty, false, 0, 0xd14b0b56e140e021ull},
      {"meeting", 16, meeting, false, 0, 0x53d611896db077dbull},
      {"ptb+2l(dyn)+gate", 16, ptb_dyn, true, 0, 0x9c3e187f19885c33ull},
      {"ptb+2l(dyn)+clustered", 16, ptb_dyn, false, 4, 0x97617d6a5675c9c5ull},
      {"base+rob96", 4, base, false, 0, 0x1d71975ecaed9898ull, 96, 0},
      {"ptb+2l(dyn)+rob96", 16, ptb_dyn, false, 0, 0xcee07650b6752eaeull, 96,
       0},
      {"base+issue1", 4, base, false, 0, 0x56e2c7a4911cd4e7ull, 0, 1},
      {"dvfs+issue1", 4, dvfs, false, 0, 0x483e69e3c06fda5full, 0, 1, 0, 0.0,
       true},
      {"base+rob8", 4, base, false, 0, 0x7ddccb84ee86b4c0ull, 8, 0},
      {"thrifty+rob8", 4, thrifty, false, 0, 0x798e071a69e98e05ull, 8, 0},
      {"dfs+budget30", 4, dfs, false, 0, 0x6776b7fefb029b96ull, 0, 0, 0, 0.3},
      {"dfs+budget30", 16, dfs, false, 0, 0x60593939a4c6e6b6ull, 0, 0, 0,
       0.3},
      {"base+lsq4", 4, base, false, 0, 0x3fd4ec381cc3ecc5ull, 0, 0, 4},
      {"dvfs+budget30", 4, dvfs, false, 0, 0xcfb4e27ba9062fa7ull, 0, 0, 0,
       0.3},
      {"dvfs+budget30", 16, dvfs, false, 0, 0x3996ed9e5cc62014ull, 0, 0, 0,
       0.3},
  };
  const WorkloadProfile p = sync_heavy_profile();
  RunOptions opts;
  opts.trace_categories = kTraceAll;
  opts.stats = true;
  opts.stats_sample_every = 512;
  for (const GoldenCase& c : cases) {
    SCOPED_TRACE(std::string(c.label) + " @" + std::to_string(c.cores));
    SimConfig cfg = make_sim_config(c.cores, c.tech);
    cfg.audit_level = AuditLevel::kOff;
    cfg.ptb.gate_spinners = c.gate_spinners;
    cfg.ptb.cluster_size = c.cluster_size;
    if (c.rob_entries != 0) cfg.core.rob_entries = c.rob_entries;
    if (c.issue_width != 0) cfg.core.issue_width = c.issue_width;
    if (c.lsq_entries != 0) cfg.core.lsq_entries = c.lsq_entries;
    if (c.budget_fraction != 0.0) cfg.budget_fraction = c.budget_fraction;
    const RunResult r = CmpSimulator(cfg, p).run(opts);
    ASSERT_FALSE(r.hit_max_cycles);
    ASSERT_NE(r.trace, nullptr);
    ASSERT_NE(r.stats, nullptr);
    std::uint64_t h = 0xcbf29ce484222325ull;
    h = fnv1a(h, run_summary_kv(r));
    h = fnv1a(h, r.trace->serialize());
    h = fnv1a(h, r.stats->to_json(/*include_volatile=*/false));
    EXPECT_EQ(h, c.digest) << "actual digest 0x" << std::hex << h;
    // Each row must run the path it names, not just pin its bytes.
    if (c.tech.ptb) {
      EXPECT_GT(r.tokens_granted, 0.0);
    } else if (c.tech.kind == TechniqueKind::kDvfs) {
      if (c.idle_enforcer) {
        EXPECT_EQ(r.dvfs_transitions, 0u);
      } else {
        EXPECT_GT(r.dvfs_transitions, 0u);
      }
    } else if (c.tech.kind == TechniqueKind::kThriftyBarrier) {
      EXPECT_GT(r.barrier_sleep_cycles, 0u);
    } else if (c.tech.kind == TechniqueKind::kMeetingPoints) {
      EXPECT_GT(r.meeting_point_episodes, 0u);
    }
    if (c.lsq_entries != 0) {  // the row exists to reach the LSQ-full stall
      const StatsDump::Scalar* lsq = r.stats->find("core.0.stall.lsq");
      ASSERT_NE(lsq, nullptr);
      EXPECT_GT(lsq->u64, 0u);
    }
    if (c.tech.kind == TechniqueKind::kDfs) {  // and these to skip ticks
      std::uint64_t ticks = 0;
      std::uint64_t cycles = 0;
      for (std::uint32_t i = 0; i < c.cores; ++i) {
        const StatsDump::Scalar* t =
            r.stats->find("core." + std::to_string(i) + ".ticks");
        ASSERT_NE(t, nullptr);
        ticks += t->u64;
        cycles += r.cores[i].finish_cycle + 1;
      }
      EXPECT_LT(ticks, cycles);
    }
  }
}

}  // namespace
}  // namespace ptb
