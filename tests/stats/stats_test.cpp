// Tests for the stats registry (src/stats): registration/lookup units,
// dump serialization round-trips, diff semantics, and end-to-end
// consistency of a stats-enabled simulation against its RunResult.
#include "stats/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/run_pool.hpp"
#include "stats/dump.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

// --- registry units ---------------------------------------------------------

TEST(StatsRegistry, DottedPathLookupAndBinding) {
  StatsRegistry reg;
  std::uint64_t commits = 0;
  double tokens = 0.0;
  reg.counter("core.0.committed", "commits", &commits);
  reg.gauge("ptb.balancer.in_flight", "tokens in flight", &tokens);
  ASSERT_EQ(reg.size(), 2u);

  const Stat* c = reg.find("core.0.committed");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind(), StatKind::kCounter);
  EXPECT_TRUE(c->integral());
  EXPECT_EQ(c->value_u64(), 0u);
  commits = 42;  // the component keeps incrementing its own field
  EXPECT_EQ(c->value_u64(), 42u);
  EXPECT_DOUBLE_EQ(c->value(), 42.0);

  const Stat* g = reg.find("ptb.balancer.in_flight");
  ASSERT_NE(g, nullptr);
  EXPECT_FALSE(g->integral());
  tokens = 1.5;
  EXPECT_DOUBLE_EQ(g->value(), 1.5);

  EXPECT_EQ(reg.find("core.0"), nullptr);
  EXPECT_EQ(reg.find("core.0.committed.extra"), nullptr);
}

TEST(StatsRegistry, SortedIterationVsRegistrationOrder) {
  StatsRegistry reg;
  std::uint64_t a = 0, b = 0, c = 0;
  reg.counter("zeta", "", &a);
  reg.counter("alpha", "", &b);
  reg.counter("mid.dle", "", &c);
  // at() preserves registration order (run_summary_kv's pinned order)...
  EXPECT_EQ(reg.at(0).name(), "zeta");
  EXPECT_EQ(reg.at(2).name(), "mid.dle");
  // ...sorted() is the deterministic dump order.
  const auto sorted = reg.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0]->name(), "alpha");
  EXPECT_EQ(sorted[1]->name(), "mid.dle");
  EXPECT_EQ(sorted[2]->name(), "zeta");
}

TEST(StatsRegistry, FormulaEvaluatesLazily) {
  StatsRegistry reg;
  std::uint64_t n = 0;
  double sum = 0.0;
  reg.counter("n", "", &n);
  reg.formula("mean", "sum / n",
              [&] { return n == 0 ? 0.0 : sum / static_cast<double>(n); });
  const Stat* mean = reg.find("mean");
  ASSERT_NE(mean, nullptr);
  EXPECT_EQ(mean->kind(), StatKind::kFormula);
  EXPECT_DOUBLE_EQ(mean->value(), 0.0);
  n = 4;
  sum = 10.0;
  EXPECT_DOUBLE_EQ(mean->value(), 2.5);
}

TEST(StatsRegistry, DistributionBucketsAndMoments) {
  StatsRegistry reg;
  Histogram& h = reg.distribution("lat", "latency", 0.0, 10.0, 5);
  h.add(1.0);   // bucket 0
  h.add(3.0);   // bucket 1
  h.add(3.5);   // bucket 1
  h.add(9.9);   // bucket 4
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 17.4);
  const Stat* s = reg.find("lat");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind(), StatKind::kDistribution);
  EXPECT_FALSE(s->scalar());
  ASSERT_NE(s->histogram(), nullptr);
  EXPECT_EQ(s->histogram(), &h);
}

TEST(StatsRegistry, VolatileStatsExcludedFromSampleBuffer) {
  StatsRegistry reg;
  std::uint64_t n = 0;
  reg.counter("n", "", &n);
  reg.gauge_fn("self.seconds", "wall clock", [] { return 1.0; }, 6,
               /*is_volatile=*/true);
  SampleBuffer buf(reg);
  ASSERT_EQ(buf.num_columns(), 1u);
  EXPECT_EQ(buf.columns()[0], "n");
  n = 7;
  buf.sample(100);
  n = 9;
  buf.sample(200);
  ASSERT_EQ(buf.num_samples(), 2u);
  EXPECT_EQ(buf.cycles()[0], 100u);
  EXPECT_DOUBLE_EQ(buf.column(0)[0], 7.0);
  EXPECT_DOUBLE_EQ(buf.column(0)[1], 9.0);
}

TEST(StatsRegistry, KvRenderingPinsPrecision) {
  StatsRegistry reg;
  std::uint64_t n = 3;
  double tokens = 1.25;
  reg.counter("n", "", &n);
  reg.counter("tokens", "", &tokens, 1);
  reg.gauge("budget", "", &tokens, 3);
  EXPECT_EQ(reg.find("n")->kv_string(), "n=3");
  EXPECT_EQ(reg.find("tokens")->kv_string(), "tokens=1.2");
  EXPECT_EQ(reg.find("budget")->kv_string(), "budget=1.250");
  EXPECT_EQ(stats_kv(reg), "n=3\ntokens=1.2\nbudget=1.250\n");
}

// --- dump round-trip / diff -------------------------------------------------

StatsDump tiny_dump() {
  StatsRegistry reg;
  static std::uint64_t n = 5;
  static double x = 0.125;
  reg.counter("events.n", "event count", &n);
  reg.gauge("power.mean", "mean power", &x);
  reg.gauge_fn("self.seconds", "wall clock", [] { return 0.5; }, 6, true);
  Histogram& h = reg.distribution("power.dist", "per-cycle power", 0.0, 8.0,
                                  4);
  h.add(1.0);
  h.add(7.0);
  StatsDump d = StatsDump::snapshot(reg, nullptr, 0);
  d.bench = "tiny";
  d.num_cores = 2;
  d.cycles = 100;
  d.config_fingerprint = 0xdeadbeefcafef00dull;
  return d;
}

TEST(StatsDump, JsonRoundTripPreservesEverything) {
  const StatsDump d = tiny_dump();
  const std::string json = d.to_json();
  StatsDump back;
  ASSERT_TRUE(StatsDump::parse_json(json, back));
  EXPECT_EQ(back.bench, "tiny");
  EXPECT_EQ(back.num_cores, 2u);
  EXPECT_EQ(back.cycles, 100u);
  EXPECT_EQ(back.config_fingerprint, 0xdeadbeefcafef00dull);
  ASSERT_EQ(back.scalars.size(), d.scalars.size());
  for (std::size_t i = 0; i < d.scalars.size(); ++i) {
    EXPECT_EQ(back.scalars[i].name, d.scalars[i].name);
    EXPECT_EQ(back.scalars[i].kind, d.scalars[i].kind);
    EXPECT_EQ(back.scalars[i].is_volatile, d.scalars[i].is_volatile);
    EXPECT_EQ(back.scalars[i].integral, d.scalars[i].integral);
    EXPECT_DOUBLE_EQ(back.scalars[i].value, d.scalars[i].value);
    EXPECT_EQ(back.scalars[i].u64, d.scalars[i].u64);
  }
  ASSERT_EQ(back.dists.size(), 1u);
  EXPECT_EQ(back.dists[0].name, "power.dist");
  EXPECT_EQ(back.dists[0].total, 2u);
  EXPECT_DOUBLE_EQ(back.dists[0].sum, 8.0);
  ASSERT_EQ(back.dists[0].counts.size(), 4u);
  EXPECT_EQ(back.dists[0].counts[0], 1u);
  EXPECT_EQ(back.dists[0].counts[3], 1u);
  // Re-serializing the parsed dump reproduces the bytes (canonical form).
  EXPECT_EQ(back.to_json(), json);
}

TEST(StatsDump, VolatileStatsDroppedFromDeterministicJson) {
  const StatsDump d = tiny_dump();
  const std::string det = d.to_json(/*include_volatile=*/false);
  EXPECT_EQ(det.find("self.seconds"), std::string::npos);
  StatsDump back;
  ASSERT_TRUE(StatsDump::parse_json(det, back));
  EXPECT_EQ(back.find("self.seconds"), nullptr);
  ASSERT_NE(back.find("events.n"), nullptr);
  EXPECT_EQ(back.find("events.n")->u64, 5u);
}

TEST(StatsDump, ParseRejectsGarbage) {
  StatsDump out;
  EXPECT_FALSE(StatsDump::parse_json("", out));
  EXPECT_FALSE(StatsDump::parse_json("{}", out));
  EXPECT_FALSE(StatsDump::parse_json("not json", out));
  EXPECT_FALSE(StatsDump::parse_json(
      "{\"kind\":\"ptb-stats\",\"schema_version\":999}", out));
  const std::string good = tiny_dump().to_json();
  EXPECT_FALSE(StatsDump::parse_json(good + "trailing", out));
  EXPECT_TRUE(StatsDump::parse_json(good, out));
  // An integer field out of its type's range is rejected, not cast.
  const std::string cores = "\"num_cores\":2";
  ASSERT_NE(good.find(cores), std::string::npos);
  for (const char* bad : {"-1", "1e300", "4294967296"}) {
    std::string doc = good;
    doc.replace(doc.find(cores), cores.size(),
                std::string("\"num_cores\":") + bad);
    EXPECT_FALSE(StatsDump::parse_json(doc, out)) << bad;
  }
}

// Nesting is bounded by the shared parser (common/json.hpp): a dump nested
// far past any real one is rejected instead of overflowing the stack.
TEST(StatsDump, ParseRejectsDeepNesting) {
  StatsDump out;
  EXPECT_FALSE(StatsDump::parse_json(
      "{\"kind\":\"ptb-stats\",\"x\":" + std::string(100000, '['), out));
  EXPECT_FALSE(StatsDump::parse_json(
      std::string(100000, '[') + std::string(100000, ']'), out));
}

TEST(StatsDiff, ExactAndToleranced) {
  const StatsDump a = tiny_dump();
  StatsDump b = a;
  EXPECT_TRUE(diff_stats(a, b, 0.0).empty());

  // A 1% drift on power.mean: caught at tol 0, passed at tol 0.02.
  for (auto& s : b.scalars)
    if (s.name == "power.mean") s.value *= 1.01;
  const auto exact = diff_stats(a, b, 0.0);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].name, "power.mean");
  EXPECT_FALSE(exact[0].only_in_a);
  EXPECT_FALSE(exact[0].only_in_b);
  EXPECT_NEAR(exact[0].rel, 0.01, 1e-3);
  EXPECT_TRUE(diff_stats(a, b, 0.02).empty());
}

TEST(StatsDiff, OneSidedKeysAndVolatileSkip) {
  const StatsDump a = tiny_dump();
  StatsDump b = a;
  // Volatile scalars differing is not a difference by default.
  for (auto& s : b.scalars)
    if (s.is_volatile) s.value += 100.0;
  EXPECT_TRUE(diff_stats(a, b, 0.0).empty());
  ASSERT_EQ(diff_stats(a, b, 0.0, /*include_volatile=*/true).size(), 1u);

  // Removing a stat from b reports only_in_a.
  b = a;
  b.scalars.erase(b.scalars.begin());  // name-sorted: "events.n"
  const auto diff = diff_stats(a, b, 0.0);
  ASSERT_EQ(diff.size(), 1u);
  EXPECT_EQ(diff[0].name, "events.n");
  EXPECT_TRUE(diff[0].only_in_a);
  EXPECT_FALSE(diff[0].only_in_b);
}

// --- simulation integration -------------------------------------------------

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

SimConfig ptb_cfg(std::uint32_t cores) {
  TechniqueSpec t{"ptb", TechniqueKind::kTwoLevel, true, PtbPolicy::kToAll,
                  0.0};
  SimConfig cfg = make_sim_config(cores, t);
  cfg.max_cycles = 500000;
  return cfg;
}

// A dump cut anywhere before its closing brace is rejected: ptb-stats
// never reads a truncated file as a shorter dump.
TEST(SimulatorStats, ParseRejectsEveryTruncationOfARealDump) {
  RunOptions opts;
  opts.stats_sample_every = 4000;
  const RunResult r = CmpSimulator(ptb_cfg(2), small_profile()).run(opts);
  const std::string json = stats_json(r);
  StatsDump out;
  ASSERT_TRUE(StatsDump::parse_json(json, out));
  ASSERT_FALSE(out.sample_cycles.empty());
  const std::size_t close = json.rfind('}');
  ASSERT_NE(close, std::string::npos);
  std::size_t accepted = 0;
  std::size_t first = 0;
  for (std::size_t n = 0; n <= close; ++n) {
    if (StatsDump::parse_json(std::string_view(json).substr(0, n), out)) {
      if (accepted++ == 0) first = n;
    }
  }
  EXPECT_EQ(accepted, 0u) << "first accepted prefix: " << first << " of "
                          << json.size() << " bytes";
}

TEST(SimulatorStats, DumpMatchesRunResult) {
  RunOptions opts;
  opts.stats = true;
  const WorkloadProfile p = small_profile();
  const RunResult r = CmpSimulator(ptb_cfg(4), p).run(opts);
  ASSERT_NE(r.stats, nullptr);
  const StatsDump& d = *r.stats;
  EXPECT_EQ(d.bench, p.name);
  EXPECT_EQ(d.num_cores, 4u);
  EXPECT_EQ(d.cycles, r.cycles);

  const auto* cycles = d.find("sim.cycles");
  ASSERT_NE(cycles, nullptr);
  EXPECT_EQ(cycles->u64, r.cycles);
  const auto* energy = d.find("sim.energy.total");
  ASSERT_NE(energy, nullptr);
  EXPECT_DOUBLE_EQ(energy->value, r.energy);
  const auto* granted = d.find("ptb.balancer.tokens_granted");
  ASSERT_NE(granted, nullptr);
  EXPECT_DOUBLE_EQ(granted->value, r.tokens_granted);

  // Per-core commits sum to the RunResult total.
  std::uint64_t committed = 0;
  for (std::uint32_t c = 0; c < 4; ++c) {
    const auto* s = d.find("core." + std::to_string(c) + ".committed");
    ASSERT_NE(s, nullptr);
    committed += s->u64;
  }
  EXPECT_EQ(committed, r.total_committed);

  // The per-cycle power histogram saw every simulated cycle.
  bool found = false;
  for (const auto& h : d.dists) {
    if (h.name == "sim.power.dist") {
      EXPECT_EQ(h.total, r.cycles);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(SimulatorStats, EnablingStatsNeverChangesResults) {
  const WorkloadProfile p = small_profile();
  const RunResult off = CmpSimulator(ptb_cfg(4), p).run();
  RunOptions opts;
  opts.stats = true;
  opts.stats_sample_every = 512;
  const RunResult on = CmpSimulator(ptb_cfg(4), p).run(opts);
  EXPECT_EQ(on.cycles, off.cycles);
  EXPECT_EQ(on.total_committed, off.total_committed);
  EXPECT_EQ(on.energy, off.energy);  // bit-exact, not approximate
  EXPECT_EQ(on.aopb, off.aopb);
  EXPECT_EQ(on.tokens_donated, off.tokens_donated);
  EXPECT_EQ(on.tokens_granted, off.tokens_granted);
  EXPECT_EQ(on.dvfs_transitions, off.dvfs_transitions);
}

TEST(SimulatorStats, SamplingFillsTheTimeSeries) {
  RunOptions opts;
  opts.stats_sample_every = 1000;  // implies stats
  const RunResult r = CmpSimulator(ptb_cfg(2), small_profile()).run(opts);
  ASSERT_NE(r.stats, nullptr);
  const StatsDump& d = *r.stats;
  EXPECT_EQ(d.sample_every, 1000u);
  EXPECT_EQ(d.sample_cycles.size(), r.cycles / 1000);
  ASSERT_FALSE(d.sample_columns.empty());
  ASSERT_EQ(d.sample_values.size(), d.sample_columns.size());
  for (const auto& col : d.sample_values)
    EXPECT_EQ(col.size(), d.sample_cycles.size());
  // Sampled cycles are the 1000-grid, and sim.cycles is monotone along it.
  for (std::size_t i = 0; i < d.sample_cycles.size(); ++i)
    EXPECT_EQ(d.sample_cycles[i], (i + 1) * 1000 - 1);
  for (std::size_t c = 0; c < d.sample_columns.size(); ++c) {
    if (d.sample_columns[c] != "sim.cycles") continue;
    for (std::size_t i = 1; i < d.sample_values[c].size(); ++i)
      EXPECT_GT(d.sample_values[c][i], d.sample_values[c][i - 1]);
  }
}

TEST(SimulatorStats, DumpBytesIdenticalAcrossJobs) {
  // The deterministic serialization is a pure function of
  // (profile, config, seed): running under 1 worker and 4 workers must
  // produce byte-identical dumps once volatile stats are excluded.
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = ptb_cfg(4);
  RunOptions opts;
  opts.stats = true;
  opts.stats_sample_every = 512;
  std::string bytes[2];
  unsigned jobs[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    RunPool pool(jobs[i]);
    pool.submit([&] { return CmpSimulator(cfg, p).run(opts); });
    std::vector<RunResult> rs = pool.wait_all();
    bytes[i] = stats_json(rs.at(0), /*include_volatile=*/false);
  }
  EXPECT_FALSE(bytes[0].empty());
  EXPECT_EQ(bytes[0], bytes[1]);
}

TEST(SimulatorStats, ReportingWrappers) {
  RunOptions opts;
  opts.stats = true;
  const RunResult r = CmpSimulator(ptb_cfg(2), small_profile()).run(opts);
  const std::string json = stats_json(r);
  StatsDump back;
  ASSERT_TRUE(StatsDump::parse_json(json, back));
  EXPECT_EQ(back.num_cores, 2u);
  const std::string prom = stats_prometheus(r);
  EXPECT_NE(prom.find("# TYPE ptb_sim_cycles counter"), std::string::npos);
  EXPECT_NE(prom.find("ptb_run_info{bench=\"small\""), std::string::npos);
  EXPECT_NE(prom.find("ptb_sim_power_dist_bucket{le=\"+Inf\"}"),
            std::string::npos);
  // No stats requested -> empty expositions, not crashes.
  const RunResult bare = CmpSimulator(ptb_cfg(2), small_profile()).run();
  EXPECT_EQ(bare.stats, nullptr);
  EXPECT_TRUE(stats_json(bare).empty());
  EXPECT_TRUE(stats_prometheus(bare).empty());
}

}  // namespace
}  // namespace ptb
