#include "sim/experiment.hpp"

#include "common/assert.hpp"
#include "workloads/suite.hpp"

namespace ptb {

std::vector<TechniqueSpec> standard_techniques(PtbPolicy ptb_policy) {
  return {
      {"DVFS", TechniqueKind::kDvfs, false, PtbPolicy::kToAll, 0.0},
      {"DFS", TechniqueKind::kDfs, false, PtbPolicy::kToAll, 0.0},
      {"2Level", TechniqueKind::kTwoLevel, false, PtbPolicy::kToAll, 0.0},
      {"PTB+2Level", TechniqueKind::kTwoLevel, true, ptb_policy, 0.0},
  };
}

std::vector<TechniqueSpec> naive_techniques() {
  return {
      {"DVFS", TechniqueKind::kDvfs, false, PtbPolicy::kToAll, 0.0},
      {"DFS", TechniqueKind::kDfs, false, PtbPolicy::kToAll, 0.0},
      {"2Level", TechniqueKind::kTwoLevel, false, PtbPolicy::kToAll, 0.0},
  };
}

TechniqueSpec base_technique() {
  return {"none", TechniqueKind::kNone, false, PtbPolicy::kToAll, 0.0};
}

namespace {
AuditLevel g_default_audit_level = AuditLevel::kOff;
}  // namespace

void set_default_audit_level(AuditLevel level) {
  g_default_audit_level = level;
}

AuditLevel default_audit_level() { return g_default_audit_level; }

SimConfig make_sim_config(std::uint32_t cores, const TechniqueSpec& tech,
                          std::uint64_t seed) {
  SimConfig cfg;
  cfg.num_cores = cores;
  cfg.seed = seed;
  cfg.technique = tech.kind;
  cfg.ptb.enabled = tech.ptb;
  cfg.ptb.policy = tech.policy;
  cfg.ptb.relax_threshold = tech.relax;
  cfg.audit_level = g_default_audit_level;
  return cfg;
}

Normalized normalize(const RunResult& base, const RunResult& r,
                     CrossMachine cross) {
  PTB_ASSERT(base.energy > 0.0, "base energy must be positive");
  // A result may only be normalized against a base run of the same
  // workload and — unless the caller opted into a cross-machine
  // comparison (ablations do) — the same simulated machine. The
  // fingerprints are zero for hand-built RunResults (unit tests), in
  // which case the caller vouches.
  if (base.machine_fingerprint != 0 && r.machine_fingerprint != 0) {
    PTB_ASSERTF(cross == CrossMachine::kAllow ||
                    base.machine_fingerprint == r.machine_fingerprint,
                "normalize() across machines: base %016llx vs run %016llx",
                static_cast<unsigned long long>(base.machine_fingerprint),
                static_cast<unsigned long long>(r.machine_fingerprint));
    PTB_ASSERTF(base.benchmark == r.benchmark &&
                    base.num_cores == r.num_cores,
                "normalize() across workloads: base %s/%u vs run %s/%u",
                base.benchmark.c_str(), base.num_cores, r.benchmark.c_str(),
                r.num_cores);
  }
  Normalized n;
  n.energy_pct = 100.0 * (r.energy - base.energy) / base.energy;
  n.aopb_pct = base.aopb > 0.0 ? 100.0 * r.aopb / base.aopb : 0.0;
  n.slowdown_pct = 100.0 *
                   (static_cast<double>(r.cycles) -
                    static_cast<double>(base.cycles)) /
                   static_cast<double>(base.cycles);
  return n;
}

RunResult run_one(const WorkloadProfile& profile, const SimConfig& cfg,
                  const RunOptions& opts) {
  CmpSimulator sim(cfg, profile);
  return sim.run(opts);
}

void FigureGrid::append_average() {
  PTB_ASSERT(!grid.empty(), "cannot average an empty grid");
  const std::size_t cols = technique_labels.size();
  std::vector<Normalized> avg(cols);
  for (const auto& row : grid) {
    PTB_ASSERT(row.size() == cols, "ragged figure grid");
    for (std::size_t c = 0; c < cols; ++c) {
      avg[c].energy_pct += row[c].energy_pct;
      avg[c].aopb_pct += row[c].aopb_pct;
      avg[c].slowdown_pct += row[c].slowdown_pct;
    }
  }
  const double n = static_cast<double>(grid.size());
  for (auto& a : avg) {
    a.energy_pct /= n;
    a.aopb_pct /= n;
    a.slowdown_pct /= n;
  }
  row_labels.push_back("Avg.");
  grid.push_back(std::move(avg));
}

const RunResult& BaseRunCache::get(const WorkloadProfile& profile,
                                   std::uint32_t cores, std::uint64_t seed) {
  Entry* entry;
  {
    MutexLock lock(mu_);
    // std::map nodes are never relocated, so the pointer stays valid after
    // the lock is dropped and across later insertions.
    entry = &cache_[Key{profile.name, cores, seed}];
  }
  std::call_once(entry->once, [&] {
    entry->result = run_one(profile, make_sim_config(cores, base_technique(),
                                                     seed));
    computed_.fetch_add(1);
  });
  return entry->result;
}

FigureGrid run_suite_grid(std::uint32_t cores,
                          const std::vector<TechniqueSpec>& techs,
                          BaseRunCache& cache, RunPool& pool) {
  const auto& suite = benchmark_suite();
  // Base runs first (through the cache, so a later bench section reuses
  // them), then every (benchmark x technique) cell.
  for (const auto& profile : suite) {
    pool.submit([&cache, &profile, cores] { return cache.get(profile, cores); });
  }
  for (const auto& profile : suite) {
    for (const auto& t : techs) pool.submit(profile, make_sim_config(cores, t));
  }
  const std::vector<RunResult> results = pool.wait_all();

  FigureGrid grid;
  for (const auto& t : techs) grid.technique_labels.push_back(t.label);
  std::size_t idx = suite.size();  // cells follow the base runs
  for (const auto& profile : suite) {
    const RunResult& base = cache.get(profile, cores);
    std::vector<Normalized> row;
    row.reserve(techs.size());
    for (std::size_t c = 0; c < techs.size(); ++c) {
      row.push_back(normalize(base, results[idx++]));
    }
    grid.row_labels.push_back(profile.name);
    grid.grid.push_back(std::move(row));
  }
  return grid;
}

std::vector<Normalized> run_suite_averages(
    std::uint32_t cores, const std::vector<TechniqueSpec>& techs,
    BaseRunCache& cache, RunPool& pool) {
  FigureGrid g = run_suite_grid(cores, techs, cache, pool);
  g.append_average();
  return g.grid.back();
}

ReplicatedResult run_replicated(const WorkloadProfile& profile,
                                std::uint32_t cores,
                                const TechniqueSpec& tech,
                                std::uint32_t num_seeds, RunPool& pool,
                                std::uint64_t first_seed) {
  PTB_ASSERT(num_seeds >= 1, "need at least one seed");
  const TechniqueSpec none = base_technique();
  for (std::uint32_t s = 0; s < num_seeds; ++s) {
    const std::uint64_t seed = first_seed + s;
    pool.submit(profile, make_sim_config(cores, none, seed));
    pool.submit(profile, make_sim_config(cores, tech, seed));
  }
  const std::vector<RunResult> results = pool.wait_all();
  ReplicatedResult out;
  for (std::uint32_t s = 0; s < num_seeds; ++s) {
    const Normalized n = normalize(results[2 * s], results[2 * s + 1]);
    out.energy_pct.add(n.energy_pct);
    out.aopb_pct.add(n.aopb_pct);
    out.slowdown_pct.add(n.slowdown_pct);
  }
  return out;
}

}  // namespace ptb
