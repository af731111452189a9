// ptb-lint: cycle-loop-file — FP reductions here must use
// deterministic_total() (see the fp-accum checker, tools/lint/checks.cpp).
#include "sim/cmp.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/assert.hpp"
#include "sim/checkpoint.hpp"
#include "sim/reporting.hpp"
#include "stats/dump.hpp"
#include "stats/stats.hpp"

namespace ptb {

namespace {
// NoC activity energy per flit-hop (tokens); part of the uncore share.
constexpr double kNocTokensPerFlitHop = 0.02;
// Thermal model step granularity (cycles).
constexpr Cycle kThermalStep = 64;
// Spin-power detection threshold as a fraction of the local budget.
constexpr double kSpinThresholdFrac = 0.30;
// Spinner-gating threshold (between the spin plateau and busy power).
constexpr double kSpinGateThresholdFrac = 0.55;

// Wall-clock self-profiling (stats runs only). Timing every cycle would
// cost ~5 clock reads per cycle — far over the stats overhead budget —
// so one cycle in kSelfProfilePeriod is timed and scaled up. The readings
// feed only volatile stats (never a simulation decision, never a
// deterministic dump).
constexpr Cycle kSelfProfilePeriod = 64;

struct SelfProfile {
  double tick_s = 0.0;     // steps 1-1b: gates, core ticks with their
                           // memory accesses, per-core power, smoothing,
                           // spin/thermal attribution
  double power_s = 0.0;    // step 2: progress, CMP power totals, NoC
                           // drain, global over-budget signal
  double control_s = 0.0;  // step 3: balancing, enforcement, gating
  double account_s = 0.0;  // steps 4-5: accounting, audit, sample
  std::uint64_t timed_cycles = 0;
};
}  // namespace

// Run-scoped state a restore must carry into the next run() call: the
// checkpointed cycle, the CycleFrame persistents and the raw payloads of
// sections whose targets (energy accounting, registry-owned histogram,
// sample buffer, tracer, result power traces) only exist as run() locals.
struct CmpSimulator::CheckpointCarry {
  Cycle cycle = 0;
  bool epoch_over = false;
  double epoch_acc = 0.0;
  std::uint32_t epoch_n = 0;
  std::uint64_t spin_gated_cycles = 0;
  std::uint64_t prof_timed_cycles = 0;
  std::vector<double> freq_acc;
  std::vector<double> est_ema;
  std::vector<double> act_ema;
  std::vector<double> eff_budget;
  std::vector<double> thermal_acc;
  std::vector<std::uint8_t> finished;
  std::string acct;
  std::string hist;
  std::string samples;
  std::string tracer;
  std::string res_power;
};

void CycleFrame::reset(std::uint32_t n, double local_budget) {
  freq_acc.assign(n, 0.0);
  est_ema.assign(n, 0.0);
  act_ema.assign(n, 0.0);
  eff_budget.assign(n, local_budget);
  thermal_acc.assign(n, 0.0);
  finished.assign(n, 0);
  states.assign(n, ExecState::kBusy);
  fetch_exact.assign(n, 0.0);
  fetch_est.assign(n, 0.0);
  rob_occ.assign(n, 0);
  active.assign(n, 0);
  gated.assign(n, 0);
  vdd.assign(n, 1.0);
  est_power.assign(n, 0.0);
  act_power.assign(n, 0.0);
}

CmpSimulator::CmpSimulator(const SimConfig& cfg,
                           const WorkloadProfile& profile)
    : cfg_(cfg), profile_(profile),
      energy_model_(BaseEnergyModel::shared(cfg_.power, cfg_.seed)),
      budgets_(cfg_), thermal_(cfg_.thermal, cfg_.num_cores) {
  PTB_ASSERT(cfg_.num_cores >= 1, "need at least one core");
  mesh_ = std::make_unique<Mesh>(cfg_.noc, cfg_.mesh_width(),
                                 cfg_.mesh_height());
  mem_ = std::make_unique<MemorySystem>(cfg_, *mesh_);
  const std::uint32_t locks = std::max<std::uint32_t>(1, profile.num_locks);
  sync_ = std::make_unique<SyncState>(locks, 1, cfg_.num_cores);
  trackers_.resize(cfg_.num_cores);
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    programs_.push_back(std::make_unique<SyntheticProgram>(
        profile_, i, cfg_.num_cores, *sync_, trackers_[i], cfg_.seed));
    cores_.push_back(std::make_unique<Core>(i, cfg_, *mem_, *sync_,
                                            *programs_[i], *energy_model_));
    enforcers_.push_back(
        std::make_unique<PowerEnforcer>(cfg_, cfg_.technique));
  }
  if (cfg_.ptb.enabled) {
    if (cfg_.ptb.cluster_size > 0 &&
        cfg_.ptb.cluster_size < cfg_.num_cores) {
      clustered_ = std::make_unique<ClusteredBalancer>(
          cfg_.ptb, cfg_.num_cores, cfg_.ptb.cluster_size,
          budgets_.local_budget());
    } else {
      balancer_ = std::make_unique<PtbLoadBalancer>(
          cfg_.ptb, cfg_.num_cores, budgets_.local_budget());
    }
    selector_ = std::make_unique<DynamicPolicySelector>(
        cfg_.ptb, cfg_.num_cores,
        budgets_.local_budget() * kSpinThresholdFrac);
  }
  if (cfg_.technique == TechniqueKind::kThriftyBarrier) {
    thrifty_ = std::make_unique<ThriftyBarrierController>(cfg_.num_cores);
  } else if (cfg_.technique == TechniqueKind::kMeetingPoints) {
    meeting_ = std::make_unique<MeetingPointsController>(cfg_.num_cores);
  }
  if (cfg_.ptb.gate_spinners) {
    // The gating threshold sits between the spin plateau and busy power so
    // the first post-wake work burst (EMA-lifted) releases the gate.
    gate_detectors_.assign(
        cfg_.num_cores,
        SpinPowerDetector(budgets_.local_budget() * kSpinGateThresholdFrac,
                          64));
  }
#if PTB_AUDIT_ENABLED
  if (cfg_.audit_level != AuditLevel::kOff) {
    auditor_ = std::make_unique<InvariantAuditor>(cfg_);
  }
#endif
}

CmpSimulator::~CmpSimulator() = default;

void CmpSimulator::warm_caches() {
  DirectoryController& dir = mem_->directory();
  const std::uint32_t line = cfg_.l1d.line_bytes;
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    const SyntheticProgram& prog = *programs_[i];
    // Code (template + inlined sync routines) into the L1I.
    for (Addr a = prog.code_base();
         a < prog.code_base() + prog.code_bytes() + 0x8020; a += line) {
      dir.warm(i, a / line, /*instruction=*/true, /*exclusive=*/false);
    }
    // Private data: L2 always; L1D up to ~70% of capacity (avoid self-
    // eviction churn during warmup).
    const std::uint32_t l1_lines =
        cfg_.l1d.size_bytes / cfg_.l1d.line_bytes;
    const std::uint32_t l1_cap = l1_lines * 7 / 10;
    for (std::uint32_t j = 0; j < profile_.ws_private_lines; ++j) {
      const Addr l = (prog.private_base() + static_cast<Addr>(j) * line) /
                     line;
      dir.warm(j < l1_cap ? i : kNoCore, l, false, /*exclusive=*/true);
    }
  }
  // Shared data into the L2 only (L1 sharing emerges in the run).
  for (std::uint32_t j = 0; j < profile_.ws_shared_lines; ++j) {
    const Addr l =
        (SyntheticProgram::kSharedBase + static_cast<Addr>(j) * line) / line;
    dir.warm(kNoCore, l, false, false);
  }
  // Branch predictors learn each static branch's dominant direction.
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    programs_[i]->warm_predictor(cores_[i]->predictor());
  }
}

bool CmpSimulator::restore_checkpoint(std::string_view bytes,
                                      std::string* err) {
  const auto fail = [&](std::string m) {
    if (err != nullptr) *err = std::move(m);
    return false;
  };
  CheckpointReader ck;
  if (!ck.parse(bytes)) return fail(ck.error());
  const CheckpointHeader& h = ck.header();
  if (h.num_cores != cfg_.num_cores) {
    return fail("checkpoint core count mismatch (" +
                std::to_string(h.num_cores) + " vs " +
                std::to_string(cfg_.num_cores) + ")");
  }
  if (h.benchmark != profile_.name) {
    return fail("checkpoint benchmark mismatch ('" + h.benchmark + "' vs '" +
                profile_.name + "')");
  }
  if (h.machine_fp != machine_fingerprint(cfg_)) {
    return fail("checkpoint machine fingerprint mismatch");
  }
  if (h.seed != cfg_.seed) return fail("checkpoint seed mismatch");
  if (h.config_fp != config_fingerprint(cfg_)) {
    return fail(
        "checkpoint config fingerprint mismatch: a frame resumes only under "
        "the exact config it was captured with");
  }

  // Component sections load straight into the members. The config
  // fingerprint matched, so every section the writer emitted has its
  // target here; a section for a component this config lacks, or one that
  // fails to parse or leaves trailing bytes, rejects the restore.
  const auto load = [&](CkptSection tag, auto&& fn) -> bool {
    if (!ck.has_section(tag)) return true;
    ByteReader r(ck.section(tag));
    fn(r);
    return r.ok() && r.empty();
  };

  bool ok = true;
  ok = ok && load(CkptSection::kCores, [&](ByteReader& r) {
    for (auto& c : cores_) c->load_state(r);
  });
  ok = ok && load(CkptSection::kPrograms, [&](ByteReader& r) {
    for (auto& p : programs_) p->load_state(r);
  });
  ok = ok && load(CkptSection::kMem,
                  [&](ByteReader& r) { mem_->load_state(r); });
  ok = ok && load(CkptSection::kMesh,
                  [&](ByteReader& r) { mesh_->load_state(r); });
  ok = ok && load(CkptSection::kSync,
                  [&](ByteReader& r) { sync_->load_state(r); });
  ok = ok && load(CkptSection::kTrackers, [&](ByteReader& r) {
    for (SpinTracker& t : trackers_) t.load_state(r);
  });
  ok = ok && load(CkptSection::kBalancer, [&](ByteReader& r) {
    balancer_ ? balancer_->load_state(r) : r.fail();
  });
  ok = ok && load(CkptSection::kClustered, [&](ByteReader& r) {
    clustered_ ? clustered_->load_state(r) : r.fail();
  });
  ok = ok && load(CkptSection::kEnforcers, [&](ByteReader& r) {
    for (auto& e : enforcers_) e->load_state(r);
  });
  ok = ok && load(CkptSection::kSelector, [&](ByteReader& r) {
    selector_ ? selector_->load_state(r) : r.fail();
  });
  ok = ok && load(CkptSection::kGates, [&](ByteReader& r) {
    if (r.u64() != gate_detectors_.size()) {
      r.fail();
      return;
    }
    for (SpinPowerDetector& d : gate_detectors_) d.load_state(r);
  });
  ok = ok && load(CkptSection::kThrifty, [&](ByteReader& r) {
    thrifty_ ? thrifty_->load_state(r) : r.fail();
  });
  ok = ok && load(CkptSection::kMeeting, [&](ByteReader& r) {
    meeting_ ? meeting_->load_state(r) : r.fail();
  });
  ok = ok && load(CkptSection::kThermal,
                  [&](ByteReader& r) { thermal_.load_state(r); });

  auto carry = std::make_unique<CheckpointCarry>();
  carry->cycle = h.cycle;
  // The CycleFrame persistents are indexed per core by run(): the section
  // is mandatory and every vector must have one entry per core.
  ok = ok && ck.has_section(CkptSection::kFrame) &&
       load(CkptSection::kFrame, [&](ByteReader& r) {
         const std::size_t n = cfg_.num_cores;
         for (std::vector<double>* v :
              {&carry->freq_acc, &carry->est_ema, &carry->act_ema,
               &carry->eff_budget, &carry->thermal_acc}) {
           r.f64_vec(*v);
           if (v->size() != n) r.fail();
         }
         r.u8_vec(carry->finished);
         if (carry->finished.size() != n) r.fail();
       });
  ok = ok && load(CkptSection::kRun, [&](ByteReader& r) {
    carry->epoch_over = r.boolean();
    carry->epoch_acc = r.f64();
    carry->epoch_n = r.u32();
    carry->spin_gated_cycles = r.u64();
    carry->prof_timed_cycles = r.u64();
  });
  carry->acct = std::string(ck.section(CkptSection::kAcct));
  carry->hist = std::string(ck.section(CkptSection::kHist));
  carry->samples = std::string(ck.section(CkptSection::kSamples));
  carry->tracer = std::string(ck.section(CkptSection::kTracer));
  carry->res_power = std::string(ck.section(CkptSection::kResPower));
  if (!ok) {
    return fail("checkpoint section payload rejected (corrupt or "
                "incompatible with this configuration)");
  }
  carry_ = std::move(carry);
  return true;
}

RunResult CmpSimulator::run(const RunOptions& opts) {
  const std::uint32_t n = cfg_.num_cores;

  // Event tracing (src/trace): allocated only for traced runs; every
  // collaborator holds a raw pointer (null = one-branch no-op per emit
  // site, the audit-hook pattern). Detached again before returning so the
  // pointers never outlive this local recorder.
  std::unique_ptr<EventTracer> tracer;
  if (opts.trace_categories != 0) {
    tracer = std::make_unique<EventTracer>(opts.trace_categories,
                                           cfg_.trace.buffer_events);
  }
  const auto wire_tracer = [&](EventTracer* t) {
    if (balancer_) balancer_->set_tracer(t);
    if (clustered_) clustered_->set_tracer(t);
    if (selector_) selector_->set_tracer(t);
    sync_->set_tracer(t);
    for (CoreId i = 0; i < n; ++i) {
      trackers_[i].set_tracer(t, i);
      enforcers_[i]->set_tracer(t, i);
    }
  };
  if (tracer) wire_tracer(tracer.get());

  // A restored checkpoint already contains post-warmup (or later) state.
  if (cfg_.functional_warmup && carry_ == nullptr) warm_caches();
  RunResult res;
  res.benchmark = profile_.name;
  res.num_cores = n;
  res.budget = budgets_.global_budget();
  res.peak_power = budgets_.peak_power();
  res.cores.resize(n);
  if (opts.record_core_traces) {
    res.core_power_traces.assign(n, TimeSeries(1 << 12));
  }

  EnergyAccounting acct(budgets_.global_budget());
  // All per-core scratch lives in the simulator-owned CycleFrame: reset()
  // reuses capacity across runs and the loop below never allocates.
  CycleFrame& f = frame_;
  f.reset(n, budgets_.local_budget());
  std::uint32_t finished_count = 0;

  // Commit charging concentrates an instruction's energy into one cycle;
  // physically the pipeline spreads it over several. A short exponential
  // smoothing (tau ~ 8 cycles) models that spreading for both the actual
  // power curve and the PTHT control estimate.
  constexpr double kEmaAlpha = 1.0 / 8.0;

  // Without PTB's dedicated wire layer, the "CMP over the global budget"
  // condition is only observable at power-monitor epochs (one DVFS window):
  // the enforcement flag is re-evaluated from the previous epoch's average.
  // PTB's load-balancer aggregates tokens every cycle, giving it (and the
  // techniques under it) a per-cycle global signal — a key reason it
  // matches the budget so much more accurately (Sections III.E, IV.A).
  bool epoch_over = false;
  double epoch_acc = 0.0;
  std::uint32_t epoch_n = 0;

  const double wire_overhead =
      cfg_.ptb.enabled ? (1.0 + cfg_.power.ptb_wire_overhead_frac) : 1.0;

  const bool ptb_active = balancer_ != nullptr || clustered_ != nullptr;
  // One technique kind per run, so enforcer activity is uniform; inactive
  // enforcers (kNone / CMP-level baselines) no-op their tick and pin both
  // ratios at 1.0, letting the loop skip the calls wholesale.
  const bool enforcers_active = enforcers_[0]->active();
  // The PTHT estimate is pure control/observability input. When nothing
  // consumes it — no balancer, no budget enforcer, no spinner gating, no
  // tracer, no auditor — skip the whole estimate path: the per-op PTHT
  // lookups at fetch, the second power-model evaluation and its EMA. Every
  // consumer below is gated on the same conditions, so results are
  // unchanged byte for byte.
  const bool est_needed = ptb_active || enforcers_active ||
                          !gate_detectors_.empty() || tracer != nullptr ||
                          auditor_ != nullptr;
  for (CoreId i = 0; i < n; ++i) cores_[i]->set_estimate_fetch(est_needed);

  Cycle now = 0;

  // Stats registry (src/stats): pull-based. Registration binds the
  // components' existing counters (and a few locals of this frame: now,
  // finished_count, acct) — the loop below does no extra bookkeeping for
  // them. Local to the run so the bound sources always outlive it.
  const bool stats_on = opts.stats || opts.stats_sample_every > 0;
  std::unique_ptr<StatsRegistry> stats;
  Histogram* power_hist = nullptr;
  SelfProfile prof;
  if (stats_on) {
    stats = std::make_unique<StatsRegistry>();
    StatsRegistry& reg = *stats;
    reg.counter_fn("sim.cycles", "global cycles simulated",
                   [&now] { return static_cast<double>(now); });
    reg.counter_fn("sim.finished_cores", "cores whose program completed",
                   [&finished_count] {
                     return static_cast<double>(finished_count);
                   });
    reg.formula("sim.energy.total", "total CMP energy (tokens)",
                [&acct] { return acct.energy(); }, 1);
    reg.formula("sim.energy.aopb",
                "energy above the global budget (tokens)",
                [&acct] { return acct.aopb(); }, 1);
    reg.formula("sim.energy.aopb_frac", "AoPB / total energy",
                [&acct] {
                  return acct.energy() > 0.0 ? acct.aopb() / acct.energy()
                                             : 0.0;
                },
                6);
    reg.formula("sim.power.mean", "mean per-cycle CMP power",
                [&acct] { return acct.power_stat().mean(); });
    reg.formula("sim.power.max", "peak observed per-cycle CMP power",
                [&acct] { return acct.power_stat().max(); });
    reg.formula("sim.power.stddev", "per-cycle CMP power stddev",
                [&acct] { return acct.power_stat().stddev(); });
    power_hist = &reg.distribution("sim.power.dist",
                                   "per-cycle CMP power distribution",
                                   0.0, budgets_.peak_power(), 64);
    budgets_.register_stats(reg, "sim.budget");
    energy_model_->register_stats(reg, "power.model");
    mesh_->register_stats(reg, "noc");
    mem_->register_stats(reg, "mem");
    for (CoreId i = 0; i < n; ++i) {
      const std::string p = "core." + std::to_string(i);
      cores_[i]->register_stats(reg, p);
      trackers_[i].register_stats(reg, p + ".spin");
      enforcers_[i]->register_stats(reg, p + ".enforcer");
    }
    if (balancer_) balancer_->register_stats(reg, "ptb.balancer");
    if (clustered_) clustered_->register_stats(reg, "ptb");
    thermal_.register_stats(reg, "thermal");
    // Wall-clock self-profiling: volatile (machine-dependent), so excluded
    // from deterministic dumps and the sample buffer.
    reg.gauge_fn("sim.self.tick_seconds",
                 "wall-clock spent in core gates and ticks (memory "
                 "accesses included), the per-core power model, smoothing "
                 "and spin/thermal attribution (sampled, scaled)",
                 [&prof] { return prof.tick_s; }, 6, /*is_volatile=*/true);
    reg.gauge_fn("sim.self.power_seconds",
                 "wall-clock spent in progress reporting, CMP power totals, "
                 "the NoC drain and the global over-budget signal (sampled, "
                 "scaled)",
                 [&prof] { return prof.power_s; }, 6, /*is_volatile=*/true);
    reg.gauge_fn("sim.self.control_seconds",
                 "wall-clock spent in PTB balancing, local enforcement and "
                 "spinner gating (sampled, scaled)",
                 [&prof] { return prof.control_s; }, 6, /*is_volatile=*/true);
    reg.gauge_fn("sim.self.account_seconds",
                 "wall-clock spent in energy accounting, the invariant audit "
                 "and stats sampling (sampled, scaled)",
                 [&prof] { return prof.account_s; }, 6, /*is_volatile=*/true);
    reg.counter_fn("sim.self.timed_cycles",
                   "cycles actually timed by the self-profiler",
                   [&prof] { return static_cast<double>(prof.timed_cycles); });
  }
  std::unique_ptr<SampleBuffer> samples;
  if (stats && opts.stats_sample_every > 0) {
    samples = std::make_unique<SampleBuffer>(*stats);
  }

  // --- checkpoint capture (sim/checkpoint.hpp) ---
  // Runs at the top of a cycle-loop body: the previous cycle completed, so
  // every byte of live state is reachable through the components and the
  // locals above.
  const auto capture_checkpoint = [&]() -> std::string {
    CheckpointHeader h;
    h.checkpoint_fp = checkpoint_fingerprint(cfg_, profile_.name, now);
    h.machine_fp = machine_fingerprint(cfg_);
    h.config_fp = config_fingerprint(cfg_);
    h.seed = cfg_.seed;
    h.num_cores = n;
    h.cycle = now;
    h.benchmark = profile_.name;
    CheckpointWriter cw(h);
    {
      ByteWriter& w = cw.section(CkptSection::kCores);
      for (CoreId i = 0; i < n; ++i) cores_[i]->save_state(w);
    }
    {
      ByteWriter& w = cw.section(CkptSection::kPrograms);
      for (CoreId i = 0; i < n; ++i) programs_[i]->save_state(w);
    }
    mem_->save_state(cw.section(CkptSection::kMem));
    mesh_->save_state(cw.section(CkptSection::kMesh));
    sync_->save_state(cw.section(CkptSection::kSync));
    {
      ByteWriter& w = cw.section(CkptSection::kTrackers);
      for (CoreId i = 0; i < n; ++i) trackers_[i].save_state(w);
    }
    if (balancer_) balancer_->save_state(cw.section(CkptSection::kBalancer));
    if (clustered_) {
      clustered_->save_state(cw.section(CkptSection::kClustered));
    }
    {
      ByteWriter& w = cw.section(CkptSection::kEnforcers);
      for (CoreId i = 0; i < n; ++i) enforcers_[i]->save_state(w);
    }
    if (selector_) selector_->save_state(cw.section(CkptSection::kSelector));
    if (!gate_detectors_.empty()) {
      ByteWriter& w = cw.section(CkptSection::kGates);
      w.u64(gate_detectors_.size());
      for (const SpinPowerDetector& d : gate_detectors_) d.save_state(w);
    }
    if (thrifty_) thrifty_->save_state(cw.section(CkptSection::kThrifty));
    if (meeting_) meeting_->save_state(cw.section(CkptSection::kMeeting));
    thermal_.save_state(cw.section(CkptSection::kThermal));
    {
      ByteWriter& w = cw.section(CkptSection::kFrame);
      w.f64_vec(f.freq_acc);
      w.f64_vec(f.est_ema);
      w.f64_vec(f.act_ema);
      w.f64_vec(f.eff_budget);
      w.f64_vec(f.thermal_acc);
      w.u8_vec(f.finished);
    }
    acct.save_state(cw.section(CkptSection::kAcct));
    {
      ByteWriter& w = cw.section(CkptSection::kRun);
      w.boolean(epoch_over);
      w.f64(epoch_acc);
      w.u32(epoch_n);
      w.u64(res.spin_gated_cycles);
      // The self-profile *cycle count* is deterministic (its cadence is a
      // pure function of `now`) and feeds a sample-buffer column, so it is
      // carried; the wall-clock seconds stay volatile and uncarried.
      w.u64(prof.timed_cycles);
    }
    if (power_hist) power_hist->save_state(cw.section(CkptSection::kHist));
    if (samples) samples->save_state(cw.section(CkptSection::kSamples));
    if (tracer) tracer->save_state(cw.section(CkptSection::kTracer));
    if (opts.record_cmp_trace || opts.record_core_traces) {
      ByteWriter& w = cw.section(CkptSection::kResPower);
      res.cmp_power_trace.save_state(w);
      w.u64(res.core_power_traces.size());
      for (const TimeSeries& t : res.core_power_traces) t.save_state(w);
    }
    return cw.finish();
  };

  // --- checkpoint carry application ---
  // restore_checkpoint() already loaded the component sections into the
  // members; the run-scoped remainder lands here, now that the locals
  // exist. Consumed so a later run() on this simulator starts fresh.
  if (carry_) {
    now = carry_->cycle;
    epoch_over = carry_->epoch_over;
    epoch_acc = carry_->epoch_acc;
    epoch_n = carry_->epoch_n;
    res.spin_gated_cycles = carry_->spin_gated_cycles;
    prof.timed_cycles = carry_->prof_timed_cycles;
    f.freq_acc = std::move(carry_->freq_acc);
    f.est_ema = std::move(carry_->est_ema);
    f.act_ema = std::move(carry_->act_ema);
    f.eff_budget = std::move(carry_->eff_budget);
    f.thermal_acc = std::move(carry_->thermal_acc);
    f.finished = std::move(carry_->finished);
    finished_count = 0;
    for (CoreId i = 0; i < n; ++i) {
      if (f.finished[i] != 0) {
        ++finished_count;
        res.cores[i].finish_cycle = cores_[i]->finish_cycle;
      }
    }
    // Raw run-scoped payloads: applied when the matching consumer exists
    // in this run; a mismatch (different RunOptions than the captured
    // run) leaves the freshly-constructed state.
    const auto apply = [](const std::string& bytes, auto&& fn) {
      if (bytes.empty()) return;
      ByteReader r(bytes);
      fn(r);
    };
    apply(carry_->acct, [&](ByteReader& r) { acct.load_state(r); });
    if (power_hist) {
      apply(carry_->hist,
            [&](ByteReader& r) { power_hist->load_state(r); });
    }
    if (samples) {
      apply(carry_->samples,
            [&](ByteReader& r) { samples->load_state(r); });
    }
    if (tracer) {
      apply(carry_->tracer,
            [&](ByteReader& r) { tracer->load_state(r); });
    }
    if (opts.record_cmp_trace || opts.record_core_traces) {
      apply(carry_->res_power, [&](ByteReader& r) {
        res.cmp_power_trace.load_state(r);
        if (r.u64() == res.core_power_traces.size()) {
          for (TimeSeries& t : res.core_power_traces) t.load_state(r);
        }
      });
    }
    carry_.reset();
  }

  using ProfClock = std::chrono::steady_clock;  // lint:allowed-wallclock
  const auto prof_lap = [](ProfClock::time_point t0, double& acc) {
    const auto t1 = ProfClock::now();
    acc += std::chrono::duration<double>(t1 - t0).count() *
           static_cast<double>(kSelfProfilePeriod);
    return t1;
  };

  const bool progress_on = opts.observer != nullptr &&
                           opts.observer->progress != nullptr &&
                           opts.observer->progress_every > 0;

  for (; now < cfg_.max_cycles && finished_count < n; ++now) {
    // Checkpoint capture: top of the loop body, before the cycle executes,
    // so a restored run replays `checkpoint_at` onward (checkpoint.hpp).
    if (now == opts.checkpoint_at && opts.checkpoint_out != nullptr) {
      *opts.checkpoint_out = capture_checkpoint();
    }
    // Stamp the cycle once; emit sites then need no cycle parameter.
    if (tracer) tracer->begin_cycle(now);

    const bool prof_cycle = stats_on && now % kSelfProfilePeriod == 0;
    ProfClock::time_point pt{};
    if (prof_cycle) {
      ++prof.timed_cycles;
      pt = ProfClock::now();
    }

    // --- 1. cores tick in core order, each against the memory system
    //        state the previous cores left (frequency scaling = tick
    //        skipping; DVFS transitions stall) ---
    for (CoreId i = 0; i < n; ++i) {
      Core& core = *cores_[i];

      // Baseline controllers (prior art; Section II.C).
      bool asleep = false;
      double freq_ratio = 1.0;
      double vdd_ratio = 1.0;
      bool stalled = false;
      if (enforcers_active) {
        const PowerEnforcer& enf = *enforcers_[i];
        freq_ratio = enf.freq_ratio();
        vdd_ratio = enf.vdd_ratio();
        stalled = enf.stalled(now);
      }
      if (thrifty_ && !f.finished[i]) {
        asleep = thrifty_->tick(i, now, trackers_[i].state(),
                                sync_->barrier_episodes,
                                core.rob_occupancy() == 0);
      }
      if (meeting_ && !f.finished[i]) {
        meeting_->tick(i, now, trackers_[i].state());
        const DvfsMode& m = kDvfsModes[meeting_->mode_for(i)];
        freq_ratio = m.freq_ratio;
        vdd_ratio = m.vdd_ratio;
      }

      bool active = false;
      if (!f.finished[i] && !stalled && !asleep) {
        f.freq_acc[i] += freq_ratio;
        if (f.freq_acc[i] >= 1.0) {
          f.freq_acc[i] -= 1.0;
          active = true;
        }
      }
      f.active[i] = active ? 1 : 0;
      f.vdd[i] = vdd_ratio;
      if (active) core.tick(now);

      f.gated[i] = (!active || core.idle()) ? 1 : 0;
      // Actual power: exact base tokens of the instructions entering the
      // pipeline this cycle plus the (small) ROB residency component.
      // Front-end attribution makes the fetch-throttling techniques act on
      // the power curve within a few cycles, as in the paper.
      f.rob_occ[i] = core.rob_occupancy();
      f.fetch_exact[i] = active ? core.fetch_tokens_exact() : 0.0;
      // Control estimate: PTHT tokens of the instructions being fetched
      // (residency folded into the stored values, III.B).
      f.fetch_est[i] = active ? core.fetch_tokens_estimated() : 0.0;

      if (!f.finished[i] && core.finished()) {
        f.finished[i] = 1;
        ++finished_count;
        core.finish_cycle = now;
        res.cores[i].finish_cycle = now;
      }
    }

    // --- 1b. per-core power: batched model, smoothing, spin and thermal
    //         attribution ---
    const CoreActivityBatch batch{f.fetch_exact.data(), f.fetch_est.data(),
                                  f.rob_occ.data(),     f.active.data(),
                                  f.gated.data(),       f.vdd.data()};
    core_cycle_power_batch(cfg_.power, batch, n, wire_overhead,
                           f.act_power.data(),
                           est_needed ? f.est_power.data() : nullptr);
    for (CoreId i = 0; i < n; ++i) {
      f.act_ema[i] += kEmaAlpha * (f.act_power[i] - f.act_ema[i]);
      f.act_power[i] = f.act_ema[i];
    }
    if (est_needed) {
      for (CoreId i = 0; i < n; ++i) {
        f.est_ema[i] += kEmaAlpha * (f.est_power[i] - f.est_ema[i]);
        f.est_power[i] = f.est_ema[i];
      }
    }
    for (CoreId i = 0; i < n; ++i) {
      trackers_[i].attribute_cycle(f.act_power[i]);
      f.thermal_acc[i] += f.act_power[i];
      if (opts.record_core_traces) {
        res.core_power_traces[i].add(static_cast<double>(now),
                                     f.act_power[i]);
      }
    }
    if ((now + 1) % kThermalStep == 0) {
      for (CoreId i = 0; i < n; ++i) {
        thermal_.step(i, f.thermal_acc[i] / static_cast<double>(kThermalStep),
                      static_cast<double>(kThermalStep));
        f.thermal_acc[i] = 0.0;
      }
    }

    if (prof_cycle) pt = prof_lap(pt, prof.tick_s);

    // Progress callback (RunObserver): read-only over deterministic state —
    // emitting progress can never change a result byte.
    if (progress_on && (now + 1) % opts.observer->progress_every == 0) {
      RunProgress p;
      p.cycle = now + 1;
      p.max_cycles = cfg_.max_cycles;
      p.cores_finished = finished_count;
      p.num_cores = n;
      for (CoreId i = 0; i < n; ++i) p.committed += cores_[i]->committed;
      p.ipc = static_cast<double>(p.committed) /
              static_cast<double>(now + 1);
      p.watts = acct.power_stat().mean();
      opts.observer->progress(p);
    }
    // CMP-wide totals use the one canonical FP reduction order.
    double total_act = deterministic_total(f.act_power.data(), n);
    const double total_est =
        est_needed ? deterministic_total(f.est_power.data(), n) : 0.0;
    // NoC activity energy (uncore): the flit hops this cycle's accesses
    // routed.
    total_act += static_cast<double>(mesh_->drain_flit_hops()) *
                 kNocTokensPerFlitHop;

    // --- 2. global over-budget signal ---
    if (tracer && now % cfg_.trace.budget_sample_every == 0) {
      // Deficit of the *control* signal (the PTHT estimate the balancer and
      // enforcers act on); negative while under budget.
      tracer->emit(TraceEventType::kBudgetSample, kNoCore, 0,
                   total_est - budgets_.global_budget());
    }
    const bool global_over_now = total_est > budgets_.global_budget();
    epoch_acc += total_est;
    if (++epoch_n >= cfg_.dvfs.window_cycles) {
      epoch_over =
          (epoch_acc / epoch_n) > budgets_.global_budget();
      epoch_acc = 0.0;
      epoch_n = 0;
    }
    const bool global_over = ptb_active ? global_over_now : epoch_over;

    if (prof_cycle) pt = prof_lap(pt, prof.power_s);

    // --- 3. PTB balancing ---
    if (ptb_active) {
      PtbPolicy policy = cfg_.ptb.policy;
      if (policy == PtbPolicy::kDynamic) {
        if (cfg_.ptb.dynamic_uses_ground_truth) {
          for (CoreId i = 0; i < n; ++i) f.states[i] = trackers_[i].state();
          policy = selector_->select(f.states);
        } else {
          policy = selector_->select_heuristic(now, f.est_power);
        }
      }
      if (clustered_) {
        clustered_->cycle(now, f.est_power.data(), budgets_.global_budget(),
                          policy, f.eff_budget.data());
      } else {
        balancer_->cycle(now, f.est_power.data(), global_over, policy,
                         f.eff_budget.data());
      }
    }

    // --- 3. local enforcement ---
    if (enforcers_active) {
      for (CoreId i = 0; i < n; ++i) {
        enforcers_[i]->tick(now, f.est_power[i], f.eff_budget[i], global_over,
                            cfg_.ptb.relax_threshold, *cores_[i]);
      }
    }

    // --- 3b. spinner gating (future-work extension) ---
    if (!gate_detectors_.empty()) {
      for (CoreId i = 0; i < n; ++i) {
        const bool spinning = gate_detectors_[i].tick(f.est_power[i]);
        if (spinning && !f.finished[i] &&
            now % cfg_.ptb.spin_gate_period >= 2) {
          // Duty-cycled fetch gate: the spin loop still polls during the
          // 2-cycle window at the start of each period.
          cores_[i]->set_fetch_limit(0);
          ++res.spin_gated_cycles;
        } else if (cfg_.technique != TechniqueKind::kTwoLevel) {
          // Release the gate ourselves: only the 2-level enforcer manages
          // the fetch limit per cycle.
          cores_[i]->set_fetch_limit(cfg_.core.fetch_width);
        }
      }
    }

    if (prof_cycle) pt = prof_lap(pt, prof.control_s);

    // --- 4. accounting (per-core spin/thermal attribution ran in 1b;
    //        only CMP-level totals remain) ---
    acct.record_cycle(total_act);
    if (power_hist) power_hist->add(total_act);
    if (opts.record_cmp_trace) {
      res.cmp_power_trace.add(static_cast<double>(now), total_act);
    }

    // --- 5. invariant audit (off the results path; read-only) ---
    if (auditor_) {
      audit_cycle(now, acct, total_act, f.eff_budget.data());
    }

    if (samples && (now + 1) % opts.stats_sample_every == 0) {
      samples->sample(now);
    }
    if (prof_cycle) prof_lap(pt, prof.account_s);
  }

  if (auditor_) {
    // The periodic scan can miss the tail of the run; always close with a
    // full coherence sweep so short runs are audited end-to-end too.
    if (auditor_->level() == AuditLevel::kFull) {
      auditor_->check_coherence(now, *mem_);
    }
    PTB_ASSERTF(auditor_->clean(), "invariant audit failed: %s",
                auditor_->report().summary().c_str());
    res.audit_checks = auditor_->checks_run();
  }
  res.machine_fingerprint = machine_fingerprint(cfg_);

  res.cycles = now;
  res.hit_max_cycles = (finished_count < n);
  res.energy = acct.energy();
  res.aopb = acct.aopb();
  res.power = acct.power_stat();
  for (CoreId i = 0; i < n; ++i) {
    CoreResult& c = res.cores[i];
    c.committed = cores_[i]->committed;
    c.flushes = cores_[i]->flushes;
    for (std::uint32_t s = 0; s < kNumExecStates; ++s) {
      c.state_cycles[s] =
          trackers_[i].cycles_in(static_cast<ExecState>(s));
    }
    c.spin_energy = trackers_[i].spin_power();
    c.energy = trackers_[i].total_power();
    c.temp_mean = thermal_.history(i).mean();
    c.temp_std = thermal_.history(i).stddev();
    res.spin_energy += c.spin_energy;
    res.total_committed += c.committed;
    res.dvfs_transitions += enforcers_[i]->controller().dvfs().transitions;
  }
  if (balancer_) {
    res.tokens_donated = balancer_->tokens_donated;
    res.tokens_granted = balancer_->tokens_granted;
    res.tokens_evaporated = balancer_->tokens_evaporated;
  } else if (clustered_) {
    res.tokens_donated = clustered_->tokens_donated();
    res.tokens_granted = clustered_->tokens_granted();
  }
  if (selector_) {
    res.to_one_cycles = selector_->to_one_cycles;
    res.to_all_cycles = selector_->to_all_cycles;
  }
  if (thrifty_) res.barrier_sleep_cycles = thrifty_->sleep_cycles;
  if (meeting_) res.meeting_point_episodes = meeting_->episodes;
  if (tracer) {
    std::uint32_t wire_latency = 0;
    if (balancer_) wire_latency = balancer_->wire_latency();
    else if (clustered_) wire_latency = clustered_->wire_latency();
    res.trace = std::make_shared<EventTrace>(
        tracer->finish(n, now, wire_latency));
    wire_tracer(nullptr);
  }
  if (stats) {
    StatsDump d = StatsDump::snapshot(*stats, samples.get(),
                                      opts.stats_sample_every);
    d.bench = profile_.name;
    d.num_cores = n;
    d.cycles = now;
    d.config_fingerprint = config_fingerprint(cfg_);
    res.stats = std::make_shared<const StatsDump>(std::move(d));
  }
  return res;
}

void CmpSimulator::audit_cycle(Cycle now, const EnergyAccounting& acct,
                               double total_act, const double* eff_budget) {
  InvariantAuditor& aud = *auditor_;
  if (balancer_) {
    aud.check_balancer(now, *balancer_, eff_budget, cfg_.num_cores);
  } else if (clustered_) {
    for (std::uint32_t k = 0; k < clustered_->num_clusters(); ++k) {
      const PtbLoadBalancer& b = clustered_->cluster(k);
      aud.check_balancer(now, b, eff_budget + clustered_->cluster_begin(k),
                         b.num_cores());
    }
  }
  for (CoreId i = 0; i < cfg_.num_cores; ++i) {
    aud.check_core(now, i, *cores_[i]);
    aud.check_enforcer(now, i, *enforcers_[i], *cores_[i]);
  }
  aud.check_accounting(now, acct, total_act);
  if (aud.coherence_scan_due(now)) aud.check_coherence(now, *mem_);
  // Fail fast: a violated invariant poisons every later cycle, so abort at
  // the first dirty cycle with the full per-class digest.
  PTB_ASSERTF(aud.clean(), "invariant audit failed at cycle %llu: %s",
              static_cast<unsigned long long>(now),
              aud.report().summary().c_str());
}

}  // namespace ptb
