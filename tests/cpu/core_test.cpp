// Core pipeline behaviour driven by scripted micro-op programs.
#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/power_model.hpp"
#include "sync/spin_tracker.hpp"
#include "sync/sync_state.hpp"
#include "workloads/program.hpp"

namespace ptb {
namespace {

/// Scripted program: plays back a fixed op list, optionally blocking.
class ScriptProgram final : public ThreadProgram {
 public:
  explicit ScriptProgram(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

  FetchStatus next(MicroOp& out) override {
    if (waiting_) return FetchStatus::kStall;
    if (pos_ >= ops_.size()) return FetchStatus::kFinished;
    out = ops_[pos_++];
    if (out.blocks_generation) waiting_ = true;
    return FetchStatus::kOp;
  }

  void on_value(const MicroOp&, std::uint64_t value) override {
    waiting_ = false;
    last_value_ = value;
    ++values_seen_;
  }

  bool finished() const override {
    return pos_ >= ops_.size() && !waiting_;
  }

  std::uint64_t last_value_ = 0;
  int values_seen_ = 0;

 private:
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
  bool waiting_ = false;
};

MicroOp alu(Pc pc, std::uint8_t dep = 0) {
  MicroOp op;
  op.pc = pc;
  op.cls = OpClass::kIntAlu;
  op.dep1 = dep;
  return op;
}

MicroOp load(Pc pc, Addr a, std::uint8_t dep = 0) {
  MicroOp op;
  op.pc = pc;
  op.cls = OpClass::kLoad;
  op.addr = a;
  op.dep1 = dep;
  return op;
}

/// Plays back a fixed op list without stalling on blocking ops, and records
/// the core's pipeline state each time a value is delivered.
class ProbeProgram final : public ThreadProgram {
 public:
  explicit ProbeProgram(std::vector<MicroOp> ops) : ops_(std::move(ops)) {}

  FetchStatus next(MicroOp& out) override {
    if (pos_ >= ops_.size()) return FetchStatus::kFinished;
    out = ops_[pos_++];
    return FetchStatus::kOp;
  }

  void on_value(const MicroOp&, std::uint64_t) override {
    if (core_ != nullptr) seen_at_value_.push_back(core_->debug_string(0));
  }

  bool finished() const override { return pos_ >= ops_.size(); }

  const Core* core_ = nullptr;
  std::vector<std::string> seen_at_value_;

 private:
  std::vector<MicroOp> ops_;
  std::size_t pos_ = 0;
};

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : cfg_(make_cfg()), mesh_(cfg_.noc, 2, 1), mem_(cfg_, mesh_),
        sync_(4, 1, 2), energy_(cfg_.power, 1) {}

  static SimConfig make_cfg() {
    SimConfig c;
    c.num_cores = 2;
    return c;
  }

  /// Functionally warms the instruction lines of [base, base+bytes) for a
  /// core, so timing tests measure the pipeline rather than cold I-misses.
  void warm_code(CoreId c, Pc base, std::uint32_t bytes) {
    for (Addr a = base & ~Addr{63}; a < base + bytes; a += 64) {
      mem_.directory().warm(c, a / 64, /*instruction=*/true, false);
    }
  }

  /// Runs the core from cycle `from` until finished or cycle `max`.
  Cycle run_to_completion(Core& core, Cycle max = 100000, Cycle from = 0) {
    Cycle t = from;
    for (; t < max && !core.finished(); ++t) core.tick(t);
    return t;
  }

  SimConfig cfg_;
  Mesh mesh_;
  MemorySystem mem_;
  SyncState sync_;
  BaseEnergyModel energy_;
};

TEST_F(CoreTest, ExecutesStraightLineCode) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 100; ++i) ops.push_back(alu(0x1000 + i * 4));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 100 * 4);
  const Cycle t = run_to_completion(core);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(core.committed, 100u);
  EXPECT_LT(t, 200u);  // independent ALU ops: way under 2 CPI
}

TEST_F(CoreTest, DependencyChainSerializes) {
  // 64 ops each depending on the previous: takes >= 64 cycles beyond the
  // parallel case.
  std::vector<MicroOp> chain, parallel;
  for (int i = 0; i < 64; ++i) {
    chain.push_back(alu(0x1000 + i * 4, 1));
    parallel.push_back(alu(0x1000 + i * 4, 0));
  }
  ScriptProgram p1(chain), p2(parallel);
  Core c1(0, cfg_, mem_, sync_, p1, energy_);
  Core c2(1, cfg_, mem_, sync_, p2, energy_);
  warm_code(0, 0x1000, 64 * 4);
  warm_code(1, 0x1000, 64 * 4);
  const Cycle t1 = run_to_completion(c1);
  const Cycle t2 = run_to_completion(c2);
  EXPECT_GT(t1, t2);
  EXPECT_GE(t1, 64u);
}

TEST_F(CoreTest, FetchLimitThrottles) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 200; ++i) ops.push_back(alu(0x1000 + i * 4));
  ScriptProgram p1(ops), p2(ops);
  Core fast(0, cfg_, mem_, sync_, p1, energy_);
  Core slow(1, cfg_, mem_, sync_, p2, energy_);
  warm_code(0, 0x1000, 200 * 4);
  warm_code(1, 0x1000, 200 * 4);
  slow.set_fetch_limit(1);
  const Cycle t_fast = run_to_completion(fast);
  const Cycle t_slow = run_to_completion(slow);
  EXPECT_GT(t_slow, t_fast);
  EXPECT_GE(t_slow, 200u);  // 1 op/cycle at most
}

TEST_F(CoreTest, FetchGateStallsCompletely) {
  std::vector<MicroOp> ops{alu(0x1000)};
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  core.set_fetch_limit(0);
  for (Cycle t = 0; t < 100; ++t) core.tick(t);
  EXPECT_FALSE(core.finished());
  EXPECT_EQ(core.fetched, 0u);
  core.set_fetch_limit(4);
  run_to_completion(core);
  EXPECT_TRUE(core.finished());
}

TEST_F(CoreTest, MispredictCausesFlushBubble) {
  // A mispredicted branch (cold predictor defaults to not-taken; actual
  // taken) must cost at least the refill penalty.
  std::vector<MicroOp> with_branch, without;
  for (int i = 0; i < 8; ++i) with_branch.push_back(alu(0x1000 + i * 4));
  MicroOp br;
  br.pc = 0x2000;
  br.cls = OpClass::kBranch;
  br.branch_taken = true;  // cold gshare predicts not-taken -> mispredict
  with_branch.push_back(br);
  for (int i = 0; i < 8; ++i)
    with_branch.push_back(alu(0x3000 + i * 4));
  without = with_branch;
  without[8].branch_taken = false;  // correctly predicted

  ScriptProgram p1(with_branch), p2(without);
  Core c1(0, cfg_, mem_, sync_, p1, energy_);
  Core c2(1, cfg_, mem_, sync_, p2, energy_);
  const Cycle t_miss = run_to_completion(c1);
  const Cycle t_hit = run_to_completion(c2);
  EXPECT_EQ(c1.flushes, 1u);
  EXPECT_EQ(c2.flushes, 0u);
  EXPECT_GE(t_miss, t_hit + cfg_.core.pipeline_stages - 2);
}

TEST_F(CoreTest, BlockingLoadStallsGeneration) {
  std::vector<MicroOp> ops;
  MicroOp bl = load(0x1000, 0x80000);
  bl.blocks_generation = true;
  ops.push_back(bl);
  ops.push_back(alu(0x1004));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  const Cycle t = run_to_completion(core);
  EXPECT_TRUE(core.finished());
  EXPECT_EQ(prog.values_seen_, 1);
  // Cold-miss latency (>= DRAM) is on the critical path.
  EXPECT_GE(t, cfg_.mem.dram_latency);
}

TEST_F(CoreTest, SyncRmwAppliesLockSemantics) {
  MicroOp rmw;
  rmw.pc = 0x1000;
  rmw.cls = OpClass::kAtomicRmw;
  rmw.addr = sync_.lock_addr(0);
  rmw.blocks_generation = true;
  rmw.sync = SyncRole::kLockTryAcquire;
  rmw.sync_id = 0;
  ScriptProgram prog({rmw});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  run_to_completion(core);
  EXPECT_EQ(prog.last_value_, 0u);       // old value: lock was free
  EXPECT_EQ(sync_.read_lock(0), 1u);     // now held
  EXPECT_EQ(sync_.lock_holder(0), 0u);
}

TEST_F(CoreTest, PthtUpdatedAtCommit) {
  std::vector<MicroOp> ops;
  for (int i = 0; i < 10; ++i) ops.push_back(alu(0x1000));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  run_to_completion(core);
  EXPECT_GE(core.ptht().updates, 10u);
  // The stored cost must be at least the instruction's grouped base.
  const double stored = core.ptht().lookup(0x1000, -1.0);
  EXPECT_GE(stored, energy_.grouped_base(OpClass::kIntAlu, 0x1000));
}

TEST_F(CoreTest, IdleWhenNothingToDo) {
  ScriptProgram prog({});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  core.tick(0);
  EXPECT_TRUE(core.idle());
  EXPECT_TRUE(core.finished());
}

TEST_F(CoreTest, RobOccupancyBounded) {
  std::vector<MicroOp> ops;
  // Long-latency loads (cold misses) back up the ROB.
  for (int i = 0; i < 400; ++i)
    ops.push_back(load(0x1000 + i * 4, 0x200000 + i * 4096));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 400 * 4);
  std::uint32_t max_occ = 0;
  for (Cycle t = 0; t < 20000 && !core.finished(); ++t) {
    core.tick(t);
    max_occ = std::max(max_occ, core.rob_occupancy());
  }
  EXPECT_LE(max_occ, cfg_.core.rob_entries);
  EXPECT_GT(max_occ, cfg_.core.lsq_entries / 2);  // misses do back it up
}

// Issue is out of order: a load waiting on a cold miss does not hold back
// the independent loads behind it.
TEST_F(CoreTest, YoungerIndependentOpsIssueAroundStalledLoad) {
  std::vector<MicroOp> ops;
  ops.push_back(load(0x1000, 0x200000));          // cold miss
  ops.push_back(load(0x1004, 0x300000, 1));       // waits on the miss
  for (int i = 0; i < 3; ++i)
    ops.push_back(load(0x1008 + i * 4, 0x400000 + i * 4096));
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 64);
  for (Cycle t = 0; t < 20; ++t) core.tick(t);
  EXPECT_EQ(mem_.loads, 4u);  // all but the stalled load issued
  EXPECT_EQ(core.committed, 0u);
  run_to_completion(core, 100000, 20);
  EXPECT_EQ(mem_.loads, 5u);
  EXPECT_EQ(core.committed, 5u);
}

// The issue window spans 32 sequence numbers from the oldest unissued op:
// the op 31 slots past it issues, the one 32 slots past it waits.
TEST_F(CoreTest, IssueWindowEndsThirtyTwoSlotsPastOldestUnissued) {
  std::vector<MicroOp> ops;
  ops.push_back(load(0x1000, 0x200000));     // seq 0: cold miss
  ops.push_back(load(0x1004, 0x300000, 1));  // seq 1: oldest unissued
  for (int i = 0; i < 30; ++i)               // seqs 2..31: stalled chain
    ops.push_back(alu(0x1008 + i * 4, 1));
  ops.push_back(load(0x1080, 0x400000));     // seq 32: inside the window
  ops.push_back(load(0x1084, 0x500000));     // seq 33: outside it
  ScriptProgram prog(ops);
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 0x100);
  for (Cycle t = 0; t < 60; ++t) core.tick(t);
  EXPECT_EQ(core.rob_occupancy(), 34u);
  EXPECT_EQ(mem_.loads, 2u);  // seq 0 and seq 32
  run_to_completion(core, 100000, 60);
  EXPECT_EQ(mem_.loads, 4u);
  EXPECT_EQ(core.committed, 34u);
}

// Under frequency scaling the CMP skips core ticks. A producer whose
// result arrives on a skipped cycle feeds its consumer at the next tick.
TEST_F(CoreTest, ProducerCompletingOnSkippedCycleReadyAtNextTick) {
  MicroOp mul;
  mul.pc = 0x1000;
  mul.cls = OpClass::kIntMult;  // 3 cycles: issued at 2, done at 5
  ScriptProgram prog({mul, load(0x1004, 0x200000, 1)});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  warm_code(0, 0x1000, 64);
  core.tick(0);  // dispatch
  core.tick(2);  // the multiply issues
  core.tick(4);
  EXPECT_EQ(mem_.loads, 0u);
  EXPECT_EQ(core.committed, 0u);
  core.tick(6);  // cycle 5 was skipped
  EXPECT_EQ(mem_.loads, 1u);
  EXPECT_EQ(core.committed, 1u);
}

// A blocking op and the mispredicted branch behind it resolve in the same
// cycle; the blocking op's value is delivered first (sequence order), while
// the branch is still unresolved.
TEST_F(CoreTest, SameCycleBlockingOpAndMispredictResolveInSeqOrder) {
  MicroOp blocking = alu(0x1000);
  blocking.blocks_generation = true;
  MicroOp br;
  br.pc = 0x1004;
  br.cls = OpClass::kBranch;
  br.branch_taken = true;  // cold gshare predicts not-taken -> mispredict
  ProbeProgram prog({blocking, br, alu(0x1008)});
  Core core(0, cfg_, mem_, sync_, prog, energy_);
  prog.core_ = &core;
  warm_code(0, 0x1000, 64);
  core.tick(0);  // dispatch both; fetch stops at the mispredict
  core.tick(1);  // both issue, both done at cycle 2
  EXPECT_TRUE(prog.seen_at_value_.empty());
  EXPECT_NE(core.debug_string(1).find("wbr=1"), std::string::npos);
  core.tick(2);
  ASSERT_EQ(prog.seen_at_value_.size(), 1u);
  EXPECT_NE(prog.seen_at_value_[0].find("wbr=1"), std::string::npos)
      << prog.seen_at_value_[0];
  EXPECT_NE(core.debug_string(2).find("wbr=0"), std::string::npos);
  EXPECT_EQ(core.committed, 2u);
  const Cycle t = run_to_completion(core, 100000, 3);
  EXPECT_EQ(core.committed, 3u);
  EXPECT_GE(t, 2u + cfg_.core.pipeline_stages);  // refill after resolve
}

// A core saved with ops in flight (issued and waiting, unissued behind
// them) reloads into the same state: saving the reloaded core gives the
// same bytes, and, given a copy of the memory system, it then runs tick
// for tick like the original (which needs the unissued ops relinked).
TEST_F(CoreTest, SaveLoadWithOpsInFlightResumesIdentically) {
  std::vector<MicroOp> ops;
  ops.push_back(load(0x1000, 0x200000));     // cold miss, in flight
  ops.push_back(load(0x1004, 0x300000, 1));  // unissued behind it
  for (int i = 0; i < 6; ++i) ops.push_back(alu(0x1008 + i * 4, 1));
  ops.push_back(load(0x1020, 0x400000));     // independent, in flight
  ScriptProgram p1(ops);
  Core a(0, cfg_, mem_, sync_, p1, energy_);
  warm_code(0, 0x1000, 64);
  for (Cycle t = 0; t < 10; ++t) a.tick(t);
  ASSERT_EQ(a.rob_occupancy(), 9u);
  ASSERT_EQ(mem_.loads, 2u);
  ByteWriter w1, wm;
  a.save_state(w1);
  const std::string bytes = w1.take();
  mesh_.save_state(wm);
  mem_.save_state(wm);
  const std::string mem_bytes = wm.take();

  // The whole program is in the ROB, so the copy's program is empty.
  Mesh mesh2(cfg_.noc, 2, 1);
  MemorySystem mem2(cfg_, mesh2);
  ByteReader rm(mem_bytes);
  mesh2.load_state(rm);
  mem2.load_state(rm);
  ASSERT_TRUE(rm.ok());
  ScriptProgram p2({});
  Core b(0, cfg_, mem2, sync_, p2, energy_);
  ByteReader r(bytes);
  b.load_state(r);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  ByteWriter w2;
  b.save_state(w2);
  EXPECT_EQ(w2.take(), bytes);

  for (Cycle t = 10; t < 100000 && !(a.finished() && b.finished()); ++t) {
    a.tick(t);
    b.tick(t);
    ASSERT_EQ(b.debug_string(t), a.debug_string(t));
    ASSERT_EQ(b.committed, a.committed);
  }
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(b.committed, 9u);
}

// One machine for the quiet-tick reference: a mesh, a memory system, sync
// state and one SyntheticProgram-driven core per thread, built as
// CmpSimulator builds them, with cold caches (no functional warm-up).
struct QuietMachine {
  QuietMachine(const SimConfig& cfg, const WorkloadProfile& p,
               const BaseEnergyModel& energy)
      : mesh(cfg.noc, cfg.mesh_width(), cfg.mesh_height()), mem(cfg, mesh),
        sync(std::max<std::uint32_t>(1, p.num_locks), 1, cfg.num_cores),
        trackers(cfg.num_cores) {
    for (CoreId i = 0; i < cfg.num_cores; ++i) {
      programs.push_back(std::make_unique<SyntheticProgram>(
          p, i, cfg.num_cores, sync, trackers[i], cfg.seed));
      cores.push_back(std::make_unique<Core>(i, cfg, mem, sync,
                                             *programs[i], energy));
    }
  }

  Mesh mesh;
  MemorySystem mem;
  SyncState sync;
  std::vector<SpinTracker> trackers;
  std::vector<std::unique_ptr<SyntheticProgram>> programs;
  std::vector<std::unique_ptr<Core>> cores;
};

/// Everything a tick leaves visible to the simulator (doubles compared
/// exactly).
struct TickView {
  explicit TickView(const Core& c)
      : tokens{c.commit_tokens_exact(), c.fetch_tokens_exact(),
               c.fetch_tokens_estimated()},
        idle(c.idle()), rob(c.rob_occupancy()), lsq(c.lsq_occupancy()),
        counters{c.committed,    c.fetched,       c.flushes,
                 c.ticks,        c.stall_branch,  c.stall_front,
                 c.stall_program, c.stall_rob,    c.stall_lsq} {}
  bool operator==(const TickView&) const = default;

  std::array<double, 3> tokens;
  bool idle;
  std::uint32_t rob;
  std::uint32_t lsq;
  std::array<std::uint64_t, 9> counters;
};

std::ostream& operator<<(std::ostream& o, const TickView& v) {
  o << std::hexfloat << "tokens " << v.tokens[0] << ' ' << v.tokens[1] << ' '
    << v.tokens[2] << std::defaultfloat << " idle=" << v.idle
    << " rob=" << v.rob << " lsq=" << v.lsq << " counters";
  for (const std::uint64_t x : v.counters) o << ' ' << x;
  return o;
}

template <typename T>
std::string saved(const T& x) {
  ByteWriter w;
  x.save_state(w);
  return w.take();
}

// Quiet ticks are exact: machine `a` runs Core::tick as shipped, while
// every core of machine `b` is saved and loaded into itself before each
// tick, which ends any quiet window, so `b` runs all four stages every
// cycle. Every tick must leave the same observables, and the runs the same
// core, program and memory state. The cases reach each quiet fetch stop
// (spin and barrier loads, mispredicts, I-misses and refills, ROB full
// behind misses, LSQ full), fetch-limit changes inside open windows, and
// skipped ticks as under DFS.
TEST_F(CoreTest, QuietTicksMatchFullTickReference) {
  struct Case {
    const char* label;
    std::uint32_t lsq_entries;  // 0 = default
    double freq_ratio;          // < 1 skips ticks
    bool gate_fetch;            // cycle the fetch limit through 0
  };
  const Case cases[] = {
      {"every tick", 0, 1.0, false},
      {"lsq4 + skipped ticks", 4, 0.6, false},
      {"fetch gating + skipped ticks", 0, 0.75, true},
  };
  WorkloadProfile p;
  p.name = "quiet";
  p.iterations = 2;
  p.ops_per_iteration = 2000;
  p.imbalance = 0.3;
  p.num_locks = 2;
  p.cs_per_1k_ops = 6.0;
  p.cs_len_ops = 12;
  p.hot_lock_frac = 0.7;
  p.ws_private_lines = 1024;  // spills L1: misses fill the ROB
  p.branch_noise = 0.2;

  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    SimConfig cfg;
    cfg.num_cores = 4;
    // Small tables keep the per-tick save/load of the reference cheap.
    cfg.core.rob_entries = 64;
    cfg.power.ptht_entries = 64;
    cfg.core.bp_table_bytes = 64;
    cfg.core.bp_history_bits = 6;
    if (c.lsq_entries != 0) cfg.core.lsq_entries = c.lsq_entries;
    const BaseEnergyModel energy(cfg.power, 1);
    QuietMachine a(cfg, p, energy);
    QuietMachine b(cfg, p, energy);
    const std::uint32_t n = cfg.num_cores;
    // Warm each thread's compute code, not its lock and barrier code: the
    // first pass through those still misses in the L1I.
    for (QuietMachine* m : {&a, &b}) {
      for (CoreId i = 0; i < n; ++i) {
        const SyntheticProgram& prog = *m->programs[i];
        for (Addr at = prog.code_base();
             at < prog.code_base() + prog.code_bytes(); at += 64) {
          m->mem.directory().warm(i, at / 64, /*instruction=*/true, false);
        }
      }
    }

    // Quiet ticks of `a` by the stall counter they bump (branch, front,
    // program, rob, lsq, none), and fetch-limit changes landing in an open
    // window (to 0, from 0).
    std::array<std::uint64_t, 6> quiet_by_stop{};
    std::array<std::uint64_t, 2> limit_in_window{};
    std::vector<double> acc(n);
    for (CoreId i = 0; i < n; ++i) acc[i] = 0.25 * i;
    Cycle t = 0;
    const auto done = [&] {
      for (CoreId i = 0; i < n; ++i) {
        if (!a.cores[i]->finished() || !b.cores[i]->finished()) return false;
      }
      return true;
    };
    for (; t < 400000 && !done(); ++t) {
      for (CoreId i = 0; i < n; ++i) {
        Core& ca = *a.cores[i];
        Core& cb = *b.cores[i];
        acc[i] += c.freq_ratio;
        if (acc[i] < 1.0 || ca.finished()) continue;
        acc[i] -= 1.0;

        const std::string state = saved(cb);
        ByteReader r(state);
        cb.load_state(r);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(cb.quiet_until(), 0u);

        const bool quiet = t < ca.quiet_until();
        const TickView before(ca);
        ca.tick(t);
        cb.tick(t);
        const TickView after(ca);
        ASSERT_EQ(after, TickView(cb))
            << "core " << i << " cycle " << t << (quiet ? " (quiet)" : "");
        if (quiet) {
          std::size_t stop = 5;  // no stall counter moved
          for (std::size_t k = 0; k < 5; ++k) {  // counters[4..8]: stalls
            if (after.counters[4 + k] != before.counters[4 + k]) stop = k;
          }
          ++quiet_by_stop[stop];
        }
      }
      if (c.gate_fetch) {
        // Throttle phases as the 2-level enforcer and spinner gating set
        // them between ticks: gated, half width, full width.
        const std::uint32_t phase = t % 97;
        const std::uint32_t limit =
            phase < 30 ? 0 : phase < 45 ? 2 : cfg.core.fetch_width;
        for (CoreId i = 0; i < n; ++i) {
          Core& ca = *a.cores[i];
          const std::uint32_t old = ca.fetch_limit();
          if (limit != old && t + 1 < ca.quiet_until()) {
            if (limit == 0) ++limit_in_window[0];
            if (old == 0) ++limit_in_window[1];
          }
          ca.set_fetch_limit(limit);
          b.cores[i]->set_fetch_limit(limit);
        }
      }
    }
    ASSERT_TRUE(done()) << "did not finish by cycle " << t;
    for (CoreId i = 0; i < n; ++i) {
      EXPECT_EQ(saved(*a.cores[i]), saved(*b.cores[i])) << "core " << i;
      EXPECT_EQ(saved(*a.programs[i]), saved(*b.programs[i])) << "core " << i;
    }
    EXPECT_EQ(saved(a.mem), saved(b.mem));
    EXPECT_EQ(saved(a.sync), saved(b.sync));

    // Every quiet fetch stop the case is built for was reached.
    EXPECT_GT(quiet_by_stop[0], 0u) << "branch resolve";
    EXPECT_GT(quiet_by_stop[1], 0u) << "I-miss or refill";
    EXPECT_GT(quiet_by_stop[2], 0u) << "waiting for a value";
    if (c.lsq_entries == 0) {
      EXPECT_GT(quiet_by_stop[3], 0u) << "ROB full";
    } else {  // a small LSQ fills before the ROB
      EXPECT_GT(quiet_by_stop[4], 0u) << "LSQ full";
    }
    if (c.gate_fetch) {
      EXPECT_GT(quiet_by_stop[5], 0u) << "fetch limit 0";
      EXPECT_GT(limit_in_window[0], 0u) << "gated inside a window";
      EXPECT_GT(limit_in_window[1], 0u) << "restored inside a window";
    }
  }
}

}  // namespace
}  // namespace ptb
