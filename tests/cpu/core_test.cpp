// Core pipeline behaviour driven by scripted micro-op programs.
#include "cpu/core.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/power_model.hpp"
#include "sync/sync_state.hpp"

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

}  // namespace
}  // namespace ptb
