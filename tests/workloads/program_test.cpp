// SyntheticProgram generator state machine, exercised standalone (values
// fed back directly, no core model).
#include "workloads/program.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "common/bytes.hpp"
#include "workloads/suite.hpp"

namespace ptb {
namespace {

/// Applies a blocking op's semantics against the SyncState for thread `id`
/// and returns the value the program is told.
std::uint64_t apply_sync(const MicroOp& op, SyncState& sync, CoreId id) {
  switch (op.sync) {
    case SyncRole::kLockTestLoad: return sync.read_lock(op.sync_id);
    case SyncRole::kLockTryAcquire: return sync.try_acquire(op.sync_id, id);
    case SyncRole::kLockRelease: sync.release(op.sync_id, id); return 0;
    case SyncRole::kBarrierArrive: return sync.arrive(op.sync_id);
    case SyncRole::kBarrierSpinLoad: return sync.read_sense(op.sync_id);
    case SyncRole::kNone: return 0;
  }
  return 0;
}

/// Drives a program as an ideal machine: every blocking op's semantics are
/// applied immediately against the SyncState.
class DirectDriver {
 public:
  DirectDriver(SyntheticProgram& prog, SyncState& sync, CoreId id)
      : prog_(prog), sync_(sync), id_(id) {}

  /// Pulls and "executes" up to `n` ops; returns ops pulled.
  int drive(int n) {
    int pulled = 0;
    while (pulled < n && !prog_.finished()) {
      MicroOp op;
      const auto st = prog_.next(op);
      if (st == ThreadProgram::FetchStatus::kFinished) break;
      if (st == ThreadProgram::FetchStatus::kStall) {
        ++stalls_;
        if (stalls_ > 1000000) break;  // would deadlock standalone
        continue;
      }
      ++pulled;
      ops_by_class_[op.cls] += 1;
      if (op.blocks_generation) apply(op);
    }
    return pulled;
  }

  std::uint64_t class_count(OpClass c) const {
    const auto it = ops_by_class_.find(c);
    return it == ops_by_class_.end() ? 0 : it->second;
  }

 private:
  void apply(const MicroOp& op) {
    prog_.on_value(op, apply_sync(op, sync_, id_));
  }

  SyntheticProgram& prog_;
  SyncState& sync_;
  CoreId id_;
  std::uint64_t stalls_ = 0;
  std::map<OpClass, std::uint64_t> ops_by_class_;
};

WorkloadProfile tiny_profile() {
  WorkloadProfile p;
  p.name = "tiny";
  p.iterations = 2;
  p.ops_per_iteration = 400;
  p.imbalance = 0.0;
  p.num_locks = 2;
  p.cs_per_1k_ops = 10.0;
  p.cs_len_ops = 5;
  p.code_footprint = 64;
  return p;
}

TEST(SyntheticProgram, SingleThreadRunsToCompletion) {
  const WorkloadProfile p = tiny_profile();
  SyncState sync(2, 1, 1);
  SpinTracker tracker;
  SyntheticProgram prog(p, 0, 1, sync, tracker, 1);
  DirectDriver d(prog, sync, 0);
  d.drive(1000000);
  EXPECT_TRUE(prog.finished());
  EXPECT_EQ(prog.iteration(), 2u);
  // Both iterations' compute work was emitted.
  EXPECT_GE(prog.compute_ops_emitted(), 2u * 400u);
}

TEST(SyntheticProgram, EmitsCriticalSections) {
  const WorkloadProfile p = tiny_profile();
  SyncState sync(2, 1, 1);
  SpinTracker tracker;
  SyntheticProgram prog(p, 0, 1, sync, tracker, 1);
  DirectDriver d(prog, sync, 0);
  d.drive(1000000);
  // ~10 sections per 1000 ops * 800 ops -> around 8; allow slack.
  EXPECT_GE(prog.lock_sections_entered(), 3u);
  EXPECT_GT(d.class_count(OpClass::kAtomicRmw), 0u);
}

TEST(SyntheticProgram, NoLocksMeansNoAtomicsExceptBarrier) {
  WorkloadProfile p = tiny_profile();
  p.num_locks = 0;
  p.cs_per_1k_ops = 0.0;
  p.barrier_per_iter = false;
  SyncState sync(1, 1, 1);
  SpinTracker tracker;
  SyntheticProgram prog(p, 0, 1, sync, tracker, 1);
  DirectDriver d(prog, sync, 0);
  d.drive(1000000);
  EXPECT_TRUE(prog.finished());
  // Only the final barrier's arrive is an atomic.
  EXPECT_EQ(d.class_count(OpClass::kAtomicRmw), 1u);
}

TEST(SyntheticProgram, TwoThreadsMeetAtBarrier) {
  WorkloadProfile p = tiny_profile();
  p.num_locks = 0;
  p.cs_per_1k_ops = 0.0;
  SyncState sync(1, 1, 2);
  SpinTracker t0, t1;
  SyntheticProgram a(p, 0, 2, sync, t0, 1);
  SyntheticProgram b(p, 1, 2, sync, t1, 1);
  DirectDriver da(a, sync, 0), db(b, sync, 1);
  // Interleave both threads; neither can pass a barrier alone.
  for (int round = 0; round < 10000 && !(a.finished() && b.finished());
       ++round) {
    da.drive(4);
    db.drive(4);
  }
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(sync.barrier_episodes, 2u);  // one per iteration
}

TEST(SyntheticProgram, DeterministicForSeed) {
  const WorkloadProfile p = tiny_profile();
  SyncState s1(2, 1, 1), s2(2, 1, 1);
  SpinTracker t1, t2;
  SyntheticProgram a(p, 0, 1, s1, t1, 7);
  SyntheticProgram b(p, 0, 1, s2, t2, 7);
  for (int i = 0; i < 500; ++i) {
    MicroOp oa, ob;
    const auto sa = a.next(oa);
    const auto sb = b.next(ob);
    ASSERT_EQ(static_cast<int>(sa), static_cast<int>(sb));
    if (sa == ThreadProgram::FetchStatus::kOp) {
      EXPECT_EQ(oa.pc, ob.pc);
      EXPECT_EQ(oa.cls, ob.cls);
      EXPECT_EQ(oa.addr, ob.addr);
    }
    if (sa == ThreadProgram::FetchStatus::kOp && oa.blocks_generation) {
      a.on_value(oa, 0);
      b.on_value(ob, 0);
    }
  }
}

TEST(SyntheticProgram, ImbalanceSpreadsWork) {
  WorkloadProfile p = tiny_profile();
  p.imbalance = 0.4;
  p.ops_per_iteration = 10000;
  p.num_locks = 0;
  p.cs_per_1k_ops = 0.0;
  SyncState sync(2, 1, 4);
  // Different threads get different per-iteration op counts.
  std::set<std::uint64_t> distinct;
  for (std::uint32_t tid = 0; tid < 4; ++tid) {
    SpinTracker t;
    SyntheticProgram prog(p, tid, 4, sync, t, 1);
    MicroOp op;
    std::uint64_t count = 0;
    // Count compute ops until the thread blocks on the barrier.
    while (prog.next(op) == ThreadProgram::FetchStatus::kOp &&
           op.sync != SyncRole::kBarrierArrive) {
      ++count;
    }
    distinct.insert(count);
  }
  EXPECT_GE(distinct.size(), 3u);
}

TEST(SyntheticProgram, TrackerFollowsSyncStates) {
  WorkloadProfile p = tiny_profile();
  p.num_locks = 1;
  p.cs_per_1k_ops = 50.0;
  p.hot_lock_frac = 1.0;
  SyncState sync(1, 1, 2);
  SpinTracker tracker;
  SyntheticProgram prog(p, 0, 2, sync, tracker, 1);
  // Hold the lock externally so the program must spin.
  sync.try_acquire(0, 1);
  MicroOp op;
  bool saw_lock_acq = false;
  for (int i = 0; i < 10000 && !saw_lock_acq; ++i) {
    const auto st = prog.next(op);
    if (st == ThreadProgram::FetchStatus::kOp && op.blocks_generation) {
      if (op.sync == SyncRole::kLockTestLoad) {
        saw_lock_acq = (tracker.state() == ExecState::kLockAcq);
        prog.on_value(op, sync.read_lock(op.sync_id));
      } else if (op.sync == SyncRole::kBarrierArrive) {
        break;
      } else {
        prog.on_value(op, 0);
      }
    }
  }
  EXPECT_TRUE(saw_lock_acq);
}

// The core stops calling next() while stalled_until_value() holds (quiet
// ticks), so the promise must be exact: next() then returns kStall and
// leaves the program's state as it was, until on_value(). Blocking ops stay
// in flight for a few calls here, as they do in a core, through lock
// spinning (with its pauses), critical sections and a barrier.
TEST(SyntheticProgram, StalledUntilValueMeansNextStallsWithoutChange) {
  WorkloadProfile p = tiny_profile();
  p.num_locks = 1;
  p.cs_per_1k_ops = 50.0;
  p.hot_lock_frac = 1.0;
  SyncState sync(1, 1, 1);
  SpinTracker tracker;
  SyntheticProgram prog(p, 0, 1, sync, tracker, 1);
  sync.try_acquire(0, 1);  // another thread holds the lock for a while
  const auto saved = [&prog] {
    ByteWriter w;
    prog.save_state(w);
    return w.take();
  };
  MicroOp in_flight;
  int completes_in = 0;  // > 0 while a blocking op is in flight
  int stalled_calls = 0;
  for (int i = 0; i < 100000 && !prog.finished(); ++i) {
    if (i == 3000) sync.release(0, 1);
    if (completes_in > 0 && --completes_in == 0) {
      prog.on_value(in_flight, apply_sync(in_flight, sync, 0));
    }
    const bool stalled = prog.stalled_until_value();
    const std::string before = stalled ? saved() : std::string();
    MicroOp op;
    const auto st = prog.next(op);
    if (stalled) {
      ++stalled_calls;
      ASSERT_EQ(st, ThreadProgram::FetchStatus::kStall) << "call " << i;
      ASSERT_EQ(saved(), before) << "call " << i;
    }
    if (st == ThreadProgram::FetchStatus::kOp && op.blocks_generation) {
      in_flight = op;
      completes_in = 5;
    }
  }
  EXPECT_TRUE(prog.finished());
  EXPECT_GT(stalled_calls, 0);
}

}  // namespace
}  // namespace ptb
