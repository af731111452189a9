// SyntheticProgram: the reactive micro-op generator implementing one thread
// of a WorkloadProfile (see phases.hpp).
//
// The program is a state machine over: compute -> (test&test&set lock ->
// critical section -> release)* -> barrier arrive -> barrier spin -> next
// iteration. Spin loops are real load/branch loops against sync variables
// through the coherent memory system; the *timing* of lock handoffs and
// barrier releases therefore emerges from the simulated machine.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/thread_program.hpp"
#include "sync/spin_tracker.hpp"
#include "sync/sync_state.hpp"
#include "workloads/phases.hpp"

namespace ptb {

class SyntheticProgram final : public ThreadProgram {
 public:
  SyntheticProgram(const WorkloadProfile& profile, std::uint32_t tid,
                   std::uint32_t num_threads, SyncState& sync,
                   SpinTracker& tracker, std::uint64_t seed);

  FetchStatus next(MicroOp& out) override;
  void on_value(const MicroOp& op, std::uint64_t value) override;
  bool finished() const override { return state_ == State::kDone; }
  bool stalled_until_value() const override {
    return waiting_ && pause_left_ == 0 && queue_.empty();
  }

  // Introspection for tests.
  std::uint32_t iteration() const { return iter_; }
  std::uint64_t compute_ops_emitted() const { return compute_emitted_; }
  std::uint64_t lock_sections_entered() const { return cs_entered_; }

  // Checkpoint support (sim/checkpoint): the generator state machine, the
  // RNG and the prepared-op queue. The code template and address layout are
  // pure functions of (profile, tid, seed) and are rebuilt, not serialized.
  void save_state(ByteWriter& w) const {
    rng_.save_state(w);
    w.u32(template_pos_);
    w.u64(stride_priv_);
    w.u64(stride_shared_);
    w.u8(static_cast<std::uint8_t>(state_));
    w.u64(queue_.size());
    for (const MicroOp& op : queue_) save_microop(w, op);
    w.boolean(waiting_);
    w.u32(pause_left_);
    w.u32(iter_);
    w.u64(ops_left_);
    w.u64(cs_countdown_);
    w.u64(cs_left_);
    w.u32(current_lock_);
    w.u64(barrier_wait_sense_);
    w.boolean(in_final_barrier_);
    w.u64(compute_emitted_);
    w.u64(cs_entered_);
  }
  void load_state(ByteReader& r) {
    rng_.load_state(r);
    template_pos_ = r.u32();
    stride_priv_ = r.u64();
    stride_shared_ = r.u64();
    const std::uint8_t st = r.u8();
    if (st > static_cast<std::uint8_t>(State::kDone)) {
      r.fail();
      return;
    }
    state_ = static_cast<State>(st);
    const std::uint64_t nq = r.u64();
    if (nq > r.remaining() / 26) {  // 26 = serialized MicroOp bytes
      r.fail();
      return;
    }
    queue_.clear();
    for (std::uint64_t i = 0; i < nq; ++i) {
      MicroOp op;
      if (!load_microop(r, op)) return;
      queue_.push_back(op);
    }
    waiting_ = r.boolean();
    pause_left_ = r.u32();
    iter_ = r.u32();
    ops_left_ = r.u64();
    cs_countdown_ = r.u64();
    cs_left_ = r.u64();
    current_lock_ = r.u32();
    barrier_wait_sense_ = r.u64();
    in_final_barrier_ = r.boolean();
    compute_emitted_ = r.u64();
    cs_entered_ = r.u64();
  }

  // Address layout (public so the simulator can warm caches functionally).
  static constexpr Addr kSharedBase = 0x0100'0000;
  static constexpr Addr kPrivateBase = 0x0800'0000;
  static constexpr Addr kPrivateStride = 0x0100'0000;  // 16 MB per thread
  static constexpr Addr kCodeBase = 0x4000'0000;
  static constexpr Addr kCodeStride = 0x0010'0000;  // 1 MB per thread

  Addr code_base() const { return code_base_; }
  Addr private_base() const { return private_base_; }
  std::uint32_t code_bytes() const {
    return static_cast<std::uint32_t>(template_.size()) * 4;
  }

  /// Trains a branch predictor with each static branch's dominant direction
  /// (functional warmup companion: skips the cold-start mispredict storm on
  /// short measured runs).
  template <typename Predictor>
  void warm_predictor(Predictor& bp, std::uint32_t passes = 3) const {
    for (std::uint32_t p = 0; p < passes; ++p) {
      for (std::size_t i = 0; i < template_.size(); ++i) {
        if (template_[i].cls != OpClass::kBranch) continue;
        bp.update(code_base_ + static_cast<Addr>(i) * 4,
                  template_[i].taken_bias);
      }
    }
  }

 private:
  enum class State : std::uint8_t {
    kCompute,       // emitting compute/template ops
    kWaitingValue,  // a blocking op is in flight
    kDone,
  };

  struct TemplateOp {
    OpClass cls;
    std::uint8_t dep1;
    std::uint8_t dep2;
    bool taken_bias;  // branches: the slot's dominant direction
    bool noisy;       // branches: data-dependent (hard to predict)
  };

  void build_template();
  MicroOp make_compute_op();
  Addr data_address(bool is_store);
  void start_iteration();
  void begin_lock_acquire();
  void begin_barrier();
  void enqueue(MicroOp op);
  void after_release();
  std::uint64_t per_iter_ops(std::uint32_t iter) const;

  // Fixed PCs of the synchronization code (shared across locks/barriers,
  // like a real inlined lock routine).
  Pc pc_lock_test() const { return code_base_ + 0x8000; }
  Pc pc_lock_branch() const { return code_base_ + 0x8004; }
  Pc pc_lock_rmw() const { return code_base_ + 0x8008; }
  Pc pc_lock_release() const { return code_base_ + 0x800c; }
  Pc pc_barrier_arrive() const { return code_base_ + 0x8010; }
  Pc pc_barrier_load() const { return code_base_ + 0x8014; }
  Pc pc_barrier_branch() const { return code_base_ + 0x8018; }

  const WorkloadProfile& profile_;
  std::uint32_t tid_;
  std::uint32_t num_threads_;
  SyncState& sync_;
  SpinTracker& tracker_;
  Rng rng_;

  std::vector<TemplateOp> template_;
  std::uint32_t template_pos_ = 0;
  Addr code_base_;
  Addr private_base_;
  Addr stride_priv_ = 0;
  Addr stride_shared_ = 0;  // starts at this thread's partition

  State state_ = State::kCompute;
  std::deque<MicroOp> queue_;   // prepared ops (sync sequences)
  bool waiting_ = false;        // blocking op in flight
  std::uint32_t pause_left_ = 0;  // spin-loop PAUSE: stall cycles to insert

  /// Cycles of front-end stall between spin probes (models the PAUSE in
  /// real spin loops; lets the core clock-gate while waiting).
  static constexpr std::uint32_t kSpinPause = 6;

  std::uint32_t iter_ = 0;
  std::uint64_t ops_left_ = 0;       // compute ops left this iteration
  std::uint64_t cs_countdown_ = 0;   // compute ops until next lock section
  std::uint64_t cs_left_ = 0;        // >0: inside a critical section
  std::uint32_t current_lock_ = 0;
  std::uint64_t barrier_wait_sense_ = 0;
  bool in_final_barrier_ = false;

  std::uint64_t compute_emitted_ = 0;
  std::uint64_t cs_entered_ = 0;
};

}  // namespace ptb
