// Cycle-level out-of-order core model (GEMS/Opal stand-in).
//
// Four-stage abstraction of the paper's 14-stage, 4-wide OoO pipeline:
//   fetch/dispatch -> issue -> execute (FU or memory) -> commit
// with a 128-entry ROB, a 64-entry LSQ occupancy bound, gshare branch
// prediction (mispredicts flush the front end for the pipeline depth), and
// per-cycle power-token accounting (exact for energy results, PTHT-estimated
// for the control mechanisms — Section III.B of the paper).
//
// The core exposes the throttle knob the 2-level controller drives
// (effective fetch width, 0 = fetch-gated) and reports per-tick activity for
// the power model.
#pragma once

#include <array>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "cpu/branch_predictor.hpp"
#include "cpu/functional_units.hpp"
#include "cpu/thread_program.hpp"
#include "isa/microop.hpp"
#include "mem/memory_system.hpp"
#include "power/power_model.hpp"
#include "power/ptht.hpp"
#include "sync/bct_detector.hpp"
#include "sync/sync_state.hpp"

namespace ptb {

class StatsRegistry;

class Core {
 public:
  Core(CoreId id, const SimConfig& cfg, MemorySystem& mem, SyncState& sync,
       ThreadProgram& program, const BaseEnergyModel& energy);

  /// Advance the core by one (core-clock) cycle at global cycle `now`.
  /// The caller (CMP) handles frequency scaling by skipping ticks.
  /// Completion delivery and commit run first, then issue (memory
  /// accesses go straight to the memory system) and fetch.
  ///
  /// Quiet ticks: when a full tick changed nothing and fetch stopped for a
  /// reason only a completion or the front-end stall can end, every tick
  /// before `quiet_until_` would repeat it exactly, so it only bumps the
  /// counters that tick bumped (see full_tick).
  void tick(Cycle now) {
    if (now < quiet_until_) {
      ++ticks;
      fetch_exact_ = 0.0;
      fetch_est_ = 0.0;
      commit_exact_ = 0.0;
      if (quiet_stall_ != nullptr) ++(this->*quiet_stall_);
      idle_ = rob_count_ == 0;
      return;
    }
    full_tick(now);
  }

  bool finished() const { return program_finished_ && rob_count_ == 0; }

  // --- per-tick activity (valid after tick(); reset at each tick) ---
  /// Exact tokens charged this tick: committed ops' base + ROB residency
  /// (the paper accounts consumption at the commit stage, Section III.B).
  double commit_tokens_exact() const { return commit_exact_; }
  /// PTHT-estimated tokens of the ops fetched this tick (the control
  /// signal: "accumulating the power-tokens of each instruction fetched").
  double fetch_tokens_estimated() const { return fetch_est_; }
  double fetch_tokens_exact() const { return fetch_exact_; }
  std::uint32_t rob_occupancy() const { return rob_count_; }
  /// True when the core did nothing this tick (empty ROB, no fetch): the
  /// clock-gating candidate state.
  bool idle() const { return idle_; }

  // --- introspection for the invariant auditor (src/audit) and tests ---
  std::uint32_t lsq_occupancy() const { return lsq_count_; }
  /// Oldest in-flight sequence number; advances only at commit, so it
  /// always equals `committed` (in-order retirement invariant).
  std::uint64_t head_seq() const { return head_seq_; }
  const FunctionalUnits& fus() const { return fus_; }
  /// Ticks before this cycle repeat the last full tick (0 = no window).
  Cycle quiet_until() const { return quiet_until_; }

  // --- throttle knobs (microarchitectural power-saving techniques) ---
  /// A new limit ends a quiet window: fetch may now go further (or stop
  /// earlier) than the tick that opened it.
  void set_fetch_limit(std::uint32_t w) {
    if (w == fetch_limit_) return;
    fetch_limit_ = w;
    quiet_until_ = 0;
  }
  std::uint32_t fetch_limit() const { return fetch_limit_; }

  /// Enables/disables accumulation of the PTHT fetch estimate (the control
  /// signal). The simulator turns it off when nothing consumes the estimate
  /// (no PTB, no budget enforcer, no tracer/auditor), which removes the
  /// per-op PTHT lookup from the fetch path. Commit-side PTHT updates
  /// continue regardless, so the table stays warm for introspection.
  void set_estimate_fetch(bool on) { estimate_fetch_ = on; }

  /// One-line diagnostic of the pipeline state (debugging aid).
  std::string debug_string(Cycle now) const;

  CoreId id() const { return id_; }
  Ptht& ptht() { return ptht_; }
  const Ptht& ptht() const { return ptht_; }
  GsharePredictor& predictor() { return predictor_; }
  BctDetector& bct() { return bct_; }

  // --- statistics ---
  std::uint64_t committed = 0;
  std::uint64_t fetched = 0;
  std::uint64_t flushes = 0;
  std::uint64_t ticks = 0;
  // Fetch-stall attribution (ticks where no op was dispatched, by cause).
  std::uint64_t stall_branch = 0;   // waiting on mispredict resolution
  std::uint64_t stall_front = 0;    // fetch_blocked_until_ (I-miss, refill)
  std::uint64_t stall_program = 0;  // generator kStall (blocking op in flight)
  std::uint64_t stall_rob = 0;      // ROB full
  std::uint64_t stall_lsq = 0;      // LSQ full
  Cycle finish_cycle = 0;  // set by the CMP when the program completes

  /// Registers the pipeline counters, occupancy gauges and the PTHT's
  /// counters under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support (sim/checkpoint): pipeline, predictor, PTHT and BCT
  // state. Per-tick scratch, the base-cost memo, the FU pools (reset at
  // the start of every tick) and the quiet window are rebuilt, not
  // serialized: a loaded core runs its next tick in full. Must only be
  // called at a cycle boundary.
  void save_state(ByteWriter& w) const;
  void load_state(ByteReader& r);

 private:
  // Sequence-number sentinel: the end of the unissued list.
  static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

  struct RobEntry {
    MicroOp op;
    Cycle dispatched_at = 0;
    // Set at issue, always to a later cycle than the issuing tick;
    // kNeverCycle while unissued. The result is ready (for dependents and
    // for commit) at any tick with complete_at <= now.
    Cycle complete_at = kNeverCycle;
    // While unissued: the seq of the next younger unissued op (kNoSeq at
    // the list tail). Meaningless once issued.
    std::uint64_t next_unissued = kNoSeq;
  };

  /// ROB slot for a sequence number. rob_entries is a power of two in every
  /// shipped config, making the wraparound a single AND; every dependency
  /// check and every unissued-list step maps a seq to its slot, and the
  /// hardware divide of the generic path would sit on both.
  std::size_t rob_index(std::uint64_t seq) const {
    return rob_mask_ != 0 ? (seq & rob_mask_) : (seq % rob_.size());
  }
  RobEntry& entry(std::uint64_t seq) { return rob_[rob_index(seq)]; }

  // Memo of the energy model's per-static-instruction costs. exact_base is
  // a 64-bit mix + multiply and grouped_of a centroid binary search, both
  // recomputed per fetch and per commit of the same static PCs; a
  // direct-mapped cache makes the repeat cost two loads. Sized so the
  // default workload footprint (1024 template slots at stride 4 plus the
  // sync handlers at +0x8000) maps collision-free; larger footprints only
  // cost recomputes, never correctness (tag-checked on pc and, defensively,
  // cls). Only touched entries occupy data cache.
  struct BaseCost {
    Pc tag = 0;
    std::uint8_t cls_tag = 0;  // OpClass value + 1; 0 = empty
    double exact = 0.0;
    double grouped = 0.0;
  };
  static constexpr std::size_t kBaseCostEntries = 16384;

  const BaseCost& base_cost(OpClass cls, Pc pc) {
    BaseCost& e = base_costs_[(pc >> 2) & (kBaseCostEntries - 1)];
    const std::uint8_t ct = static_cast<std::uint8_t>(cls) + 1;
    if (e.tag != pc || e.cls_tag != ct) {
      e.tag = pc;
      e.cls_tag = ct;
      e.exact = energy_.exact_base(cls, pc);
      e.grouped = energy_.grouped_of(e.exact);
    }
    return e;
  }

  void full_tick(Cycle now);
  /// The stages. process_completions returns whether it popped an event,
  /// do_issue whether any op in the issue window was deps-ready (issued or
  /// not), and do_fetch whether it dispatched nothing and stopped for a
  /// reason only a completion or fetch_blocked_until_ can end (recording
  /// the stall counter it bumped in quiet_stall_).
  bool process_completions(Cycle now);
  void do_commit(Cycle now);
  bool do_issue(Cycle now);
  bool do_fetch(Cycle now);
  /// Bumps a fetch-stall counter and records it for the quiet ticks.
  bool stable_stall(std::uint64_t Core::*counter) {
    ++(this->*counter);
    quiet_stall_ = counter;
    return true;
  }
  /// First cycle after `now` at which a tick can differ from the one just
  /// run: the earliest in-flight completion, capped by the front-end stall.
  Cycle quiet_end(Cycle now) const;
  void deliver_value(const MicroOp& op);
  void append_unissued(std::uint64_t seq);
  bool deps_ready(std::uint64_t seq, const MicroOp& op, Cycle now) const;

  CoreId id_;
  const SimConfig& cfg_;
  MemorySystem& mem_;
  SyncState& sync_;
  ThreadProgram& program_;
  const BaseEnergyModel& energy_;

  GsharePredictor predictor_;
  FunctionalUnits fus_;
  Ptht ptht_;
  BctDetector bct_;

  std::vector<RobEntry> rob_;
  std::uint64_t rob_mask_ = 0;   // size-1 when size is a power of two
  std::uint64_t head_seq_ = 0;   // oldest in-flight op
  std::uint32_t rob_count_ = 0;
  std::uint32_t lsq_count_ = 0;  // memory ops resident in the ROB

  // Unissued ops in age order, threaded through the ROB slots
  // (RobEntry::next_unissued): appended at dispatch, unlinked at issue, so
  // the issue stage visits only ops that may still issue. kNoSeq when empty.
  std::uint64_t unissued_head_ = kNoSeq;
  std::uint64_t unissued_tail_ = kNoSeq;

  // Completions with side effects, popped in (cycle, seq) order: blocking
  // ops (value delivery to the program) and the mispredicted branch
  // (front-end refill). Every other op is complete by its complete_at alone.
  using CompletionEvent = std::pair<Cycle, std::uint64_t>;  // (cycle, seq)
  std::priority_queue<CompletionEvent, std::vector<CompletionEvent>,
                      std::greater<>>
      completions_;

  // Fetch state.
  bool program_finished_ = false;
  bool has_pending_op_ = false;  // op pulled from the program, not dispatched
  MicroOp pending_op_{};
  Cycle fetch_blocked_until_ = 0;       // front-end stall (I-miss / refill)
  bool waiting_branch_resolve_ = false; // mispredict in flight
  std::uint64_t mispredict_seq_ = 0;    // seq of the mispredicted branch
  std::uint32_t fetch_limit_;

  // Per-tick power accounting.
  double fetch_exact_ = 0.0;
  double fetch_est_ = 0.0;
  double commit_exact_ = 0.0;
  bool idle_ = false;
  bool estimate_fetch_ = true;

  // Quiet window: ticks before quiet_until_ repeat the last full tick
  // (0 = none). quiet_stall_ is the fetch-stall counter that tick bumped,
  // or nullptr.
  Cycle quiet_until_ = 0;
  std::uint64_t Core::*quiet_stall_ = nullptr;

  std::array<BaseCost, kBaseCostEntries> base_costs_{};
};

}  // namespace ptb
