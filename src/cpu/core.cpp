#include "cpu/core.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "stats/stats.hpp"

namespace ptb {

namespace {
// Expected ROB residency added to cold PTHT estimates (cycles).
constexpr double kColdResidencyGuess = 16.0;
// Issue window: sequence numbers [oldest unissued, oldest unissued + 32).
constexpr std::uint64_t kIssueScanWindow = 32;
}  // namespace

Core::Core(CoreId id, const SimConfig& cfg, MemorySystem& mem,
           SyncState& sync, ThreadProgram& program,
           const BaseEnergyModel& energy)
    : id_(id), cfg_(cfg), mem_(mem), sync_(sync), program_(program),
      energy_(energy), predictor_(cfg.core), fus_(cfg.core),
      ptht_(cfg.power.ptht_entries), rob_(cfg.core.rob_entries),
      rob_mask_((cfg.core.rob_entries & (cfg.core.rob_entries - 1)) == 0
                    ? cfg.core.rob_entries - 1
                    : 0),
      fetch_limit_(cfg.core.fetch_width) {}

bool Core::deps_ready(std::uint64_t seq, const MicroOp& op,
                      Cycle now) const {
  // seq < head_seq_ + dist <=> seq - dist < head_seq_: the producer is
  // already committed (and the test also guards the unsigned underflow).
  const std::uint8_t d1 = op.dep1;
  if (d1 != 0 && seq >= head_seq_ + d1 &&
      rob_[rob_index(seq - d1)].complete_at > now) {
    return false;
  }
  const std::uint8_t d2 = op.dep2;
  if (d2 != 0 && seq >= head_seq_ + d2 &&
      rob_[rob_index(seq - d2)].complete_at > now) {
    return false;
  }
  return true;
}

void Core::deliver_value(const MicroOp& op) {
  std::uint64_t value = 0;
  switch (op.sync) {
    case SyncRole::kLockTestLoad:
      value = sync_.read_lock(op.sync_id);
      break;
    case SyncRole::kLockTryAcquire:
      value = sync_.try_acquire(op.sync_id, id_);
      break;
    case SyncRole::kLockRelease:
      sync_.release(op.sync_id, id_);
      break;
    case SyncRole::kBarrierArrive:
      value = sync_.arrive(op.sync_id, id_);
      break;
    case SyncRole::kBarrierSpinLoad:
      value = sync_.read_sense(op.sync_id);
      break;
    case SyncRole::kNone:
      break;  // plain blocking load: value is irrelevant to the generator
  }
  program_.on_value(op, value);
}

bool Core::process_completions(Cycle now) {
  bool popped = false;
  while (!completions_.empty() && completions_.top().first <= now) {
    const std::uint64_t seq = completions_.top().second;
    completions_.pop();
    popped = true;
    const RobEntry& e = entry(seq);
    if (e.op.blocks_generation) deliver_value(e.op);
    if (waiting_branch_resolve_ && seq == mispredict_seq_) {
      // The front end refills after resolution (14-stage pipeline).
      waiting_branch_resolve_ = false;
      fetch_blocked_until_ =
          std::max(fetch_blocked_until_,
                   e.complete_at + cfg_.core.pipeline_stages);
    }
  }
  return popped;
}

void Core::do_commit(Cycle now) {
  for (std::uint32_t n = 0; n < cfg_.core.commit_width && rob_count_ > 0;
       ++n) {
    RobEntry& e = entry(head_seq_);
    if (e.complete_at > now) break;
    // Power-token accounting at commit: base cost + ROB residency
    // (Section III.B). The PTHT stores the last execution's cost.
    const double residency =
        static_cast<double>(now - e.dispatched_at) *
        cfg_.power.residency_token;
    const BaseCost& bc = base_cost(e.op.cls, e.op.pc);
    ptht_.update(e.op.pc, bc.grouped + residency);
    commit_exact_ += bc.exact + residency;
    bct_.on_commit(e.op);
    if (e.op.is_memory()) --lsq_count_;
    ++head_seq_;
    --rob_count_;
    ++committed;
  }
}

void Core::append_unissued(std::uint64_t seq) {
  entry(seq).next_unissued = kNoSeq;
  (unissued_tail_ == kNoSeq ? unissued_head_
                            : entry(unissued_tail_).next_unissued) = seq;
  unissued_tail_ = seq;
}

bool Core::do_issue(Cycle now) {
  fus_.begin_cycle();
  // The issue window starts at the oldest unissued op (the ROB tail when
  // none is unissued).
  const std::uint64_t window_start =
      unissued_head_ != kNoSeq ? unissued_head_ : head_seq_ + rob_count_;
  const std::uint64_t window_end = window_start + kIssueScanWindow;
  const std::uint32_t issue_width = cfg_.core.issue_width;
  std::uint32_t issued = 0;
  bool any_ready = false;
  // Walk the unissued list oldest first; kNoSeq ends it (it is larger
  // than any window end).
  std::uint64_t prev = kNoSeq;  // last op walked past, still unissued
  for (std::uint64_t seq = unissued_head_;
       seq < window_end && issued < issue_width;) {
    RobEntry& e = entry(seq);
    const std::uint64_t next = e.next_unissued;
    const bool ready = deps_ready(seq, e.op, now);
    any_ready |= ready;
    if (!ready || !fus_.try_issue(e.op.cls)) {
      prev = seq;
      seq = next;
      continue;
    }

    Cycle complete_at;
    if (e.op.is_memory()) {
      MemAccessType type;
      switch (e.op.cls) {
        case OpClass::kLoad: type = MemAccessType::kLoad; break;
        case OpClass::kStore: type = MemAccessType::kStore; break;
        default: type = MemAccessType::kAtomicRmw; break;
      }
      // Plain stores retire into the store buffer; the write itself
      // proceeds in the background (its protocol work is already timed).
      const bool plain_store =
          (e.op.cls == OpClass::kStore && e.op.sync == SyncRole::kNone);
      // +1 cycle of address generation before the cache access.
      const MemAccessResult r = mem_.access(id_, type, e.op.addr, now + 1);
      complete_at = plain_store ? now + 1 : r.done;
    } else {
      complete_at = now + fus_.latency(e.op.cls);
    }
    // Readiness and commit test complete_at <= now, which must not hold
    // during the issuing tick.
    PTB_ASSERT(complete_at > now, "op completes in its own issue cycle");
    e.complete_at = complete_at;
    if (e.op.blocks_generation ||
        (waiting_branch_resolve_ && seq == mispredict_seq_)) {
      completions_.emplace(complete_at, seq);
    }
    ++issued;

    (prev == kNoSeq ? unissued_head_ : entry(prev).next_unissued) = next;
    if (next == kNoSeq) unissued_tail_ = prev;
    seq = next;
  }
  return any_ready;
}

bool Core::do_fetch(Cycle now) {
  quiet_stall_ = nullptr;
  if (program_finished_ && !has_pending_op_) return true;
  if (waiting_branch_resolve_) return stable_stall(&Core::stall_branch);
  if (now < fetch_blocked_until_) return stable_stall(&Core::stall_front);

  const std::uint32_t width =
      std::min(fetch_limit_, cfg_.core.fetch_width);
  if (width == 0) return true;
  bool icache_checked = false;
  std::uint32_t dispatched = 0;
  for (std::uint32_t n = 0; n < width; ++n) {
    if (rob_count_ >= rob_.size()) {  // ROB full
      if (dispatched == 0) return stable_stall(&Core::stall_rob);
      break;
    }

    // Each pass dispatches or leaves the loop, so dispatched == 0 marks the
    // first pass. A pending op has already been pulled and LSQ-checked.
    const bool was_pending = has_pending_op_;
    MicroOp op;
    if (has_pending_op_) {
      op = pending_op_;
      has_pending_op_ = false;
    } else {
      MicroOp fresh;
      const auto st = program_.next(fresh);
      if (st == ThreadProgram::FetchStatus::kFinished) {
        program_finished_ = true;
        return dispatched == 0;
      }
      if (st == ThreadProgram::FetchStatus::kStall) {
        if (dispatched == 0) {
          stable_stall(&Core::stall_program);
          return program_.stalled_until_value();
        }
        break;
      }
      op = fresh;
    }

    // LSQ occupancy bound.
    if (op.is_memory() && lsq_count_ >= cfg_.core.lsq_entries) {
      pending_op_ = op;
      has_pending_op_ = true;
      if (dispatched == 0) {
        stable_stall(&Core::stall_lsq);
        return was_pending;
      }
      break;
    }

    // One L1I probe per fetch group; a miss stalls the front end until the
    // fill returns.
    if (!icache_checked) {
      icache_checked = true;
      const MemAccessResult r =
          mem_.access(id_, MemAccessType::kIFetch, op.pc, now);
      if (!r.l1_hit) {
        pending_op_ = op;
        has_pending_op_ = true;
        fetch_blocked_until_ = r.done;
        break;
      }
    }

    // Dispatch.
    const std::uint64_t seq = head_seq_ + rob_count_;
    RobEntry& e = entry(seq);
    e.op = op;
    e.dispatched_at = now;
    e.complete_at = kNeverCycle;
    append_unissued(seq);
    ++rob_count_;
    if (op.is_memory()) ++lsq_count_;
    ++fetched;
    ++dispatched;

    const BaseCost& bc = base_cost(op.cls, op.pc);
    fetch_exact_ += bc.exact;
    if (estimate_fetch_) {
      // Lazy cold default: the grouped cost is only consulted on a PTHT
      // miss, so the warm path is a single inline-cache probe.
      double est;
      fetch_est_ += ptht_.lookup_hit(op.pc, est)
                        ? est
                        : bc.grouped + kColdResidencyGuess;
    }

    if (op.is_branch()) {
      const bool predicted = predictor_.predict(op.pc);
      predictor_.update(op.pc, op.branch_taken);
      if (predicted != op.branch_taken) {
        ++flushes;
        waiting_branch_resolve_ = true;
        mispredict_seq_ = seq;
        break;  // no wrong-path fetch; the bubble lasts until resolve+refill
      }
    }
  }
  return false;
}

std::string Core::debug_string(Cycle now) const {
  char buf[256];
  const RobEntry* head = rob_count_ ? &rob_[rob_index(head_seq_)] : nullptr;
  std::snprintf(
      buf, sizeof(buf),
      "core%u rob=%u lsq=%u progfin=%d pend=%d fblock=%llu wbr=%d "
      "head={cls=%d issued=%d at=%llu} now=%llu",
      id_, rob_count_, lsq_count_, program_finished_ ? 1 : 0,
      has_pending_op_ ? 1 : 0,
      static_cast<unsigned long long>(fetch_blocked_until_),
      waiting_branch_resolve_ ? 1 : 0,
      head ? static_cast<int>(head->op.cls) : -1,
      head && head->complete_at != kNeverCycle ? 1 : 0,
      head ? static_cast<unsigned long long>(head->complete_at) : 0,
      static_cast<unsigned long long>(now));
  return buf;
}

void Core::register_stats(StatsRegistry& reg,
                          const std::string& prefix) const {
  reg.counter(prefix + ".committed", "micro-ops committed", &committed);
  reg.counter(prefix + ".fetched", "micro-ops fetched", &fetched);
  reg.counter(prefix + ".flushes", "pipeline flushes (mispredicts)",
              &flushes);
  reg.counter(prefix + ".ticks", "core-clock cycles executed", &ticks);
  reg.counter(prefix + ".stall.branch",
              "fetch ticks lost to mispredict resolution", &stall_branch);
  reg.counter(prefix + ".stall.front", "fetch ticks lost to I-miss/refill",
              &stall_front);
  reg.counter(prefix + ".stall.program", "fetch ticks lost to blocking ops",
              &stall_program);
  reg.counter(prefix + ".stall.rob", "fetch ticks lost to a full ROB",
              &stall_rob);
  reg.counter(prefix + ".stall.lsq", "fetch ticks lost to a full LSQ",
              &stall_lsq);
  reg.gauge_fn(prefix + ".rob.occupancy", "instructions resident in the ROB",
               [this] { return static_cast<double>(rob_count_); }, 0);
  reg.gauge_fn(prefix + ".lsq.occupancy", "memory ops resident in the ROB",
               [this] { return static_cast<double>(lsq_count_); }, 0);
  ptht_.register_stats(reg, prefix + ".ptht");
}

Cycle Core::quiet_end(Cycle now) const {
  Cycle end = fetch_blocked_until_ > now ? fetch_blocked_until_ : kNeverCycle;
  for (std::uint64_t s = head_seq_; s < head_seq_ + rob_count_; ++s) {
    const Cycle c = rob_[rob_index(s)].complete_at;
    if (c > now && c < end) {
      end = c;
      if (end == now + 1) break;  // nothing can come sooner
    }
  }
  return end;
}

void Core::full_tick(Cycle now) {
  ++ticks;
  fetch_exact_ = 0.0;
  fetch_est_ = 0.0;
  commit_exact_ = 0.0;
  const std::uint32_t rob_before = rob_count_;
  const std::uint64_t committed_before = committed;

  const bool popped = process_completions(now);
  do_commit(now);
  const bool any_ready = do_issue(now);
  const bool fetch_stopped = do_fetch(now);

  idle_ = (rob_before == 0 && rob_count_ == 0);
  // A tick that popped no event, committed nothing, found no ready op and
  // dispatched nothing leaves the state it started from, and the stage
  // inputs that move with time (complete_at <= now, fetch_blocked_until_)
  // cannot change before quiet_end. Memory and sync state reach the core
  // only through issue, fetch and value delivery, none of which runs; the
  // fetch limit, the one outside write, ends the window itself.
  const bool quiet = !popped && committed == committed_before &&
                     !any_ready && fetch_stopped;
  quiet_until_ = quiet ? quiet_end(now) : 0;
}

void Core::save_state(ByteWriter& w) const {
  predictor_.save_state(w);
  ptht_.save_state(w);
  bct_.save_state(w);
  // In-flight ROB window: sequence numbers [head_seq_, head_seq_+rob_count_).
  w.u64(head_seq_);
  w.u32(rob_count_);
  w.u32(lsq_count_);
  for (std::uint64_t s = head_seq_; s < head_seq_ + rob_count_; ++s) {
    const RobEntry& e = rob_[rob_index(s)];
    save_microop(w, e.op);
    w.u64(e.dispatched_at);
    w.u64(e.complete_at);
  }
  // Side-effect completion events, drained from a copy in heap order: pop
  // order is a deterministic function of the (cycle, seq) keys, which are
  // unique. The unissued list is not stored; load_state rebuilds it.
  {
    auto copy = completions_;
    w.u64(copy.size());
    while (!copy.empty()) {
      w.u64(copy.top().first);
      w.u64(copy.top().second);
      copy.pop();
    }
  }
  w.boolean(program_finished_);
  w.boolean(has_pending_op_);
  save_microop(w, pending_op_);
  w.u64(fetch_blocked_until_);
  w.boolean(waiting_branch_resolve_);
  w.u64(mispredict_seq_);
  w.u32(fetch_limit_);
  w.u64(committed);
  w.u64(fetched);
  w.u64(flushes);
  w.u64(ticks);
  w.u64(stall_branch);
  w.u64(stall_front);
  w.u64(stall_program);
  w.u64(stall_rob);
  w.u64(stall_lsq);
  w.u64(finish_cycle);
}

void Core::load_state(ByteReader& r) {
  predictor_.load_state(r);
  ptht_.load_state(r);
  bct_.load_state(r);
  head_seq_ = r.u64();
  const std::uint32_t nrob = r.u32();
  const std::uint32_t nlsq = r.u32();
  if (!r.ok() || nrob > rob_.size() || nlsq > nrob) {
    r.fail();
    return;
  }
  for (RobEntry& e : rob_) e = RobEntry{};
  rob_count_ = nrob;
  lsq_count_ = nlsq;
  unissued_head_ = kNoSeq;
  unissued_tail_ = kNoSeq;
  for (std::uint64_t s = head_seq_; s < head_seq_ + rob_count_; ++s) {
    RobEntry& e = rob_[rob_index(s)];
    if (!load_microop(r, e.op)) return;
    e.dispatched_at = r.u64();
    e.complete_at = r.u64();
    if (e.complete_at == kNeverCycle) append_unissued(s);
  }
  completions_ = decltype(completions_)();
  const std::uint64_t nc = r.u64();
  if (nc > r.remaining() / 16) {
    r.fail();
    return;
  }
  for (std::uint64_t i = 0; i < nc; ++i) {
    const Cycle at = r.u64();
    const std::uint64_t seq = r.u64();
    completions_.emplace(at, seq);
  }
  program_finished_ = r.boolean();
  has_pending_op_ = r.boolean();
  if (!load_microop(r, pending_op_)) return;
  fetch_blocked_until_ = r.u64();
  waiting_branch_resolve_ = r.boolean();
  mispredict_seq_ = r.u64();
  fetch_limit_ = r.u32();
  quiet_until_ = 0;
  committed = r.u64();
  fetched = r.u64();
  flushes = r.u64();
  ticks = r.u64();
  stall_branch = r.u64();
  stall_front = r.u64();
  stall_program = r.u64();
  stall_rob = r.u64();
  stall_lsq = r.u64();
  finish_cycle = r.u64();
}

}  // namespace ptb
