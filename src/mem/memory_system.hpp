// Per-core L1 front end (L1I + L1D, MSHRs) over the MOESI directory and the
// mesh. This is the interface the core model calls for every memory micro-op
// and instruction fetch.
//
// Concurrency model: each access computes its complete timing at issue
// ("time-warp"), reserving mesh bandwidth along the way. A per-line
// busy-until map serializes transactions that touch the same line, which is
// what preserves coherence ordering (and makes atomic RMWs atomic: their
// completion order on one line equals their processing order).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/directory.hpp"
#include "noc/mesh.hpp"

namespace ptb {

enum class MemAccessType : std::uint8_t {
  kIFetch = 0,
  kLoad,
  kStore,
  kAtomicRmw,
};

struct MemAccessResult {
  Cycle done = 0;    // cycle at which the access's value/permission is ready
  bool l1_hit = false;
};

class MemorySystem {
 public:
  MemorySystem(const SimConfig& cfg, Mesh& mesh);

  /// Performs one access for core `c` starting no earlier than `now`.
  MemAccessResult access(CoreId c, MemAccessType type, Addr addr, Cycle now);

  Cache& l1i(CoreId c) { return l1i_[c]; }
  Cache& l1d(CoreId c) { return l1d_[c]; }
  const Cache& l1i(CoreId c) const { return l1i_[c]; }
  const Cache& l1d(CoreId c) const { return l1d_[c]; }
  DirectoryController& directory() { return *dir_; }
  const DirectoryController& directory() const { return *dir_; }

  /// Verifies the single-writer/multiple-reader invariant across all L1s.
  /// Aborts via PTB_ASSERT on violation. Test/debug hook; the richer
  /// non-aborting audit lives in audit/audit.hpp (check_coherence).
  void check_swmr() const;

  /// In-flight L1 misses for core `c` (may include completed entries not
  /// yet reaped; never exceeds CacheConfig::mshrs). Auditor/tests hook.
  std::size_t mshr_in_flight(CoreId c) const {
    return mshr_outstanding_[c].size();
  }

  // --- statistics (aggregate) ---
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t atomics = 0;
  std::uint64_t ifetches = 0;
  std::uint64_t l1_misses = 0;

  /// Registers aggregate access counters under `prefix` plus every L1's
  /// hit/miss/eviction counters under `prefix`.l1i.N / .l1d.N (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support. line_busy_ is an unordered_map — it is serialized
  // in sorted-key order so equal logical state always produces equal bytes
  // (the byte-stability contract; cf. the ptb-lint unordered-iter checker).
  // ptb-lint: allow-begin(unordered-iter) — order is re-established by sort.
  void save_state(ByteWriter& w) const {
    w.u64(l1i_.size());
    for (const Cache& c : l1i_) c.save_state(w);
    for (const Cache& c : l1d_) c.save_state(w);
    dir_->save_state(w);
    std::vector<std::pair<Addr, Cycle>> busy(line_busy_.begin(),
                                             line_busy_.end());
    std::sort(busy.begin(), busy.end());
    w.u64(busy.size());
    for (const auto& [line, until] : busy) {
      w.u64(line);
      w.u64(until);
    }
    w.u64(busy_prune_countdown_);
    w.u64(mshr_outstanding_.size());
    for (const auto& q : mshr_outstanding_) {
      w.u64(q.size());
      for (const Cycle c : q) w.u64(c);
    }
    w.u64(loads);
    w.u64(stores);
    w.u64(atomics);
    w.u64(ifetches);
    w.u64(l1_misses);
  }
  // ptb-lint: allow-end
  void load_state(ByteReader& r) {
    if (r.u64() != l1i_.size()) {
      r.fail();
      return;
    }
    for (Cache& c : l1i_) c.load_state(r);
    for (Cache& c : l1d_) c.load_state(r);
    dir_->load_state(r);
    line_busy_.clear();
    const std::uint64_t nb = r.u64();
    if (nb > r.remaining() / 16) {
      r.fail();
      return;
    }
    for (std::uint64_t i = 0; i < nb; ++i) {
      const Addr line = r.u64();
      const Cycle until = r.u64();
      line_busy_[line] = until;
    }
    busy_prune_countdown_ = r.u64();
    if (r.u64() != mshr_outstanding_.size()) {
      r.fail();
      return;
    }
    for (auto& q : mshr_outstanding_) {
      const std::uint64_t nq = r.u64();
      if (nq > r.remaining() / 8) {
        r.fail();
        return;
      }
      q.assign(nq, 0);
      for (Cycle& c : q) c = r.u64();
    }
    loads = r.u64();
    stores = r.u64();
    atomics = r.u64();
    ifetches = r.u64();
    l1_misses = r.u64();
  }

 private:
  Cycle mshr_admit(CoreId c, Cycle start);
  void mshr_record(CoreId c, Cycle done);

  const SimConfig& cfg_;
  Mesh& mesh_;
  std::vector<Cache> l1i_;
  std::vector<Cache> l1d_;
  std::unique_ptr<DirectoryController> dir_;
  std::unordered_map<Addr, Cycle> line_busy_;
  std::uint64_t busy_prune_countdown_;
  std::vector<std::vector<Cycle>> mshr_outstanding_;  // per core
};

}  // namespace ptb
