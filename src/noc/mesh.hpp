// 2D-mesh interconnect model (Table 1: 4-cycle links, 4-byte flits,
// 1 flit/cycle/link, XY dimension-order routing).
//
// The mesh is modeled at message granularity with per-link bandwidth
// reservation: a message serializes into flits, each traversed link is
// reserved for the serialization time, and queuing behind earlier messages
// is captured by the link's next-free cycle. This reproduces hop latency and
// contention without per-flit event simulation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

class StatsRegistry;

class Mesh {
 public:
  Mesh(const NocConfig& cfg, std::uint32_t width, std::uint32_t height);

  /// Number of nodes.
  std::uint32_t nodes() const { return width_ * height_; }

  /// Manhattan hop distance between two nodes.
  std::uint32_t hops(std::uint32_t from, std::uint32_t to) const;

  /// Routes a message of `bytes` from `from` to `to`, departing at `now`.
  /// Reserves bandwidth on every traversed link and returns the cycle at
  /// which the full message has arrived at `to`.
  Cycle route(std::uint32_t from, std::uint32_t to, std::uint32_t bytes,
              Cycle now);

  /// Unloaded latency for a message of `bytes` over `h` hops (no contention).
  Cycle unloaded_latency(std::uint32_t h, std::uint32_t bytes) const;

  // --- statistics ---
  std::uint64_t total_messages() const { return messages_; }
  std::uint64_t total_flit_hops() const { return flit_hops_; }
  /// Flit-hops injected since the last call (for activity-based NoC power).
  std::uint64_t drain_flit_hops();

  /// Registers message/flit-hop counters under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support: link reservations + counters.
  void save_state(ByteWriter& w) const {
    w.u64_vec(link_free_);
    w.u64(messages_);
    w.u64(flit_hops_);
    w.u64(flit_hops_drained_);
  }
  void load_state(ByteReader& r) {
    std::vector<Cycle> lf;
    r.u64_vec(lf);
    if (lf.size() != link_free_.size()) {
      r.fail();
      return;
    }
    link_free_ = std::move(lf);
    messages_ = r.u64();
    flit_hops_ = r.u64();
    flit_hops_drained_ = r.u64();
  }

 private:
  std::uint32_t flits_for(std::uint32_t bytes) const;
  // Directed link id for a hop from node n toward +x/-x/+y/-y.
  std::uint32_t link_id(std::uint32_t node, std::uint32_t dir) const;

  NocConfig cfg_;
  std::uint32_t width_;
  std::uint32_t height_;
  std::vector<Cycle> link_free_;  // per directed link
  std::uint64_t messages_ = 0;
  std::uint64_t flit_hops_ = 0;
  std::uint64_t flit_hops_drained_ = 0;
};

}  // namespace ptb
