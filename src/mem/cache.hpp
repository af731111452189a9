// Set-associative cache array with per-line MOESI state and LRU replacement.
// Used for L1I, L1D and the L2 banks (the L2 additionally embeds directory
// metadata, see mem/directory.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

class StatsRegistry;

enum class CoherenceState : std::uint8_t {
  kInvalid = 0,
  kShared,
  kExclusive,
  kOwned,
  kModified,
};

const char* coherence_state_name(CoherenceState s);

/// True for states that hold a dirty copy that must be written back.
inline bool is_dirty(CoherenceState s) {
  return s == CoherenceState::kModified || s == CoherenceState::kOwned;
}

/// True for states allowed to supply data / act as owner.
inline bool is_owner_state(CoherenceState s) {
  return s == CoherenceState::kModified || s == CoherenceState::kOwned ||
         s == CoherenceState::kExclusive;
}

class Cache {
 public:
  /// `size_bytes` / `assoc` / `line_bytes` as in CacheConfig.
  /// `index_shift` drops low line-address bits from the set index — banked
  /// caches (the L2) pass log2(num_banks) so the bank-selection bits do not
  /// also constrain the set, which would waste 1/num_banks of the sets.
  Cache(std::uint32_t size_bytes, std::uint32_t assoc,
        std::uint32_t line_bytes, std::uint32_t index_shift = 0);

  struct Line {
    Addr tag = 0;                  // line address (addr >> line_shift)
    CoherenceState state = CoherenceState::kInvalid;
    std::uint64_t lru = 0;         // larger = more recently used
    // Directory metadata (used only by L2 banks).
    std::uint32_t sharers = 0;     // bitmask of cores with an S copy
    CoreId owner = kNoCore;        // core holding M/E/O, if any
  };
  /// Most cores the sharer bitmask can track: the directory's core cap.
  static constexpr std::uint32_t kMaxSharers = 8 * sizeof(Line::sharers);

  /// Line address (tag) for a byte address.
  Addr line_of(Addr a) const { return a >> line_shift_; }

  /// Find a resident line; nullptr on miss. Touches LRU when found.
  Line* find(Addr a);
  const Line* find(Addr a) const;

  /// Insert a line (must not be resident); returns the evicted line by value
  /// (state kInvalid if the set had a free way).
  Line insert(Addr a, CoherenceState st);

  /// Drop a line if resident.
  void invalidate(Addr a);

  std::uint32_t num_sets() const { return sets_; }
  std::uint32_t assoc() const { return assoc_; }
  std::uint32_t line_bytes() const { return 1u << line_shift_; }

  /// All backing lines (set-major); for invariant checks and tests.
  const std::vector<Line>& all_lines() const { return lines_; }

  // Statistics.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  /// Registers hit/miss/eviction counters under `prefix` (src/stats).
  void register_stats(StatsRegistry& reg, const std::string& prefix) const;

  // Checkpoint support: every line (fields individually — the struct has
  // padding), the LRU clock and the counters. Geometry is configuration and
  // must match (validated against the line count).
  void save_state(ByteWriter& w) const {
    w.u64(lines_.size());
    for (const Line& l : lines_) {
      w.u64(l.tag);
      w.u8(static_cast<std::uint8_t>(l.state));
      w.u64(l.lru);
      w.u32(l.sharers);
      w.u32(l.owner);
    }
    w.u64(lru_clock_);
    w.u64(hits);
    w.u64(misses);
    w.u64(evictions);
  }
  void load_state(ByteReader& r) {
    if (r.u64() != lines_.size()) {
      r.fail();
      return;
    }
    for (Line& l : lines_) {
      l.tag = r.u64();
      const std::uint8_t s = r.u8();
      if (s > static_cast<std::uint8_t>(CoherenceState::kModified)) {
        r.fail();
        return;
      }
      l.state = static_cast<CoherenceState>(s);
      l.lru = r.u64();
      l.sharers = r.u32();
      l.owner = r.u32();
    }
    lru_clock_ = r.u64();
    hits = r.u64();
    misses = r.u64();
    evictions = r.u64();
  }

 private:
  std::uint32_t set_of(Addr line) const {
    if (index_shift_ != 0) {
      // Banked caches (the L2) use hashed set indexing (as real last-level
      // caches do) so region bases aligned to large powers of two — whose
      // distinguishing bits sit above the plain index — do not alias into
      // the same few sets.
      const Addr x = (line >> index_shift_) * 0x9e3779b97f4a7c15ull;
      return static_cast<std::uint32_t>(x >> 32) & (sets_ - 1);
    }
    return static_cast<std::uint32_t>(line) & (sets_ - 1);
  }

  std::uint32_t sets_;
  std::uint32_t assoc_;
  std::uint32_t line_shift_;
  std::uint32_t index_shift_;
  std::uint64_t lru_clock_ = 0;
  std::vector<Line> lines_;  // sets_ * assoc_, set-major
};

}  // namespace ptb
