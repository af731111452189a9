// Full-state checkpoint frames for CmpSimulator (byte-stable, corrupt-
// rejecting). Restore-exactness is the contract: a run restored from a
// mid-run checkpoint produces the same RunResult bytes as the
// uninterrupted run (asserted by tests/sim/checkpoint_test.cpp), which
// makes the frame the completeness oracle for every component's
// save/restore hooks.
//
// Frame layout, following the trace subsystem's serialization idiom
// (little-endian, fields written individually — never structs, padding is
// indeterminate; see trace/trace.hpp):
//
//   u32 magic "PTBC"   u32 version   u64 payload_len   u64 fnv1a(payload)
//   payload:
//     u64 checkpoint_fingerprint     (machine+seed+bench+cycle digest)
//     u64 machine_fingerprint        u64 config_fingerprint
//     u64 seed   u32 num_cores   u64 cycle   str benchmark
//     u64 num_sections
//     sections: (u32 tag, u64 length, bytes) ...
//
// Sections are independently parseable: a reader skips unknown tags (a
// newer writer's extra sections degrade to freshly-constructed state) and
// every section loader bounds-checks against its own length. The outer
// checksum catches bit-flips; the length field catches truncation; both
// are exercised by the fault-injection tests.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace ptb {

inline constexpr std::uint32_t kCheckpointMagic = 0x43425450u;  // "PTBC" LE
// 2: per-core pipeline state no longer carries an in-flight sync-op count.
// 3: ROB entries drop their issued/completed flags (complete_at alone says
//    both) and the completion events hold only blocking ops and the
//    mispredicted branch.
// 4: the per-core section drops the issue cursor (the issue window is
//    derived from the unissued list each cycle).
// 5: the run section drops the sampled-simulation detailed-cycle counter.
inline constexpr std::uint32_t kCheckpointVersion = 5;

/// Section tags. Values are part of the on-disk format: never renumber,
/// only append. Restore skips tags it does not know.
enum class CkptSection : std::uint32_t {
  kCores = 1,     // per-core pipeline + predictor + PTHT + BCT
  kPrograms,      // per-thread generator state machines
  kMem,           // caches + directory + DRAM + line-busy/MSHR
  kMesh,          // NoC link reservations
  kSync,          // lock/barrier architectural state
  kTrackers,      // per-core spin trackers
  kBalancer,      // monolithic PTB balancer wires
  kClustered,     // clustered PTB balancer wires
  kEnforcers,     // per-core 2-level controllers
  kSelector,      // dynamic policy selector
  kGates,         // spin-power gate detectors
  kThrifty,       // thrifty-barrier baseline controller
  kMeeting,       // meeting-points baseline controller
  kThermal,       // RC thermal model
  kFrame,         // CycleFrame persistents (EMAs, eff budgets, finished)
  kAcct,          // energy accounting
  kRun,           // run-scoped scalars (epoch state, spin-gate counter)
  kHist,          // sim.power.dist histogram
  kSamples,       // stats sample buffer rows
  kTracer,        // event-trace rings
  kResPower,      // RunResult power traces (CMP + per-core TimeSeries)
};

/// Identity digest of a frame: FNV-1a over (format version,
/// machine_fingerprint, seed, benchmark, cycle). It excludes the
/// technique/budget knobs; restore pins those through the frame's full
/// config_fingerprint.
std::uint64_t checkpoint_fingerprint(const SimConfig& cfg,
                                     std::string_view benchmark, Cycle cycle);

/// Identity fields parsed from a frame's payload prefix.
struct CheckpointHeader {
  std::uint64_t checkpoint_fp = 0;
  std::uint64_t machine_fp = 0;
  std::uint64_t config_fp = 0;
  std::uint64_t seed = 0;
  std::uint32_t num_cores = 0;
  Cycle cycle = 0;
  std::string benchmark;
};

/// Builds one checkpoint frame: header fields, then tagged sections.
/// Usage: ctor -> section(tag) / writer ... -> finish().
class CheckpointWriter {
 public:
  CheckpointWriter(const CheckpointHeader& h);

  /// Opens a new section; returns the writer to fill its payload with.
  /// Closing is implicit (next section() or finish() back-patches the
  /// length). Tags must be strictly increasing — enforced, so the frame
  /// byte layout is a pure function of the state.
  ByteWriter& section(CkptSection tag);

  /// Wraps the payload in the outer frame (magic/version/length/checksum).
  std::string finish();

 private:
  void close_section();

  ByteWriter w_;
  std::uint32_t num_sections_ = 0;
  std::uint32_t last_tag_ = 0;
  std::size_t len_patch_pos_ = 0;  // 0: no section open
  std::size_t section_start_ = 0;
  std::size_t count_patch_pos_ = 0;
};

/// Parses and validates one frame. On success exposes the header and the
/// section payloads; every failure mode (short buffer, wrong magic/version,
/// bad checksum, truncated section table) sets a diagnostic and returns
/// false from parse().
class CheckpointReader {
 public:
  /// `bytes` must outlive the reader (sections are views into it).
  bool parse(std::string_view bytes);

  const CheckpointHeader& header() const { return header_; }
  /// Section payload, or empty view when the tag is absent.
  std::string_view section(CkptSection tag) const;
  bool has_section(CkptSection tag) const;
  const std::string& error() const { return error_; }

 private:
  CheckpointHeader header_;
  std::map<std::uint32_t, std::string_view> sections_;
  std::string error_;
};

/// FNV-1a over a byte buffer (the frame checksum).
std::uint64_t checkpoint_checksum(std::string_view bytes);

/// Atomic file write (temp + rename, the disk-cache publish idiom):
/// concurrent readers see either the old file or the complete new one.
bool save_checkpoint_file(const std::string& path, std::string_view bytes,
                          std::string* err);
/// Whole-file read; false with a diagnostic when missing or unreadable.
bool load_checkpoint_file(const std::string& path, std::string& out,
                          std::string* err);

}  // namespace ptb
