// Checkpoint/restore exactness and fault-injection tests
// (sim/checkpoint.hpp):
//
//   - frame plumbing: round-trip, and every corruption class rejected
//     cleanly (truncation, bit-flips, wrong magic/version, bogus section
//     tables) — never UB, never a partial accept;
//   - identity validation: a frame restores only into a simulator with the
//     same core count / benchmark / machine fingerprint / seed and the
//     same full config fingerprint, at any cycle including 0;
//   - the headline guarantee: a run restored from a mid-run checkpoint
//     finishes bit-identical — RunResult fields, serialized event-trace
//     bytes and the deterministic stats dump — to the uninterrupted run.
#include "sim/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "trace/trace.hpp"
#include "workloads/suite.hpp"
#include "sim_test_support.hpp"

namespace ptb {
namespace {

WorkloadProfile small_profile() {
  WorkloadProfile p;
  p.name = "ckpt";
  p.iterations = 2;
  p.ops_per_iteration = 3000;
  p.imbalance = 0.2;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 10;
  p.hot_lock_frac = 0.5;
  return p;
}

TechniqueSpec base_spec() {
  return {"base", TechniqueKind::kNone, false, PtbPolicy::kToAll, 0.0};
}

TechniqueSpec ptb_spec() {
  return {"ptb+2l(dyn)", TechniqueKind::kTwoLevel, true, PtbPolicy::kDynamic,
          0.0};
}

// --- frame plumbing ---------------------------------------------------------

std::string tiny_frame() {
  CheckpointHeader h;
  h.checkpoint_fp = 0x1111;
  h.machine_fp = 0x2222;
  h.config_fp = 0x3333;
  h.seed = 7;
  h.num_cores = 4;
  h.cycle = 42;
  h.benchmark = "fft";
  CheckpointWriter w(h);
  {
    ByteWriter& s = w.section(CkptSection::kCores);
    s.u64(0xdeadbeef);
  }
  {
    ByteWriter& s = w.section(CkptSection::kThermal);
    s.f64(1.5);
    s.str("tail");
  }
  return w.finish();
}

TEST(CheckpointFrame, RoundTripHeaderAndSections) {
  const std::string bytes = tiny_frame();
  CheckpointReader r;
  ASSERT_TRUE(r.parse(bytes)) << r.error();
  EXPECT_EQ(r.header().checkpoint_fp, 0x1111u);
  EXPECT_EQ(r.header().machine_fp, 0x2222u);
  EXPECT_EQ(r.header().config_fp, 0x3333u);
  EXPECT_EQ(r.header().seed, 7u);
  EXPECT_EQ(r.header().num_cores, 4u);
  EXPECT_EQ(r.header().cycle, 42u);
  EXPECT_EQ(r.header().benchmark, "fft");
  ASSERT_TRUE(r.has_section(CkptSection::kCores));
  ASSERT_TRUE(r.has_section(CkptSection::kThermal));
  EXPECT_FALSE(r.has_section(CkptSection::kMem));
  ByteReader cores(r.section(CkptSection::kCores));
  EXPECT_EQ(cores.u64(), 0xdeadbeefu);
  EXPECT_TRUE(cores.empty());
  ByteReader th(r.section(CkptSection::kThermal));
  EXPECT_EQ(th.f64(), 1.5);
  EXPECT_EQ(th.str(), "tail");
  EXPECT_TRUE(th.ok());
}

TEST(CheckpointFrame, FrameBytesAreDeterministic) {
  EXPECT_EQ(tiny_frame(), tiny_frame());
}

TEST(CheckpointFrame, EveryTruncationLengthRejected) {
  const std::string bytes = tiny_frame();
  CheckpointReader r;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(r.parse(std::string_view(bytes).substr(0, len)))
        << "accepted a frame truncated to " << len << " bytes";
    EXPECT_FALSE(r.error().empty());
  }
}

TEST(CheckpointFrame, EverySingleBitFlipRejected) {
  const std::string bytes = tiny_frame();
  // The magic/version/length words reject structurally; every payload bit
  // is caught by the FNV checksum. Appended garbage is a length mismatch.
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (int bit = 0; bit < 8; bit += 3) {
      std::string mut = bytes;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      CheckpointReader r;
      EXPECT_FALSE(r.parse(mut))
          << "accepted a frame with byte " << i << " bit " << bit
          << " flipped";
    }
  }
  CheckpointReader r;
  EXPECT_FALSE(r.parse(bytes + "x"));
}

TEST(CheckpointFrame, WrongMagicAndVersionDiagnosed) {
  std::string bytes = tiny_frame();
  {
    std::string mut = bytes;
    mut[0] = 'X';
    CheckpointReader r;
    ASSERT_FALSE(r.parse(mut));
    EXPECT_NE(r.error().find("magic"), std::string::npos) << r.error();
  }
  {
    std::string mut = bytes;
    mut[4] = static_cast<char>(kCheckpointVersion + 1);
    CheckpointReader r;
    ASSERT_FALSE(r.parse(mut));
    EXPECT_NE(r.error().find("version"), std::string::npos) << r.error();
  }
}

TEST(CheckpointFrame, FileRoundTripAndMissingFile) {
  const std::string dir = ::testing::TempDir();
  const std::string path = dir + "/ckpt_roundtrip.ptbc";
  const std::string bytes = tiny_frame();
  std::string err;
  ASSERT_TRUE(save_checkpoint_file(path, bytes, &err)) << err;
  std::string back;
  ASSERT_TRUE(load_checkpoint_file(path, back, &err)) << err;
  EXPECT_EQ(back, bytes);
  EXPECT_FALSE(load_checkpoint_file(dir + "/absent.ptbc", back, &err));
  EXPECT_FALSE(err.empty());
}

// --- identity validation ----------------------------------------------------

std::string capture_at(const WorkloadProfile& p, const SimConfig& cfg,
                       Cycle at, const RunOptions& base = {}) {
  CmpSimulator sim(cfg, p);
  std::string ckpt;
  RunOptions opts = base;
  opts.checkpoint_at = at;
  opts.checkpoint_out = &ckpt;
  sim.run(opts);
  return ckpt;
}

TEST(CheckpointRestore, IdentityMismatchesRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 500);
  ASSERT_FALSE(ckpt.empty());

  std::string err;
  {  // different core count
    CmpSimulator sim(make_sim_config(8, ptb_spec()), p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("core count"), std::string::npos) << err;
  }
  {  // different benchmark
    WorkloadProfile q = p;
    q.name = "other";
    CmpSimulator sim(cfg, q);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("benchmark"), std::string::npos) << err;
  }
  {  // different machine
    SimConfig m = cfg;
    m.core.rob_entries *= 2;
    CmpSimulator sim(m, p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("machine"), std::string::npos) << err;
  }
  {  // different seed
    SimConfig s = cfg;
    s.seed = cfg.seed + 1;
    CmpSimulator sim(s, p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("seed"), std::string::npos) << err;
  }
  {  // mid-run frame under a different technique: config fp pinned
    CmpSimulator sim(make_sim_config(4, base_spec()), p);
    EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
    EXPECT_NE(err.find("config fingerprint"), std::string::npos) << err;
  }
}

TEST(CheckpointRestore, CorruptFrameRejectedWithDiagnostic) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  std::string ckpt = capture_at(p, cfg, 500);
  ASSERT_FALSE(ckpt.empty());
  ckpt[ckpt.size() / 2] ^= 0x10;  // payload bit-flip -> checksum
  CmpSimulator sim(cfg, p);
  std::string err;
  EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
  EXPECT_NE(err.find("checksum"), std::string::npos) << err;
}

// --- restore-vs-continuous exactness ----------------------------------------

// The hammer: capture at the run's midpoint, restore into a fresh
// simulator, and require the resumed run to be bit-identical to the
// uninterrupted run — results, trace bytes, stats dump. Run for both a PTB
// technique and the thrifty baseline (different gating shape).
void restore_hammer(const TechniqueSpec& tech) {
  const WorkloadProfile p = small_profile();
  RunOptions opts;
  opts.trace_categories = kTraceAll;
  opts.stats = true;
  opts.stats_sample_every = 256;

  const SimConfig cfg = make_sim_config(4, tech);
  const RunResult full = CmpSimulator(cfg, p).run(opts);
  ASSERT_FALSE(full.hit_max_cycles);
  const std::string ckpt = capture_at(p, cfg, full.cycles / 2, opts);
  ASSERT_FALSE(ckpt.empty());

  CmpSimulator sim(cfg, p);
  std::string err;
  ASSERT_TRUE(sim.restore_checkpoint(ckpt, &err)) << err;
  const RunResult resumed = sim.run(opts);
  expect_bit_identical(full, resumed);
  ASSERT_NE(full.trace, nullptr);
  ASSERT_NE(resumed.trace, nullptr);
  EXPECT_EQ(full.trace->serialize(), resumed.trace->serialize());
  ASSERT_NE(resumed.stats, nullptr);
  EXPECT_EQ(stats_json(full, /*include_volatile=*/false),
            stats_json(resumed, /*include_volatile=*/false));
}

TEST(CheckpointRestore, MidRunResumeBitIdenticalPtb) {
  restore_hammer(ptb_spec());
}

TEST(CheckpointRestore, MidRunResumeBitIdenticalThrifty) {
  restore_hammer({"thrifty", TechniqueKind::kThriftyBarrier, false,
                  PtbPolicy::kToAll, 0.0});
}

// Save -> restore -> save is the identity on a mid-run frame: every
// per-core field written (ROB entries with in-flight and unissued ops, the
// pending completion events) reads back to the same bytes, including the
// unissued list rebuilt from the ROB.
TEST(CheckpointRestore, MidRunFrameResavesByteIdentical) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const RunResult full = CmpSimulator(cfg, p).run();
  for (const Cycle at : {full.cycles / 3, full.cycles / 2}) {
    SCOPED_TRACE(at);
    const std::string first = capture_at(p, cfg, at);
    ASSERT_FALSE(first.empty());
    CmpSimulator sim(cfg, p);
    std::string err;
    ASSERT_TRUE(sim.restore_checkpoint(first, &err)) << err;
    std::string second;
    RunOptions opts;
    opts.checkpoint_at = at;
    opts.checkpoint_out = &second;
    sim.run(opts);
    EXPECT_EQ(first, second);
  }
}

// A frame of the previous format (version 4: the run section still
// carries the sampled-simulation detailed-cycle counter) is refused by
// version, before any section is parsed.
TEST(CheckpointRestore, PreviousVersionFrameRejected) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  std::string ckpt = capture_at(p, cfg, 500);
  ASSERT_GE(ckpt.size(), 8u);
  ASSERT_EQ(kCheckpointVersion, 5u);
  ckpt[4] = 4;  // u32 version, little-endian, after the magic
  CmpSimulator sim(cfg, p);
  std::string err;
  EXPECT_FALSE(sim.restore_checkpoint(ckpt, &err));
  EXPECT_NE(err.find("unsupported checkpoint version 4"), std::string::npos)
      << err;
}

// A restored simulator consumes its carry: the frame only redirects the
// next run().
TEST(CheckpointRestore, CarryConsumedBySingleRun) {
  const WorkloadProfile p = small_profile();
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const RunResult full = CmpSimulator(cfg, p).run();
  const std::string ckpt = capture_at(p, cfg, full.cycles / 2);
  CmpSimulator sim(cfg, p);
  ASSERT_TRUE(sim.restore_checkpoint(ckpt));
  const RunResult resumed = sim.run();
  expect_bit_identical(full, resumed);
}

// A cycle-0 frame (captured at loop entry, after functional warmup) is
// pinned to its config like any other: it resumes its own run bit for
// bit, trace and stats included, and is refused under another technique
// of the same machine, seed and benchmark.
TEST(CheckpointRestore, CycleZeroFrameRestoresOnlyUnderItsOwnConfig) {
  const WorkloadProfile p = small_profile();
  RunOptions opts;
  opts.trace_categories = kTraceAll;
  opts.stats = true;
  const SimConfig cfg = make_sim_config(4, ptb_spec());
  const std::string ckpt = capture_at(p, cfg, 0, opts);
  ASSERT_FALSE(ckpt.empty());

  const RunResult full = CmpSimulator(cfg, p).run(opts);
  CmpSimulator sim(cfg, p);
  std::string err;
  ASSERT_TRUE(sim.restore_checkpoint(ckpt, &err)) << err;
  const RunResult resumed = sim.run(opts);
  expect_bit_identical(full, resumed);
  ASSERT_NE(resumed.trace, nullptr);
  EXPECT_EQ(full.trace->serialize(), resumed.trace->serialize());
  EXPECT_EQ(stats_json(full, /*include_volatile=*/false),
            stats_json(resumed, /*include_volatile=*/false));

  CmpSimulator other(make_sim_config(4, base_spec()), p);
  EXPECT_FALSE(other.restore_checkpoint(ckpt, &err));
  EXPECT_NE(err.find("config fingerprint"), std::string::npos) << err;
}

TEST(CheckpointFingerprint, ExcludesTechniqueIncludesCycle) {
  const SimConfig a = make_sim_config(4, base_spec());
  const SimConfig b = make_sim_config(4, ptb_spec());
  EXPECT_EQ(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(b, "fft", 0));
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(a, "fft", 1000));
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(a, "lu", 0));
  SimConfig c = a;
  c.seed = a.seed + 1;
  EXPECT_NE(checkpoint_fingerprint(a, "fft", 0),
            checkpoint_fingerprint(c, "fft", 0));
}

}  // namespace
}  // namespace ptb
