// DiskRunCache + RunArtifact (sim/experiment.hpp, sim/disk_cache.cpp): the
// persistent content-addressed store behind ptb-serve. The cases pin the
// contract the daemon's byte-identity guarantee rests on:
//   - a cached answer is byte-identical to a live re-simulation;
//   - a truncated or bit-flipped entry is rejected (counted, unlinked) and
//     transparently re-simulated — corrupt bytes are never served;
//   - concurrent readers/writers of one key race benignly (the TSan preset
//     chews on the hammer case).
#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "common/config.hpp"
#include "sim/checkpoint.hpp"
#include "sim/cmp.hpp"
#include "sim/reporting.hpp"
#include "sim/trace_export.hpp"
#include "workloads/phases.hpp"

namespace ptb {
namespace {

// PTBR frame header: magic, version, payload length, run key, checksum.
constexpr std::size_t kFrameHeaderBytes = 4 + 4 + 8 + 8 + 8;

// Small but non-trivial: lock contention so the artifact carries real
// spin/energy numbers, ~milliseconds per simulation.
WorkloadProfile fast_profile() {
  WorkloadProfile p;
  p.name = "cachetest";
  p.iterations = 3;
  p.ops_per_iteration = 4000;
  p.imbalance = 0.25;
  p.num_locks = 2;
  p.cs_per_1k_ops = 4.0;
  p.cs_len_ops = 12;
  p.hot_lock_frac = 0.5;
  return p;
}

SimConfig fast_config() {
  SimConfig cfg;
  cfg.num_cores = 2;
  cfg.max_cycles = 50000;
  return cfg;
}

std::string temp_cache_dir(const char* tag) {
  // TempDir() outlives the process: wipe the slot so a "fresh cache" case
  // stays fresh on re-runs.
  const std::string dir = testing::TempDir() + "/ptb_disk_cache_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

void corrupt_file_at(const std::string& path, std::size_t offset,
                     char byte) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&byte, 1, 1, f), 1u);
  ASSERT_EQ(std::fclose(f), 0);
}

TEST(RunArtifact, PayloadParseRoundTrip) {
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  RunOptions opts;
  opts.stats = true;
  const RunResult r = run_one(p, cfg, opts);
  const RunArtifact a = RunArtifact::from_result(p.name, cfg, r);
  EXPECT_EQ(a.key, DiskRunCache::run_key(p.name, cfg));
  EXPECT_EQ(a.config_fingerprint, config_fingerprint(cfg));
  EXPECT_FALSE(a.stats_json.empty()) << "stats-enabled run lost its dump";

  RunArtifact back;
  ASSERT_TRUE(RunArtifact::parse(a.to_payload(), back));
  // Canonical emission: re-serializing the parsed artifact reproduces the
  // payload byte for byte.
  EXPECT_EQ(back.to_payload(), a.to_payload());
  EXPECT_EQ(back.cycles, r.cycles);
  EXPECT_EQ(back.summary_kv, run_summary_kv(r));

  RunArtifact junk;
  EXPECT_FALSE(RunArtifact::parse("not json", junk));
  EXPECT_FALSE(RunArtifact::parse("{\"schema_version\":999}", junk));
}

TEST(DiskRunCache, MissThenHitIsByteIdentical) {
  const DiskRunCache cache(temp_cache_dir("roundtrip"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();

  bool hit = true;
  const std::string first = cached_run_payload(cache, p, cfg, hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.stores(), 1u);

  const std::string second = cached_run_payload(cache, p, cfg, hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(second, first) << "cached payload differs from live run";

  // And the cached bytes really are a fresh simulation's bytes.
  RunOptions opts;
  opts.stats = true;
  const RunResult r = run_one(p, cfg, opts);
  EXPECT_EQ(RunArtifact::from_result(p.name, cfg, r).to_payload(), first);
}

TEST(DiskRunCache, DifferentConfigsGetDifferentAddresses) {
  const WorkloadProfile p = fast_profile();
  SimConfig a = fast_config();
  SimConfig b = fast_config();
  b.seed = 99;  // fingerprinted field -> new address
  EXPECT_NE(DiskRunCache::run_key(p.name, a),
            DiskRunCache::run_key(p.name, b));
  EXPECT_NE(DiskRunCache::run_key("fft", a),
            DiskRunCache::run_key("radix", a));
}

TEST(DiskRunCache, TruncatedEntryRejectedAndResimulated) {
  const DiskRunCache cache(temp_cache_dir("truncated"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::uint64_t key = DiskRunCache::run_key(p.name, cfg);

  bool hit = true;
  const std::string good = cached_run_payload(cache, p, cfg, hit);
  ASSERT_FALSE(hit);

  // Simulate a crashed writer published by a buggy rename: chop the file
  // mid-payload. The length field no longer matches -> corrupt, unlinked.
  const std::string path = cache.path_for(key);
  std::filesystem::resize_file(path, kFrameHeaderBytes + good.size() / 2);
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 1u);
  EXPECT_FALSE(std::filesystem::exists(path)) << "corrupt entry not healed";

  // The service path transparently re-simulates and re-stores.
  const std::string again = cached_run_payload(cache, p, cfg, hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(again, good);
  EXPECT_TRUE(cache.load(key, payload));
  EXPECT_EQ(payload, good);
}

TEST(DiskRunCache, BitFlipAndForeignFileRejected) {
  const DiskRunCache cache(temp_cache_dir("bitflip"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::uint64_t key = DiskRunCache::run_key(p.name, cfg);

  bool hit = true;
  cached_run_payload(cache, p, cfg, hit);
  const std::string path = cache.path_for(key);

  // Payload-level byte change: framing is intact, and the payload checksum
  // catches it ('\0' mid-JSON would also fail the artifact parse).
  corrupt_file_at(path, kFrameHeaderBytes + 5, '\0');
  std::string payload;
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 1u);

  // Foreign magic: refill the slot, then stamp a wrong magic byte.
  cached_run_payload(cache, p, cfg, hit);
  corrupt_file_at(path, 0, 'X');
  EXPECT_FALSE(cache.load(key, payload));
  EXPECT_EQ(cache.corrupt(), 2u);

  // A key mismatch (entry filed under the wrong address) is also corrupt.
  cached_run_payload(cache, p, cfg, hit);
  std::filesystem::rename(path, cache.path_for(key ^ 1));
  EXPECT_FALSE(cache.load(key ^ 1, payload));
  EXPECT_EQ(cache.corrupt(), 3u);
}

// Exhaustive fault sweep over one published entry (a stats-free run, so
// the frame stays small): every strict prefix and every single-bit flip
// is rejected — counted corrupt, unlinked, read as a miss — and none of
// them aborts. The intact frame then reads back as a hit.
TEST(DiskRunCache, EveryTruncationAndSingleBitFlipRejected) {
  const DiskRunCache cache(temp_cache_dir("sweep"));
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::uint64_t key = DiskRunCache::run_key(p.name, cfg);
  const std::string payload =
      RunArtifact::from_result(p.name, cfg, run_one(p, cfg)).to_payload();
  ASSERT_TRUE(cache.store(key, payload));
  const std::string path = cache.path_for(key);
  std::string frame;
  {
    std::ifstream in(path, std::ios::binary);
    frame.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
  const auto publish = [&](std::string_view bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  };

  std::string got;
  std::uint64_t rejected = 0;
  for (std::size_t len = 0; len < frame.size(); ++len) {
    publish(std::string_view(frame).substr(0, len));
    EXPECT_FALSE(cache.load(key, got))
        << "accepted a " << len << "-byte prefix";
    ++rejected;
  }
  for (std::size_t i = 0; i < frame.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mut = frame;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      publish(mut);
      EXPECT_FALSE(cache.load(key, got))
          << "accepted byte " << i << " bit " << bit << " flipped";
      ++rejected;
    }
  }
  EXPECT_EQ(cache.corrupt(), rejected);
  EXPECT_EQ(cache.hits(), 0u);
  publish(frame);
  ASSERT_TRUE(cache.load(key, got));
  EXPECT_EQ(got, payload);
}

// The artifact parser on its own: every strict prefix of a payload is
// rejected, and no single-bit flip aborts it (a flipped digit can still
// parse; the frame checksum above is what rejects those on disk).
TEST(RunArtifact, EveryTruncationRejectedAndNoBitFlipAborts) {
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();
  const std::string payload =
      RunArtifact::from_result(p.name, cfg, run_one(p, cfg)).to_payload();
  RunArtifact out;
  for (std::size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(RunArtifact::parse(std::string_view(payload).substr(0, len),
                                    out))
        << "accepted a " << len << "-byte prefix";
  }
  for (std::size_t i = 0; i < payload.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mut = payload;
      mut[i] = static_cast<char>(mut[i] ^ (1 << bit));
      (void)RunArtifact::parse(mut, out);
    }
  }
  ASSERT_TRUE(RunArtifact::parse(payload, out));
  EXPECT_EQ(out.to_payload(), payload);
}

TEST(DiskRunCache, ConcurrentReadersAndWritersOneKey) {
  // The benign-race contract: rename is atomic, so under any interleaving
  // of loads and stores a reader sees a miss or one complete, valid
  // payload — never torn bytes. TSan runs this test too (tests tier).
  const DiskRunCache cache(temp_cache_dir("hammer"));
  const std::uint64_t key = 0x1234abcd5678ef90ull;

  // A synthetic-but-valid artifact payload (load() parses the payload, so
  // raw junk would read as corrupt, not as a hit).
  RunArtifact a;
  a.benchmark = "hammer";
  a.num_cores = 2;
  a.key = key;
  a.summary_kv = "cycles=1";
  const std::string payload = a.to_payload();
  {
    RunArtifact check;
    ASSERT_TRUE(RunArtifact::parse(payload, check));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 50;
  std::atomic<int> torn{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads * 2);
  for (int w = 0; w < kThreads; ++w) {
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        EXPECT_TRUE(cache.store(key, payload));
      }
    });
    ts.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        std::string got;
        if (cache.load(key, got) && got != payload) torn.fetch_add(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(torn.load(), 0) << "reader observed torn cache bytes";
  std::string got;
  EXPECT_TRUE(cache.load(key, got));
  EXPECT_EQ(got, payload);
}

TEST(DiskRunCache, QuotaEvictsOldestPublishedEntriesFirst) {
  DiskRunCache cache(temp_cache_dir("quota"));
  namespace fs = std::filesystem;

  // Four same-size synthetic artifacts under distinct keys; ages are
  // pinned explicitly so (mtime, name) eviction order is deterministic
  // regardless of how fast the stores land.
  const auto payload_for = [](std::uint64_t key) {
    RunArtifact a;
    a.benchmark = "quota";
    a.num_cores = 2;
    a.key = key;  // load() cross-checks the embedded key
    a.summary_kv = "pad=" + std::string(1000, 'x');
    return a.to_payload();  // fixed-width key -> same size for every key
  };
  const std::uint64_t k1 = 0xa000000000000001ull;
  const std::uint64_t k2 = 0xa000000000000002ull;
  const std::uint64_t k3 = 0xa000000000000003ull;
  const std::uint64_t k4 = 0xa000000000000004ull;
  ASSERT_TRUE(cache.store(k1, payload_for(k1)));  // quota 0 = unbounded
  ASSERT_TRUE(cache.store(k2, payload_for(k2)));
  ASSERT_TRUE(cache.store(k3, payload_for(k3)));
  const std::uint64_t entry = fs::file_size(cache.path_for(k1));
  const auto now = fs::last_write_time(cache.path_for(k3));
  fs::last_write_time(cache.path_for(k1), now - std::chrono::minutes(3));
  fs::last_write_time(cache.path_for(k2), now - std::chrono::minutes(2));
  fs::last_write_time(cache.path_for(k3), now - std::chrono::minutes(1));

  // Room for three and a half entries: publishing the fourth must evict
  // exactly the oldest (k1) and nothing else.
  cache.set_max_bytes(3 * entry + entry / 2);
  ASSERT_TRUE(cache.store(k4, payload_for(k4)));
  EXPECT_FALSE(fs::exists(cache.path_for(k1))) << "oldest entry survived";
  EXPECT_TRUE(fs::exists(cache.path_for(k2)));
  EXPECT_TRUE(fs::exists(cache.path_for(k3)));
  EXPECT_TRUE(fs::exists(cache.path_for(k4)));
  EXPECT_EQ(cache.evicted(), 1u);

  // Shrink the quota to a single entry: the next publish keeps only
  // itself (k4's pinned age makes it older than the fresh k5).
  fs::last_write_time(cache.path_for(k4), now - std::chrono::seconds(30));
  cache.set_max_bytes(entry + entry / 2);
  const std::uint64_t k5 = 0xa000000000000005ull;
  ASSERT_TRUE(cache.store(k5, payload_for(k5)));
  EXPECT_FALSE(fs::exists(cache.path_for(k2)));
  EXPECT_FALSE(fs::exists(cache.path_for(k3)));
  EXPECT_FALSE(fs::exists(cache.path_for(k4)));
  EXPECT_TRUE(fs::exists(cache.path_for(k5)));
  EXPECT_EQ(cache.evicted(), 4u);

  // Evicted keys are plain misses — the read path re-simulates, it never
  // errors.
  std::string got;
  EXPECT_FALSE(cache.load(k2, got));
  EXPECT_TRUE(cache.load(k5, got));
  EXPECT_EQ(got, payload_for(k5));
}

// Older daemons left ckpt-<hex16>.ptbc images beside the .run artifacts.
// Such a file is no longer read, and the quota neither counts nor evicts
// it: a miss simulates from scratch and the image stays untouched.
TEST(DiskRunCache, LeftoverCheckpointImageNeverReadCountedOrEvicted) {
  namespace fs = std::filesystem;
  const std::string dir = temp_cache_dir("leftover_ckpt");
  DiskRunCache cache(dir);
  const WorkloadProfile p = fast_profile();
  const SimConfig cfg = fast_config();

  // Named as an older daemon named the identity's cycle-0 image, and
  // deliberately not a valid frame: reading it would count it corrupt.
  char name[32];
  std::snprintf(name, sizeof(name), "ckpt-%016llx.ptbc",
                static_cast<unsigned long long>(
                    checkpoint_fingerprint(cfg, p.name, 0)));
  const std::string leftover = dir + "/" + name;
  {
    std::FILE* f = std::fopen(leftover.c_str(), "wb");
    ASSERT_NE(f, nullptr) << leftover;
    const std::string junk(1 << 20, 'x');
    ASSERT_EQ(std::fwrite(junk.data(), 1, junk.size(), f), junk.size());
    ASSERT_EQ(std::fclose(f), 0);
  }
  const std::uint64_t leftover_bytes = fs::file_size(leftover);

  RunOptions opts;
  opts.stats = true;
  const std::string scratch =
      RunArtifact::from_result(p.name, cfg, run_one(p, cfg, opts))
          .to_payload();

  // Room for both artifacts, far less than the leftover: if it were
  // counted, every publish would evict.
  cache.set_max_bytes(4 * scratch.size());
  ASSERT_LT(cache.max_bytes(), leftover_bytes);
  bool hit = true;
  EXPECT_EQ(cached_run_payload(cache, p, cfg, hit), scratch);
  EXPECT_FALSE(hit);
  SimConfig dvfs = cfg;
  dvfs.technique = TechniqueKind::kDvfs;
  cached_run_payload(cache, p, dvfs, hit);
  EXPECT_FALSE(hit);

  EXPECT_EQ(cache.corrupt(), 0u) << "the leftover image was read";
  EXPECT_EQ(cache.evicted(), 0u);
  EXPECT_TRUE(fs::exists(cache.path_for(DiskRunCache::run_key(p.name, cfg))));
  EXPECT_TRUE(
      fs::exists(cache.path_for(DiskRunCache::run_key(p.name, dvfs))));
  ASSERT_TRUE(fs::exists(leftover));
  EXPECT_EQ(fs::file_size(leftover), leftover_bytes);
}

}  // namespace
}  // namespace ptb
