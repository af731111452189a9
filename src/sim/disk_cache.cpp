// DiskRunCache + RunArtifact (declared in sim/experiment.hpp beside
// BaseRunCache): the persistent, content-addressed run cache behind the
// ptb-serve daemon.
//
// On-disk format, in the trace subsystem's explicit-little-endian,
// corrupt-rejecting idiom (src/trace/trace.cpp): a 32-byte frame header
// [magic "PTBR" | u32 format version | u64 payload length | u64 run key |
// u64 payload checksum] followed by the RunArtifact JSON payload bytes.
// Every field is checked on read — wrong magic, foreign version,
// short/long payload, a key that does not match the requested address or
// a checksum that does not match the payload all reject the entry (it is
// counted, unlinked, and reads as a miss), so a truncated write or a
// bit-flip can never serve wrong bytes; the caller re-simulates and the
// overwrite heals the slot. Version 1 frames (no checksum) read as
// corrupt and re-simulate once. Writes go to a unique temp file in the
// same directory and rename() into place, so readers only ever see
// complete entries.
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

#include <algorithm>
#include <vector>

#include "common/assert.hpp"
#include "common/format.hpp"
#include "common/json.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/trace_export.hpp"
#include "stats/dump.hpp"

namespace ptb {

namespace {

constexpr char kMagic[4] = {'P', 'T', 'B', 'R'};
constexpr std::uint32_t kFrameVersion = 2;
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8 + 8;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

std::uint32_t get_u32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::uint64_t get_u64(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i)
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

std::string hex16(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool parse_hex16(const std::string& s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    else return false;
  }
  out = v;
  return true;
}

// Little-endian 64-bit load: one memcpy on little-endian hosts.
std::uint64_t load_le64(const char* p) {
  if constexpr (std::endian::native == std::endian::little) {
    std::uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  } else {
    return get_u64(p);
  }
}

// Payload checksum: FNV-1a's xor-multiply step over little-endian 64-bit
// words in four interleaved lanes (independent multiply chains, about four
// times the throughput of one), the lanes folded together, then the tail
// words and bytes. Each step is a bijection of its running value for a
// fixed input, and so is the fold in each lane, so a change confined to
// one word (every single-bit flip) always changes the result.
std::uint64_t payload_checksum(std::string_view p) {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  const char* q = p.data();
  std::uint64_t a = 0xcbf29ce484222325ull, b = a, c = a, d = a;
  std::size_t i = 0;
  for (; i + 32 <= p.size(); i += 32) {
    a = (a ^ load_le64(q + i)) * kPrime;
    b = (b ^ load_le64(q + i + 8)) * kPrime;
    c = (c ^ load_le64(q + i + 16)) * kPrime;
    d = (d ^ load_le64(q + i + 24)) * kPrime;
  }
  std::uint64_t h = ((((a ^ b) * kPrime) ^ c) * kPrime ^ d) * kPrime;
  for (; i + 8 <= p.size(); i += 8) h = (h ^ load_le64(q + i)) * kPrime;
  for (; i < p.size(); ++i) {
    h = (h ^ static_cast<unsigned char>(q[i])) * kPrime;
  }
  return h;
}

void fnv_mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
}

bool read_file(const std::string& path, std::string& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  out.clear();
  char buf[1 << 16];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, got);
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace

// ---------------------------------------------------------------------------
// RunArtifact
// ---------------------------------------------------------------------------

RunArtifact RunArtifact::from_result(const std::string& benchmark,
                                     const SimConfig& cfg,
                                     const RunResult& r) {
  RunArtifact a;
  a.benchmark = benchmark;
  a.num_cores = r.num_cores;
  a.key = DiskRunCache::run_key(benchmark, cfg);
  // Qualified: the unqualified names would resolve to the data members.
  a.config_fingerprint = ptb::config_fingerprint(cfg);
  a.machine_fingerprint = ptb::machine_fingerprint(cfg);
  a.cycles = r.cycles;
  a.hit_max_cycles = r.hit_max_cycles;
  a.energy = r.energy;
  a.aopb = r.aopb;
  a.budget = r.budget;
  a.peak_power = r.peak_power;
  a.spin_energy = r.spin_energy;
  a.total_committed = r.total_committed;
  a.summary_kv = run_summary_kv(r);
  a.stats_json = r.stats ? r.stats->to_json(/*include_volatile=*/false)
                         : std::string();
  return a;
}

std::string RunArtifact::to_payload() const {
  std::string out = "{";
  out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",";
  out += "\"benchmark\":\"" + json::escape(benchmark) + "\",";
  out += "\"num_cores\":" + std::to_string(num_cores) + ",";
  out += "\"key\":\"" + hex16(key) + "\",";
  out += "\"config_fingerprint\":\"" + hex16(config_fingerprint) + "\",";
  out += "\"machine_fingerprint\":\"" + hex16(machine_fingerprint) + "\",";
  out += "\"cycles\":" + std::to_string(cycles) + ",";
  out += std::string("\"hit_max_cycles\":") +
         (hit_max_cycles ? "true" : "false") + ",";
  out += "\"energy\":" + format_g17(energy) + ",";
  out += "\"aopb\":" + format_g17(aopb) + ",";
  out += "\"budget\":" + format_g17(budget) + ",";
  out += "\"peak_power\":" + format_g17(peak_power) + ",";
  out += "\"spin_energy\":" + format_g17(spin_energy) + ",";
  out += "\"total_committed\":" + std::to_string(total_committed) + ",";
  out += "\"summary_kv\":\"" + json::escape(summary_kv) + "\",";
  out += "\"stats_json\":\"" + json::escape(stats_json) + "\"";
  out += "}";
  return out;
}

bool RunArtifact::parse(std::string_view payload, RunArtifact& out) {
  json::Value doc;
  std::string err;
  if (!json::parse(payload, doc, err) || !doc.is_object()) return false;

  RunArtifact a;
  std::uint32_t schema = 0;
  const json::Value* v = doc.find("schema_version");
  if (v == nullptr || !v->as_u32(schema) || schema != kSchemaVersion)
    return false;

  const auto hex = [&](const char* k, std::uint64_t& dst) {
    std::string s;
    return doc.get_string(k, s) && parse_hex16(s, dst);
  };
  const auto u64 = [&](const char* k, std::uint64_t& dst) {
    const json::Value* m = doc.find(k);
    return m != nullptr && m->as_u64(dst);
  };

  std::uint64_t cores = 0;
  const json::Value* b = doc.find("hit_max_cycles");
  if (!doc.get_string("benchmark", a.benchmark) || !u64("num_cores", cores) ||
      cores > 0xffffffffull || !hex("key", a.key) ||
      !hex("config_fingerprint", a.config_fingerprint) ||
      !hex("machine_fingerprint", a.machine_fingerprint) ||
      !u64("cycles", a.cycles) || b == nullptr || !b->is_bool() ||
      !doc.get_number("energy", a.energy) || !doc.get_number("aopb", a.aopb) ||
      !doc.get_number("budget", a.budget) ||
      !doc.get_number("peak_power", a.peak_power) ||
      !doc.get_number("spin_energy", a.spin_energy) ||
      !u64("total_committed", a.total_committed) ||
      !doc.get_string("summary_kv", a.summary_kv) ||
      !doc.get_string("stats_json", a.stats_json)) {
    return false;
  }
  a.num_cores = static_cast<std::uint32_t>(cores);
  a.hit_max_cycles = b->as_bool();
  out = std::move(a);
  return true;
}

// ---------------------------------------------------------------------------
// DiskRunCache
// ---------------------------------------------------------------------------

DiskRunCache::DiskRunCache(std::string dir) : dir_(std::move(dir)) {
  PTB_ASSERT(!dir_.empty(), "cache directory must not be empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PTB_ASSERTF(!ec && std::filesystem::is_directory(dir_),
              "cannot create cache directory '%s'", dir_.c_str());
}

std::uint64_t DiskRunCache::run_key(std::string_view benchmark,
                                    const SimConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  const std::uint32_t schema = RunArtifact::kSchemaVersion;
  fnv_mix_bytes(h, &schema, sizeof(schema));
  const std::uint64_t fp = config_fingerprint(cfg);
  fnv_mix_bytes(h, &fp, sizeof(fp));
  fnv_mix_bytes(h, benchmark.data(), benchmark.size());
  return h;
}

std::string DiskRunCache::path_for(std::uint64_t key) const {
  return dir_ + "/" + hex16(key) + ".run";
}

bool DiskRunCache::load(std::uint64_t key, std::string& payload) const {
  const std::string path = path_for(key);
  std::string raw;
  if (!read_file(path, raw)) {
    misses_.fetch_add(1);
    return false;
  }
  const auto corrupt = [&] {
    corrupt_.fetch_add(1);
    std::error_code ec;
    std::filesystem::remove(path, ec);  // heal the slot on the next store
    return false;
  };
  if (raw.size() < kHeaderBytes ||
      std::memcmp(raw.data(), kMagic, sizeof(kMagic)) != 0) {
    return corrupt();
  }
  if (get_u32(raw.data() + 4) != kFrameVersion) return corrupt();
  const std::uint64_t len = get_u64(raw.data() + 8);
  if (get_u64(raw.data() + 16) != key) return corrupt();
  if (raw.size() != kHeaderBytes + len) return corrupt();
  const std::string_view body = std::string_view(raw).substr(kHeaderBytes);
  if (get_u64(raw.data() + 24) != payload_checksum(body)) return corrupt();
  // The payload must also be a valid schema-v1 artifact for this very key.
  RunArtifact a;
  if (!RunArtifact::parse(body, a) || a.key != key) return corrupt();
  payload = raw.substr(kHeaderBytes);
  hits_.fetch_add(1);
  return true;
}

bool DiskRunCache::store(std::uint64_t key, std::string_view payload) const {
  std::string framed;
  framed.reserve(kHeaderBytes + payload.size());
  framed.append(kMagic, sizeof(kMagic));
  put_u32(framed, kFrameVersion);
  put_u64(framed, payload.size());
  put_u64(framed, key);
  put_u64(framed, payload_checksum(payload));
  framed.append(payload.data(), payload.size());

  // Unique temp name per (process, store): concurrent writers of the same
  // key never clobber each other's partial file, and rename() makes the
  // publish atomic.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = dir_ + "/.tmp." + hex16(key) + "." +
                          std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(framed.data(), 1, framed.size(), f) == framed.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path_for(key).c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  stores_.fetch_add(1);
  enforce_quota();
  return true;
}

// ---------------------------------------------------------------------------
// Size quota
// ---------------------------------------------------------------------------

void DiskRunCache::enforce_quota() const {
  if (max_bytes_ == 0) return;
  namespace fs = std::filesystem;
  struct Entry {
    fs::file_time_type mtime;
    std::string name;  // tie-break -> deterministic eviction order
    std::uint64_t size = 0;
  };
  std::vector<Entry> entries;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    if (ec) return;  // directory races with concurrent eviction: give up
    const std::string name = de.path().filename().string();
    // Only our published .run artifacts participate. In-flight temp files
    // (.tmp.*) are someone's pending publish, never reaped here, and any
    // other file (e.g. a ckpt-*.ptbc image an older daemon left behind)
    // is not ours to count or evict.
    if (name.size() != 20 || !name.ends_with(".run")) continue;
    std::error_code sec;
    const std::uint64_t size = de.file_size(sec);
    const fs::file_time_type mtime = de.last_write_time(sec);
    if (sec) continue;  // vanished under us (concurrent eviction)
    total += size;
    entries.push_back(Entry{mtime, name, size});
  }
  if (total <= max_bytes_) return;
  std::sort(entries.begin(), entries.end(), [](const Entry& a,
                                               const Entry& b) {
    return a.mtime != b.mtime ? a.mtime < b.mtime : a.name < b.name;
  });
  for (const Entry& e : entries) {
    if (total <= max_bytes_) break;
    std::error_code rec;
    if (std::filesystem::remove(dir_ + "/" + e.name, rec) && !rec) {
      total -= e.size;
      evicted_.fetch_add(1);
    }
  }
}

std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit) {
  const std::uint64_t key = DiskRunCache::run_key(profile.name, cfg);
  return cache.get_or_compute(key, hit, [&] {
    RunOptions opts;
    opts.stats = true;  // the artifact carries the StatsDump JSON
    const RunResult r = run_one(profile, cfg, opts);
    return RunArtifact::from_result(profile.name, cfg, r).to_payload();
  });
}

std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit,
                               const RunObserver* observer) {
  if (observer == nullptr) {
    return cached_run_payload(cache, profile, cfg, hit);
  }
  // Open-coded get_or_compute with the same counter semantics (load bumps
  // hit/miss/corrupt, store bumps stores + quota enforcement), bracketing
  // each host-level stage for the observer. The payload bytes are
  // byte-identical to the plain overload: stages only wrap the calls.
  const auto begin = [&](const char* stage) {
    if (observer->stage_enter) observer->stage_enter(stage);
  };
  const auto end = [&](const char* stage) {
    if (observer->stage_exit) observer->stage_exit(stage);
  };
  const std::uint64_t key = DiskRunCache::run_key(profile.name, cfg);
  std::string payload;
  begin("cache_probe");
  const bool loaded = cache.load(key, payload);
  end("cache_probe");
  if (loaded) {
    hit = true;
    return payload;
  }
  hit = false;
  begin("simulate");
  RunOptions opts;
  opts.stats = true;  // the artifact carries the StatsDump JSON
  opts.observer = observer;
  const RunResult r = run_one(profile, cfg, opts);
  end("simulate");
  begin("serialize");
  payload = RunArtifact::from_result(profile.name, cfg, r).to_payload();
  end("serialize");
  begin("cache_publish");
  cache.store(key, payload);
  end("cache_publish");
  return payload;
}

}  // namespace ptb
