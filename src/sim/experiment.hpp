// Experiment harness: builds configurations for the paper's technique
// matrix, runs benchmarks (serially or fanned out across a RunPool), and
// normalizes results against the no-control base case exactly as the
// paper's figures do.
//
// Threading & determinism: every entry point in this header is
// deterministic for a given (profile, config, seed) triple — the simulator
// itself is a single-threaded cycle loop, and the grid runners gather
// results in submission order, so the worker count never changes any
// number. Unless a function takes a RunPool it runs on the calling thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/config.hpp"
#include "common/thread_annotations.hpp"
#include "sim/cmp.hpp"
#include "sim/run_pool.hpp"
#include "workloads/phases.hpp"

namespace ptb {

/// One column of the paper's figures.
struct TechniqueSpec {
  std::string label;   // "DVFS", "DFS", "2Level", "PTB+2Level", ...
  TechniqueKind kind = TechniqueKind::kNone;
  bool ptb = false;
  PtbPolicy policy = PtbPolicy::kToAll;
  double relax = 0.0;  // relaxed-accuracy threshold (Section IV.C)
};

/// The four techniques of Figures 9-12. `ptb_policy` selects the PTB column
/// flavor; pass PtbPolicy::kDynamic for the dynamic selector. Pure; safe
/// from any thread.
std::vector<TechniqueSpec> standard_techniques(PtbPolicy ptb_policy);

/// The three naive-split techniques of Figure 2 (no PTB). Pure.
std::vector<TechniqueSpec> naive_techniques();

/// The normalization reference: no power control at all.
TechniqueSpec base_technique();

/// Build a full simulator config for one run. Pure apart from the process-
/// wide default audit level below.
SimConfig make_sim_config(std::uint32_t cores, const TechniqueSpec& tech,
                          std::uint64_t seed = 1);

/// Process-wide audit level stamped into every config make_sim_config
/// builds (default kOff). The bench binaries set it from --audit; since
/// audit_level never changes results (and is outside the fingerprint),
/// this is a diagnostic knob, not an experiment parameter. Not
/// thread-safe: set it before submitting work to a RunPool.
void set_default_audit_level(AuditLevel level);
AuditLevel default_audit_level();

/// Figure-style normalization vs the no-control base case.
struct Normalized {
  double energy_pct = 0.0;    // 100 * (E - E_base) / E_base
  double aopb_pct = 0.0;      // 100 * AoPB / AoPB_base
  double slowdown_pct = 0.0;  // 100 * (cycles - cycles_base) / cycles_base
};

/// Machine-identity policy for normalize(). By default a run may only be
/// normalized against a base from the same simulated machine (the
/// machine_fingerprint recorded in each RunResult must match). Ablations
/// that deliberately compare a modified machine against the stock base
/// (e.g. the PTHT-capacity sweep) opt out with kAllow; the same-workload
/// check still applies.
enum class CrossMachine { kForbid, kAllow };

/// Pure; safe from any thread.
Normalized normalize(const RunResult& base, const RunResult& r,
                     CrossMachine cross = CrossMachine::kForbid);

/// Convenience single-run entry point. Runs on the calling thread; each
/// call constructs a private CmpSimulator, so concurrent calls from pool
/// workers never share simulator state.
RunResult run_one(const WorkloadProfile& profile, const SimConfig& cfg,
                  const RunOptions& opts = {});

/// A (benchmark x technique) grid of normalized results — the in-memory
/// form of one paper figure (rendered by sim/reporting.hpp as text or
/// JSON).
struct FigureGrid {
  std::vector<std::string> row_labels;        // benchmarks (plus "Avg.")
  std::vector<std::string> technique_labels;  // columns
  // grid[row][col]
  std::vector<std::vector<Normalized>> grid;

  /// Appends an average row over the existing rows.
  void append_average();
};

/// Cache of base (TechniqueKind::kNone) runs shared across techniques
/// within one bench binary.
///
/// Thread-safety contract: get() may be called concurrently from any
/// number of pool workers. Each (benchmark, cores, seed) key is simulated
/// exactly once — concurrent requests for a missing key block until the
/// single computation finishes (per-entry std::call_once under a map
/// guarded by a mutex; std::map's reference stability keeps returned
/// references valid for the cache's lifetime).
class BaseRunCache {
 public:
  const RunResult& get(const WorkloadProfile& profile, std::uint32_t cores,
                       std::uint64_t seed = 1);

  /// Number of simulations actually executed (cache misses); used by the
  /// tests to assert the once-per-key guarantee.
  std::size_t computed() const { return computed_.load(); }

 private:
  struct Entry {
    std::once_flag once;
    RunResult result;
  };
  using Key = std::tuple<std::string, std::uint32_t, std::uint64_t>;

  // mu_ guards cache_ lookup/insert only, never the runs: get() drops the
  // lock before the per-entry call_once (std::map node stability keeps the
  // Entry pointer valid). Entry::result is *not* GUARDED_BY(mu_) — its
  // happens-before edge is the once_flag, which -Wthread-safety cannot
  // model; TSan covers that edge (tests/sim/run_pool_test.cpp hammers it).
  Mutex mu_;
  std::map<Key, Entry> cache_ PTB_GUARDED_BY(mu_);
  std::atomic<std::size_t> computed_{0};
};

/// The canonical on-disk/over-the-wire artifact of one simulation run:
/// the RunResult scalar summary plus (when the run carried a stats
/// registry) the deterministic StatsDump JSON — schema v1, the same
/// document a bench binary's --stats flag writes. Artifacts are a pure
/// function of (benchmark, config, seed): two runs of the same request
/// serialize to byte-identical payloads, which is what lets the serve
/// daemon answer repeat queries from DiskRunCache below and prove the
/// cache honest with a byte compare.
struct RunArtifact {
  static constexpr std::uint32_t kSchemaVersion = 1;

  std::string benchmark;
  std::uint32_t num_cores = 0;
  std::uint64_t key = 0;  // DiskRunCache::run_key of (benchmark, cfg)
  std::uint64_t config_fingerprint = 0;
  std::uint64_t machine_fingerprint = 0;
  std::uint64_t cycles = 0;
  bool hit_max_cycles = false;
  double energy = 0.0;
  double aopb = 0.0;
  double budget = 0.0;
  double peak_power = 0.0;
  double spin_energy = 0.0;
  std::uint64_t total_committed = 0;
  /// run_summary_kv(result) — the flat key=value rendering every bench
  /// prints; carried verbatim so a cached answer matches a live one.
  std::string summary_kv;
  /// StatsDump::to_json(include_volatile=false) of the run's registry;
  /// empty when the producing run had stats off.
  std::string stats_json;

  /// Builds the artifact for a finished run. `cfg` must be the config the
  /// run was executed with (the fingerprints are recomputed from it).
  static RunArtifact from_result(const std::string& benchmark,
                                 const SimConfig& cfg, const RunResult& r);

  /// Canonical JSON payload bytes (deterministic member order, locale-
  /// pinned numbers). This is what DiskRunCache stores and the serve
  /// daemon returns.
  std::string to_payload() const;
  /// Strict parse of to_payload output; false (out untouched) on
  /// malformed or schema-mismatched payloads.
  static bool parse(std::string_view payload, RunArtifact& out);
};

/// Persistent, content-addressed run cache: RunArtifact payloads on disk,
/// one file per run key (the config-fingerprint-derived run_key), written
/// atomically (temp file + rename) and framed with a little-endian
/// magic/version/length/key/checksum header in the trace subsystem's
/// corrupt-rejecting idiom — a truncated, bit-flipped or foreign file fails
/// validation and reads as a miss (the caller re-simulates and the next
/// store overwrites the bad entry).
///
/// Thread-safety: all methods may be called concurrently from any thread.
/// Loads and stores race benignly through the filesystem (rename is
/// atomic, so a reader sees either the old complete entry or the new
/// one); the hit/miss/corrupt counters are atomics.
class DiskRunCache {
 public:
  /// Opens (and creates, including parents) the cache directory. Aborts
  /// if the directory cannot be created — a service without its cache
  /// directory cannot meet its contract.
  explicit DiskRunCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Content address of one run: FNV-1a over the artifact schema version,
  /// config_fingerprint(cfg) and the benchmark name. Everything that can
  /// change a result byte is inside config_fingerprint; observe-only
  /// knobs (audit/trace) stay out, so a request answered
  /// from cache is indistinguishable from a re-run.
  static std::uint64_t run_key(std::string_view benchmark,
                               const SimConfig& cfg);

  /// Loads the payload for `key`. False on miss *or* on a corrupt entry
  /// (bad magic/version/length/key or unparseable artifact) — corrupt
  /// entries bump the corrupt counter and are unlinked so the slot heals
  /// on the next store.
  bool load(std::uint64_t key, std::string& payload) const;

  /// Atomically persists `payload` under `key` (write temp + rename).
  /// Returns false when the directory is not writable.
  bool store(std::uint64_t key, std::string_view payload) const;

  /// Runs `make` on miss/corruption and persists its payload; returns the
  /// payload either way and reports whether it was a hit.
  template <typename MakeFn>
  std::string get_or_compute(std::uint64_t key, bool& hit, MakeFn&& make)
      const {
    std::string payload;
    if (load(key, payload)) {
      hit = true;
      return payload;
    }
    hit = false;
    payload = make();
    store(key, payload);
    return payload;
  }

  std::string path_for(std::uint64_t key) const;

  /// Size quota in bytes over the directory's .run artifacts (no other
  /// file is counted or evicted); 0 (default) = unbounded. When a publish
  /// pushes the .run total over the quota, artifacts are evicted
  /// oldest-first (last write time, filename tie-break for determinism)
  /// until the total fits — the just-published artifact included when the
  /// quota is smaller than it. Evicted keys read
  /// as misses and simply re-simulate. Not thread-safe: set at
  /// construction time, before the cache is shared.
  void set_max_bytes(std::uint64_t max_bytes) { max_bytes_ = max_bytes; }
  std::uint64_t max_bytes() const { return max_bytes_; }

  std::uint64_t hits() const { return hits_.load(); }
  std::uint64_t misses() const { return misses_.load(); }
  std::uint64_t corrupt() const { return corrupt_.load(); }
  std::uint64_t stores() const { return stores_.load(); }
  std::uint64_t evicted() const { return evicted_.load(); }

 private:
  /// Oldest-first eviction down to max_bytes_; called after every publish.
  void enforce_quota() const;

  std::string dir_;
  std::uint64_t max_bytes_ = 0;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> corrupt_{0};
  mutable std::atomic<std::uint64_t> stores_{0};
  mutable std::atomic<std::uint64_t> evicted_{0};
};

/// Convenience get-or-run on top of DiskRunCache: answers from disk when
/// the artifact for (benchmark, cfg) is present and valid, otherwise
/// simulates on the calling thread (run_one with a stats registry, so the
/// artifact carries the StatsDump) and persists the result. `hit` reports
/// which path was taken.
std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit);

/// Observed variant (ISSUE 10): identical semantics, counters and bytes,
/// but brackets the pipeline's host-level stages through `observer` —
/// "cache_probe" around the disk lookup, then on a miss "simulate"
/// (run_one), "serialize" and "cache_publish" — and threads the observer
/// into RunOptions so its progress callback fires from the cycle loop.
/// A null observer falls back to the plain overload above.
std::string cached_run_payload(const DiskRunCache& cache,
                               const WorkloadProfile& profile,
                               const SimConfig& cfg, bool& hit,
                               const RunObserver* observer);

/// Runs every suite benchmark under each technique at `cores`, normalized
/// against base runs from `cache`. All (benchmark x technique) cells plus
/// any missing base runs are submitted to `pool` up front and execute
/// concurrently; rows/columns follow suite/`techs` order regardless of
/// completion order, so the output is identical at any worker count.
/// The pool's current batch must be empty (wait_all drained) on entry.
/// Returns the grid without the average row.
FigureGrid run_suite_grid(std::uint32_t cores,
                          const std::vector<TechniqueSpec>& techs,
                          BaseRunCache& cache, RunPool& pool);

/// Average of each technique column over the whole suite at `cores` (no
/// per-benchmark rows — for the scaling figures). Same threading and
/// determinism contract as run_suite_grid.
std::vector<Normalized> run_suite_averages(
    std::uint32_t cores, const std::vector<TechniqueSpec>& techs,
    BaseRunCache& cache, RunPool& pool);

/// Multi-seed replication: runs (benchmark, technique) under several seeds,
/// each normalized against its own-seed base run, and aggregates the
/// normalized metrics. Used to put error bars on the headline results.
/// All 2*num_seeds runs are submitted to `pool` up front; aggregation is
/// in seed order, so the result is worker-count independent.
struct ReplicatedResult {
  RunningStat energy_pct;
  RunningStat aopb_pct;
  RunningStat slowdown_pct;
};

ReplicatedResult run_replicated(const WorkloadProfile& profile,
                                std::uint32_t cores,
                                const TechniqueSpec& tech,
                                std::uint32_t num_seeds, RunPool& pool,
                                std::uint64_t first_seed = 1);

}  // namespace ptb
