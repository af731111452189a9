// perfbench-harness: the in-process half of the benchmark (run.py is its
// entry point and the only intended caller). It reaches the simulator only
// through public entry points — run_one, BaseRunCache, RunPool,
// normalize/FigureGrid/figure_grid_json, RunOptions::stats and StatsDump,
// RunArtifact, DiskRunCache, the per-layer classes' public methods and the
// ptb-serve HTTP API — and times them from outside. Nothing here is linked
// into the program under test.
//
// Usage:
//   perfbench-harness fig_sweep --seed S --seconds T --trace 0|1
//                     --results FILE --scratch DIR --out FILE
//   perfbench-harness run4_base --seed S --seconds T --trace 0|1
//                     --digests FILE --scratch DIR --out FILE
//   perfbench-harness serve_mix --seed S --seconds T --trace 0|1
//                     --port P [--requests N] --scratch DIR --out FILE
//   perfbench-harness digests        (prints the run4_base digest table)
// Any workload mode with --setup-only stops after set-up and prints
// "ready"; run.py times that to get setup_s.
//
// Each workload mode writes one JSON document to --out: every timed
// operation, the output checks that failed, the reference walks of an
// untraced run, and with --trace 1 the summed StatsDump counters, the layer
// probes and the recorded spans.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/balancer.hpp"
#include "core/budget.hpp"
#include "mem/memory_system.hpp"
#include "noc/mesh.hpp"
#include "power/power_model.hpp"
#include "power/ptht.hpp"
#include "serve/config_json.hpp"
#include "serve/http.hpp"
#include "sim/experiment.hpp"
#include "sim/reporting.hpp"
#include "sim/trace_export.hpp"
#include "stats/dump.hpp"
#include "workloads/suite.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using ptb::RunResult;
using ptb::SimConfig;
using ptb::WorkloadProfile;

double ms_since(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Milliseconds from the process's first call: the time base of operations
// and reference samples, so that run.py can pair them.
double run_ms(Clock::time_point t = Clock::now()) {
  static const Clock::time_point origin = Clock::now();
  return ms_since(origin, t);
}

// CPU time on `clock`: CLOCK_THREAD_CPUTIME_ID for the calling thread,
// CLOCK_PROCESS_CPUTIME_ID for all threads. Simulator speed is taken over
// CPU time, not wall time: on a shared host the wall clock also counts the
// time the host took the CPU away (steal), which moves by tens of percent.
double cpu_ms(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench-harness: %s\n", msg.c_str());
  std::exit(2);
}

// The benchmark's own generator, so that its inputs depend on the seed and
// on nothing inside the program (splitmix64; unbiased bounded draws).
struct SplitMix {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) {
    const std::uint64_t limit = ~0ULL - (~0ULL % n);
    std::uint64_t v;
    do v = next(); while (v >= limit);
    return v % n;
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

template <typename T>
void shuffle(std::vector<T>& v, SplitMix& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

// ---------------------------------------------------------------------------
// Host speed reference. The shared host this benchmark runs on changes speed
// by tens of percent from one minute to the next, as other tenants load its
// caches and memory, and CPU time does not hide that: each instruction takes
// longer. So the timed workloads run a fixed piece of reference work next to
// their operations, on the same threads, and run.py scales every timing by
// the reference's nominal time over the median of the walks taken around it
// (perfbench/README.md, "Host speed references"). The reference is the
// benchmark's own code, so no change to the program moves it. It is a
// dependent walk over a 128 KiB table (larger than L1, within L2) with
// integer hashing, data-dependent branches and floating-point updates per
// step. Of the walks tried on the 4-vCPU host the benchmark was built on
// (no loads; 128 KiB, 512 KiB, 2 MiB and 32 MiB tables, alone and mixed),
// this one tracked the simulator's speed best.

class RefWork {
 public:
  RefWork() : next_(kWords) {
    // Sattolo's shuffle: the walk visits every word before it repeats.
    for (std::uint32_t i = 0; i < kWords; ++i) next_[i] = i;
    SplitMix rng{0x7e5f};
    for (std::uint32_t i = kWords - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.below(i)]);
    }
  }

  // CPU milliseconds of one walk on the calling thread.
  double pass() {
    const double c0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
    std::uint32_t p = 0;
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    double x = 0.0;
    for (std::uint32_t i = 0; i < kSteps; ++i) {
      p = next_[p];
      h = (h ^ p) * 0xff51afd7ed558ccdULL;
      h ^= h >> 29;
      if (h & 4) {
        x = x * 0.999 + static_cast<double>(p & 255);
      } else {
        x -= static_cast<double>(h & 7);
      }
    }
    sink_ = sink_ + x + static_cast<double>(h & 1);
    return cpu_ms(CLOCK_THREAD_CPUTIME_ID) - c0;
  }

 private:
  static constexpr std::uint32_t kWords = 1u << 15;  // 128 KiB
  static constexpr std::uint32_t kSteps = 1u << 18;
  std::vector<std::uint32_t> next_;
  volatile double sink_ = 0.0;
};

// Reference walks of a run, each [run_ms() when taken, CPU ms]. run.py
// scales each operation by the walks taken nearest to it.
struct RefSamples {
  std::vector<std::pair<double, double>> walk_ms;

  // One walk on the calling thread, whose table is built on first use.
  void walk() {
    thread_local RefWork ref;
    const double at = run_ms();
    walk_ms.emplace_back(at, ref.pass());
  }
  void append(const RefSamples& o) {
    walk_ms.insert(walk_ms.end(), o.walk_ms.begin(), o.walk_ms.end());
  }
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Digest of a run's flat key=value summary: equal digests, equal results.
std::string digest(const RunResult& r) {
  return hex16(fnv1a(ptb::run_summary_kv(r)));
}

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Spans: recorded in memory from the benchmark's own code around each call
// into the program, written out when the run ends. run.py computes self
// times from them.

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::string note;  // ptb-serve job id of a request span
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), origin_(Clock::now()) {}
  bool on() const { return on_; }
  std::uint64_t next_id() { return ++last_id_; }
  double at(Clock::time_point t) const { return ms_since(origin_, t); }
  void add(std::uint64_t id, std::uint64_t parent, std::string name,
           Clock::time_point start, Clock::time_point end,
           std::string note = {}) {
    if (!on_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{id, parent, std::move(name), at(start), at(end),
                          std::move(note)});
  }
  std::string to_json() {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i) out += ",\n";
      out += "[" + std::to_string(s.id) + "," + std::to_string(s.parent) +
             "," + quote(s.name) + "," + num(s.start_ms) + "," +
             num(s.end_ms) + "," + quote(s.note) + "]";
    }
    return out + "]";
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Result document.

struct Op {
  std::string kind;  // base | cell | grid | run | hit | miss_cold | miss_warm
  double ms = 0.0;
  double cpu_ms = 0.0;  // CPU time of the simulating thread
  std::uint64_t core_cycles = 0;
  bool ok = true;
  double queue_ms = 0.0;  // RunPool submit -> start (fig_sweep only)
  std::string job;        // ptb-serve job id (serve_mix only)
  double at_ms = 0.0;     // run_ms() at the start
};

struct Outcome {
  std::vector<Op> ops;
  // Operations completed in the throughput window (fig_sweep: the tasks of
  // its grid passes), and the window's wall time; set-up excluded. run.py
  // takes ops_per_s and sim_mcycles_per_s from the timed operations.
  std::uint64_t done = 0;
  double wall_s = 0.0;
  int streams = 1;  // closed-loop streams of timed operations at once
  std::vector<std::string> failures;  // one entry per failed check
  std::map<std::string, double> report;  // extra figures for the report
  std::map<std::string, double> layer;   // per-layer figures measured here
  std::map<std::string, double> stats;   // summed StatsDump scalars
  std::uint64_t dumps = 0;               // runs the stats sum covers
  RefSamples ref;                        // untraced runs only
};

void fail(Outcome& out, std::string what) {
  if (out.failures.size() < 50) out.failures.push_back(std::move(what));
  else if (out.failures.size() == 50) out.failures.push_back("...");
}

// Sums a run's StatsDump into `out.stats`, folding per-core and per-cache
// instance numbers ("core.12.committed" -> "core.*.committed") so that
// names do not depend on the core count. Every scalar is summed by name, so
// gauges renamed or added later (sim.self.*) are picked up by prefix.
void add_dump(Outcome& out, const ptb::StatsDump& d) {
  ++out.dumps;
  for (const auto& s : d.scalars) {
    std::string name;
    std::size_t i = 0;
    while (i < s.name.size()) {
      const std::size_t dot = s.name.find('.', i);
      const std::string part = s.name.substr(
          i, dot == std::string::npos ? std::string::npos : dot - i);
      const bool numeric =
          !part.empty() &&
          std::all_of(part.begin(), part.end(),
                      [](char c) { return c >= '0' && c <= '9'; });
      if (!name.empty()) name += '.';
      name += numeric ? "*" : part;
      if (dot == std::string::npos) break;
      i = dot + 1;
    }
    out.stats[name] += s.integral ? static_cast<double>(s.u64) : s.value;
  }
}

void write_outcome(const std::string& path, const Outcome& out,
                   SpanLog& spans) {
  std::string j = "{\"ops\":[";
  for (std::size_t i = 0; i < out.ops.size(); ++i) {
    const Op& o = out.ops[i];
    if (i) j += ",\n";
    j += "[" + quote(o.kind) + "," + num(o.ms) + "," +
         std::to_string(o.core_cycles) + "," + (o.ok ? "true" : "false") +
         "," + num(o.queue_ms) + "," + quote(o.job) + "," + num(o.at_ms) +
         "," + num(o.cpu_ms) + "]";
  }
  j += "],\n\"done\":" + std::to_string(out.done);
  j += ",\n\"wall_s\":" + num(out.wall_s);
  j += ",\n\"streams\":" + std::to_string(out.streams);
  j += ",\n\"peak_rss_mb\":" + num(peak_rss_mb());
  j += ",\n\"failures\":[";
  for (std::size_t i = 0; i < out.failures.size(); ++i) {
    if (i) j += ",";
    j += quote(out.failures[i]);
  }
  j += "]";
  for (const auto* m : {&out.report, &out.layer, &out.stats}) {
    j += m == &out.report ? ",\n\"report\":{"
         : m == &out.layer ? ",\n\"layer\":{"
                           : ",\n\"stats\":{";
    bool first = true;
    for (const auto& [k, v] : *m) {
      if (!first) j += ",";
      first = false;
      j += quote(k) + ":" + num(v);
    }
    j += "}";
  }
  j += ",\n\"dumps\":" + std::to_string(out.dumps);
  j += ",\n\"ref_walk_ms\":[";
  for (std::size_t i = 0; i < out.ref.walk_ms.size(); ++i) {
    const auto& [at, ms] = out.ref.walk_ms[i];
    if (i) j += ",";
    j += "[" + num(at) + "," + num(ms) + "]";
  }
  j += "]";
  j += ",\n\"spans\":" + spans.to_json() + "}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) die("cannot write " + path);
  const bool ok = std::fwrite(j.data(), 1, j.size(), f) == j.size();
  if (std::fclose(f) != 0 || !ok) die("cannot write " + path);
}

// ---------------------------------------------------------------------------
// Layer probes: each public function timed in isolation. A probe runs
// `calls` calls per batch and reports the median ns per call over batches.

template <typename Fn>
double probe_ns(std::size_t calls, Fn&& fn) {
  constexpr int kBatches = 7;
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) fn(i);
    per_call.push_back(ms_since(t0, Clock::now()) * 1e6 /
                       static_cast<double>(calls));
  }
  std::sort(per_call.begin(), per_call.end());
  return per_call[kBatches / 2];
}

volatile double g_sink = 0.0;  // keeps probed results observable

// Shapes the probes take from the workload.
struct ProbeShape {
  std::uint32_t mem_cores = 4;     // MemorySystem size
  double ptht_cold_ratio = 0.0;    // share of PTHT lookups that miss
  std::string codec_text;          // a request-shaped SimConfig document
  std::string payload;             // a RunArtifact payload of the workload
  std::string scratch;             // directory for the DiskRunCache probe
};

void run_probes(const ProbeShape& shape, Outcome& out) {
  SplitMix rng{0x5eed};

  // mem: L1 hits re-touch a handful of lines; misses touch a new line each
  // time (cold L1, directory and DRAM path). Cores rotate, time advances so
  // no access waits on an earlier one.
  {
    SimConfig cfg = ptb::make_sim_config(shape.mem_cores,
                                         ptb::base_technique());
    ptb::Mesh mesh(cfg.noc, cfg.mesh_width(), cfg.mesh_height());
    ptb::MemorySystem mem(cfg, mesh);
    ptb::Cycle now = 1000;
    const ptb::Addr hot = 0x100000;
    for (int w = 0; w < 8; ++w) {
      mem.access(0, ptb::MemAccessType::kLoad, hot + 64 * w, now += 1000);
    }
    out.layer["mem.access_ns.l1_hit"] = probe_ns(20000, [&](std::size_t i) {
      g_sink = static_cast<double>(
          mem.access(0, ptb::MemAccessType::kLoad, hot + 64 * (i % 8),
                     now += 4)
              .done);
    });
    ptb::Addr next = 0x40000000;
    out.layer["mem.access_ns.l1_miss"] = probe_ns(4000, [&](std::size_t i) {
      next += 64 * 97;  // a fresh line, spread over sets
      g_sink = static_cast<double>(
          mem.access(static_cast<ptb::CoreId>(i % shape.mem_cores),
                     ptb::MemAccessType::kLoad, next, now += 1000)
              .done);
    });
  }

  // noc: routes between random node pairs.
  for (const auto& [w, h, name] :
       {std::tuple<std::uint32_t, std::uint32_t, const char*>{2, 2, "2x2"},
        {4, 4, "4x4"}}) {
    SimConfig cfg = ptb::make_sim_config(w * h, ptb::base_technique());
    ptb::Mesh mesh(cfg.noc, w, h);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(1024);
    for (auto& p : pairs) {
      p = {static_cast<std::uint32_t>(rng.below(w * h)),
           static_cast<std::uint32_t>(rng.below(w * h))};
    }
    ptb::Cycle now = 0;
    out.layer[std::string("noc.route_ns.") + name] =
        probe_ns(20000, [&](std::size_t i) {
          const auto& p = pairs[i % pairs.size()];
          g_sink = static_cast<double>(
              mesh.route(p.first, p.second, cfg.noc.data_msg_bytes,
                         now += 50));
        });
  }

  // power: PTHT lookups with the workload's cold-miss share, and the
  // per-core power function over varied activity.
  {
    SimConfig cfg = ptb::make_sim_config(16, ptb::base_technique());
    ptb::Ptht ptht(cfg.power.ptht_entries);
    const std::uint32_t resident = cfg.power.ptht_entries / 2;
    for (std::uint32_t i = 0; i < resident; ++i) {
      ptht.update(0x1000 + 4 * i, 10.0 + i % 7);
    }
    std::vector<ptb::Pc> pcs(4096);
    for (auto& pc : pcs) {
      pc = rng.unit() < shape.ptht_cold_ratio
               ? 0x900000 + 4 * rng.below(1u << 20)
               : 0x1000 + 4 * rng.below(resident);
    }
    out.layer["power.ptht.lookup_ns"] = probe_ns(50000, [&](std::size_t i) {
      g_sink = ptht.lookup(pcs[i % pcs.size()], 1.0);
    });
    std::vector<ptb::CoreActivity> acts(64);
    for (auto& a : acts) {
      a.fetch_tokens = 40.0 * rng.unit();
      a.rob_occupancy = static_cast<std::uint32_t>(rng.below(129));
      a.active = rng.below(8) != 0;
      a.gated = rng.below(8) == 0;
      a.vdd_ratio = 0.8 + 0.2 * rng.unit();
    }
    out.layer["power.core_cycle_power_ns"] =
        probe_ns(50000, [&](std::size_t i) {
          g_sink = ptb::core_cycle_power(cfg.power, acts[i % acts.size()]);
        });
  }

  // core: one 16-core balancing round, half under ToAll, half under ToOne,
  // with estimated power scattered around the local budget.
  {
    const auto techs = ptb::standard_techniques(ptb::PtbPolicy::kDynamic);
    SimConfig cfg = ptb::make_sim_config(16, techs.back());
    const double local = ptb::BudgetManager(cfg).local_budget();
    std::vector<std::vector<double>> est(256, std::vector<double>(16));
    for (auto& row : est) {
      for (double& e : row) e = local * (0.5 + rng.unit());
    }
    std::vector<double> eff(16);
    double total = 0.0;
    for (const ptb::PtbPolicy policy :
         {ptb::PtbPolicy::kToAll, ptb::PtbPolicy::kToOne}) {
      ptb::PtbLoadBalancer bal(cfg.ptb, 16, local);
      ptb::Cycle now = 0;
      total += probe_ns(20000, [&](std::size_t i) {
        bal.cycle(now++, est[i % est.size()].data(), true, policy,
                  eff.data());
        g_sink = eff[0];
      });
    }
    out.layer["core.balancer.cycle_ns.16"] = total / 2.0;
  }

  // serve: the request codec, the artifact codec and the disk cache, on
  // the workload's own config document and payload.
  {
    out.layer["serve.codec.parse_us"] =
        probe_ns(2000, [&](std::size_t) {
          SimConfig cfg;
          std::string err;
          if (!ptb::serve::sim_config_from_json(shape.codec_text, cfg, err)) {
            die("codec probe: " + err);
          }
          g_sink = cfg.num_cores;
        }) / 1e3;
    ptb::RunArtifact art;
    if (!ptb::RunArtifact::parse(shape.payload, art)) {
      die("artifact probe: payload does not parse");
    }
    out.layer["serve.artifact.parse_us"] = probe_ns(200, [&](std::size_t) {
      ptb::RunArtifact a;
      g_sink = ptb::RunArtifact::parse(shape.payload, a) ? 1.0 : 0.0;
    }) / 1e3;
    out.layer["serve.artifact.to_payload_us"] =
        probe_ns(200, [&](std::size_t) {
          g_sink = static_cast<double>(art.to_payload().size());
        }) / 1e3;
    // A load validates the artifact's own key, so each stored entry is the
    // payload re-keyed; every store publishes a new entry.
    constexpr std::size_t kEntries = 7 * 40;
    std::vector<std::string> keyed(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
      ptb::RunArtifact k = art;
      k.key = 1 + i;
      keyed[i] = k.to_payload();
    }
    ptb::DiskRunCache cache(shape.scratch + "/probe-cache");
    std::size_t next = 0;
    out.layer["serve.disk_cache.store_us"] = probe_ns(40, [&](std::size_t) {
      if (!cache.store(1 + next, keyed[next])) die("disk cache probe: store");
      ++next;
    }) / 1e3;
    std::string loaded;
    out.layer["serve.disk_cache.load_us"] =
        probe_ns(40, [&](std::size_t i) {
          if (!cache.load(1 + i, loaded)) die("disk cache probe: load");
        }) / 1e3;
  }
}

// Estimated host time per run that each layer's probed calls account for:
// calls per run (from the summed StatsDump) x ns per call.
void layer_estimates(Outcome& out, double runs, std::uint32_t mesh_nodes) {
  auto s = [&](const std::string& k) {
    const auto it = out.stats.find(k);
    return it == out.stats.end() ? 0.0 : it->second / runs;
  };
  auto l = [&](const std::string& k) { return out.layer[k]; };
  const double accesses =
      s("mem.loads") + s("mem.stores") + s("mem.atomics") + s("mem.ifetches");
  const double misses = s("mem.l1_misses");
  out.layer["mem.est_ms_per_run"] =
      ((accesses - misses) * l("mem.access_ns.l1_hit") +
       misses * l("mem.access_ns.l1_miss")) / 1e6;
  out.layer["noc.est_ms_per_run"] =
      s("noc.messages") *
      l(mesh_nodes > 4 ? "noc.route_ns.4x4" : "noc.route_ns.2x2") / 1e6;
  out.layer["power.est_ms_per_run"] =
      (s("core.*.ptht.lookups") * l("power.ptht.lookup_ns") +
       2.0 * s("core.*.ticks") * l("power.core_cycle_power_ns")) / 1e6;
  out.layer["core.est_ms_per_run"] =
      out.report["balancer_cycles"] / runs *
      l("core.balancer.cycle_ns.16") / 1e6;
}

// ---------------------------------------------------------------------------
// Simulation workloads.

struct Args {
  std::string mode;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out;
  std::string results;
  std::string digests;
  std::string scratch = ".";
  std::uint16_t port = 0;
  std::size_t requests = 0;  // serve_mix: per client; 0 = run for --seconds
};

// A RunObserver that turns the cycle loop's progress callbacks into child
// spans of the run: one span per `every` simulated cycles.
struct ProgressSpans {
  SpanLog& log;
  std::uint64_t parent;
  Clock::time_point last;
  ptb::RunObserver observer;
  ProgressSpans(SpanLog& l, std::uint64_t p, ptb::Cycle every)
      : log(l), parent(p), last(Clock::now()) {
    observer.progress_every = every;
    observer.progress = [this](const ptb::RunProgress&) {
      const auto now = Clock::now();
      log.add(log.next_id(), parent, "cycles", last, now);
      last = now;
    };
  }
  ProgressSpans(const ProgressSpans&) = delete;
  ProgressSpans& operator=(const ProgressSpans&) = delete;
};

constexpr ptb::Cycle kProgressEvery = 4096;
// Traced runs repeat the same work untraced and traced in this order
// (ABBA, so that drift falls on both sides), after one untraced warm-up
// repetition that is not counted (the first repetition in a process runs
// slower); the difference between the sides is the tracing overhead.
constexpr bool kTracedOrder[] = {false, true, true, false};
constexpr const char* kFig12Title = "Figure 12 (16 cores, dynamic policy)";
// run_suite_grid asks its BaseRunCache for each profile's base run twice:
// once as a pool task and once when it normalizes the profile's row.
constexpr std::size_t kBaseRequestsPerProfile = 2;

// --- fig_sweep -------------------------------------------------------------
//
// The Figure 12 grid, run_suite_grid(16, standard_techniques(kDynamic)) at
// simulation seed 1 on a RunPool of 2 workers: 14 base runs through a fresh
// BaseRunCache, then 14 x 4 technique cells. The timed loop alternates two
// kinds of pass over that batch:
//  - a grid pass calls run_suite_grid itself and is timed whole. The
//    throughput figures (ops_per_s, sim_mcycles_per_s) come from these.
//  - a cell pass submits the same 70 tasks to the same pool, in an order
//    drawn from the workload seed, so that each task can be timed. The
//    per-task latencies and the RunPool figures come from these.
// The figure_grid_json of both kinds of pass must be byte-identical to
// grids[0] of results/bench_fig12_dynamic.json, and every cell-pass task's
// run_summary_kv digest must equal its first occurrence.

struct FigTask {
  const WorkloadProfile* profile;
  int tech;  // -1 = base run
};

struct GridPass {
  double at_ms = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // CPU time of the whole process: the pool's workers
  std::size_t base_computed = 0;
  std::string grid_json;
  ptb::Normalized ptb_avg;  // PTB+2Level suite average
};

GridPass grid_pass(const std::vector<ptb::TechniqueSpec>& techs,
                   ptb::RunPool& pool) {
  ptb::BaseRunCache cache;
  GridPass pass;
  const double cpu0 = cpu_ms(CLOCK_PROCESS_CPUTIME_ID);
  const auto t0 = Clock::now();
  pass.at_ms = run_ms(t0);
  ptb::FigureGrid grid = ptb::run_suite_grid(16, techs, cache, pool);
  pass.wall_s = ms_since(t0, Clock::now()) / 1e3;
  pass.cpu_s = (cpu_ms(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e3;
  pass.base_computed = cache.computed();
  grid.append_average();
  pass.grid_json = ptb::figure_grid_json(grid, kFig12Title);
  pass.ptb_avg = grid.grid.back().back();
  return pass;
}

struct CellPass {
  std::vector<Op> ops;
  std::vector<RefSamples> ref;  // per task: one reference walk, if asked
  std::vector<RunResult> results;  // by task index
  double wall_s = 0.0;
  double busy_ms = 0.0;
  std::uint64_t core_cycles = 0;
  std::string grid_json;  // figure_grid_json of the assembled grid
};

// With `ref`, each task runs a reference walk on its worker just before its
// simulation.
CellPass cell_pass(const std::vector<FigTask>& tasks,
                   const std::vector<ptb::TechniqueSpec>& techs,
                   ptb::RunPool& pool, bool traced, SpanLog& spans,
                   std::uint64_t parent, bool ref = false) {
  ptb::BaseRunCache cache;
  CellPass pass;
  pass.ops.resize(tasks.size());
  if (ref) pass.ref.resize(tasks.size());
  const std::uint64_t pass_span = spans.next_id();
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const FigTask t = tasks[i];
    const auto submitted = Clock::now();
    pool.submit([&, t, i, submitted] {
      if (ref) pass.ref[i].walk();  // distinct slot per task
      const auto start = Clock::now();
      const double cpu0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      const std::uint64_t id = spans.next_id();
      RunResult r;
      if (t.tech < 0) {
        r = cache.get(*t.profile, 16);
      } else {
        ProgressSpans ps(spans, id, kProgressEvery);
        ptb::RunOptions opts;
        opts.stats = traced;
        if (traced) opts.observer = &ps.observer;
        r = ptb::run_one(*t.profile,
                         ptb::make_sim_config(16, techs[t.tech]), opts);
      }
      const auto end = Clock::now();
      const double cpu1 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      spans.add(id, pass_span, t.tech < 0 ? "base" : "cell", start, end);
      Op& op = pass.ops[i];  // distinct slot per task
      op.cpu_ms = cpu1 - cpu0;
      op.kind = t.tech < 0 ? "base" : "cell";
      op.at_ms = run_ms(start);
      op.ms = ms_since(start, end);
      op.queue_ms = ms_since(submitted, start);
      op.core_cycles = r.cycles * r.num_cores;
      return r;
    });
  }
  pass.results = pool.wait_all();
  const auto t1 = Clock::now();
  spans.add(pass_span, parent, "pass", t0, t1);
  pass.wall_s = ms_since(t0, t1) / 1e3;
  for (const Op& op : pass.ops) {
    pass.busy_ms += op.ms;
    pass.core_cycles += op.core_cycles;
  }
  // Assemble the grid as run_suite_grid does: rows in suite order, each
  // cell normalized against the cached base run.
  std::map<std::pair<const WorkloadProfile*, int>, std::size_t> where;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    where[{tasks[i].profile, tasks[i].tech}] = i;
  }
  ptb::FigureGrid grid;
  for (const auto& t : techs) grid.technique_labels.push_back(t.label);
  for (const auto& profile : ptb::benchmark_suite()) {
    const RunResult& base = cache.get(profile, 16);
    std::vector<ptb::Normalized> row;
    for (int c = 0; c < static_cast<int>(techs.size()); ++c) {
      row.push_back(ptb::normalize(base, pass.results[where[{&profile, c}]]));
    }
    grid.row_labels.push_back(profile.name);
    grid.grid.push_back(std::move(row));
  }
  grid.append_average();
  pass.grid_json = ptb::figure_grid_json(grid, kFig12Title);
  return pass;
}

int fig_sweep(const Args& a) {
  const auto techs = ptb::standard_techniques(ptb::PtbPolicy::kDynamic);
  std::string results;
  if (!read_file(a.results, results)) die("cannot read " + a.results);
  ptb::RunPool pool(2);
  {
    // Lazy set-up the runs would otherwise pay inside the timed window:
    // the suite and the shared energy model of simulation seed 1.
    ptb::CmpSimulator warm(ptb::make_sim_config(16, ptb::base_technique()),
                           ptb::benchmark_suite().front());
  }
  if (a.setup_only) {
    std::printf("ready\n");
    return 0;
  }

  SplitMix rng{a.seed};
  std::vector<FigTask> canonical;
  for (const auto& p : ptb::benchmark_suite()) canonical.push_back({&p, -1});
  for (const auto& p : ptb::benchmark_suite()) {
    for (int c = 0; c < static_cast<int>(techs.size()); ++c) {
      canonical.push_back({&p, c});
    }
  }
  auto shuffled = [&] {
    std::vector<FigTask> tasks = canonical;
    shuffle(tasks, rng);
    return tasks;
  };

  Outcome out;
  SpanLog spans(a.trace);
  const std::uint64_t root = spans.next_id();
  std::map<std::pair<const WorkloadProfile*, int>, std::string> digests;
  auto grid_ok = [&](const std::string& grid_json, const char* which) {
    const bool ok =
        results.find("\"grids\":[" + grid_json) != std::string::npos;
    if (!ok) {
      fail(out, std::string("fig_sweep: ") + which +
                    " grid differs from grids[0] of " + a.results);
    }
    return ok;
  };
  // One operation per grid pass: the run_suite_grid call.
  auto check_grid = [&](const GridPass& pass) {
    Op op;
    op.kind = "grid";
    op.at_ms = pass.at_ms;
    op.ms = pass.wall_s * 1e3;
    op.cpu_ms = pass.cpu_s * 1e3;
    op.ok = grid_ok(pass.grid_json, "run_suite_grid");
    out.ops.push_back(op);
    out.report["ptb_aopb_pct"] = pass.ptb_avg.aopb_pct;
    out.report["ptb_energy_pct"] = pass.ptb_avg.energy_pct;
    out.report["ptb_slowdown_pct"] = pass.ptb_avg.slowdown_pct;
  };
  auto check_cells = [&](const std::vector<FigTask>& tasks, CellPass& pass) {
    const bool ok = grid_ok(pass.grid_json, "cell pass");
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const std::string d = digest(pass.results[i]);
      auto [it, fresh] = digests.emplace(
          std::make_pair(tasks[i].profile, tasks[i].tech), d);
      pass.ops[i].ok = ok && (fresh || it->second == d);
      if (!fresh && it->second != d) {
        fail(out, "fig_sweep: " + tasks[i].profile->name + " task " +
                      std::to_string(tasks[i].tech) + " changed digest");
      }
    }
  };

  if (!a.trace) {
    // Pairs of passes until the time is up. Both kinds run the same
    // simulations (checked above), so a grid pass's operation carries the
    // core-cycles its cell pass counted. Each cell-pass task runs a
    // reference walk first; the grid pass is scaled by those around it.
    const auto t0 = Clock::now();
    do {
      const std::vector<FigTask> tasks = shuffled();
      CellPass cells =
          cell_pass(tasks, techs, pool, false, spans, root, true);
      check_cells(tasks, cells);
      for (const RefSamples& r : cells.ref) out.ref.append(r);
      out.ops.insert(out.ops.end(), cells.ops.begin(), cells.ops.end());
      const GridPass grid = grid_pass(techs, pool);
      check_grid(grid);
      out.ops.back().core_cycles = cells.core_cycles;
      out.wall_s += grid.wall_s;
      out.done += tasks.size();
    } while (ms_since(t0, Clock::now()) < a.seconds * 1e3);
  } else {
    // A grid pass (the warm-up, and the source of the BaseRunCache
    // figures), then one fixed cell pass repeated untraced and traced
    // (kTracedOrder). Counts and spans are those of the last traced pass;
    // the earlier traced pass records into a log that is dropped, so both
    // traced passes pay the same tracing cost.
    const GridPass grid = grid_pass(techs, pool);
    check_grid(grid);
    out.layer["experiment.base_reuse_ratio"] =
        static_cast<double>(grid.base_computed) /
        static_cast<double>(kBaseRequestsPerProfile *
                            ptb::benchmark_suite().size());
    const std::vector<FigTask> tasks = shuffled();
    SpanLog off(false);
    double plain_s = 0.0;
    double traced_s = 0.0;
    int traced_left = static_cast<int>(
        std::count(std::begin(kTracedOrder), std::end(kTracedOrder), true));
    CellPass pass;
    for (const bool traced : kTracedOrder) {
      if (!traced) {
        CellPass plain = cell_pass(tasks, techs, pool, false, off, 0);
        check_cells(tasks, plain);
        plain_s += plain.wall_s;
        continue;
      }
      SpanLog dropped(true);
      const bool last = --traced_left == 0;
      const auto t1 = Clock::now();
      pass = cell_pass(tasks, techs, pool, true, last ? spans : dropped,
                       root);
      check_cells(tasks, pass);
      if (last) spans.add(root, 0, "fig_sweep", t1, Clock::now());
      traced_s += pass.wall_s;
    }
    out.ops.insert(out.ops.end(), pass.ops.begin(), pass.ops.end());
    out.wall_s = pass.wall_s;
    out.done = tasks.size();
    const double pairs = static_cast<double>(std::size(kTracedOrder)) / 2.0;
    out.layer["bench.trace_overhead_ms"] = (traced_s - plain_s) * 1e3 / pairs;
    out.layer["bench.trace_overhead_frac"] = (traced_s - plain_s) / plain_s;
    out.layer["run_pool.busy_frac"] =
        pass.busy_ms / (pool.jobs() * pass.wall_s * 1e3);
    double balancer_cycles = 0.0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const RunResult& r = pass.results[i];
      if (r.stats) add_dump(out, *r.stats);
      if (tasks[i].tech >= 0 && techs[tasks[i].tech].ptb) {
        balancer_cycles += static_cast<double>(r.cycles);
      }
    }
    out.report["balancer_cycles"] = balancer_cycles;
    // Probe shapes: a 16-core machine, the cells' PTHT miss share, a
    // PTB+2Level cell's config and artifact.
    ProbeShape shape;
    shape.mem_cores = 16;
    const double lookups = out.stats["core.*.ptht.lookups"];
    shape.ptht_cold_ratio =
        lookups > 0 ? out.stats["core.*.ptht.cold_misses"] / lookups : 0.0;
    const SimConfig cfg = ptb::make_sim_config(16, techs.back());
    shape.codec_text = ptb::serve::sim_config_to_json(cfg);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (tasks[i].tech == static_cast<int>(techs.size()) - 1) {
        shape.payload = ptb::RunArtifact::from_result(
                            tasks[i].profile->name, cfg, pass.results[i])
                            .to_payload();
        break;
      }
    }
    shape.scratch = a.scratch;
    run_probes(shape, out);
    layer_estimates(out, static_cast<double>(out.dumps), 16);
  }
  write_outcome(a.out, out, spans);
  return 0;
}

// --- run4_base -------------------------------------------------------------
//
// A closed loop of serial run_one calls at 4 cores with no power control:
// whole laps over the 14 profiles, each lap in an order drawn from the
// workload seed, lap k at simulation seed 1 + k % 3. Every result's
// run_summary_kv digest must equal its first occurrence and the digest
// table kept beside this file.

constexpr std::uint64_t kRun4Seeds = 3;

RunResult run4_run(const WorkloadProfile& p, std::uint64_t sim_seed,
                   const ptb::RunOptions& opts) {
  return ptb::run_one(
      p, ptb::make_sim_config(4, ptb::base_technique(), sim_seed), opts);
}


int digests_mode() {
  for (std::uint64_t s = 1; s <= kRun4Seeds; ++s) {
    for (const auto& p : ptb::benchmark_suite()) {
      std::printf("%s %" PRIu64 " %s\n", p.name.c_str(), s,
                  digest(run4_run(p, s, {})).c_str());
    }
  }
  return 0;
}

int run4_base(const Args& a) {
  std::map<std::string, std::string> table;  // "profile seed" -> digest
  {
    std::ifstream f(a.digests);
    if (!f) die("cannot read " + a.digests);
    std::string name, digest;
    std::uint64_t s = 0;
    while (f >> name >> s >> digest) {
      table[name + " " + std::to_string(s)] = digest;
    }
    if (table.size() != kRun4Seeds * ptb::benchmark_suite().size()) {
      die("digest table " + a.digests + " is incomplete");
    }
  }
  for (std::uint64_t s = 1; s <= kRun4Seeds; ++s) {
    ptb::CmpSimulator warm(ptb::make_sim_config(4, ptb::base_technique(), s),
                           ptb::benchmark_suite().front());
  }
  if (a.setup_only) {
    std::printf("ready\n");
    return 0;
  }

  SplitMix rng{a.seed};
  Outcome out;
  SpanLog spans(a.trace);
  const std::uint64_t root = spans.next_id();
  std::map<std::string, std::string> seen;
  std::vector<const WorkloadProfile*> suite_order;
  for (const auto& p : ptb::benchmark_suite()) suite_order.push_back(&p);

  // One lap: every profile once, in a seeded order. Returns the lap's wall.
  auto lap = [&](std::uint64_t k, bool traced, bool record) {
    std::vector<const WorkloadProfile*> order = suite_order;
    shuffle(order, rng);
    const std::uint64_t sim_seed = 1 + k % kRun4Seeds;
    const auto t0 = Clock::now();
    for (const WorkloadProfile* p : order) {
      const std::uint64_t id = spans.next_id();
      ProgressSpans ps(spans, id, kProgressEvery);
      ptb::RunOptions opts;
      opts.stats = traced;
      if (traced) opts.observer = &ps.observer;
      if (!a.trace) out.ref.walk();
      const auto start = Clock::now();
      const double cpu0 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      const RunResult r = run4_run(*p, sim_seed, opts);
      const double cpu1 = cpu_ms(CLOCK_THREAD_CPUTIME_ID);
      const auto end = Clock::now();
      const std::string d = digest(r);
      if (traced) spans.add(id, root, "run", start, end);
      const std::string key = p->name + " " + std::to_string(sim_seed);
      Op op;
      op.kind = "run";
      op.at_ms = run_ms(start);
      op.ms = ms_since(start, end);
      op.cpu_ms = cpu1 - cpu0;
      op.core_cycles = r.cycles * r.num_cores;
      const auto [it, fresh] = seen.emplace(key, d);
      if (!fresh && it->second != d) {
        op.ok = false;
        fail(out, "run4_base: " + key + " digest differs from its first run");
      }
      if (table[key] != d) {
        op.ok = false;
        fail(out, "run4_base: " + key + " digest " + d +
                      " differs from the table (" + table[key] + ")");
      }
      if (record) {
        out.ops.push_back(op);
        if (r.stats) add_dump(out, *r.stats);
      }
    }
    return ms_since(t0, Clock::now()) / 1e3;
  };

  const auto t0 = Clock::now();
  if (!a.trace) {
    std::uint64_t k = 0;
    do {
      lap(k++, false, true);
    } while (ms_since(t0, Clock::now()) < a.seconds * 1e3);
    out.wall_s = ms_since(t0, Clock::now()) / 1e3;
    out.done = out.ops.size();
  } else {
    // Laps 0..2 (every profile at every simulation seed), each run
    // untraced and traced in the same order; which side goes first
    // alternates by lap.
    double plain = 0.0;
    double traced = 0.0;
    {
      const SplitMix before = rng;
      lap(0, false, false);  // warm-up
      rng = before;
    }
    const auto t1 = Clock::now();
    for (std::uint64_t k = 0; k < kRun4Seeds; ++k) {
      const SplitMix before = rng;
      for (const bool on : {k % 2 == 1, k % 2 == 0}) {
        rng = before;
        (on ? traced : plain) += lap(k, on, on);
      }
    }
    spans.add(root, 0, "run4_base", t1, Clock::now());
    out.wall_s = traced;
    out.done = out.ops.size();
    out.layer["bench.trace_overhead_ms"] = (traced - plain) * 1e3;
    out.layer["bench.trace_overhead_frac"] = (traced - plain) / plain;
    out.report["balancer_cycles"] = 0.0;
    ProbeShape shape;
    shape.mem_cores = 4;
    const double lookups = out.stats["core.*.ptht.lookups"];
    shape.ptht_cold_ratio =
        lookups > 0 ? out.stats["core.*.ptht.cold_misses"] / lookups : 0.0;
    const SimConfig cfg = ptb::make_sim_config(4, ptb::base_technique());
    shape.codec_text = ptb::serve::sim_config_to_json(cfg);
    ptb::RunOptions opts;
    opts.stats = true;
    const WorkloadProfile& p = ptb::benchmark_suite().front();
    shape.payload =
        ptb::RunArtifact::from_result(p.name, cfg, ptb::run_one(p, cfg, opts))
            .to_payload();
    shape.scratch = a.scratch;
    run_probes(shape, out);
    layer_estimates(out, static_cast<double>(out.dumps), 4);
  }
  write_outcome(a.out, out, spans);
  return 0;
}

// --- serve_mix -------------------------------------------------------------
//
// Two closed-loop clients against a running ptb-serve, each POSTing
// /v1/run?wait=1 one request at a time over its own key space (so no
// request races the other client's identical request). Each client walks
// identities — (benchmark, cores, simulation seed) — in blocks: a block is
// every benchmark x {2, 4, 8} cores at one simulation seed, in an order
// drawn from the workload seed. The mix follows two callers in the repo:
//  - Per identity a client sends one row of the Figure 12 grid, as
//    run_suite_grid builds it: the base run (technique "none"), a cold
//    miss that also writes the identity's warm image, then the four
//    standard_techniques(kDynamic) columns, warm misses that restore it.
//  - Each miss is followed by kHitsPerMiss repeats of keys the client has
//    already been answered: cache hits. scripts/load_serve.sh at its
//    defaults sends 7 hits per miss (4 clients x 8 requests over 4 keys).
// Misses are capped at kCoreCyclesPerMiss / cores cycles, so that every
// miss simulates the same work (tens of ms) whatever its core count.

constexpr int kHitsPerMiss = 7;
constexpr std::uint64_t kCoreCyclesPerMiss = 48000;
constexpr std::uint32_t kServeCores[] = {2, 4, 8};

// The JSON members that select `t` in a request's config.
std::string technique_members(const ptb::TechniqueSpec& t) {
  std::string m = "\"technique\":\"" +
                  std::string(ptb::serve::technique_kind_name(t.kind)) + "\"";
  if (t.ptb) {
    m += ",\"ptb\":{\"enabled\":true,\"policy\":\"" +
         std::string(ptb::serve::ptb_policy_name(t.policy)) + "\"}";
  }
  return m;
}

struct Request {
  std::string kind;  // hit | miss_cold | miss_warm
  std::string body;
};

class RequestStream {
 public:
  RequestStream(std::uint64_t seed, int client)
      : rng_{seed * 0x100 + static_cast<std::uint64_t>(client)},
        client_(client),
        cold_tech_(technique_members(ptb::base_technique())) {
    for (const auto& t : ptb::standard_techniques(ptb::PtbPolicy::kDynamic)) {
      warm_techs_.push_back(technique_members(t));
    }
  }

  Request next() {
    if (pending_hits_ > 0) {
      --pending_hits_;
      return {"hit", answered_[rng_.below(answered_.size())]};
    }
    pending_hits_ = kHitsPerMiss;
    if (next_warm_ < warm_techs_.size()) {
      return remember("miss_warm", body(current_, warm_techs_[next_warm_++]));
    }
    if (block_pos_ == block_.size()) new_block();
    current_ = block_[block_pos_++];
    next_warm_ = 0;
    return remember("miss_cold", body(current_, cold_tech_));
  }

 private:
  struct Identity {
    std::string benchmark;
    std::uint32_t cores;
    std::uint64_t sim_seed;
  };

  void new_block() {
    block_.clear();
    block_pos_ = 0;
    // Disjoint simulation seeds per client; one seed per block.
    const std::uint64_t sim_seed = 1000 * (client_ + 1) + blocks_++;
    for (const std::string& b : ptb::full_benchmark_names()) {
      for (std::uint32_t c : kServeCores) block_.push_back({b, c, sim_seed});
    }
    shuffle(block_, rng_);
  }

  // `tech` is the technique's JSON members.
  static std::string body(const Identity& id, const std::string& tech) {
    return "{\"benchmark\":\"" + id.benchmark +
           "\",\"config\":{\"num_cores\":" + std::to_string(id.cores) +
           ",\"seed\":" + std::to_string(id.sim_seed) + ",\"max_cycles\":" +
           std::to_string(kCoreCyclesPerMiss / id.cores) + "," + tech + "}}";
  }

  Request remember(const char* kind, std::string b) {
    answered_.push_back(b);
    return {kind, std::move(b)};
  }

  SplitMix rng_;
  int client_;
  std::uint64_t blocks_ = 0;
  std::vector<Identity> block_;
  std::size_t block_pos_ = 0;
  std::string cold_tech_;
  std::vector<std::string> warm_techs_;
  Identity current_;
  std::size_t next_warm_ = SIZE_MAX;  // no identity yet
  int pending_hits_ = 0;
  std::vector<std::string> answered_;
};

std::string header_of(const ptb::serve::HttpResponse& r,
                      std::string_view name) {
  for (const auto& [k, v] : r.headers) {
    if (k == name) return v;
  }
  return "";
}

struct ClientResult {
  std::vector<Op> ops;
  RefSamples ref;  // a walk before each miss (untraced runs)
  std::vector<std::string> failures;
  std::vector<std::string> payloads;  // one miss artifact per miss
};

void client_loop(const Args& a, int client, Clock::time_point deadline,
                 std::size_t max_requests, SpanLog& spans,
                 std::uint64_t root, ClientResult& res) {
  RequestStream stream(a.seed, client);
  std::map<std::string, std::string> first_body;  // request body -> reply
  while (res.ops.size() < max_requests && Clock::now() < deadline) {
    const Request req = stream.next();
    if (!a.trace && req.kind != "hit") res.ref.walk();
    ptb::serve::HttpResponse resp;
    std::string err;
    const auto t0 = Clock::now();
    const bool sent = ptb::serve::http_request(
        "127.0.0.1", a.port, "POST", "/v1/run?wait=1", req.body,
        {{"X-Ptb-Tenant", "client-" + std::to_string(client)}}, resp, err);
    const auto t1 = Clock::now();
    Op op;
    op.kind = req.kind;
    op.at_ms = run_ms(t0);
    op.ms = ms_since(t0, t1);
    op.job = header_of(resp, "x-ptb-job");
    spans.add(spans.next_id(), root, "request", t0, t1, op.job);
    auto bad = [&](const std::string& why) {
      op.ok = false;
      if (res.failures.size() < 20) res.failures.push_back(why);
    };
    if (!sent) {
      bad("serve_mix: request failed: " + err);
    } else if (resp.status != 200) {
      bad("serve_mix: HTTP " + std::to_string(resp.status) + " for " +
          req.body);
    } else {
      const std::string cache = header_of(resp, "x-ptb-cache");
      const bool hit = req.kind == "hit";
      if (cache != (hit ? "hit" : "miss")) {
        bad("serve_mix: expected a cache " +
            std::string(hit ? "hit" : "miss") + ", got '" + cache +
            "' for " + req.body);
      }
      const auto [it, fresh] = first_body.emplace(req.body, resp.body);
      if (!fresh && it->second != resp.body) {
        bad("serve_mix: reply differs from the first reply for " + req.body);
      }
      if (!hit) {
        ptb::RunArtifact art;
        if (!ptb::RunArtifact::parse(resp.body, art)) {
          bad("serve_mix: miss reply is not an artifact: " + req.body);
        } else {
          op.core_cycles = art.cycles * art.num_cores;
          if (spans.on()) res.payloads.push_back(resp.body);
        }
      }
    }
    res.ops.push_back(std::move(op));
  }
}

int serve_mix(const Args& a) {
  if (a.setup_only) {
    std::printf("ready\n");
    return 0;
  }
  if (a.port == 0) die("serve_mix needs --port");
  constexpr int kClients = 2;
  std::vector<ClientResult> results(kClients);
  const auto t0 = Clock::now();
  const auto deadline =
      a.requests > 0 ? Clock::time_point::max()
                     : t0 + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(a.seconds));
  const std::size_t cap = a.requests > 0 ? a.requests : SIZE_MAX;
  SpanLog spans(a.trace);
  const std::uint64_t root = spans.next_id();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(client_loop, std::cref(a), c, deadline, cap,
                           std::ref(spans), root, std::ref(results[c]));
    }
    for (auto& t : clients) t.join();
  }
  spans.add(root, 0, "serve_mix", t0, Clock::now());
  Outcome out;
  out.wall_s = ms_since(t0, Clock::now()) / 1e3;
  for (auto& r : results) {
    for (Op& op : r.ops) out.ops.push_back(std::move(op));
    for (auto& f : r.failures) fail(out, std::move(f));
    out.ref.append(r.ref);
  }
  out.done = out.ops.size();
  out.streams = kClients;
  if (a.trace) {
    // Counts over every simulated miss, from the StatsDump each artifact
    // carries.
    double balancer_cycles = 0.0;
    std::string sample_payload;
    for (const auto& r : results) {
      for (const std::string& payload : r.payloads) {
        ptb::RunArtifact art;
        ptb::StatsDump dump;
        if (!ptb::RunArtifact::parse(payload, art) ||
            !ptb::StatsDump::parse_json(art.stats_json, dump)) {
          fail(out, "serve_mix: artifact stats do not parse");
          continue;
        }
        add_dump(out, dump);
        if (const auto* s = dump.find("ptb.balancer.tokens_donated");
            s != nullptr) {
          balancer_cycles += static_cast<double>(art.cycles);
        }
        if (sample_payload.empty() && art.num_cores == 4) {
          sample_payload = payload;
        }
      }
    }
    out.report["balancer_cycles"] = balancer_cycles;
    ProbeShape shape;
    shape.mem_cores = 4;
    const double lookups = out.stats["core.*.ptht.lookups"];
    shape.ptht_cold_ratio =
        lookups > 0 ? out.stats["core.*.ptht.cold_misses"] / lookups : 0.0;
    shape.codec_text =
        "{\"num_cores\":4,\"seed\":1000,\"max_cycles\":8000,"
        "\"technique\":\"two_level\",\"ptb\":{\"enabled\":true}}";
    shape.payload = sample_payload;
    shape.scratch = a.scratch;
    if (shape.payload.empty()) die("serve_mix: no 4-core miss to probe");
    run_probes(shape, out);
    layer_estimates(out, static_cast<double>(std::max<std::uint64_t>(
                             out.dumps, 1)),
                    4);
  }
  write_outcome(a.out, out, spans);
  return 0;
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench-harness MODE [options]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) die(k + " needs a value");
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
    } else if (k == "--trace") {
      a.trace = v == "1";
      end = const_cast<char*>(v.c_str() + ((v == "0" || v == "1") ? 1 : 0));
    } else if (k == "--port") {
      const unsigned long p = std::strtoul(v.c_str(), &end, 10);
      if (p > 65535) die("bad --port");
      a.port = static_cast<std::uint16_t>(p);
    } else if (k == "--requests") {
      a.requests = std::strtoull(v.c_str(), &end, 10);
    } else if (k == "--out") {
      a.out = v;
    } else if (k == "--results") {
      a.results = v;
    } else if (k == "--digests") {
      a.digests = v;
    } else if (k == "--scratch") {
      a.scratch = v;
    } else {
      die("unknown option " + k);
    }
    if (end != nullptr && *end != '\0') die("bad value for " + k + ": " + v);
  }
  if (a.mode != "digests" && !a.setup_only && a.out.empty()) {
    die("--out is required");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "fig_sweep") return fig_sweep(a);
  if (a.mode == "run4_base") return run4_base(a);
  if (a.mode == "serve_mix") return serve_mix(a);
  if (a.mode == "digests") return digests_mode();
  die("unknown mode " + a.mode);
}
