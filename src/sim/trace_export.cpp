#include "sim/trace_export.hpp"

#include <cstdio>
#include <sstream>

#include "common/table.hpp"
#include "stats/stats.hpp"

#include "sync/spin_tracker.hpp"

namespace ptb {

double sample_at(const TimeSeries& s, double t, std::size_t& cursor) {
  const auto& times = s.times();
  const auto& values = s.values();
  if (times.empty()) return 0.0;
  while (cursor + 1 < times.size() && times[cursor + 1] <= t) ++cursor;
  return values[cursor];
}

std::string power_trace_csv(const RunResult& r) {
  std::ostringstream out;
  out << "cycle,cmp_power";
  for (std::size_t c = 0; c < r.core_power_traces.size(); ++c)
    out << ",core" << c;
  out << '\n';
  std::vector<std::size_t> cursors(r.core_power_traces.size(), 0);
  for (std::size_t i = 0; i < r.cmp_power_trace.size(); ++i) {
    const double t = r.cmp_power_trace.times()[i];
    out << static_cast<std::uint64_t>(t) << ','
        << format_double(r.cmp_power_trace.values()[i], 3);
    for (std::size_t c = 0; c < r.core_power_traces.size(); ++c) {
      out << ','
          << format_double(sample_at(r.core_power_traces[c], t, cursors[c]),
                           3);
    }
    out << '\n';
  }
  return out.str();
}

std::string run_summary_kv(const RunResult& r) {
  // The summary is generated from a stats registry over the RunResult
  // (src/stats) so the flat key=value plane and the registry share one
  // formatting path (pinned precisions, locale-independent decimal point).
  // Registration order IS the pinned legacy key order — append-only.
  StatsRegistry reg;
  reg.counter("num_cores", "", &r.num_cores);
  reg.counter("cycles", "", &r.cycles);
  reg.counter_fn("hit_max_cycles", "",
                 [&r] { return r.hit_max_cycles ? 1.0 : 0.0; });
  reg.counter("energy_tokens", "", &r.energy, 1);
  reg.counter("aopb_tokens", "", &r.aopb, 1);
  reg.gauge("budget_tokens_per_cycle", "", &r.budget, 3);
  reg.gauge("peak_power", "", &r.peak_power, 3);
  reg.formula("power_mean", "", [&r] { return r.power.mean(); }, 3);
  reg.formula("power_max", "", [&r] { return r.power.max(); }, 3);
  reg.formula("power_stddev", "", [&r] { return r.power.stddev(); }, 3);
  reg.counter("spin_energy", "", &r.spin_energy, 1);
  reg.counter("total_committed", "", &r.total_committed);
  reg.counter("tokens_donated", "", &r.tokens_donated, 1);
  reg.counter("tokens_granted", "", &r.tokens_granted, 1);
  reg.counter("tokens_evaporated", "", &r.tokens_evaporated, 1);
  reg.counter("dvfs_transitions", "", &r.dvfs_transitions);
  reg.counter("to_one_cycles", "", &r.to_one_cycles);
  reg.counter("to_all_cycles", "", &r.to_all_cycles);
  reg.counter("spin_gated_cycles", "", &r.spin_gated_cycles);
  reg.counter("barrier_sleep_cycles", "", &r.barrier_sleep_cycles);
  reg.counter("meeting_point_episodes", "", &r.meeting_point_episodes);
  reg.counter("audit_checks", "", &r.audit_checks);
  Cycle state_totals[kNumExecStates] = {};
  for (const auto& c : r.cores)
    for (std::uint32_t s = 0; s < kNumExecStates; ++s)
      state_totals[s] += c.state_cycles[s];
  reg.counter_fn("cycles_busy", "",
                 [v = state_totals[0]] { return static_cast<double>(v); });
  reg.counter_fn("cycles_lock_acq", "",
                 [v = state_totals[1]] { return static_cast<double>(v); });
  reg.counter_fn("cycles_lock_rel", "",
                 [v = state_totals[2]] { return static_cast<double>(v); });
  reg.counter_fn("cycles_barrier", "",
                 [v = state_totals[3]] { return static_cast<double>(v); });
  // The benchmark name is a string, which the (numeric) registry cannot
  // carry; it keeps its historical first position.
  return "benchmark=" + r.benchmark + "\n" + stats_kv(reg);
}

bool export_run(const RunResult& r, const std::string& dir) {
  const std::string stem =
      dir + "/" + r.benchmark + "_" + std::to_string(r.num_cores) + "c";
  auto write_file = [](const std::string& path, const std::string& content) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok =
        std::fwrite(content.data(), 1, content.size(), f) == content.size();
    std::fclose(f);
    return ok;
  };
  return write_file(stem + "_trace.csv", power_trace_csv(r)) &&
         write_file(stem + "_summary.txt", run_summary_kv(r));
}

}  // namespace ptb
