#include "stats/dump.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/format.hpp"
#include "common/json.hpp"

namespace ptb {

namespace {

/// Quoted JSON string literal.
std::string jstr(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

/// Prometheus metric name: "ptb_" + name with every non-[a-zA-Z0-9_]
/// character replaced by '_'.
std::string prom_name(const std::string& name) {
  std::string out = "ptb_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Dumps carry integers as JSON numbers: read as a double and truncated,
/// which keeps ptb-stats output byte-stable. A value outside T's range is
/// rejected, because the cast would be undefined.
template <typename T>
bool to_uint(double v, T& out) {
  const double end = static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!(v >= 0.0 && v < end)) return false;
  out = static_cast<T>(v);
  return true;
}

std::string fingerprint_hex(std::uint64_t fp) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

}  // namespace

StatsDump StatsDump::snapshot(const StatsRegistry& reg,
                              const SampleBuffer* samples,
                              Cycle sample_every) {
  StatsDump d;
  for (const Stat* s : reg.sorted()) {
    if (s->kind() == StatKind::kDistribution) {
      const Histogram& h = *s->histogram();
      Dist dist;
      dist.name = s->name();
      dist.desc = s->desc();
      dist.lo = h.lo();
      dist.hi = h.hi();
      dist.sum = h.sum();
      dist.total = h.total();
      dist.counts.resize(h.buckets());
      for (std::size_t i = 0; i < h.buckets(); ++i)
        dist.counts[i] = h.bucket_count(i);
      d.dists.push_back(std::move(dist));
    } else {
      Scalar sc;
      sc.name = s->name();
      sc.desc = s->desc();
      sc.kind = s->kind();
      sc.is_volatile = s->is_volatile();
      sc.integral = s->integral();
      sc.value = s->value();
      sc.u64 = s->integral() ? s->value_u64() : 0;
      d.scalars.push_back(std::move(sc));
    }
  }
  if (samples != nullptr) {
    d.sample_every = sample_every;
    d.sample_cycles = samples->cycles();
    d.sample_columns = samples->columns();
    d.sample_values.resize(samples->num_columns());
    for (std::size_t i = 0; i < samples->num_columns(); ++i)
      d.sample_values[i] = samples->column(i);
  }
  return d;
}

const StatsDump::Scalar* StatsDump::find(std::string_view name) const {
  const auto it = std::lower_bound(
      scalars.begin(), scalars.end(), name,
      [](const Scalar& s, std::string_view n) { return s.name < n; });
  return (it != scalars.end() && it->name == name) ? &*it : nullptr;
}

std::string StatsDump::to_json(bool include_volatile) const {
  std::string out = "{";
  out += "\"kind\":\"ptb-stats\",";
  out += "\"schema_version\":" + std::to_string(kSchemaVersion) + ",";
  out += "\"bench\":" + jstr(bench) + ",";
  out += "\"num_cores\":" + std::to_string(num_cores) + ",";
  out += "\"cycles\":" + std::to_string(cycles) + ",";
  out += "\"config_fingerprint\":\"" + fingerprint_hex(config_fingerprint) +
         "\",";
  out += "\"stats\":[";
  bool first = true;
  for (const Scalar& s : scalars) {
    if (s.is_volatile && !include_volatile) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + jstr(s.name);
    out += ",\"kind\":\"";
    out += stat_kind_name(s.kind);
    out += "\"";
    if (!s.desc.empty()) out += ",\"desc\":" + jstr(s.desc);
    if (s.is_volatile) out += ",\"volatile\":true";
    if (s.integral) out += ",\"integral\":true";
    out += ",\"value\":";
    out += s.integral ? std::to_string(s.u64) : format_g17(s.value);
    out += "}";
  }
  out += "],\"distributions\":[";
  for (std::size_t i = 0; i < dists.size(); ++i) {
    const Dist& h = dists[i];
    if (i) out += ",";
    out += "{\"name\":" + jstr(h.name);
    if (!h.desc.empty()) out += ",\"desc\":" + jstr(h.desc);
    out += ",\"lo\":" + format_g17(h.lo);
    out += ",\"hi\":" + format_g17(h.hi);
    out += ",\"sum\":" + format_g17(h.sum);
    out += ",\"total\":" + std::to_string(h.total);
    out += ",\"counts\":[";
    for (std::size_t j = 0; j < h.counts.size(); ++j) {
      if (j) out += ",";
      out += std::to_string(h.counts[j]);
    }
    out += "]}";
  }
  out += "],\"samples\":{";
  out += "\"every\":" + std::to_string(sample_every) + ",";
  out += "\"cycles\":[";
  for (std::size_t i = 0; i < sample_cycles.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(sample_cycles[i]);
  }
  out += "],\"columns\":[";
  for (std::size_t i = 0; i < sample_columns.size(); ++i) {
    if (i) out += ",";
    out += jstr(sample_columns[i]);
  }
  out += "],\"values\":[";
  for (std::size_t i = 0; i < sample_values.size(); ++i) {
    if (i) out += ",";
    out += "[";
    for (std::size_t j = 0; j < sample_values[i].size(); ++j) {
      if (j) out += ",";
      out += format_g17(sample_values[i][j]);
    }
    out += "]";
  }
  out += "]}}\n";
  return out;
}

std::string StatsDump::to_prometheus() const {
  std::string out;
  out += "# ptb-stats exposition: bench " + jstr(bench) + ", " +
         std::to_string(num_cores) + " cores, " + std::to_string(cycles) +
         " cycles\n";
  out += "# TYPE ptb_run_info gauge\n";
  out += "ptb_run_info{bench=" + jstr(bench) + ",config_fingerprint=\"" +
         fingerprint_hex(config_fingerprint) + "\"} 1\n";
  for (const Scalar& s : scalars) {
    const std::string n = prom_name(s.name);
    if (!s.desc.empty()) out += "# HELP " + n + " " + s.desc + "\n";
    // Prometheus has no formula type; derived metrics expose as gauges.
    out += "# TYPE " + n + " " +
           (s.kind == StatKind::kCounter ? "counter" : "gauge") + "\n";
    out += n + " " +
           (s.integral ? std::to_string(s.u64) : format_g17(s.value)) + "\n";
  }
  for (const Dist& h : dists) {
    const std::string n = prom_name(h.name);
    if (!h.desc.empty()) out += "# HELP " + n + " " + h.desc + "\n";
    out += "# TYPE " + n + " histogram\n";
    const double width =
        (h.hi - h.lo) / static_cast<double>(h.counts.empty()
                                                ? 1
                                                : h.counts.size());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cum += h.counts[i];
      const double le = h.lo + width * static_cast<double>(i + 1);
      out += n + "_bucket{le=\"" + format_g17(le) + "\"} " +
             std::to_string(cum) + "\n";
    }
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(h.total) + "\n";
    out += n + "_sum " + format_g17(h.sum) + "\n";
    out += n + "_count " + std::to_string(h.total) + "\n";
  }
  return out;
}

bool StatsDump::parse_json(std::string_view text, StatsDump& out) {
  json::Value root;
  std::string err;
  if (!json::parse(text, root, err) || !root.is_object()) return false;
  std::string kind;
  if (!root.get_string("kind", kind) || kind != "ptb-stats") return false;
  double num = 0.0;
  std::uint32_t schema = 0;
  if (!root.get_number("schema_version", num) || !to_uint(num, schema) ||
      schema != kSchemaVersion) {
    return false;
  }
  StatsDump d;
  if (!root.get_string("bench", d.bench)) return false;
  if (!root.get_number("num_cores", num) || !to_uint(num, d.num_cores)) {
    return false;
  }
  if (!root.get_number("cycles", num) || !to_uint(num, d.cycles)) {
    return false;
  }
  std::string fp;
  if (!root.get_string("config_fingerprint", fp)) return false;
  d.config_fingerprint = std::strtoull(fp.c_str(), nullptr, 16);

  const json::Value* stats = root.find("stats");
  if (stats == nullptr || !stats->is_array()) return false;
  for (const json::Value& e : stats->array()) {
    if (!e.is_object()) return false;
    Scalar s;
    if (!e.get_string("name", s.name)) return false;
    std::string ks;
    if (!e.get_string("kind", ks) || !parse_stat_kind(ks, s.kind)) {
      return false;
    }
    e.get_string("desc", s.desc);
    if (const json::Value* v = e.find("volatile"); v != nullptr)
      s.is_volatile = v->is_bool() && v->as_bool();
    if (const json::Value* v = e.find("integral"); v != nullptr)
      s.integral = v->is_bool() && v->as_bool();
    if (!e.get_number("value", s.value)) return false;
    if (s.integral && !to_uint(s.value, s.u64)) return false;
    d.scalars.push_back(std::move(s));
  }
  const json::Value* dists = root.find("distributions");
  if (dists == nullptr || !dists->is_array()) return false;
  for (const json::Value& e : dists->array()) {
    if (!e.is_object()) return false;
    Dist h;
    if (!e.get_string("name", h.name)) return false;
    e.get_string("desc", h.desc);
    if (!e.get_number("lo", h.lo) || !e.get_number("hi", h.hi) ||
        !e.get_number("sum", h.sum)) {
      return false;
    }
    if (!e.get_number("total", num) || !to_uint(num, h.total)) return false;
    const json::Value* counts = e.find("counts");
    if (counts == nullptr || !counts->is_array()) return false;
    for (const json::Value& c : counts->array()) {
      std::uint64_t count = 0;
      if (!c.is_number() || !to_uint(c.as_double(), count)) return false;
      h.counts.push_back(count);
    }
    d.dists.push_back(std::move(h));
  }
  const json::Value* samples = root.find("samples");
  if (samples == nullptr || !samples->is_object()) return false;
  if (!samples->get_number("every", num) || !to_uint(num, d.sample_every)) {
    return false;
  }
  const json::Value* cycles = samples->find("cycles");
  const json::Value* columns = samples->find("columns");
  const json::Value* values = samples->find("values");
  if (cycles == nullptr || !cycles->is_array() || columns == nullptr ||
      !columns->is_array() || values == nullptr || !values->is_array()) {
    return false;
  }
  for (const json::Value& c : cycles->array()) {
    Cycle cycle = 0;
    if (!c.is_number() || !to_uint(c.as_double(), cycle)) return false;
    d.sample_cycles.push_back(cycle);
  }
  for (const json::Value& c : columns->array()) {
    if (!c.is_string()) return false;
    d.sample_columns.push_back(c.as_string());
  }
  for (const json::Value& col : values->array()) {
    if (!col.is_array()) return false;
    std::vector<double> v;
    for (const json::Value& c : col.array()) {
      if (!c.is_number()) return false;
      v.push_back(c.as_double());
    }
    d.sample_values.push_back(std::move(v));
  }
  if (d.sample_values.size() != d.sample_columns.size()) return false;
  out = std::move(d);
  return true;
}

std::vector<StatsDiffEntry> diff_stats(const StatsDump& a, const StatsDump& b,
                                       double rel_tolerance,
                                       bool include_volatile) {
  std::vector<StatsDiffEntry> out;
  std::size_t i = 0;
  std::size_t j = 0;
  const auto skip = [&](const StatsDump::Scalar& s) {
    return s.is_volatile && !include_volatile;
  };
  while (i < a.scalars.size() || j < b.scalars.size()) {
    if (i < a.scalars.size() && skip(a.scalars[i])) { ++i; continue; }
    if (j < b.scalars.size() && skip(b.scalars[j])) { ++j; continue; }
    const bool have_a = i < a.scalars.size();
    const bool have_b = j < b.scalars.size();
    int cmp;
    if (have_a && have_b) {
      cmp = a.scalars[i].name.compare(b.scalars[j].name);
    } else {
      cmp = have_a ? -1 : 1;
    }
    StatsDiffEntry e;
    if (cmp < 0) {
      e.name = a.scalars[i].name;
      e.only_in_a = true;
      e.a = a.scalars[i].value;
      out.push_back(std::move(e));
      ++i;
    } else if (cmp > 0) {
      e.name = b.scalars[j].name;
      e.only_in_b = true;
      e.b = b.scalars[j].value;
      out.push_back(std::move(e));
      ++j;
    } else {
      const double va = a.scalars[i].value;
      const double vb = b.scalars[j].value;
      const double mag = std::max(std::fabs(va), std::fabs(vb));
      const double rel = (va == vb) ? 0.0 : std::fabs(va - vb) / mag;
      if (rel > rel_tolerance) {
        e.name = a.scalars[i].name;
        e.a = va;
        e.b = vb;
        e.rel = rel;
        out.push_back(std::move(e));
      }
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace ptb
