#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "common/assert.hpp"

namespace ptb {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'B', 'T', 'R', 'A', 'C', 'E'};
constexpr std::uint32_t kFormatVersion = 1;

// Explicit little-endian field writers: the serialized form must be
// byte-stable, so no struct is ever written at once (padding bytes are
// indeterminate) and the byte order is pinned regardless of host.
void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

/// Bounds-checked little-endian readers over a string_view cursor.
struct Reader {
  std::string_view bytes;
  std::size_t pos = 0;
  bool ok = true;

  bool need(std::size_t n) {
    if (!ok || bytes.size() - pos < n) ok = false;
    return ok;
  }
  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes[pos++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes[pos++]))
           << (8 * i);
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(bytes[pos++]))
           << (8 * i);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
};

}  // namespace

const char* trace_category_name(TraceCategory c) {
  switch (c) {
    case TraceCategory::kToken: return "token";
    case TraceCategory::kPolicy: return "policy";
    case TraceCategory::kDvfs: return "dvfs";
    case TraceCategory::kSpin: return "spin";
    case TraceCategory::kEnforcer: return "enforcer";
    case TraceCategory::kSync: return "sync";
    case TraceCategory::kBudget: return "budget";
    case TraceCategory::kCount: break;
  }
  return "?";
}

bool parse_trace_categories(std::string_view s, std::uint32_t& out_mask) {
  std::uint32_t mask = 0;
  while (!s.empty()) {
    const std::size_t comma = s.find(',');
    const std::string_view name = s.substr(0, comma);
    if (name == "all") {
      mask = kTraceAll;
    } else {
      bool found = false;
      for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
        if (name == trace_category_name(static_cast<TraceCategory>(c))) {
          mask |= 1u << c;
          found = true;
          break;
        }
      }
      if (!found) return false;
    }
    if (comma == std::string_view::npos) break;
    s.remove_prefix(comma + 1);
    if (s.empty()) return false;  // trailing comma
  }
  if (mask == 0) return false;
  out_mask = mask;
  return true;
}

std::string trace_categories_string(std::uint32_t mask) {
  if ((mask & kTraceAll) == kTraceAll) return "all";
  std::string out;
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    if ((mask & (1u << c)) == 0) continue;
    if (!out.empty()) out += ',';
    out += trace_category_name(static_cast<TraceCategory>(c));
  }
  return out;
}

TraceCategory trace_event_category(TraceEventType t) {
  switch (t) {
    case TraceEventType::kDonate:
    case TraceEventType::kGrant:
    case TraceEventType::kEvaporate: return TraceCategory::kToken;
    case TraceEventType::kPolicySwitch: return TraceCategory::kPolicy;
    case TraceEventType::kDvfsTransition: return TraceCategory::kDvfs;
    case TraceEventType::kSpinEnter:
    case TraceEventType::kSpinExit: return TraceCategory::kSpin;
    case TraceEventType::kThrottleLevel: return TraceCategory::kEnforcer;
    case TraceEventType::kLockAcquire:
    case TraceEventType::kLockRelease:
    case TraceEventType::kBarrierArrive:
    case TraceEventType::kBarrierRelease: return TraceCategory::kSync;
    case TraceEventType::kBudgetSample: return TraceCategory::kBudget;
    case TraceEventType::kCount: break;
  }
  PTB_ASSERT(false, "unknown trace event type");
  return TraceCategory::kToken;
}

const char* trace_event_name(TraceEventType t) {
  switch (t) {
    case TraceEventType::kDonate: return "donate";
    case TraceEventType::kGrant: return "grant";
    case TraceEventType::kEvaporate: return "evaporate";
    case TraceEventType::kPolicySwitch: return "policy_switch";
    case TraceEventType::kDvfsTransition: return "dvfs_transition";
    case TraceEventType::kSpinEnter: return "spin_enter";
    case TraceEventType::kSpinExit: return "spin_exit";
    case TraceEventType::kThrottleLevel: return "throttle_level";
    case TraceEventType::kLockAcquire: return "lock_acquire";
    case TraceEventType::kLockRelease: return "lock_release";
    case TraceEventType::kBarrierArrive: return "barrier_arrive";
    case TraceEventType::kBarrierRelease: return "barrier_release";
    case TraceEventType::kBudgetSample: return "budget_sample";
    case TraceEventType::kCount: break;
  }
  return "?";
}

// --- EventTrace -------------------------------------------------------------

std::uint64_t EventTrace::total_events() const {
  std::uint64_t n = 0;
  for (const auto& log : logs) n += log.events.size();
  return n;
}

std::uint64_t EventTrace::total_dropped() const {
  std::uint64_t n = 0;
  for (const auto& log : logs) n += log.dropped;
  return n;
}

std::vector<TraceEvent> EventTrace::merged() const {
  std::vector<TraceEvent> all;
  all.reserve(static_cast<std::size_t>(total_events()));
  for (const auto& log : logs)
    all.insert(all.end(), log.events.begin(), log.events.end());
  std::stable_sort(all.begin(), all.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.cycle < b.cycle;
                   });
  return all;
}

std::string EventTrace::serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  put_u32(out, kFormatVersion);
  put_u32(out, kNumTraceCategories);
  put_u32(out, num_cores);
  put_u32(out, categories);
  put_u64(out, end_cycle);
  put_u32(out, wire_latency);
  for (const auto& log : logs) {
    put_u64(out, log.emitted);
    put_u64(out, log.dropped);
    put_u64(out, log.events.size());
    for (const TraceEvent& e : log.events) {
      put_u64(out, e.cycle);
      put_u8(out, static_cast<std::uint8_t>(e.type));
      put_u32(out, e.core);
      put_u64(out, e.arg);
      put_f64(out, e.value);
    }
  }
  return out;
}

bool EventTrace::deserialize(std::string_view bytes, EventTrace& out) {
  Reader r{bytes};
  if (!r.need(sizeof(kMagic)) ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  r.pos = sizeof(kMagic);
  if (r.u32() != kFormatVersion) return false;
  if (r.u32() != kNumTraceCategories) return false;
  EventTrace t;
  t.num_cores = r.u32();
  t.categories = r.u32();
  t.end_cycle = r.u64();
  t.wire_latency = r.u32();
  for (auto& log : t.logs) {
    log.emitted = r.u64();
    log.dropped = r.u64();
    const std::uint64_t n = r.u64();
    // 29 serialized bytes per event; reject before allocating on garbage.
    if (!r.need(static_cast<std::size_t>(n) * 29)) return false;
    log.events.resize(static_cast<std::size_t>(n));
    for (TraceEvent& e : log.events) {
      e.cycle = r.u64();
      const std::uint8_t type = r.u8();
      if (type >= kNumTraceEventTypes) return false;
      e.type = static_cast<TraceEventType>(type);
      e.core = r.u32();
      e.arg = r.u64();
      e.value = r.f64();
    }
  }
  if (!r.ok || r.pos != bytes.size()) return false;
  out = std::move(t);
  return true;
}

bool EventTrace::save(const std::string& path) const {
  const std::string bytes = serialize();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

bool EventTrace::load(const std::string& path, EventTrace& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  std::fclose(f);
  return deserialize(bytes, out);
}

// --- TraceRing --------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity) : buf_(capacity) {
  PTB_ASSERT(capacity >= 1, "trace ring needs capacity >= 1");
}

void TraceRing::push(const TraceEvent& e) {
  buf_[head_] = e;
  head_ = (head_ + 1) % buf_.size();
  if (size_ < buf_.size()) ++size_;
  ++emitted_;
}

std::vector<TraceEvent> TraceRing::in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest element: head_ when full, 0 while filling.
  const std::size_t start = size_ == buf_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(buf_[(start + i) % buf_.size()]);
  return out;
}

// --- EventTracer ------------------------------------------------------------

EventTracer::EventTracer(std::uint32_t category_mask, std::size_t capacity)
    : mask_(category_mask & kTraceAll) {
  rings_.reserve(kNumTraceCategories);
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c)
    rings_.emplace_back(capacity);
}

void EventTracer::emit(TraceEventType t, std::uint32_t core,
                       std::uint64_t arg, double value) {
  const TraceCategory cat = trace_event_category(t);
  if (!enabled(cat)) return;
  rings_[static_cast<std::size_t>(cat)].push({now_, t, core, arg, value});
}

EventTrace EventTracer::finish(std::uint32_t num_cores, Cycle end_cycle,
                               std::uint32_t wire_latency) {
  EventTrace t;
  t.num_cores = num_cores;
  t.categories = mask_;
  t.end_cycle = end_cycle;
  t.wire_latency = wire_latency;
  for (std::uint32_t c = 0; c < kNumTraceCategories; ++c) {
    t.logs[c].events = rings_[c].in_order();
    t.logs[c].emitted = rings_[c].emitted();
    t.logs[c].dropped = rings_[c].dropped();
  }
  return t;
}

}  // namespace ptb
