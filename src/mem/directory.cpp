#include "mem/directory.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include <cstdio>

namespace ptb {

namespace {
// Removes a line from whichever L1 (I or D) of `core` holds it.
void drop_l1(std::vector<Cache>& l1i, std::vector<Cache>& l1d, CoreId core,
             Addr line_byte_addr) {
  l1i[core].invalidate(line_byte_addr);
  l1d[core].invalidate(line_byte_addr);
}
}  // namespace

DirectoryController::DirectoryController(const SimConfig& cfg, Mesh& mesh,
                                         std::vector<Cache>& l1i,
                                         std::vector<Cache>& l1d)
    : cfg_(cfg), mesh_(mesh), l1i_(l1i), l1d_(l1d), dram_(cfg.mem),
      num_cores_(cfg.num_cores) {
  PTB_ASSERT(num_cores_ <= Cache::kMaxSharers,
             "sharer bitmask supports at most 32 cores");
  l2_banks_.reserve(num_cores_);
  // Lines are interleaved across banks by (line % num_cores); drop those
  // bits from each bank's set index so the whole bank capacity is usable.
  std::uint32_t bank_shift = 0;
  while ((1u << (bank_shift + 1)) <= num_cores_) ++bank_shift;
  for (std::uint32_t i = 0; i < num_cores_; ++i) {
    l2_banks_.emplace_back(cfg.l2.size_bytes_per_core, cfg.l2.assoc,
                           cfg.l2.line_bytes, bank_shift);
  }
}

Cache::Line* DirectoryController::ensure_resident(Addr line, Cycle& t,
                                                  DirOutcome& out) {
  const CoreId home = home_of(line);
  Cache& bank = l2_banks_[home];
  const Addr byte_addr = line * bank.line_bytes();
  if (Cache::Line* l = bank.find(byte_addr)) {
    ++bank.hits;
    return l;
  }
  ++bank.misses;
  ++l2_misses;
#ifdef PTB_DEBUG_L2MISS
  if (l2_misses < 30)
    std::fprintf(stderr, "L2MISS line=0x%llx byte=0x%llx\n",
                 (unsigned long long)line,
                 (unsigned long long)(line * bank.line_bytes()));
#endif
  out.l2_miss = true;
  t = dram_.access(line, t);
  Cache::Line victim = bank.insert(byte_addr, CoherenceState::kExclusive);
  if (victim.state != CoherenceState::kInvalid) {
    // Inclusion recall: every L1 copy of the victim must be dropped before
    // the set conflict resolves; this sits on the requester's critical path.
    const Addr victim_byte = victim.tag * bank.line_bytes();
    Cycle recall_done = t;
    bool any = false;
    std::uint32_t copies = victim.sharers;
    if (victim.owner != kNoCore) copies |= (1u << victim.owner);
    for (CoreId c = 0; c < num_cores_; ++c) {
      if (!(copies & (1u << c))) continue;
      any = true;
      const Cycle inv_at =
          mesh_.route(home, c, cfg_.noc.ctrl_msg_bytes, t);
      drop_l1(l1i_, l1d_, c, victim_byte);
      ++invalidations_sent;
      const bool dirty_copy = (victim.owner == c);
      const Cycle ack_at = mesh_.route(
          c, home, dirty_copy ? cfg_.noc.data_msg_bytes
                              : cfg_.noc.ctrl_msg_bytes,
          inv_at);
      recall_done = std::max(recall_done, ack_at);
    }
    if (any) {
      ++l2_recalls;
      t = recall_done;
    }
    if (is_dirty(victim.state) || victim.owner != kNoCore) ++writebacks;
  }
  Cache::Line* fresh = bank.find(byte_addr);
  PTB_ASSERT(fresh != nullptr, "line must be resident after insert");
  return fresh;
}

Cycle DirectoryController::invalidate_copies(Cache::Line* entry, Addr line,
                                             CoreId keep, CoreId ack_to,
                                             Cycle t, DirOutcome& out) {
  const CoreId home = home_of(line);
  const Addr byte_addr = line * l2_banks_[home].line_bytes();
  const CoreId ack_node = ack_to;
  Cycle all_acks = t;
  std::uint32_t copies = entry->sharers;
  if (entry->owner != kNoCore) copies |= (1u << entry->owner);
  for (CoreId c = 0; c < num_cores_; ++c) {
    if (c == keep || !(copies & (1u << c))) continue;
    const Cycle inv_at = mesh_.route(home, c, cfg_.noc.ctrl_msg_bytes, t);
    drop_l1(l1i_, l1d_, c, byte_addr);
    ++invalidations_sent;
    ++out.invalidations;
    const Cycle ack_at =
        mesh_.route(c, ack_node, cfg_.noc.ctrl_msg_bytes, inv_at);
    all_acks = std::max(all_acks, ack_at);
  }
  return all_acks;
}

DirOutcome DirectoryController::get_shared(CoreId req, Addr line, Cycle at,
                                           bool instruction) {
  ++gets_requests;
  DirOutcome out;
  const CoreId home = home_of(line);
  Cycle t = at + cfg_.l2.hit_latency;
  Cache::Line* entry = ensure_resident(line, t, out);
  const Addr byte_addr = line * l2_banks_[home].line_bytes();

  Cycle data_at;
  CoherenceState fill_state;
  if (entry->owner != kNoCore && entry->owner != req) {
    // 3-hop transfer: home forwards the request, the owner supplies data
    // directly to the requester and downgrades (MOESI: M->O, E->S).
    ++owner_forwards;
    out.data_from_owner = true;
    const CoreId owner = entry->owner;
    const Cycle fwd_at = mesh_.route(home, owner, cfg_.noc.ctrl_msg_bytes, t);
    data_at = mesh_.route(owner, req, cfg_.noc.data_msg_bytes, fwd_at);
    Cache::Line* ol = l1d_[owner].find(byte_addr);
    if (ol == nullptr) ol = l1i_[owner].find(byte_addr);
    if (ol != nullptr) {
      if (ol->state == CoherenceState::kModified) {
        if (cfg_.l2.protocol == CoherenceProtocol::kMoesi) {
          ol->state = CoherenceState::kOwned;  // keeps ownership (MOESI)
          entry->sharers |= (1u << owner);
        } else {
          // MESI: the dirty owner writes its data back to the home L2 and
          // drops to S; later readers are served two-hop from the L2.
          ol->state = CoherenceState::kShared;
          entry->sharers |= (1u << owner);
          entry->owner = kNoCore;
          entry->state = CoherenceState::kModified;  // L2 holds dirty data
          (void)mesh_.route(owner, home, cfg_.noc.data_msg_bytes, fwd_at);
          ++writebacks;
        }
      } else if (ol->state == CoherenceState::kExclusive) {
        ol->state = CoherenceState::kShared;
        entry->sharers |= (1u << owner);
        entry->owner = kNoCore;
      }
      // kOwned stays kOwned (MOESI only).
      if (ol->state == CoherenceState::kOwned) entry->sharers |= (1u << owner);
    } else {
      // The owner's copy vanished via a concurrent recall; the L2 copy is
      // still valid, treat as an L2 supply.
      entry->owner = kNoCore;
    }
    entry->sharers |= (1u << req);
    fill_state = CoherenceState::kShared;
  } else {
    data_at = mesh_.route(home, req, cfg_.noc.data_msg_bytes, t);
    if (entry->owner == req) {
      // Requester already owns it (I-fetch after write, or L1I/L1D split
      // artifacts); no state change needed.
      fill_state = CoherenceState::kShared;
    } else if (entry->sharers == 0) {
      fill_state = CoherenceState::kExclusive;  // unshared -> grant E
      entry->owner = req;
    } else {
      fill_state = CoherenceState::kShared;
      entry->sharers |= (1u << req);
    }
  }

  Cache& target = instruction ? l1i_[req] : l1d_[req];
  if (target.find(byte_addr) == nullptr) {
    Cache::Line victim = target.insert(byte_addr, fill_state);
    // Silent S eviction (the directory keeps a stale sharer bit; a later
    // invalidation to it is a harmless no-op); owner states must notify.
    if (is_owner_state(victim.state)) {
      put_owner(req, victim.tag, is_dirty(victim.state), data_at);
    }
  }
  out.done = data_at;
  return out;
}

DirOutcome DirectoryController::get_modified(CoreId req, Addr line, Cycle at) {
  ++getm_requests;
  DirOutcome out;
  const CoreId home = home_of(line);
  Cycle t = at + cfg_.l2.hit_latency;
  Cache::Line* entry = ensure_resident(line, t, out);
  const Addr byte_addr = line * l2_banks_[home].line_bytes();

  // Data delivery (or upgrade grant if the requester already has a copy).
  Cache& req_l1 = l1d_[req];
  Cache::Line* mine = req_l1.find(byte_addr);
  Cycle data_at;
  if (entry->owner != kNoCore && entry->owner != req) {
    ++owner_forwards;
    out.data_from_owner = true;
    const CoreId owner = entry->owner;
    const Cycle fwd_at = mesh_.route(home, owner, cfg_.noc.ctrl_msg_bytes, t);
    data_at = mesh_.route(owner, req, cfg_.noc.data_msg_bytes, fwd_at);
    drop_l1(l1i_, l1d_, owner, byte_addr);
    ++invalidations_sent;
  } else if (mine != nullptr) {
    // Upgrade: only the directory's grant message is needed.
    data_at = mesh_.route(home, req, cfg_.noc.ctrl_msg_bytes, t);
  } else {
    data_at = mesh_.route(home, req, cfg_.noc.data_msg_bytes, t);
  }

  // Invalidate all other copies; acks are collected at the requester.
  const Cycle acks_at = invalidate_copies(entry, line, req, req, t, out);

  entry->owner = req;
  entry->sharers = (1u << req);
  entry->state = CoherenceState::kModified;  // L2 copy is now stale-tracked

  mine = req_l1.find(byte_addr);
  if (mine != nullptr) {
    mine->state = CoherenceState::kModified;
  } else {
    Cache::Line victim = req_l1.insert(byte_addr, CoherenceState::kModified);
    if (is_owner_state(victim.state)) {
      put_owner(req, victim.tag, is_dirty(victim.state), data_at);
    }
  }

  out.done = std::max(data_at, acks_at);
  return out;
}

void DirectoryController::warm(CoreId c, Addr line, bool instruction,
                               bool exclusive) {
  const CoreId home = home_of(line);
  Cache& bank = l2_banks_[home];
  const Addr byte_addr = line * bank.line_bytes();
  Cache::Line* entry = bank.find(byte_addr);
  if (entry == nullptr) {
    Cache::Line victim = bank.insert(byte_addr, CoherenceState::kExclusive);
    if (victim.state != CoherenceState::kInvalid) {
      // Zero-time recall: silently drop any L1 copies of the victim.
      const Addr victim_byte = victim.tag * bank.line_bytes();
      std::uint32_t copies = victim.sharers;
      if (victim.owner != kNoCore) copies |= (1u << victim.owner);
      for (CoreId i = 0; i < num_cores_; ++i) {
        if (copies & (1u << i)) drop_l1(l1i_, l1d_, i, victim_byte);
      }
    }
    entry = bank.find(byte_addr);
  }
  if (c == kNoCore) return;
  Cache& l1 = instruction ? l1i_[c] : l1d_[c];
  if (l1.find(byte_addr) != nullptr) return;
  const CoherenceState st =
      exclusive ? CoherenceState::kExclusive : CoherenceState::kShared;
  Cache::Line victim = l1.insert(byte_addr, st);
  if (victim.state != CoherenceState::kInvalid) {
    // Keep the directory consistent for the displaced warm line.
    Cache::Line* ventry =
        l2_banks_[home_of(victim.tag)].find(victim.tag * l1.line_bytes());
    if (ventry != nullptr) {
      if (ventry->owner == c) ventry->owner = kNoCore;
      ventry->sharers &= ~(1u << c);
    }
  }
  if (exclusive) {
    entry->owner = c;
  } else {
    entry->sharers |= (1u << c);
  }
}

void DirectoryController::put_owner(CoreId from, Addr line, bool dirty,
                                    Cycle at) {
  const CoreId home = home_of(line);
  Cache& bank = l2_banks_[home];
  const Addr byte_addr = line * bank.line_bytes();
  // The notification travels to the home bank but is off any critical path.
  (void)mesh_.route(from, home,
                    dirty ? cfg_.noc.data_msg_bytes : cfg_.noc.ctrl_msg_bytes,
                    at);
  Cache::Line* entry = bank.find(byte_addr);
  if (entry == nullptr) return;  // already recalled/evicted: stale PutM
  if (entry->owner == from) entry->owner = kNoCore;
  entry->sharers &= ~(1u << from);
  if (dirty) {
    entry->state = CoherenceState::kModified;
    ++writebacks;
  }
}

}  // namespace ptb
