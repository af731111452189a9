// Interface between the core model and the workload generators.
//
// A ThreadProgram is a lazy, reactive micro-op stream: the core pulls ops at
// fetch; ops whose result the program needs (spin loads, lock attempts,
// barrier arrivals) are marked blocks_generation — the program returns
// kStall until the core reports the value via on_value() when the op's
// memory access completes. Synchronization thereby unfolds at simulated
// speed: who wins a lock is decided by the coherence protocol's timing.
#pragma once

#include <cstdint>

#include "isa/microop.hpp"

namespace ptb {

class ThreadProgram {
 public:
  virtual ~ThreadProgram() = default;

  enum class FetchStatus : std::uint8_t {
    kOp,        // `out` is valid
    kStall,     // waiting on the value of an in-flight blocking op
    kFinished,  // no more ops
  };

  /// Produce the next micro-op, if available.
  virtual FetchStatus next(MicroOp& out) = 0;

  /// Reports the architectural result of a blocking op at its completion:
  /// loaded value for kLoad, old value for kAtomicRmw (see SyncState for
  /// encodings), 0 for stores (release visibility notification).
  virtual void on_value(const MicroOp& op, std::uint64_t value) = 0;

  virtual bool finished() const = 0;

  /// True when next() returns kStall, changing nothing, until the next
  /// on_value(). The core then stops calling next() until a completion
  /// (quiet ticks); a program that cannot promise this keeps the default.
  virtual bool stalled_until_value() const { return false; }
};

}  // namespace ptb
