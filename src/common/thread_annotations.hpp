// Clang Thread Safety Analysis vocabulary for the concurrency layer, plus
// the primitives the annotations need to bite on:
//
//   - ptb::Mutex / ptb::MutexLock: std::mutex with a capability identity.
//     libstdc++'s std::mutex carries no capability attributes, so
//     `clang++ -Wthread-safety` cannot see through std::lock_guard /
//     std::unique_lock; the thin wrappers below re-expose lock/unlock with
//     ACQUIRE/RELEASE attributes, which is all the analysis needs to prove
//     every PTB_GUARDED_BY member is only touched under its mutex. The
//     wrappers compile to the exact same code (the annotations are
//     attributes, not behavior).
//
// On GCC (this repo's primary toolchain) every macro expands to nothing
// and the wrappers are plain std::mutex pass-throughs; the analysis runs
// in the CI clang job (`-Wthread-safety -Werror`) and on any clang host.
//
// Annotation reference:
//   https://clang.llvm.org/docs/ThreadSafetyAnalysis.html
#pragma once

#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define PTB_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PTB_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

// A type that acts as a capability (a mutex).
#define PTB_CAPABILITY(x) PTB_THREAD_ANNOTATION(capability(x))

// An RAII type that acquires a capability in its constructor and releases
// it in its destructor (std::lock_guard shape).
#define PTB_SCOPED_CAPABILITY PTB_THREAD_ANNOTATION(scoped_lockable)

// Data members: may only be read/written while holding `x`.
#define PTB_GUARDED_BY(x) PTB_THREAD_ANNOTATION(guarded_by(x))
// Pointer members: the *pointee* is protected by `x` (the pointer itself
// may be read freely).
#define PTB_PT_GUARDED_BY(x) PTB_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: caller must hold the capability / must not hold it.
#define PTB_REQUIRES(...) \
  PTB_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define PTB_REQUIRES_SHARED(...) \
  PTB_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define PTB_EXCLUDES(...) PTB_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

// Functions that acquire / release capabilities.
#define PTB_ACQUIRE(...) \
  PTB_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define PTB_ACQUIRE_SHARED(...) \
  PTB_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define PTB_RELEASE(...) \
  PTB_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define PTB_RELEASE_SHARED(...) \
  PTB_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define PTB_TRY_ACQUIRE(...) \
  PTB_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

// Returns a reference to the mutex guarding the returned/parameter data.
#define PTB_RETURN_CAPABILITY(x) PTB_THREAD_ANNOTATION(lock_returned(x))

// Escape hatch; use only with a comment saying why the analysis is wrong.
#define PTB_NO_THREAD_SAFETY_ANALYSIS \
  PTB_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ptb {

/// std::mutex with a capability identity for -Wthread-safety. Identical
/// layout and cost; annotate protected members with PTB_GUARDED_BY(mu_).
class PTB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() PTB_ACQUIRE() { mu_.lock(); }
  void unlock() PTB_RELEASE() { mu_.unlock(); }
  bool try_lock() PTB_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over ptb::Mutex. Also a BasicLockable (lock/unlock), so
/// std::condition_variable_any can drop and re-take it around a wait —
/// the analysis does not see through the wait (it is system-header code),
/// but the net capability state is unchanged, so the accounting stays
/// correct. Mid-scope unlock()/lock() (the RunPool worker pattern) is
/// tracked explicitly.
class PTB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PTB_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() PTB_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() PTB_ACQUIRE() { mu_.lock(); }
  void unlock() PTB_RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace ptb
