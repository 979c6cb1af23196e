// Clang thread-safety annotations and the annotated lock primitives the
// whole library uses.
//
// The engine is a concurrent serving system: shard workers, control-plane
// callers and flush barriers all touch shared state behind mutexes. The
// lock *discipline* — which mutex guards which member, which methods
// require which lock — used to live only in comments; this header makes
// it machine-checked. Under Clang, `-Wthread-safety -Werror` turns any
// unlocked access to an `ESL_GUARDED_BY` member, any call to an
// `ESL_REQUIRES` method without the capability, and any scoped-lock
// misuse into a *build break*. Under other compilers (GCC has no
// equivalent analysis) every macro expands to nothing and esl::Mutex is
// a zero-cost veneer over std::mutex — same codegen, same semantics.
//
// What the analysis guarantees: every annotated member access in the
// translation units it sees happens under the declared mutex. What it
// does NOT guarantee: anything about un-annotated state, code paths
// behind type erasure (std::function, virtual calls through opaque
// interfaces), or lock *ordering* (deadlock freedom) — TSan in CI stays
// the runtime net for those. std::atomic is likewise outside the lock
// model entirely: the analysis has no vocabulary for ordering between
// atomic operations. The library keeps atomics to standalone flags and
// counters (stop flags, sink pointers, routing counters) that guard no
// other data; every queue and every hand-off of shared state goes
// through an annotated esl::Mutex, and the TSan suites check the rest
// at runtime.
//
// Usage rules (enforced by tools/lint_invariants.py in CI):
//   * no naked std::mutex / std::condition_variable outside this header —
//     use esl::Mutex / esl::CondVar so the capability system sees every
//     lock in the library;
//   * declare data with ESL_GUARDED_BY(mutex_) (or ESL_PT_GUARDED_BY for
//     the pointee behind a pointer), helper methods that expect the lock
//     held with ESL_REQUIRES(mutex_);
//   * take locks with esl::MutexLock (scoped), never manual lock()/
//     unlock() pairs.
#pragma once

#include <condition_variable>
#include <mutex>

// ----------------------------------------------------------- attributes
// Thread-safety attributes are a Clang extension; see
// https://clang.llvm.org/docs/ThreadSafetyAnalysis.html. Expand to
// nothing elsewhere so GCC/MSVC builds are untouched.
#if defined(__clang__) && defined(__has_attribute)
#define ESL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define ESL_THREAD_ANNOTATION(x)  // no-op off Clang
#endif

/// Marks a type as a lockable capability ("mutex" in diagnostics).
#define ESL_CAPABILITY(x) ESL_THREAD_ANNOTATION(capability(x))
/// Marks an RAII type whose constructor acquires and destructor releases.
#define ESL_SCOPED_CAPABILITY ESL_THREAD_ANNOTATION(scoped_lockable)
/// Member is only read/written with `x` held.
#define ESL_GUARDED_BY(x) ESL_THREAD_ANNOTATION(guarded_by(x))
/// The data *pointed to* is only dereferenced with `x` held (the pointer
/// itself is unguarded).
#define ESL_PT_GUARDED_BY(x) ESL_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called with the capabilities held (and does not
/// release them).
#define ESL_REQUIRES(...) \
  ESL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the capabilities and holds them on return.
#define ESL_ACQUIRE(...) \
  ESL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the capabilities (they must be held on entry).
#define ESL_RELEASE(...) \
  ESL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the capability iff it returns `result`.
#define ESL_TRY_ACQUIRE(result, ...) \
  ESL_THREAD_ANNOTATION(try_acquire_capability(result, __VA_ARGS__))
/// Function may only be called with the capabilities NOT held.
#define ESL_EXCLUDES(...) ESL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Asserts (for the analysis only) that the capability is held.
#define ESL_ASSERT_CAPABILITY(x) \
  ESL_THREAD_ANNOTATION(assert_capability(x))
/// Function returns a reference to the named capability.
#define ESL_RETURN_CAPABILITY(x) ESL_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch: disables the analysis for one function. Use only with a
/// comment explaining why the access is safe.
#define ESL_NO_THREAD_SAFETY_ANALYSIS \
  ESL_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace esl {

/// std::mutex as a declared capability. Prefer esl::MutexLock for
/// acquisition; the raw lock()/unlock()/try_lock() surface exists for
/// the rare case an RAII scope cannot express the protocol (and keeps
/// the annotations, so misuse is still a build break under Clang).
class ESL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ESL_ACQUIRE() { mutex_.lock(); }
  void unlock() ESL_RELEASE() { mutex_.unlock(); }
  bool try_lock() ESL_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

  /// The wrapped handle, for MutexLock/CondVar interop only.
  std::mutex& native() { return mutex_; }

 private:
  std::mutex mutex_;
};

/// Scoped lock over an esl::Mutex (the std::unique_lock analogue, so it
/// also carries the CondVar wait protocol). Non-movable: a lock's scope
/// is its lifetime, which is exactly what the analysis checks.
class ESL_SCOPED_CAPABILITY MutexLock {
 public:
  /// Acquires `mutex` for this scope.
  explicit MutexLock(Mutex& mutex) ESL_ACQUIRE(mutex)
      : lock_(mutex.native()) {}
  ~MutexLock() ESL_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// The wrapped handle, for CondVar::wait only (waiting releases and
  /// reacquires the mutex internally; the capability is held again when
  /// wait returns, so the analysis state stays correct across the call).
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable bound to esl::Mutex/MutexLock.
///
/// wait() is deliberately the plain one-wakeup form, not the predicate
/// overload: callers loop `while (!pred) cv.wait(lock);` so the
/// predicate's guarded-member reads sit in the *enclosing* function,
/// where the thread-safety analysis can see the held capability (it
/// analyzes lambda bodies as separate functions and would not associate
/// a predicate lambda's accesses with the lock). Spurious-wakeup safety
/// is the caller's while loop, exactly as with raw std::condition_variable.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Releases `lock`'s mutex, blocks until a notify (or spuriously),
  /// reacquires, returns. Always re-test the predicate in a loop.
  void wait(MutexLock& lock) { cv_.wait(lock.native()); }

  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace esl
