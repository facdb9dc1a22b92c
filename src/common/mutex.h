// Annotated mutex wrappers: cedar::Mutex / cedar::MutexLock / cedar::CondVar.
//
// std::mutex carries no clang `capability` attribute, so members cannot be
// CEDAR_GUARDED_BY a std::mutex without -Wthread-safety-attributes noise.
// These thin wrappers add the attributes (and nothing else: Mutex is
// BasicLockable, so standard lock machinery still composes) and are the
// sanctioned lock types for Cedar's concurrent subsystems; DESIGN.md §12.
//
// CondVar deliberately has no predicate-taking Wait overload: clang analyzes
// a predicate lambda as a separate function, so guarded reads inside it
// would warn. Callers write the loop explicitly —
//
//   MutexLock lock(mutex_);
//   while (!condition_) {
//     cv_.Wait(lock);
//   }
//
// — which the analysis reads naturally.

#ifndef CEDAR_SRC_COMMON_MUTEX_H_
#define CEDAR_SRC_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/common/thread_annotations.h"

namespace cedar {

class CondVar;

// A std::mutex annotated as a clang thread-safety capability. Lowercase
// lock/unlock/try_lock keep it BasicLockable for std::unique_lock.
class CEDAR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CEDAR_ACQUIRE() { raw_.lock(); }
  void unlock() CEDAR_RELEASE() { raw_.unlock(); }
  bool try_lock() CEDAR_TRY_ACQUIRE(true) { return raw_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex raw_;
};

// RAII lock for Mutex, annotated as a scoped capability so clang tracks the
// held set across the guard's lifetime.
class CEDAR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) CEDAR_ACQUIRE(mutex) : lock_(mutex) {}
  ~MutexLock() CEDAR_RELEASE() {}

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  friend class CondVar;
  std::unique_lock<Mutex> lock_;
};

// Condition variable over Mutex (condition_variable_any: Mutex is
// BasicLockable but not std::mutex). Wait atomically releases and reacquires
// the lock the MutexLock holds; the capability stays held from the analyzer's
// point of view, which is exactly the while-loop contract above.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock& lock) { cv_.wait(lock.lock_); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace cedar

#endif  // CEDAR_SRC_COMMON_MUTEX_H_
