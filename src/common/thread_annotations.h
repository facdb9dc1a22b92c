// Clang thread-safety-analysis annotation macros (DESIGN.md §12).
//
// These wrap the capability attributes understood by clang's -Wthread-safety
// so Cedar's concurrency-heavy subsystems (ThreadPool, MetricsRegistry,
// TraceCollector, WaitTableStore) can declare which mutex guards which field
// and which functions require a lock to be held. Under clang with the
// CEDAR_THREAD_SAFETY CMake option the compiler verifies the discipline at
// compile time; under every other compiler the macros expand to nothing.
//
// Where clang is absent, the ThreadSanitizer tier (`ctest -L tier1_tsan`)
// checks the same discipline at run time: data races and lock-order
// inversions on the paths the tests drive.
//
// Annotate with the cedar::Mutex / cedar::MutexLock / cedar::CondVar wrappers
// from src/common/mutex.h — std::mutex itself carries no capability
// attribute, so GUARDED_BY(a_std_mutex) would warn under clang.

#ifndef CEDAR_SRC_COMMON_THREAD_ANNOTATIONS_H_
#define CEDAR_SRC_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define CEDAR_THREAD_ANNOTATION_ATTRIBUTE(x) __attribute__((x))
#else
#define CEDAR_THREAD_ANNOTATION_ATTRIBUTE(x)
#endif

// On a class: instances are lockable capabilities ("mutex" names the kind).
#define CEDAR_CAPABILITY(x) CEDAR_THREAD_ANNOTATION_ATTRIBUTE(capability(x))

// On a class: RAII object that acquires a capability in its constructor and
// releases it in its destructor (lock_guard-shaped types).
#define CEDAR_SCOPED_CAPABILITY CEDAR_THREAD_ANNOTATION_ATTRIBUTE(scoped_lockable)

// On a data member: reads and writes require holding the given mutex.
#define CEDAR_GUARDED_BY(x) CEDAR_THREAD_ANNOTATION_ATTRIBUTE(guarded_by(x))

// On a pointer member: the pointed-to data is guarded by the given mutex.
#define CEDAR_PT_GUARDED_BY(x) CEDAR_THREAD_ANNOTATION_ATTRIBUTE(pt_guarded_by(x))

// On a function: the caller must hold the listed mutexes when calling.
#define CEDAR_REQUIRES(...) \
  CEDAR_THREAD_ANNOTATION_ATTRIBUTE(requires_capability(__VA_ARGS__))

// On a function: acquires / releases the listed mutexes (empty list on a
// scoped-capability method means "whatever this object holds").
#define CEDAR_ACQUIRE(...) \
  CEDAR_THREAD_ANNOTATION_ATTRIBUTE(acquire_capability(__VA_ARGS__))
#define CEDAR_RELEASE(...) \
  CEDAR_THREAD_ANNOTATION_ATTRIBUTE(release_capability(__VA_ARGS__))

// On a function returning bool: acquires the mutex when returning the given
// value.
#define CEDAR_TRY_ACQUIRE(...) \
  CEDAR_THREAD_ANNOTATION_ATTRIBUTE(try_acquire_capability(__VA_ARGS__))

// On a function: the caller must NOT hold the listed mutexes (deadlock
// documentation for functions that acquire them internally).
#define CEDAR_EXCLUDES(...) CEDAR_THREAD_ANNOTATION_ATTRIBUTE(locks_excluded(__VA_ARGS__))

// On a function: returns a reference to the given mutex.
#define CEDAR_RETURN_CAPABILITY(x) CEDAR_THREAD_ANNOTATION_ATTRIBUTE(lock_returned(x))

// Escape hatch: turns the analysis off for one function (initialization and
// teardown paths where the discipline is enforced by construction).
#define CEDAR_NO_THREAD_SAFETY_ANALYSIS \
  CEDAR_THREAD_ANNOTATION_ATTRIBUTE(no_thread_safety_analysis)

#endif  // CEDAR_SRC_COMMON_THREAD_ANNOTATIONS_H_
