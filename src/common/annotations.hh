/**
 * @file
 * Clang thread-safety annotations and a capability-annotated mutex.
 *
 * The fleet engine's determinism promise (bit-identical results at
 * any thread width) rests on a small set of locking invariants:
 * ThreadPool's job state is only touched under its mutex, per-core
 * results are collected under the fleet aggregator's mutex, and
 * everything else is shared-nothing. Clang's -Wthread-safety
 * analysis machine-checks those invariants at compile time — but
 * only if the code states them. This header supplies the vocabulary:
 *
 *  - NEU10_GUARDED_BY(m)   field is only read/written with m held
 *  - NEU10_REQUIRES(m)     function must be entered with m held
 *  - NEU10_ACQUIRE(m) / NEU10_RELEASE(m)
 *                          function takes/drops m (lock wrappers)
 *  - NEU10_EXCLUDES(m)     function must NOT be entered with m held
 *
 * plus `Mutex` / `MutexLock` / `CondVar`: a std::mutex wrapper that
 * carries the capability annotation (std::mutex itself is not
 * annotated, so lock/unlock through it is invisible to the
 * analysis), a scoped lock the analysis understands — including
 * manual unlock()/lock() windows, which ThreadPool uses around user
 * callbacks — and a condition variable that waits on the annotated
 * lock.
 *
 * Under GCC (or any compiler without the attributes) every macro
 * expands to nothing and the wrappers are zero-cost shims; the CI
 * clang cells build with -Wthread-safety -Werror so violations
 * cannot land.
 */

#ifndef NEU10_COMMON_ANNOTATIONS_HH
#define NEU10_COMMON_ANNOTATIONS_HH

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NEU10_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NEU10_THREAD_ANNOTATION
#define NEU10_THREAD_ANNOTATION(x) // no-op outside clang
#endif

#define NEU10_CAPABILITY(x) NEU10_THREAD_ANNOTATION(capability(x))
#define NEU10_SCOPED_CAPABILITY NEU10_THREAD_ANNOTATION(scoped_lockable)
#define NEU10_GUARDED_BY(x) NEU10_THREAD_ANNOTATION(guarded_by(x))
#define NEU10_PT_GUARDED_BY(x) NEU10_THREAD_ANNOTATION(pt_guarded_by(x))
#define NEU10_REQUIRES(...) \
    NEU10_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define NEU10_ACQUIRE(...) \
    NEU10_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define NEU10_RELEASE(...) \
    NEU10_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define NEU10_TRY_ACQUIRE(...) \
    NEU10_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define NEU10_EXCLUDES(...) \
    NEU10_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define NEU10_RETURN_CAPABILITY(x) \
    NEU10_THREAD_ANNOTATION(lock_returned(x))
#define NEU10_NO_THREAD_SAFETY_ANALYSIS \
    NEU10_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace neu10
{

/**
 * std::mutex carrying the clang capability annotation, so
 * NEU10_GUARDED_BY(mutex_) members are actually checked against it.
 */
class NEU10_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() NEU10_ACQUIRE() { m_.lock(); }
    void unlock() NEU10_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/**
 * Scoped lock over Mutex that the analysis tracks, including manual
 * unlock()/lock() windows (the ThreadPool worker drops the lock
 * around user callbacks). Must be unlocked or destroyed on the same
 * thread that constructed it.
 */
class NEU10_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) NEU10_ACQUIRE(m) : mutex_(m), held_(true)
    {
        mutex_.lock();
    }

    ~MutexLock() NEU10_RELEASE()
    {
        if (held_)
            mutex_.unlock();
    }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    /** Drop the lock mid-scope (reacquire with lock()). */
    void unlock() NEU10_RELEASE()
    {
        mutex_.unlock();
        held_ = false;
    }

    /** Reacquire after unlock(). */
    void lock() NEU10_ACQUIRE()
    {
        mutex_.lock();
        held_ = true;
    }

  private:
    friend class CondVar;

    Mutex &mutex_;
    bool held_;
};

/**
 * Condition variable waiting on MutexLock. wait() atomically drops
 * and retakes the lock, so from the analysis's point of view the
 * capability is held across the call — which is exactly the caller's
 * contract.
 */
class CondVar
{
  public:
    CondVar() = default;
    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** @pre @p lock is held; it is held again on return. */
    template <typename Pred>
    void wait(MutexLock &lock, Pred pred)
    {
        cv_.wait(lock.mutex_, pred);
    }

    void notifyAll() { cv_.notify_all(); }

  private:
    // condition_variable_any accepts any BasicLockable — here the
    // annotated Mutex, keeping every lock transition visible to the
    // thread-safety analysis at the call sites that matter.
    std::condition_variable_any cv_;
};

} // namespace neu10

#endif // NEU10_COMMON_ANNOTATIONS_HH
