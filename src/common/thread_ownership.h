/// \file thread_ownership.h
/// Runtime check for single-thread-ownership contracts that Clang's
/// thread-safety analysis cannot express: "this side of the structure is
/// only ever touched by one thread" (an SPSC queue endpoint, the
/// supervisor's control-thread-only sequence counter).
///
/// A ThreadOwner is claimed by the first thread that checks it; every
/// later check aborts (DIEVENT_CHECK — enabled in all build types) if a
/// different thread shows up. A deliberate handoff (a supervisor reader
/// restart handing the response queue's producer side to the new reader)
/// calls Reset() at the handoff point, which must itself be externally synchronized — in practice a
/// thread join or spawn, whose happens-before edge is exactly the
/// synchronization the new owner relies on.

#ifndef DIEVENT_COMMON_THREAD_OWNERSHIP_H_
#define DIEVENT_COMMON_THREAD_OWNERSHIP_H_

#include <atomic>
#include <thread>

#include "common/logging.h"

namespace dievent {

/// Tracks the single thread allowed to touch a role. First CheckOwned()
/// claims; later calls from other threads abort with the role name.
class ThreadOwner {
 public:
  /// `role` must be a string literal (stored, not copied).
  explicit ThreadOwner(const char* role) : role_(role) {}

  ThreadOwner(const ThreadOwner&) = delete;
  ThreadOwner& operator=(const ThreadOwner&) = delete;

  /// Claims ownership for the calling thread on first use; aborts if a
  /// different thread already owns the role. Relaxed ordering suffices:
  /// the check detects contract violations, it does not publish data —
  /// the owning thread's own accesses are naturally ordered, and a racing
  /// claim from two threads loses the compare-exchange and aborts.
  void CheckOwned() {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected;  // default id = unclaimed
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return;  // first touch claims
    }
    DIEVENT_CHECK(expected == self)
        << "thread-ownership violation: role '" << role_
        << "' is owned by another thread";
  }

  /// Releases the role so the next toucher claims it. Caller must
  /// synchronize the handoff externally (join the old owner / spawn the
  /// new one) — Reset only forgets the id.
  void Reset() { owner_.store(std::thread::id(), std::memory_order_relaxed); }

 private:
  const char* role_;
  std::atomic<std::thread::id> owner_{std::thread::id()};
};

/// Statement form, mirroring TS_ASSERT_HELD: `DCHECK_OWNED_BY(owner_);`
/// asserts the calling thread owns (or now claims) the role.
#define DCHECK_OWNED_BY(owner) ((owner).CheckOwned())

}  // namespace dievent

#endif  // DIEVENT_COMMON_THREAD_OWNERSHIP_H_
