/**
 * @file
 * Cooperative cancellation for long-running simulations.
 *
 * A CancelToken is a tiny value the *owner* arms (a sticky flag, an
 * optional wall-clock deadline, an optional parent token) and the
 * *worker* polls at safe boundaries — System::run() checks one every
 * few tens of thousands of simulated cycles, so a cancelled or expired
 * token ends the run with RunResult::Exit::kDeadline within
 * milliseconds of real time while every data structure stays valid.
 * Nothing is ever torn down asynchronously: cancellation is a request,
 * and the simulation acknowledges it at its own (bounded) pace.
 *
 * flexcore-serve chains tokens: every request carries its own token
 * (armed with the server's per-request deadline) whose parent is the
 * server-wide drain token, so one cancel() at drain-timeout reclaims
 * every in-flight simulation at once (docs/serve.md).
 *
 * Thread-safety: cancel() and expired() are safe from any thread at
 * any time. deadline() and the parent link must be set before the
 * token is shared with the worker (they are plain fields, armed once
 * by the owner during setup).
 */

#ifndef FLEXCORE_COMMON_CANCEL_H_
#define FLEXCORE_COMMON_CANCEL_H_

#include <atomic>
#include <chrono>

namespace flexcore {

class CancelToken
{
  public:
    CancelToken() = default;

    /** Chain to @p parent: this token also expires when @p parent
     * does. The parent must outlive this token. */
    explicit CancelToken(const CancelToken *parent) : parent_(parent) {}

    /** Sticky manual cancellation; safe from any thread. */
    void
    cancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    /** Arm a wall-clock deadline (before sharing the token). */
    void
    deadline(std::chrono::steady_clock::time_point when)
    {
        deadline_ = when;
        has_deadline_ = true;
    }

    /** Convenience: deadline @p ms milliseconds from now. */
    void
    deadlineAfterMs(long ms)
    {
        deadline(std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(ms));
    }

    bool hasDeadline() const { return has_deadline_; }

    /**
     * True once the token is cancelled, its deadline has passed, or
     * its parent has expired. The flag check comes first so manual
     * cancellation never pays the clock read.
     */
    bool
    expired() const
    {
        if (cancelled_.load(std::memory_order_relaxed))
            return true;
        if (has_deadline_ &&
            std::chrono::steady_clock::now() >= deadline_)
            return true;
        return parent_ && parent_->expired();
    }

  private:
    std::atomic<bool> cancelled_{false};
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_{};
    const CancelToken *parent_ = nullptr;
};

}  // namespace flexcore

#endif  // FLEXCORE_COMMON_CANCEL_H_
