// Request deadlines, propagated into graph execution.
//
// A serving runtime must stop spending SIMT-pool time on a request whose
// client has already given up: a 100 ms-deadline request that is still in
// layer 1 at t=110 ms only wastes the pool for every request queued behind
// it. The executors therefore poll an *ambient* deadline at their unit/op
// boundaries — the natural preemption points, since a fused unit is the
// smallest schedulable quantum — and abort the run by throwing
// DeadlineExceeded, which the serving layer converts to a
// StatusCode::kDeadlineExceeded response.
//
// The deadline is carried in a thread-local installed by ScopedDeadline
// rather than threaded through every model's Forward signature: the model
// zoo calls VertexProgram::Run from seven different Forward bodies, and a
// deadline is a property of the *caller's request*, not of the model. Cost
// discipline: with no deadline installed (training, benches, tests) every
// check is a single thread-local pointer test on the orchestration path;
// per-edge kernel loops never poll.
//
// Aborting via an exception is safe here because the check sites run on the
// thread that orchestrates the run (never inside pool workers), and
// everything the run owns — tensors, tape nodes, trace spans — is RAII.
#ifndef SRC_COMMON_DEADLINE_H_
#define SRC_COMMON_DEADLINE_H_

#include <chrono>
#include <limits>
#include <stdexcept>
#include <string>

namespace seastar {

// A point in time after which a request's result is worthless. Default
// constructed = unarmed (never expires); training uses this implicitly by
// never installing a deadline at all.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;  // Unarmed.

  static Deadline AfterMillis(double ms) {
    Deadline d;
    d.armed_ = true;
    d.at_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(ms));
    return d;
  }

  static Deadline At(Clock::time_point at) {
    Deadline d;
    d.armed_ = true;
    d.at_ = at;
    return d;
  }

  bool armed() const { return armed_; }
  bool expired() const { return armed_ && Clock::now() >= at_; }

  // Milliseconds until expiry; negative once expired, +infinity when
  // unarmed.
  double remaining_ms() const {
    if (!armed_) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double, std::milli>(at_ - Clock::now()).count();
  }

  Clock::time_point time_point() const { return at_; }

 private:
  bool armed_ = false;
  Clock::time_point at_{};
};

// Thrown from an execution-boundary check when the ambient deadline has
// passed. what() names the boundary ("seastar unit", "baseline op", ...) so
// a trace of aborted requests shows *where* time ran out.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& where)
      : std::runtime_error("deadline exceeded at " + where) {}
};

// Installs `deadline` as the calling thread's ambient execution deadline for
// the scope's lifetime, restoring the previous one on exit (scopes nest; an
// inner scope with a tighter deadline wins for its extent). Passing nullptr
// is a no-op scope.
class ScopedDeadline {
 public:
  explicit ScopedDeadline(const Deadline* deadline);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  const Deadline* previous_;
};

// The calling thread's ambient deadline; nullptr when none installed.
const Deadline* CurrentDeadline();

namespace deadline_internal {
extern thread_local const Deadline* tls_deadline;
void ThrowDeadlineExceeded(const char* where);
}  // namespace deadline_internal

// Execution-boundary poll: throws DeadlineExceeded when the ambient
// deadline has passed. The no-deadline fast path is one thread-local load.
inline void CheckExecutionDeadline(const char* where) {
  const Deadline* deadline = deadline_internal::tls_deadline;
  if (deadline != nullptr && deadline->expired()) {
    deadline_internal::ThrowDeadlineExceeded(where);
  }
}

}  // namespace seastar

#endif  // SRC_COMMON_DEADLINE_H_
