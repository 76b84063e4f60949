// Wall-clock stopwatch used by the training loop and benchmark harnesses.
#ifndef SRC_COMMON_STOPWATCH_H_
#define SRC_COMMON_STOPWATCH_H_

#include <chrono>

namespace seastar {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  // Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  // Elapsed time since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace seastar

#endif  // SRC_COMMON_STOPWATCH_H_
