// Crash-grade flight recorder: a fixed-size, lock-free ring of recent
// structured events, dumped alongside a metrics snapshot when the process
// dies (SEASTAR_LOG(Fatal) / CHECK failure) or a fault-injection drill ends.
//
// Traces (tracing.h) answer "where did the time go" for a run you chose to
// profile or a request the sampler kept; the metrics registry answers "what
// are the totals"; the flight
// recorder answers the post-mortem question neither can: *what happened in
// the last few milliseconds before it died* — which request ids were in
// flight, which fault sites tripped, which way the breaker just moved, which
// unit the executor was in. Events are tiny fixed-size records written with
// two relaxed atomics and a seqlock-style publication, so recording is
// always on and costs nanoseconds; the ring keeps the newest kCapacity
// events and silently forgets older ones.
//
// Writers never block and never allocate. Readers (Dump) are best-effort: a
// slot being overwritten mid-read is detected via its sequence word and
// skipped — exactly the property a crash-path dumper needs.
#ifndef SRC_COMMON_FLIGHT_RECORDER_H_
#define SRC_COMMON_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace seastar {

// One recorded event, fixed-size so ring slots can be overwritten in place.
struct FlightEvent {
  uint64_t seq = 0;     // 1-based global order of the event.
  int64_t t_us = 0;     // Microseconds since process start (steady clock).
  char category[16] = {};  // "breaker", "fault", "serve", "recovery", ...
  char detail[88] = {};    // Truncated human-readable specifics.
  int64_t a = 0;        // Category-defined payload (request id, epoch, hit #).
  int64_t b = 0;
  // The ambient trace id (tracing.h) at record time; 0 = no active trace.
  // Crash correlation: a post-mortem dump names the exact requests that were
  // in flight, joinable against the exported trace JSON.
  uint64_t trace_id = 0;
};

class FlightRecorder {
 public:
  static constexpr int kCapacity = 512;  // Newest events kept.

  static FlightRecorder& Get();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Records one event. Lock-free, allocation-free; `category` and `detail`
  // are truncated to their fixed slot widths.
  void Record(std::string_view category, std::string_view detail, int64_t a = 0, int64_t b = 0);

  // The ring's live events, oldest first. Slots caught mid-overwrite are
  // dropped rather than returned torn.
  std::vector<FlightEvent> Snapshot() const;

  // Events ever recorded (including ones the ring has forgotten).
  uint64_t recorded() const { return next_seq_.load(std::memory_order_relaxed) - 1; }

  // Human-readable dump of Snapshot():
  //   [+12.345ms] breaker  trip after 3 failures (a=3)
  std::string Dump() const;
  bool DumpToFile(const std::string& path) const;

  // Installs a fatal-log hook (logging.h SetFatalHook) that writes the
  // flight recorder dump and a metrics text snapshot to stderr before the
  // process aborts on SEASTAR_LOG(Fatal)/CHECK failure. Idempotent.
  static void InstallCrashDump();

 private:
  FlightRecorder();

  struct Slot {
    // 0 = empty; odd = being written; even = published event with
    // seq = value / 2. Readers reject slots whose word changes mid-copy.
    std::atomic<uint64_t> word{0};
    FlightEvent event;
  };

  const int64_t start_ns_;  // Steady-clock anchor for t_us.
  std::atomic<uint64_t> next_seq_{1};
  Slot ring_[kCapacity];
};

}  // namespace seastar

#endif  // SRC_COMMON_FLIGHT_RECORDER_H_
