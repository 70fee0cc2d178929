// Shard supervision: per-task heartbeats, wall-clock deadlines, and a
// watchdog thread that cancels stuck or overdue work via its CancelToken.
//
// Protocol: a worker wraps each work unit in begin()/end(). The unit polls
// task->token() at its safe points (the engine already polls per node) and
// bumps task->heartbeat() as it makes progress. The watchdog polls every
// active task: no heartbeat movement for `stall_timeout_ms` → the task is
// *stalled*; total runtime past `deadline_ms` → *overdue*. Either way the
// watchdog fires the task's token and records the trip; the owner decides
// what a tripped unit means (the engine re-queues it once, then degrades).
//
// The supervisor never kills threads — cancellation is cooperative, which
// is what keeps partial state (arenas, solvers, stats) consistent enough
// to retry the unit on a fresh context.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "util/cancel.hpp"

namespace meissa::util {

// Watchdog poll period.
inline constexpr uint64_t kWatchdogPollMs = 5;

struct SuperviseOptions {
  // No heartbeat movement for this long marks a task stalled (0 = off).
  uint64_t stall_timeout_ms = 0;
  // Total per-task wall-clock cap (0 = off).
  uint64_t deadline_ms = 0;

  bool enabled() const noexcept {
    return stall_timeout_ms != 0 || deadline_ms != 0;
  }
};

struct SuperviseStats {
  uint64_t tasks = 0;
  uint64_t stalls = 0;          // watchdog trips: heartbeat went quiet
  uint64_t deadline_trips = 0;  // watchdog trips: wall-clock cap hit
  uint64_t completed = 0;       // end() calls

  uint64_t trips() const noexcept { return stalls + deadline_trips; }
};

class Supervisor {
 public:
  class Task {
   public:
    // Progress tick; relaxed atomic add, safe from the hot path.
    void heartbeat() noexcept { beats_.fetch_add(1, std::memory_order_relaxed); }
    // The token the supervised unit must poll (and pass to stall sites).
    CancelToken& token() noexcept { return token_; }
    const CancelToken& token() const noexcept { return token_; }
    // True once the watchdog cancelled this task.
    bool tripped() const noexcept {
      return tripped_.load(std::memory_order_relaxed);
    }

   private:
    friend class Supervisor;
    std::string name_;
    std::atomic<uint64_t> beats_{0};
    std::atomic<bool> tripped_{false};
    std::atomic<bool> active_{false};
    CancelToken token_;
    // Watchdog bookkeeping (watchdog thread only).
    uint64_t seen_beats_ = 0;
    std::chrono::steady_clock::time_point started_{};
    std::chrono::steady_clock::time_point last_change_{};
  };

  explicit Supervisor(SuperviseOptions opts = {});
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Registers a work unit under watch. The returned handle stays valid for
  // the supervisor's lifetime (slots are recycled only after end()).
  Task* begin(std::string name);
  // Unregisters the unit; returns true when the watchdog had tripped it.
  bool end(Task* t);

  SuperviseStats stats() const;
  const SuperviseOptions& options() const noexcept { return opts_; }

 private:
  void watchdog_loop();

  SuperviseOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  // wakes the watchdog for shutdown
  std::deque<Task> tasks_;      // stable addresses
  SuperviseStats stats_;
  bool stop_ = false;
  std::thread watchdog_;
};

}  // namespace meissa::util
