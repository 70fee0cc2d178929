#include "util/supervise.hpp"

namespace meissa::util {

Supervisor::Supervisor(SuperviseOptions opts) : opts_(opts) {
  if (opts_.enabled()) {
    watchdog_ = std::thread([this] { watchdog_loop(); });
  }
}

Supervisor::~Supervisor() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
}

Supervisor::Task* Supervisor::begin(std::string name) {
  std::lock_guard<std::mutex> lk(mu_);
  Task* slot = nullptr;
  for (Task& t : tasks_) {
    if (!t.active_.load(std::memory_order_relaxed)) {
      slot = &t;
      break;
    }
  }
  if (slot == nullptr) slot = &tasks_.emplace_back();
  slot->name_ = std::move(name);
  slot->beats_.store(0, std::memory_order_relaxed);
  slot->tripped_.store(false, std::memory_order_relaxed);
  slot->token_.reset();
  slot->seen_beats_ = 0;
  slot->started_ = std::chrono::steady_clock::now();
  slot->last_change_ = slot->started_;
  slot->active_.store(true, std::memory_order_release);
  ++stats_.tasks;
  return slot;
}

bool Supervisor::end(Task* t) {
  if (t == nullptr) return false;
  std::lock_guard<std::mutex> lk(mu_);
  const bool tripped = t->tripped();
  t->active_.store(false, std::memory_order_release);
  ++stats_.completed;
  return tripped;
}

SuperviseStats Supervisor::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void Supervisor::watchdog_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    cv_.wait_for(lk, std::chrono::milliseconds(kWatchdogPollMs),
                 [this] { return stop_; });
    if (stop_) return;
    const auto now = std::chrono::steady_clock::now();
    for (Task& t : tasks_) {
      if (!t.active_.load(std::memory_order_acquire)) continue;
      if (t.tripped()) continue;
      const uint64_t beats = t.beats_.load(std::memory_order_relaxed);
      if (beats != t.seen_beats_) {
        t.seen_beats_ = beats;
        t.last_change_ = now;
      }
      const auto ms = [](auto d) {
        return std::chrono::duration_cast<std::chrono::milliseconds>(d)
            .count();
      };
      if (opts_.deadline_ms != 0 &&
          ms(now - t.started_) >= static_cast<int64_t>(opts_.deadline_ms)) {
        t.tripped_.store(true, std::memory_order_relaxed);
        t.token_.cancel();
        ++stats_.deadline_trips;
      } else if (opts_.stall_timeout_ms != 0 &&
                 ms(now - t.last_change_) >=
                     static_cast<int64_t>(opts_.stall_timeout_ms)) {
        t.tripped_.store(true, std::memory_order_relaxed);
        t.token_.cancel();
        ++stats_.stalls;
      }
    }
  }
}

}  // namespace meissa::util
