#include "server/admission_controller.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/logging.h"

namespace cloudjoin::server {

AdmissionController::Ticket& AdmissionController::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    Release();
    controller_ = other.controller_;
    other.controller_ = nullptr;
  }
  return *this;
}

void AdmissionController::Ticket::Release() {
  if (controller_ != nullptr) {
    controller_->Release();
    controller_ = nullptr;
  }
}

AdmissionController::AdmissionController(const Options& options)
    : options_(options) {
  CLOUDJOIN_CHECK(options_.max_concurrent >= 1);
  CLOUDJOIN_CHECK(options_.max_queue >= 0);
}

void AdmissionController::PumpLocked() {
  bool woke_any = false;
  // Evict expired waiters first: a query whose deadline passed while it
  // was queued must not be granted a slot it will never use (its caller is
  // about to observe the timeout), and an expired head must not block
  // admissible followers behind it.
  const auto now = Now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if ((*it)->deadline <= now) {
      (*it)->timed_out = true;
      it = queue_.erase(it);
      woke_any = true;
    } else {
      ++it;
    }
  }
  while (!queue_.empty() && running_ < options_.max_concurrent) {
    Waiter* w = queue_.front();
    queue_.pop_front();
    w->admitted = true;
    ++running_;
    stats_.peak_running = std::max<int64_t>(stats_.peak_running, running_);
    woke_any = true;
  }
  if (woke_any) cv_.notify_all();
}

Result<AdmissionController::Ticket> AdmissionController::Admit() {
  std::unique_lock<std::mutex> lock(mu_);
  // Fast path: nothing queued ahead of us and a slot is free.
  if (queue_.empty() && running_ < options_.max_concurrent) {
    ++running_;
    stats_.peak_running = std::max<int64_t>(stats_.peak_running, running_);
    ++stats_.admitted_immediately;
    return Ticket(this);
  }
  if (static_cast<int>(queue_.size()) >= options_.max_queue) {
    ++stats_.rejected_queue_full;
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(queue_.size()) +
        " waiting, " + std::to_string(running_) + " running)");
  }
  Waiter waiter;
  const auto timeout = std::chrono::duration<double>(
      std::max(0.0, options_.queue_timeout_seconds));
  waiter.deadline =
      Now() + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  timeout);
  queue_.push_back(&waiter);
  cv_.wait_for(lock, timeout,
               [&waiter] { return waiter.admitted || waiter.timed_out; });
  if (waiter.admitted) {
    // PumpLocked already took the slot on our behalf.
    ++stats_.admitted_after_wait;
    return Ticket(this);
  }
  if (!waiter.timed_out) {
    // We observed the timeout ourselves (PumpLocked has not evicted us):
    // unlink so PumpLocked can never admit a dead waiter. Every slot is
    // still taken, so no follower can move up.
    queue_.remove(&waiter);
  }
  ++stats_.rejected_timeout;
  return Status::ResourceExhausted(
      "admission wait exceeded " +
      std::to_string(options_.queue_timeout_seconds) + "s (" +
      std::to_string(running_) + " running, " +
      std::to_string(queue_.size()) + " still queued)");
}

void AdmissionController::Release() {
  std::lock_guard<std::mutex> lock(mu_);
  CLOUDJOIN_CHECK(running_ > 0);
  --running_;
  PumpLocked();
}

AdmissionController::Stats AdmissionController::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats = stats_;
  stats.running = running_;
  stats.queued = static_cast<int64_t>(queue_.size());
  return stats;
}

}  // namespace cloudjoin::server
