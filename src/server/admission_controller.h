#ifndef CLOUDJOIN_SERVER_ADMISSION_CONTROLLER_H_
#define CLOUDJOIN_SERVER_ADMISSION_CONTROLLER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>

#include "common/result.h"

namespace cloudjoin::server {

/// Bounds how many queries the service runs at once — the serving-layer
/// counterpart of Impala's admission control. A query holds a `Ticket`
/// while it executes; when every slot is taken the query waits in a
/// bounded FIFO queue, and when the queue itself is full (or the wait
/// times out) admission fails with `kResourceExhausted` instead of
/// crashing or over-admitting.
class AdmissionController {
 public:
  struct Options {
    /// Queries running at once. Admission never exceeds this.
    int max_concurrent = 4;
    /// Queries allowed to wait for a slot; an arrival beyond this is
    /// rejected immediately.
    int max_queue = 16;
    /// How long a queued query waits for a slot before giving up.
    double queue_timeout_seconds = 5.0;
    /// Clock used for queue deadlines; null means steady_clock. Injectable
    /// so tests can expire queued waiters deterministically.
    std::function<std::chrono::steady_clock::time_point()> clock;
  };

  /// Monotonic counters plus instantaneous gauges (running/queued reflect
  /// the moment of the snapshot).
  struct Stats {
    int64_t admitted_immediately = 0;
    int64_t admitted_after_wait = 0;
    int64_t rejected_queue_full = 0;
    int64_t rejected_timeout = 0;
    int64_t running = 0;
    int64_t queued = 0;
    int64_t peak_running = 0;
  };

  /// Move-only admission grant: holds one slot until destroyed or
  /// `Release()`d.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    ~Ticket() { Release(); }

    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    bool valid() const { return controller_ != nullptr; }

    /// Returns the slot; idempotent.
    void Release();

   private:
    friend class AdmissionController;
    explicit Ticket(AdmissionController* controller)
        : controller_(controller) {}

    AdmissionController* controller_ = nullptr;
  };

  explicit AdmissionController(const Options& options);

  /// Blocks until a slot is free, the queue timeout elapses, or the wait
  /// queue is full. Waiters are served strictly FIFO.
  Result<Ticket> Admit();

  Stats GetStats() const;

  const Options& options() const { return options_; }

 private:
  struct Waiter {
    bool admitted = false;
    /// Set by PumpLocked when the waiter's deadline passed while queued;
    /// mutually exclusive with `admitted`.
    bool timed_out = false;
    std::chrono::steady_clock::time_point deadline;
  };

  std::chrono::steady_clock::time_point Now() const {
    return options_.clock ? options_.clock()
                          : std::chrono::steady_clock::now();
  }

  /// Runs when a slot frees: evicts waiters whose deadline has already
  /// passed (they must never be granted a slot their caller has given up
  /// on), then admits waiters from the head of the queue while slots are
  /// free.
  void PumpLocked();

  void Release();

  const Options options_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  /// Non-empty only while every slot is taken: an arrival queues only
  /// then, and each release refills the freed slot from the queue.
  std::list<Waiter*> queue_;
  int running_ = 0;
  Stats stats_;
};

}  // namespace cloudjoin::server

#endif  // CLOUDJOIN_SERVER_ADMISSION_CONTROLLER_H_
