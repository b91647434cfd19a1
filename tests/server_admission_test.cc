#include "server/admission_controller.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"

namespace cloudjoin::server {
namespace {

using Ticket = AdmissionController::Ticket;

void SpinUntil(const std::function<bool()>& done, double timeout_seconds) {
  Stopwatch watch;
  while (!done() && watch.ElapsedSeconds() < timeout_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(AdmissionControllerTest, AdmitsUpToLimitImmediately) {
  AdmissionController::Options options;
  options.max_concurrent = 3;
  AdmissionController controller(options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 3; ++i) {
    Result<Ticket> ticket = controller.Admit();
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(std::move(ticket).value());
  }
  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.running, 3);
  EXPECT_EQ(stats.admitted_immediately, 3);
  tickets.clear();
  EXPECT_EQ(controller.GetStats().running, 0);
}

TEST(AdmissionControllerTest, ConcurrencyCapNeverExceeded) {
  AdmissionController::Options options;
  options.max_concurrent = 3;
  options.max_queue = 64;
  options.queue_timeout_seconds = 30.0;
  AdmissionController controller(options);

  std::atomic<int> running{0};
  std::atomic<int> high_water{0};
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  threads.reserve(16);
  for (int t = 0; t < 16; ++t) {
    threads.emplace_back([&] {
      Result<Ticket> ticket = controller.Admit();
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      const int now = running.fetch_add(1) + 1;
      int peak = high_water.load();
      while (now > peak && !high_water.compare_exchange_weak(peak, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      running.fetch_sub(1);
      admitted.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(admitted.load(), 16);
  EXPECT_LE(high_water.load(), 3);
  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.admitted_immediately + stats.admitted_after_wait, 16);
  EXPECT_LE(stats.peak_running, 3);
  EXPECT_EQ(stats.running, 0);
  EXPECT_EQ(stats.queued, 0);
}

TEST(AdmissionControllerTest, RejectsWhenQueueFull) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 2;
  options.queue_timeout_seconds = 30.0;
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  std::vector<std::thread> waiters;
  for (int i = 0; i < 2; ++i) {
    waiters.emplace_back([&controller] {
      Result<Ticket> ticket = controller.Admit();
      EXPECT_TRUE(ticket.ok()) << ticket.status();
    });
  }
  SpinUntil([&controller] { return controller.GetStats().queued == 2; }, 10.0);
  ASSERT_EQ(controller.GetStats().queued, 2);

  // Queue is at capacity: the next arrival fails fast with a clean status.
  Result<Ticket> overflow = controller.Admit();
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(controller.GetStats().rejected_queue_full, 1);

  holder.value().Release();
  for (std::thread& thread : waiters) thread.join();
}

TEST(AdmissionControllerTest, QueueTimeoutReturnsErrorNotHang) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.queue_timeout_seconds = 0.05;
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  Stopwatch watch;
  Result<Ticket> waited = controller.Admit();
  ASSERT_FALSE(waited.ok());
  EXPECT_EQ(waited.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(watch.ElapsedSeconds(), 0.04);
  EXPECT_LT(watch.ElapsedSeconds(), 10.0);
  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.rejected_timeout, 1);
  EXPECT_EQ(stats.queued, 0);  // the dead waiter unlinked itself
}

TEST(AdmissionControllerTest, WaitersAdmittedInFifoOrder) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.queue_timeout_seconds = 30.0;
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  std::mutex order_mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.emplace_back([&, i] {
      Result<Ticket> ticket = controller.Admit();
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(i);
    });
    // Ensure waiter i is enqueued before waiter i+1 starts.
    SpinUntil(
        [&controller, i] { return controller.GetStats().queued == i + 1; },
        10.0);
    ASSERT_EQ(controller.GetStats().queued, i + 1);
  }
  holder.value().Release();
  for (std::thread& thread : waiters) thread.join();

  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(AdmissionControllerTest, ExpiredWaiterNeverGrantedAfterDeadline) {
  // Deterministic via an injected clock: a query whose deadline passes
  // while it is queued must be rejected with kResourceExhausted even when
  // a slot frees up afterwards — granting it would hand a slot to a caller
  // that already gave up (the grant-after-timeout race).
  std::atomic<int64_t> fake_nanos{0};
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.queue_timeout_seconds = 1.0;
  options.clock = [&fake_nanos] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(fake_nanos.load()));
  };
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  std::atomic<bool> waiter_done{false};
  Status waiter_status;
  std::thread waiter([&] {
    Result<Ticket> ticket = controller.Admit();
    waiter_status = ticket.ok() ? Status::OK() : ticket.status();
    waiter_done.store(true);
  });
  SpinUntil([&controller] { return controller.GetStats().queued == 1; }, 10.0);
  ASSERT_EQ(controller.GetStats().queued, 1);

  // Advance the fake clock past the waiter's deadline, then free the slot.
  // The release-side pump must evict the expired waiter, not admit it.
  fake_nanos.store(2'000'000'000);
  holder.value().Release();

  SpinUntil([&waiter_done] { return waiter_done.load(); }, 10.0);
  waiter.join();
  ASSERT_FALSE(waiter_status.ok());
  EXPECT_EQ(waiter_status.code(), StatusCode::kResourceExhausted);
  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.rejected_timeout, 1);
  EXPECT_EQ(stats.admitted_after_wait, 0);
  EXPECT_EQ(stats.running, 0);  // the freed slot was not handed to the dead waiter
  EXPECT_EQ(stats.queued, 0);
}

TEST(AdmissionControllerTest, EvictedHeadDoesNotStrandFollowers) {
  // Deterministic head-of-line scenario driven by a fake clock (the 30s
  // timeout means no real-time wakeups fire): the head expires in the
  // queue behind the one running query while a follower behind it has
  // time left. The pump that runs when the slot frees must evict the
  // expired head AND admit the follower in the same pass, not leave it
  // stranded behind the corpse.
  std::atomic<int64_t> fake_nanos{0};
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.max_queue = 8;
  options.queue_timeout_seconds = 30.0;
  options.clock = [&fake_nanos] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(fake_nanos.load()));
  };
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());

  // Head: queued behind the holder. Deadline 30s.
  std::atomic<bool> head_done{false};
  Status head_status;
  std::thread head([&] {
    Result<Ticket> ticket = controller.Admit();
    head_status = ticket.ok() ? Status::OK() : ticket.status();
    head_done.store(true);
  });
  SpinUntil([&controller] { return controller.GetStats().queued == 1; }, 10.0);
  ASSERT_EQ(controller.GetStats().queued, 1);

  // Follower: enqueued one fake second later, so its deadline is 31s.
  fake_nanos.store(1'000'000'000);
  std::atomic<bool> follower_admitted{false};
  std::thread follower([&] {
    Result<Ticket> ticket = controller.Admit();
    EXPECT_TRUE(ticket.ok()) << ticket.status();
    follower_admitted.store(true);
  });
  SpinUntil([&controller] { return controller.GetStats().queued == 2; }, 10.0);
  ASSERT_EQ(controller.GetStats().queued, 2);

  // Advance past the head's deadline but not the follower's, then free
  // the slot. One pump must evict the head and admit the follower.
  fake_nanos.store(30'500'000'000);
  holder.value().Release();

  SpinUntil([&head_done] { return head_done.load(); }, 10.0);
  ASSERT_TRUE(head_done.load());
  EXPECT_FALSE(head_status.ok());
  EXPECT_EQ(head_status.code(), StatusCode::kResourceExhausted);
  SpinUntil([&follower_admitted] { return follower_admitted.load(); }, 10.0);
  EXPECT_TRUE(follower_admitted.load())
      << "follower stranded behind the evicted head";

  head.join();
  follower.join();
  AdmissionController::Stats stats = controller.GetStats();
  EXPECT_EQ(stats.rejected_timeout, 1);
  EXPECT_EQ(stats.admitted_after_wait, 1);
  EXPECT_EQ(stats.running, 0);
}

TEST(AdmissionControllerTest, ArrivalBehindExpiredWaiterAdmittedImmediately) {
  // With a fake clock the expired waiter stays asleep (its real-time wait
  // has not elapsed) while its deadline is long past. A new arrival must
  // not be stranded behind the corpse when capacity is free.
  std::atomic<int64_t> fake_nanos{0};
  AdmissionController::Options options;
  options.max_concurrent = 1;
  options.queue_timeout_seconds = 1.0;
  options.clock = [&fake_nanos] {
    return std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(fake_nanos.load()));
  };
  AdmissionController controller(options);

  Result<Ticket> holder = controller.Admit();
  ASSERT_TRUE(holder.ok());
  std::atomic<bool> stale_done{false};
  std::thread stale([&] {
    Result<Ticket> ticket = controller.Admit();
    EXPECT_FALSE(ticket.ok());
    stale_done.store(true);
  });
  SpinUntil([&controller] { return controller.GetStats().queued == 1; }, 10.0);
  ASSERT_EQ(controller.GetStats().queued, 1);

  // Expire the queued waiter, free the slot (pump evicts the corpse), and
  // verify a fresh arrival is admitted without waiting.
  fake_nanos.store(5'000'000'000);
  holder.value().Release();
  Result<Ticket> fresh = controller.Admit();
  EXPECT_TRUE(fresh.ok()) << fresh.status();

  SpinUntil([&stale_done] { return stale_done.load(); }, 10.0);
  stale.join();
  EXPECT_EQ(controller.GetStats().rejected_timeout, 1);
}

TEST(AdmissionControllerTest, MovedTicketReleasesOnce) {
  AdmissionController::Options options;
  options.max_concurrent = 1;
  AdmissionController controller(options);
  {
    Result<Ticket> ticket = controller.Admit();
    ASSERT_TRUE(ticket.ok());
    Ticket moved = std::move(ticket).value();
    Ticket moved_again = std::move(moved);
    EXPECT_FALSE(moved.valid());
    EXPECT_TRUE(moved_again.valid());
    EXPECT_EQ(controller.GetStats().running, 1);
  }
  EXPECT_EQ(controller.GetStats().running, 0);
}

}  // namespace
}  // namespace cloudjoin::server
