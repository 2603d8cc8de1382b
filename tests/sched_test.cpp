// Tests for the concurrent runtime: thread pool, bounded queue, and the
// warm model cache — including contention stress tests.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <thread>

#include "sched/queue.hpp"
#include "sched/thread_pool.hpp"
#include "sched/warm_cache.hpp"

namespace adaparse::sched {
namespace {

// --------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 1000; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 1000);
  // get() returns when the result is set, which precedes the worker's
  // bookkeeping update; wait_idle() synchronizes with it.
  pool.wait_idle();
  EXPECT_EQ(pool.completed(), 1000U);
}

TEST(ThreadPoolTest, ReturnsValues) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolTest, WaitIdleBlocksUntilDrained) {
  ThreadPool pool(3);
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++done;
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, AtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1U);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, TrySubmitRunsLikeSubmit) {
  ThreadPool pool(2);
  auto f = pool.try_submit([] { return 21 * 2; });
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->get(), 42);
}

TEST(ThreadPoolTest, TrySubmitAfterShutdownRejectsInsteadOfThrowing) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.try_submit([] {}).has_value());
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
  pool.shutdown();  // idempotent
}

TEST(ThreadPoolTest, SubmitShutdownRaceNeverCrashesAndAcceptedTasksRun) {
  // Regression for the service-shutdown race: submitters racing shutdown()
  // must observe clean rejection, and every *accepted* task must still run
  // (shutdown drains the queue before joining).
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::atomic<int> accepted{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> submitters;
  for (int t = 0; t < 4; ++t) {
    submitters.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < 2000; ++i) {
        auto f = pool.try_submit([&executed] { ++executed; });
        if (!f.has_value()) break;  // pool is gone: a normal outcome
        ++accepted;
      }
    });
  }
  go = true;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  pool.shutdown();
  for (auto& t : submitters) t.join();
  EXPECT_EQ(executed.load(), accepted.load());
  EXPECT_FALSE(pool.try_submit([] {}).has_value());
}

TEST(ThreadPoolTest, ParallelismActuallyHappens) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([&] {
      const int now = ++concurrent;
      int expected = peak.load();
      while (now > expected && !peak.compare_exchange_weak(expected, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --concurrent;
    }));
  }
  for (auto& f : futures) f.get();
  EXPECT_GT(peak.load(), 1);
}

// -------------------------------------------------------------- queue ----

TEST(BoundedQueueTest, FifoOrderSingleThread) {
  BoundedQueue<int> q(10);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) {
    const auto v = q.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BoundedQueueTest, TryPushRespectsCapacity) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2U);
}

TEST(BoundedQueueTest, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueueTest, NoLossUnderContention) {
  // 4 producers x 2500 items through a tiny queue into 4 consumers:
  // every item must arrive exactly once.
  BoundedQueue<int> q(8);
  constexpr int kProducers = 4, kPerProducer = 2500, kConsumers = 4;
  std::vector<std::thread> producers, consumers;
  std::mutex sink_mutex;
  std::multiset<int> sink;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        std::lock_guard<std::mutex> lock(sink_mutex);
        sink.insert(*v);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  ASSERT_EQ(sink.size(), static_cast<std::size_t>(kProducers * kPerProducer));
  // Exactly once: no duplicates.
  EXPECT_EQ(std::set<int>(sink.begin(), sink.end()).size(), sink.size());
}

TEST(BoundedQueueTest, BackpressureBlocksProducer) {
  BoundedQueue<int> q(1);
  q.push(0);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.push(1);  // blocks until a pop frees space
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  q.pop();
  producer.join();
  EXPECT_TRUE(pushed.load());
}

TEST(BoundedQueueTest, TryPopReturnsItemOrNullopt) {
  BoundedQueue<int> q(4);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(7);
  EXPECT_EQ(q.try_pop().value(), 7);
  EXPECT_FALSE(q.try_pop().has_value());
  q.push(8);
  q.close();
  EXPECT_EQ(q.try_pop().value(), 8);  // close still drains
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BoundedQueueTest, PopForTimesOutOnEmptyQueue) {
  BoundedQueue<int> q(4);
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::milliseconds(30)).has_value());
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_GE(waited, std::chrono::milliseconds(25));
  EXPECT_FALSE(q.closed());  // timeout, not shutdown
}

TEST(BoundedQueueTest, PopForReturnsEarlyWhenItemArrives) {
  BoundedQueue<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.push(5);
  });
  // Far shorter than the 10s bound: the wait must end at the push.
  EXPECT_EQ(q.pop_for(std::chrono::seconds(10)).value(), 5);
  producer.join();
}

TEST(BoundedQueueTest, PopForUnblocksOnCloseWhileWaiting) {
  BoundedQueue<int> q(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.close();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop_for(std::chrono::seconds(10)).has_value());
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::seconds(5));  // not the full timeout
  EXPECT_TRUE(q.closed());
  closer.join();
}

TEST(BoundedQueueTest, PeakSizeTracksHighWater) {
  BoundedQueue<int> q(8);
  q.push(1);
  q.push(2);
  q.push(3);
  q.pop();
  q.pop();
  q.push(4);
  EXPECT_EQ(q.peak_size(), 3U);
  EXPECT_EQ(q.capacity(), 8U);
}

// ------------------------------------------------- multi-stage chains ----
// The streaming pipeline connects stages with BoundedQueues; these tests
// exercise the chain properties it relies on: capacity-1 chains make
// progress, and closing the head mid-stream drains cleanly with no
// deadlock and no loss of already-enqueued items.

/// Relays every item from `in` to `out`, then closes `out`. A failed push
/// (downstream closed) also closes `in` so upstream producers unblock —
/// the same bidirectional shutdown cascade the pipeline stages use.
template <typename T>
std::thread relay_stage(BoundedQueue<T>& in, BoundedQueue<T>& out) {
  return std::thread([&in, &out] {
    while (auto v = in.pop()) {
      if (!out.push(std::move(*v))) {
        in.close();
        break;
      }
    }
    out.close();
  });
}

TEST(BoundedQueueTest, CapacityOneChainMakesProgress) {
  BoundedQueue<int> a(1), b(1), c(1);
  auto t1 = relay_stage(a, b);
  auto t2 = relay_stage(b, c);
  std::vector<int> received;
  std::thread consumer([&] {
    while (auto v = c.pop()) received.push_back(*v);
  });
  constexpr int kItems = 200;
  for (int i = 0; i < kItems; ++i) ASSERT_TRUE(a.push(i));
  a.close();
  t1.join();
  t2.join();
  consumer.join();
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);  // FIFO held
}

TEST(BoundedQueueTest, ChainCloseMidStreamDrainsCleanly) {
  BoundedQueue<int> a(2), b(2), c(2);
  auto t1 = relay_stage(a, b);
  auto t2 = relay_stage(b, c);
  std::atomic<int> accepted{0};
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      if (!a.push(i)) break;  // close() mid-stream lands here
      ++accepted;
    }
  });
  std::vector<int> received;
  std::thread consumer([&] {
    while (auto v = c.pop()) received.push_back(*v);
  });
  while (accepted.load() < 50) std::this_thread::yield();
  a.close();  // shut the head down mid-stream
  producer.join();
  t1.join();
  t2.join();
  consumer.join();
  // Every accepted item must come out the far end, in order, exactly once.
  ASSERT_EQ(received.size(), static_cast<std::size_t>(accepted.load()));
  for (std::size_t i = 0; i < received.size(); ++i) {
    EXPECT_EQ(received[i], static_cast<int>(i));
  }
}

TEST(BoundedQueueTest, ChainTailCloseUnblocksUpstream) {
  // Closing the *tail* must not wedge producers blocked mid-chain: the
  // relay sees push() fail and exits, closing its own output.
  BoundedQueue<int> a(1), b(1);
  auto t = relay_stage(a, b);
  std::thread producer([&] {
    for (int i = 0; i < 100000; ++i) {
      if (!a.push(i)) break;
    }
    // Relay stopped consuming; the producer must not deadlock.
    a.close();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  b.close();  // downstream consumer disappears
  t.join();
  producer.join();
  SUCCEED();  // reaching here means no deadlock
}

// ---------------------------------------------------------- warm cache ----

TEST(WarmCacheTest, LoadsOncePerKey) {
  WarmModelCache cache(true);
  std::atomic<int> loads{0};
  auto loader = [&loads] {
    ++loads;
    return std::make_shared<int>(1);
  };
  for (int i = 0; i < 100; ++i) {
    cache.get_or_load("nougat", loader, 15.0);
  }
  EXPECT_EQ(loads.load(), 1);
  const auto stats = cache.stats("nougat");
  EXPECT_EQ(stats.loads, 1U);
  EXPECT_EQ(stats.hits, 99U);
  EXPECT_NEAR(stats.load_seconds_paid, 15.0, 1e-12);
}

TEST(WarmCacheTest, ColdModeReloadsEveryTime) {
  WarmModelCache cache(false);
  std::atomic<int> loads{0};
  auto loader = [&loads] {
    ++loads;
    return std::make_shared<int>(1);
  };
  for (int i = 0; i < 10; ++i) {
    cache.get_or_load("nougat", loader, 15.0);
  }
  EXPECT_EQ(loads.load(), 10);
  EXPECT_NEAR(cache.total_load_seconds(), 150.0, 1e-12);
}

TEST(WarmCacheTest, DistinctKeysLoadSeparately) {
  WarmModelCache cache(true);
  cache.get_or_load("a", [] { return std::make_shared<int>(1); }, 1.0);
  cache.get_or_load("b", [] { return std::make_shared<int>(2); }, 2.0);
  EXPECT_NEAR(cache.total_load_seconds(), 3.0, 1e-12);
}

TEST(WarmCacheTest, SameHandleReturned) {
  WarmModelCache cache(true);
  auto h1 = cache.get_or_load("k", [] { return std::make_shared<int>(7); }, 0.1);
  auto h2 = cache.get_or_load("k", [] { return std::make_shared<int>(8); }, 0.1);
  EXPECT_EQ(h1.get(), h2.get());
}

TEST(WarmCacheTest, ThreadSafeSingleLoad) {
  WarmModelCache cache(true);
  std::atomic<int> loads{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        cache.get_or_load("model", [&loads] {
          ++loads;
          return std::make_shared<int>(0);
        }, 1.0);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(loads.load(), 1);
}

TEST(WarmCacheTest, ClearForcesReload) {
  WarmModelCache cache(true);
  std::atomic<int> loads{0};
  auto loader = [&loads] {
    ++loads;
    return std::make_shared<int>(0);
  };
  cache.get_or_load("k", loader, 1.0);
  cache.clear();
  cache.get_or_load("k", loader, 1.0);
  EXPECT_EQ(loads.load(), 2);
}

TEST(WarmCacheTest, TransientLoadFailuresAreRetriedThenCached) {
  WarmModelCache cache(true);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(4);
  cache.set_retry_policy(policy);
  // First two load attempts fail (a flaky GPU allocation); the third lands.
  cache.set_load_failure_hook(
      [](const std::string&, std::size_t attempt) { return attempt <= 2; });

  std::atomic<int> loads{0};
  auto handle = cache.get_or_load("nougat", [&loads] {
    ++loads;
    return std::make_shared<int>(42);
  }, 1.0);
  EXPECT_EQ(loads.load(), 1);  // loader only runs on the surviving attempt
  ASSERT_NE(handle, nullptr);

  const auto stats = cache.stats("nougat");
  EXPECT_EQ(stats.loads, 3U);
  EXPECT_EQ(stats.failures, 2U);
  EXPECT_EQ(stats.retries, 2U);

  // Healed: the next call is a plain cache hit, no further load attempts.
  cache.get_or_load("nougat", [&loads] {
    ++loads;
    return std::make_shared<int>(0);
  }, 1.0);
  EXPECT_EQ(loads.load(), 1);
  EXPECT_EQ(cache.stats("nougat").hits, 1U);
}

TEST(WarmCacheTest, ExhaustedRetryBudgetThrowsNotHangs) {
  WarmModelCache cache(true);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(2);
  cache.set_retry_policy(policy);
  cache.set_load_failure_hook(
      [](const std::string&, std::size_t) { return true; });  // never heals

  EXPECT_THROW(cache.get_or_load(
                   "doomed", [] { return std::make_shared<int>(0); }, 1.0),
               std::runtime_error);
  const auto stats = cache.stats("doomed");
  EXPECT_EQ(stats.failures, 3U);   // one per attempt
  EXPECT_EQ(stats.retries, 2U);    // the last failure is surfaced, not slept
  EXPECT_EQ(cache.stats("doomed").hits, 0U);
}

TEST(WarmCacheTest, LoaderExceptionsUseTheSameRetryBudget) {
  // Failures thrown by the loader itself (not the injection hook) follow
  // the identical retry discipline.
  WarmModelCache cache(true);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff = std::chrono::milliseconds(1);
  policy.max_backoff = std::chrono::milliseconds(2);
  cache.set_retry_policy(policy);

  std::atomic<int> calls{0};
  auto handle = cache.get_or_load("flaky", [&calls] {
    if (++calls <= 2) throw std::runtime_error("transient");
    return std::make_shared<int>(7);
  }, 1.0);
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(*std::static_pointer_cast<int>(handle), 7);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(cache.stats("flaky").retries, 2U);
}

}  // namespace
}  // namespace adaparse::sched
