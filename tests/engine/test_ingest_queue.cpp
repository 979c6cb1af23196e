#include "engine/ingest_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/error.hpp"

namespace esl::engine {
namespace {

/// One-channel chunk whose single sample encodes (producer, sequence).
std::vector<std::span<const Real>> encode(const Real& storage) {
  return {std::span<const Real>(&storage, 1)};
}

// IngestQueue is one mutex+condvar multi-producer queue; the suite is
// named for that.

TEST(MutexIngestQueueTest, RejectsZeroCapacity) {
  EXPECT_THROW(IngestQueue(0), InvalidArgument);
}

TEST(MutexIngestQueueTest, FifoOrderAndOwnedCopies) {
  IngestQueue queue(8);
  for (int i = 0; i < 5; ++i) {
    const Real sample = static_cast<Real>(i);
    // The span dies right after push: the queue must have copied it.
    ASSERT_TRUE(queue.push(static_cast<std::uint64_t>(i), encode(sample)));
  }
  EXPECT_EQ(queue.size(), 5u);

  std::vector<IngestChunk> chunks;
  EXPECT_EQ(queue.pop_all(chunks), 5u);
  EXPECT_EQ(queue.size(), 0u);
  ASSERT_EQ(chunks.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(chunks[i].session_id, static_cast<std::uint64_t>(i));
    ASSERT_EQ(chunks[i].channels.size(), 1u);
    ASSERT_EQ(chunks[i].channels[0].size(), 1u);
    EXPECT_EQ(chunks[i].channels[0][0], static_cast<Real>(i));
  }
}

TEST(MutexIngestQueueTest, RecycledStorageIsReused) {
  IngestQueue queue(4);
  const Real sample = 1.0;
  ASSERT_TRUE(queue.push(0, encode(sample)));
  std::vector<IngestChunk> chunks;
  queue.pop_all(chunks);
  const Real* storage = chunks[0].channels[0].data();
  queue.recycle(chunks);
  EXPECT_TRUE(chunks.empty());

  // The next push of the same shape lands in the recycled allocation.
  ASSERT_TRUE(queue.push(1, encode(sample)));
  queue.pop_all(chunks);
  EXPECT_EQ(chunks[0].channels[0].data(), storage);
}

TEST(MutexIngestQueueTest, BoundedPushBlocksUntilConsumerDrains) {
  IngestQueue queue(2);
  const Real sample = 0.0;
  ASSERT_TRUE(queue.push(0, encode(sample)));
  ASSERT_TRUE(queue.push(1, encode(sample)));

  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    const Real blocked_sample = 3.0;
    queue.push(2, encode(blocked_sample));  // blocks: queue is full
    third_pushed.store(true);
  });

  std::vector<IngestChunk> chunks;
  // Draining makes room; the blocked producer then completes.
  while (queue.pop_all(chunks) == 0 || chunks.size() < 3) {
    std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[2].session_id, 2u);
  EXPECT_EQ(chunks[2].channels[0][0], 3.0);
}

TEST(MutexIngestQueueTest, CloseUnblocksAndFailsProducers) {
  IngestQueue queue(1);
  const Real sample = 0.0;
  ASSERT_TRUE(queue.push(0, encode(sample)));  // now full

  std::atomic<bool> result{true};
  std::thread producer([&] {
    const Real blocked_sample = 1.0;
    result.store(queue.push(1, encode(blocked_sample)));
  });
  queue.close();
  producer.join();
  EXPECT_FALSE(result.load());               // blocked push failed fast
  const Real late = 2.0;
  EXPECT_FALSE(queue.push(2, encode(late)));  // and so do later pushes

  // Chunks enqueued before close stay poppable.
  std::vector<IngestChunk> chunks;
  EXPECT_EQ(queue.pop_all(chunks), 1u);
}

TEST(MutexIngestQueueTest, WakeIsLatchedForTheNextWait) {
  IngestQueue queue(1);
  queue.wake();
  queue.wait();  // must return immediately instead of blocking forever
  SUCCEED();
}

TEST(MutexIngestQueueTest, MultiProducerOrderIsPerProducerFifo) {
  constexpr std::size_t k_producers = 4;
  constexpr std::size_t k_per_producer = 64;
  IngestQueue queue(8);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < k_producers; ++p) {
    producers.emplace_back([&queue, p] {
      for (std::size_t i = 0; i < k_per_producer; ++i) {
        const Real sample = static_cast<Real>(i);
        ASSERT_TRUE(queue.push(p, encode(sample)));
      }
    });
  }

  // Single consumer: wait + drain until everything arrived.
  std::vector<IngestChunk> chunks;
  while (chunks.size() < k_producers * k_per_producer) {
    queue.wait();
    queue.pop_all(chunks);
  }
  for (std::thread& t : producers) {
    t.join();
  }

  // Chunks from one producer must appear in their push order.
  std::vector<std::size_t> next(k_producers, 0);
  for (const IngestChunk& chunk : chunks) {
    const auto producer = static_cast<std::size_t>(chunk.session_id);
    ASSERT_LT(producer, k_producers);
    EXPECT_EQ(chunk.channels[0][0], static_cast<Real>(next[producer]));
    ++next[producer];
  }
  for (std::size_t p = 0; p < k_producers; ++p) {
    EXPECT_EQ(next[p], k_per_producer);
  }
}

TEST(MutexIngestQueueTest, WatermarksCountPushesAndPops) {
  // Flush barriers snapshot pushed() and wait for popped() to reach it.
  IngestQueue queue(4);
  EXPECT_EQ(queue.pushed(), 0u);
  EXPECT_EQ(queue.popped(), 0u);

  const Real sample = 0.0;
  ASSERT_TRUE(queue.push(7, encode(sample)));
  ASSERT_TRUE(queue.push(8, encode(sample)));
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.popped(), 0u);

  std::vector<IngestChunk> chunks;
  queue.pop_all(chunks);
  EXPECT_EQ(queue.pushed(), 2u);
  EXPECT_EQ(queue.popped(), 2u);
  EXPECT_EQ(queue.size(), 0u);
}

}  // namespace
}  // namespace esl::engine
