// Microbenchmarks of the shard ingest queue (engine/ingest_queue.hpp):
// the mutex+condvar queue every ThreadPoolBackend shard drains, with
// small chunks so synchronization cost dominates the sample copy.
//
// Two modes:
//  * default: Google Benchmark suite (uncontended push+drain cycle
//    across capacities);
//  * --json PATH: self-timed producer/consumer matrix — {1,2,4}
//    producers x capacities {16,256} — reporting steady-state ops/sec
//    and p99 push latency, written as machine-readable JSON
//    (BENCH_queue.json in CI).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "alloc_compare.hpp"
#include "engine/ingest_queue.hpp"

ESL_DEFINE_COUNTING_ALLOCATOR();

namespace {

using namespace esl;
using engine::IngestChunk;
using engine::IngestQueue;

constexpr std::size_t k_chunk_samples = 64;  // small: queue cost dominates

std::vector<std::span<const Real>> probe_chunk(const RealVector& storage) {
  return {std::span<const Real>(storage)};
}

// --------------------------------------------------- default (GB) mode
// Uncontended single-thread push+drain cycle: the floor the queue adds
// to an ingest call when the consumer keeps up.

void bm_push_drain(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  IngestQueue queue(capacity);
  const RealVector storage(k_chunk_samples, 0.5);
  const auto chunk = probe_chunk(storage);
  std::vector<IngestChunk> drained;
  std::size_t pushed = 0;
  for (auto _ : state) {
    queue.push(pushed++, chunk);
    if (pushed % capacity == capacity - 1) {
      queue.pop_all(drained);
      queue.recycle(drained);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK(bm_push_drain)->Arg(16)->Arg(256);

// --------------------------------------------------------------- --json
// Real producer/consumer runs with per-push latency capture.

struct QueueResult {
  std::size_t producers = 0;
  std::size_t capacity = 0;
  double ops_per_s = 0.0;
  double p99_push_ns = 0.0;
};

QueueResult run_config(std::size_t producers, std::size_t capacity,
                       std::size_t total_ops) {
  using Clock = std::chrono::steady_clock;
  const std::size_t per_producer = total_ops / producers;

  const auto run_once = [&](bool timed) -> QueueResult {
    IngestQueue queue(capacity);
    const std::size_t expected = per_producer * producers;

    // The consumer runs the shard-worker loop: park when empty, drain
    // everything when woken — the same regime ThreadPoolBackend workers
    // run in production.
    std::thread consumer([&] {
      std::vector<IngestChunk> chunks;
      std::size_t drained = 0;
      while (drained < expected) {
        queue.wait();
        drained += queue.pop_all(chunks);
        queue.recycle(chunks);
      }
    });

    std::vector<std::vector<double>> latencies(producers);
    std::vector<std::thread> threads;
    const auto start = Clock::now();
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        const RealVector storage(k_chunk_samples,
                                 static_cast<Real>(p) * 0.25);
        const auto chunk = probe_chunk(storage);
        std::vector<double>& mine = latencies[p];
        mine.reserve(per_producer / 8 + 1);
        for (std::size_t i = 0; i < per_producer; ++i) {
          // Sample every 8th push: two clock reads cost as much as the
          // push itself, so timing each one would swamp the signal.
          if ((i & 7) != 0) {
            queue.push(i, chunk);
            continue;
          }
          const auto before = Clock::now();
          queue.push(i, chunk);
          mine.push_back(
              std::chrono::duration<double, std::nano>(Clock::now() - before)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    consumer.join();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    QueueResult result{producers, capacity, 0.0, 0.0};
    if (!timed) {
      return result;
    }
    std::vector<double> merged;
    merged.reserve(expected);
    for (const auto& mine : latencies) {
      merged.insert(merged.end(), mine.begin(), mine.end());
    }
    std::sort(merged.begin(), merged.end());
    result.ops_per_s = static_cast<double>(expected) / elapsed;
    result.p99_push_ns = merged[(merged.size() * 99) / 100];
    return result;
  };

  run_once(false);  // warm-up: slot storage, pools, thread stacks
  return run_once(true);
}

int run_json_mode(const std::string& path) {
  constexpr std::size_t k_total_ops = 200000;
  std::vector<QueueResult> results;
  for (const std::size_t producers : {1u, 2u, 4u}) {
    for (const std::size_t capacity : {16u, 256u}) {
      results.push_back(run_config(producers, capacity, k_total_ops));
    }
  }

  std::printf("%10s %9s %14s %13s\n", "producers", "capacity", "ops/s",
              "p99 push ns");
  for (const QueueResult& r : results) {
    std::printf("%10zu %9zu %14.0f %13.0f\n", r.producers, r.capacity,
                r.ops_per_s, r.p99_push_ns);
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_queue\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const QueueResult& r = results[i];
    std::fprintf(f,
                 "    {\"producers\": %zu, \"capacity\": %zu, "
                 "\"ops_per_s\": %.1f, \"p99_push_ns\": %.1f}%s\n",
                 r.producers, r.capacity, r.ops_per_s, r.p99_push_ns,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return esl::bench::benchmark_main_with_json(argc, argv, run_json_mode);
}
