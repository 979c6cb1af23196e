// Shared before/after comparison harness for the `--json` modes of the
// micro benches.
//
// `measure` times one closure ("one window of work per call") and its
// allocation rate via the counting operator new each bench binary
// defines with ESL_DEFINE_COUNTING_ALLOCATOR; micro_dsp uses it, and
// micro_queue shares the `--json` main below. micro_dsp reports its rows
// as Comparison pairs — the same workspace transform with the kernels::
// dispatch forced to scalar ("before") and at the host's widest SIMD
// level ("after") — through the table and JSON writers below (the
// BENCH_dsp.json schema).
#pragma once

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "../tests/support/alloc_counter.hpp"

namespace esl::bench {

struct PathResult {
  double windows_per_s = 0.0;
  double allocs_per_window = 0.0;
};

/// Times `fn` (one "window" of work per call) and its allocation rate,
/// after a fixed warm-up so caches, workspaces and the allocator itself
/// have reached steady state.
template <typename Fn>
PathResult measure(Fn&& fn, std::size_t iterations) {
  using Clock = std::chrono::steady_clock;
  for (std::size_t i = 0; i < 8; ++i) {
    fn();
  }
  const std::size_t allocs_before = esl::testing::allocation_count();
  const auto start = Clock::now();
  for (std::size_t i = 0; i < iterations; ++i) {
    fn();
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  const std::size_t allocs = esl::testing::allocation_count() - allocs_before;
  return {static_cast<double>(iterations) / elapsed,
          static_cast<double>(allocs) / static_cast<double>(iterations)};
}

struct Comparison {
  const char* name;
  PathResult before;  // baseline, e.g. scalar kernels
  PathResult after;   // candidate, e.g. widest SIMD level
};

/// Human-readable before/after table on stdout.
inline void print_comparison_table(const char* label_header,
                                   const std::vector<Comparison>& comparisons) {
  std::printf("%-28s %14s %10s %14s %10s %8s\n", label_header, "before (w/s)",
              "allocs/w", "after (w/s)", "allocs/w", "speedup");
  for (const Comparison& c : comparisons) {
    std::printf("%-28s %14.0f %10.2f %14.0f %10.2f %7.2fx\n", c.name,
                c.before.windows_per_s, c.before.allocs_per_window,
                c.after.windows_per_s, c.after.allocs_per_window,
                c.after.windows_per_s / c.before.windows_per_s);
  }
}

/// Machine-readable comparison JSON (the BENCH_dsp schema).
inline int write_comparison_json(const std::string& path,
                                 const char* bench_name,
                                 const std::vector<Comparison>& comparisons) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"comparisons\": [\n",
               bench_name);
  for (std::size_t i = 0; i < comparisons.size(); ++i) {
    const Comparison& c = comparisons[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"before_wps\": %.1f, "
        "\"before_allocs_per_window\": %.2f, \"after_wps\": %.1f, "
        "\"after_allocs_per_window\": %.2f, \"speedup\": %.3f}%s\n",
        c.name, c.before.windows_per_s, c.before.allocs_per_window,
        c.after.windows_per_s, c.after.allocs_per_window,
        c.after.windows_per_s / c.before.windows_per_s,
        i + 1 < comparisons.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

/// Extracts a `--json PATH` argument (if any) and strips it from the
/// argument list so Google Benchmark never sees it. Returns the filtered
/// arguments; `json_path` is left empty when the flag is absent.
inline std::vector<char*> strip_json_flag(int argc, char** argv,
                                          std::string& json_path) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  return args;
}

/// Shared main() for benches with a --json comparison mode: dispatches
/// `--json PATH` to `run_json(path)`, anything else to the registered
/// Google Benchmark suite.
template <typename JsonFn>
int benchmark_main_with_json(int argc, char** argv, JsonFn&& run_json) {
  std::string json_path;
  std::vector<char*> args = strip_json_flag(argc, argv, json_path);
  if (!json_path.empty()) {
    return run_json(json_path);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace esl::bench
