// The repository benchmark: one command, three workloads.
//
//   perfbench --workload stream_local|stream_wire|self_learning
//             --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--golden FILE]
//   perfbench --workload self_learning --seed N --record-quality
//             prints the line perfbench/golden/self_learning.txt records
//             for seed N (the script's quality; no timed phases)
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set, measured untraced;
// with --trace 1 the same workload runs with spans recorded around every
// call into the program and a replay of each layer's public call, and the
// metrics are the per-layer set. Earlier lines give the run context, the
// sample count behind every percentile, the stage sums beside the
// end-to-end figures and one line per failed check. The exit code is 0
// only when every output check passed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/simd.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "stream_local|stream_wire|self_learning --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--golden FILE]\n"
               "       perfbench --workload self_learning --seed N --record-quality\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--record-quality") {
      options.record_quality = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(("missing value for " + arg).c_str());
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--workdir") {
      options.workdir = value;
    } else if (arg == "--golden") {
      options.golden = value;
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (options.workload != "stream_local" && options.workload != "stream_wire" &&
      options.workload != "self_learning") {
    usage("unknown --workload");
  }
  if (!(options.seconds >= 1.0)) {
    usage("--seconds must be at least 1");
  }
  if (options.record_quality && options.workload != "self_learning") {
    usage("--record-quality applies to self_learning only");
  }
  return options;
}

bool release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
    }
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  if (!release_build()) {
    std::fprintf(stderr,
                 "perfbench: built as %s; timings from non-Release builds are "
                 "not comparable, refusing to run\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Result result;
  try {
    if (options.workload == "self_learning") {
      perfbench::run_self_learning(options, result);
      if (options.record_quality) {
        return result.failed == 0 ? 0 : 1;
      }
    } else {
      perfbench::run_stream(options, options.workload == "stream_wire", result);
    }
    result.e2e("peak_rss_mb", perfbench::peak_rss_mb(), "MB");
  } catch (const std::exception& error) {
    result.fail(std::string("run aborted: ") + error.what());
  }

  const std::vector<Metric>& metrics = options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail("metric " + metric.name + " is not finite");
    }
  }
  const bool correct = result.failed == 0;

  std::printf("context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"cores\": %u, \"simd\": \"%s\", \"build_type\": "
              "\"%s\", \"compiler\": \"%s\"}\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
              esl::kernels::level_name(esl::kernels::active_level()), PERFBENCH_BUILD_TYPE,
              __VERSION__);
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const Metric& metric : metrics) {
    std::printf("  %-36s %16.6g %s\n", metric.name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("  failed_ratio %.6g (%llu of %llu operations)\n",
              result.attempted == 0 ? 0.0
                                    : static_cast<double>(result.failed) /
                                          static_cast<double>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(1, result.attempted)),
              static_cast<unsigned long long>(result.failed));
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      continue;
    }
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(metric.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", metric.value);
    print_json_string(metric.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
