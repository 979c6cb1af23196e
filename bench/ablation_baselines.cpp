// Ablation: Algorithm 1 vs unsupervised clustering baselines.
//
// Smart & Chen [17] report k-means / k-medoids as the best unsupervised
// scalp-EEG detectors. We translate them to the a-posteriori localization
// task: cluster the normalized feature rows into k = 2, call the smaller
// cluster "seizure", and label the W-point window containing the most
// seizure-cluster members. Algorithm 1 should localize substantially
// better — that gap is the paper's motivation for a purpose-built
// distance scheme.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/statistics.hpp"
#include "core/aposteriori.hpp"
#include "core/deviation_metric.hpp"
#include "features/normalize.hpp"
#include "features/paper_features.hpp"
#include "ml/kmeans.hpp"
#include "sim/cohort.hpp"

namespace {

using namespace esl;

/// Localizes a W-window by maximizing seizure-cluster membership.
std::size_t densest_window(const std::vector<bool>& is_seizure_row,
                           std::size_t window) {
  std::size_t count = 0;
  for (std::size_t i = 0; i < window && i < is_seizure_row.size(); ++i) {
    count += is_seizure_row[i] ? 1 : 0;
  }
  std::size_t best_index = 0;
  std::size_t best_count = count;
  for (std::size_t i = 1; i + window <= is_seizure_row.size(); ++i) {
    count -= is_seizure_row[i - 1] ? 1 : 0;
    count += is_seizure_row[i + window - 1] ? 1 : 0;
    if (count > best_count) {
      best_count = count;
      best_index = i;
    }
  }
  return best_index;
}

/// Clustering-based a-posteriori labeling (k-means or k-medoids).
signal::Interval cluster_label(const features::WindowedFeatures& windowed,
                               Seconds w_seconds, bool use_medoids, Rng& rng) {
  const Matrix z = features::zscore_normalized(windowed.features);
  const ml::Clustering clustering =
      use_medoids ? ml::kmedoids(z, 2, rng) : ml::kmeans(z, 2, rng);
  // The seizure cluster is the minority cluster.
  std::size_t members[2] = {0, 0};
  for (const std::size_t a : clustering.assignment) {
    ++members[a];
  }
  const std::size_t seizure_cluster = members[0] <= members[1] ? 0 : 1;
  std::vector<bool> is_seizure(clustering.assignment.size());
  for (std::size_t i = 0; i < is_seizure.size(); ++i) {
    is_seizure[i] = clustering.assignment[i] == seizure_cluster;
  }
  const auto window_points = static_cast<std::size_t>(
      std::max(1.0, w_seconds / windowed.hop_seconds));
  const std::size_t y = densest_window(is_seizure, window_points);
  const Seconds onset = windowed.index_to_seconds(y);
  return {onset, onset + w_seconds};
}

}  // namespace

int main() {
  bench::print_header(
      "ABLATION: Algorithm 1 vs k-means / k-medoids labeling [17]");

  const sim::CohortSimulator simulator;
  const std::vector<std::size_t> patients = {0, 4, 7};  // mixed difficulty
  const std::size_t samples = 2;

  RealVector delta_algorithm;
  RealVector delta_kmeans;
  RealVector delta_kmedoids;
  const features::PaperFeatureExtractor extractor;
  const core::APosterioriDetector detector;
  Rng rng(99);

  std::size_t done = 0;
  for (const std::size_t p : patients) {
    const Seconds w = simulator.average_seizure_duration(p);
    for (const auto& event : simulator.events_for_patient(p)) {
      for (std::size_t s = 0; s < samples; ++s) {
        const auto record = simulator.synthesize_sample(event, s, 900.0, 1200.0);
        const auto windowed = features::extract_windowed_features(record, extractor);
        const auto truth = record.seizures().front();

        delta_algorithm.push_back(
            core::deviation_seconds(truth, detector.label(windowed, w)));
        delta_kmeans.push_back(core::deviation_seconds(
            truth, cluster_label(windowed, w, /*use_medoids=*/false, rng)));
        delta_kmedoids.push_back(core::deviation_seconds(
            truth, cluster_label(windowed, w, /*use_medoids=*/true, rng)));
        std::fprintf(stderr, "\r  case %zu", ++done);
      }
    }
  }
  std::fprintf(stderr, "\n");

  const auto row = [](const char* name, RealVector deltas) {
    std::sort(deltas.begin(), deltas.end());
    std::printf("%-22s %-16.2f %-16.2f %-16.2f\n", name,
                stats::mean(deltas), stats::median(deltas),
                stats::quantile_from_sorted(deltas, 0.9));
  };
  std::printf("%-22s %-16s %-16s %-16s\n", "method", "mean delta (s)",
              "median delta (s)", "p90 delta (s)");
  row("Algorithm 1", delta_algorithm);
  row("k-means  [17]", delta_kmeans);
  row("k-medoids [17]", delta_kmedoids);
  std::printf("\nexpected shape: Algorithm 1 wins on median and p90; the\n"
              "clustering baselines lose when background variance fragments\n"
              "the minority cluster.\n");
  return 0;
}
