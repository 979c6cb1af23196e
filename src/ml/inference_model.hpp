// Deployable inference artifacts for the streaming engine.
//
// The engine (engine/engine.hpp) predicts only through this seam: an
// InferenceModel packages everything one batched prediction needs — the
// per-feature z-score fitted alongside the classifier, and the classifier
// itself — behind a single predict_into call over raw feature rows. That
// makes fleet models, freshly retrained personal detectors, and flat
// forests (compiled_forest.hpp, flattened or mapped from an artifact)
// interchangeable, shareable across shards, and hot-swappable
// mid-stream (DetectionService::swap_model).
#pragma once

#include <memory>
#include <vector>

#include "common/matrix.hpp"
#include "common/types.hpp"
#include "ml/random_forest.hpp"

namespace esl::ml {

/// Per-feature z-score parameters baked into a deployable model. This is
/// the single row-major scaling implementation — the detector's
/// scale_rows_in_place / predict_row delegate here — and each element
/// gets the exact features::apply_zscore arithmetic, so raw rows scaled
/// by any path classify bit-identically to the offline column-major one.
struct RowScaler {
  RealVector mean;
  RealVector stddev;

  bool empty() const { return mean.empty(); }
  /// z-scores raw feature rows in place (no-op when empty()).
  void apply(Matrix& raw_rows) const;
  /// z-scores one raw row into `out` (out.size() == raw.size()).
  void apply_row(std::span<const Real> raw, std::span<Real> out) const;
};

/// z-scores raw feature rows in place from borrowed per-feature
/// mean/stddev spans (no-op when `mean` is empty). This is the one
/// row-major scaling loop: RowScaler::apply delegates here, and
/// CompiledForest calls it with spans into its baked scaler (straight
/// into the mapping for a mapped artifact) — no copy, no allocation.
void scale_rows(std::span<const Real> mean, std::span<const Real> stddev,
                Matrix& raw_rows);

/// Immutable deployable model — the only interface the engine calls for
/// prediction. Implementations hold no mutable state, so a fitted model
/// may be shared read-only across shards and their worker threads.
class InferenceModel {
 public:
  virtual ~InferenceModel() = default;

  virtual const char* name() const = 0;
  /// Trees in the underlying ensemble (diagnostics/benchmarks).
  virtual std::size_t tree_count() const = 0;

  /// Classifies every row of `raw_rows`: z-scores the rows in place with
  /// the baked-in scaler, then overwrites `proba`/`labels` (resized;
  /// reused scratch allocates nothing once warm). Rows are *raw* feature
  /// rows — the caller never scales.
  virtual void predict_into(Matrix& raw_rows, RealVector& proba,
                            std::vector<int>& labels) const = 0;
};

/// Thin adapter: an InferenceModel over a fitted RandomForest (shared,
/// immutable) plus the scaler it was trained with. This is the
/// node-hopping implementation — the parity oracle, and the model a
/// session serves right after a retrain; CompiledForest is the flat one.
class ForestModel final : public InferenceModel {
 public:
  ForestModel(std::shared_ptr<const RandomForest> forest, RowScaler scaler);

  const char* name() const override { return "forest"; }
  std::size_t tree_count() const override { return forest_->tree_count(); }
  void predict_into(Matrix& raw_rows, RealVector& proba,
                    std::vector<int>& labels) const override;

  const RandomForest& forest() const { return *forest_; }
  const RowScaler& scaler() const { return scaler_; }

 private:
  std::shared_ptr<const RandomForest> forest_;
  RowScaler scaler_;
};

}  // namespace esl::ml
