#include "ml/inference_model.hpp"

#include "common/error.hpp"

namespace esl::ml {

void scale_rows(std::span<const Real> mean, std::span<const Real> stddev,
                Matrix& raw_rows) {
  if (mean.empty()) {
    return;
  }
  expects(stddev.size() == mean.size(),
          "scale_rows: mean/stddev size mismatch");
  expects(raw_rows.cols() == mean.size(), "scale_rows: row width mismatch");
  const Real* m = mean.data();
  const Real* s = stddev.data();
  for (std::size_t r = 0; r < raw_rows.rows(); ++r) {
    const auto row = raw_rows.row(r);
    for (std::size_t f = 0; f < row.size(); ++f) {
      const Real centered = row[f] - m[f];
      row[f] = s[f] > 0.0 ? centered / s[f] : 0.0;
    }
  }
}

void RowScaler::apply(Matrix& raw_rows) const {
  scale_rows(mean, stddev, raw_rows);
}

void RowScaler::apply_row(std::span<const Real> raw,
                          std::span<Real> out) const {
  const Real* m = mean.data();
  const Real* s = stddev.data();
  for (std::size_t f = 0; f < raw.size(); ++f) {
    const Real centered = raw[f] - m[f];
    out[f] = s[f] > 0.0 ? centered / s[f] : 0.0;
  }
}

ForestModel::ForestModel(std::shared_ptr<const RandomForest> forest,
                         RowScaler scaler)
    : forest_(std::move(forest)), scaler_(std::move(scaler)) {
  expects(forest_ != nullptr && forest_->is_fitted(),
          "ForestModel: needs a fitted forest");
}

void ForestModel::predict_into(Matrix& raw_rows, RealVector& proba,
                               std::vector<int>& labels) const {
  scaler_.apply(raw_rows);
  forest_->predict_all_into(raw_rows, proba, labels);
}

}  // namespace esl::ml
