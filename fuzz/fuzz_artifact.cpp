// Fuzz harness for the artifact trust boundary (ml/artifact.hpp).
//
// An artifact file crosses the training->serving process boundary, so
// its bytes are input, not state. This harness drives the single
// parsing seam — bind_artifact() — on arbitrary blobs: every input must
// either be rejected with an esl::Error (InvalidArgument/DataError) or
// yield a view the flat traversal can serve predictions from without
// leaving the blob. Any other outcome (signal, sanitizer
// report, unhandled exception) is a finding.
//
// Build: -DESL_FUZZ=ON. Under Clang this links libFuzzer
// (-fsanitize=fuzzer); elsewhere fuzz/standalone_main.cpp replays
// corpus files so the checked-in corpus doubles as a regression suite
// on every toolchain.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/matrix.hpp"
#include "ml/artifact.hpp"
#include "ml/compiled_forest.hpp"
#include "ml/inference_model.hpp"

namespace {

using esl::Matrix;
using esl::Real;
using esl::RealVector;

// Traversal cost on an *accepted* blob is O(rows * sum(tree_depth));
// hostile-but-valid headers can declare geometries whose single
// traversal would dominate the fuzz budget, so predictions only run on
// modestly sized forests (binding + validation always runs on all).
constexpr std::uint64_t k_predict_node_limit = 4096;
constexpr std::uint32_t k_predict_feature_limit = 1024;

void predict(const esl::ml::ArtifactView& view) {
  const std::size_t cols = static_cast<std::size_t>(view.forest.max_feature) + 1;
  Matrix rows;
  RealVector row(cols);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t f = 0; f < cols; ++f) {
      // Deterministic, sign-varied values spanning typical thresholds.
      row[f] = static_cast<Real>(static_cast<int>((r * 31 + f * 7) % 13) - 6);
    }
    rows.append_row(row);
  }
  esl::ml::scale_rows(view.scaler_mean, view.scaler_stddev, rows);

  RealVector proba;
  std::vector<int> labels;
  esl::ml::predict_flat(view.forest, rows, proba, labels);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // bind_artifact requires alignof(Real) alignment (an mmap base is
  // page-aligned); libFuzzer blobs are not, so stage through Real
  // storage the way a wire-protocol receive buffer would.
  std::vector<Real> storage(size / sizeof(Real) + 1);
  std::memcpy(storage.data(), data, size);
  const std::span<const std::byte> bytes =
      std::as_bytes(std::span<const Real>(storage)).first(size);

  try {
    const esl::ml::ArtifactView view = esl::ml::bind_artifact(bytes);
    if (view.header.node_count <= k_predict_node_limit &&
        view.header.max_feature < k_predict_feature_limit) {
      predict(view);
    }
  } catch (const esl::Error&) {
    // Malformed input correctly rejected at the boundary.
  }
  return 0;
}
