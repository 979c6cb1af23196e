// Artifact round-trip, rejection, and zero-copy serving suites.
//
// The on-disk artifact (ml/artifact.hpp) must reproduce the flattened
// CompiledForest bit for bit after a save -> mmap round trip — across
// depths, degenerate ensembles, a baked scaler, and batch sizes
// straddling the traversal block — and reject truncated, tampered,
// version-skewed, or foreign-endian files with InvalidArgument before
// touching any array. (The mapped model's warm zero-allocation check
// lives with the other CompiledForest suites.)
//
// Cross-process reuse: the CrossProcessSave / CrossProcessLoad pair is
// gated on ESL_ARTIFACT_CROSS_DIR — CI runs Save and Load in separate
// ctest invocations, proving an artifact written by one process serves
// bit-identically in another.
#include "ml/artifact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "ml/dataset.hpp"

namespace esl::ml {
namespace {

/// Noisy labels and tied feature values grow bushy trees with duplicate
/// thresholds and no-split leaves at many depths.
Dataset noisy(std::size_t size, std::uint64_t seed, std::size_t features = 10) {
  Rng rng(seed);
  Dataset data;
  for (std::size_t i = 0; i < size; ++i) {
    RealVector row;
    for (std::size_t f = 0; f < features; ++f) {
      row.push_back(std::round(rng.normal() * 4.0) / 4.0);
    }
    data.push_back(row, rng.uniform_index(2) == 0 ? 0 : 1);
  }
  return data;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Saves `compiled` and asserts the mapped model reproduces the
/// flattened one bit for bit on `raw`.
void expect_round_trip_parity(const CompiledForest& compiled,
                              const Matrix& raw, const std::string& path) {
  save_artifact(path, compiled);

  Matrix reference_scratch = raw;
  RealVector proba_reference;
  std::vector<int> labels_reference;
  compiled.predict_into(reference_scratch, proba_reference, labels_reference);

  const auto mapped = load_artifact(path);
  EXPECT_EQ(mapped->node_count(), compiled.node_count());
  Matrix scratch = raw;
  RealVector proba;
  std::vector<int> labels;
  mapped->predict_into(scratch, proba, labels);
  EXPECT_EQ(proba, proba_reference);  // bit-identical, no tolerance
  EXPECT_EQ(labels, labels_reference);
  EXPECT_EQ(scratch, reference_scratch);  // same in-place scaling
}

TEST(Artifact, LayoutIsCacheAlignedAndSized) {
  const ArtifactLayout layout = artifact_layout(1000, 32, 108);
  for (const std::size_t offset :
       {layout.feature, layout.threshold, layout.left, layout.right,
        layout.children, layout.leaf_value, layout.tree_root,
        layout.tree_depth, layout.scaler_mean, layout.scaler_stddev,
        layout.total_bytes}) {
    EXPECT_EQ(offset % k_artifact_alignment, 0u);
  }
  EXPECT_GT(layout.total_bytes, sizeof(ArtifactHeader));
  // Arrays appear in format order and never overlap.
  EXPECT_LT(layout.feature, layout.threshold);
  EXPECT_LT(layout.threshold, layout.left);
  EXPECT_GE(layout.left - layout.threshold, 1000 * sizeof(Real));
  EXPECT_GE(layout.total_bytes - layout.scaler_stddev, 108 * sizeof(Real));
}

TEST(Artifact, RoundTripParityAcrossDepthsAndBlockBoundaryBatches) {
  for (const std::size_t depth : {1u, 4u, 16u}) {
    SCOPED_TRACE("max_depth " + std::to_string(depth));
    ForestConfig config;
    config.tree.max_depth = depth;
    RandomForest forest(config);
    forest.fit(noisy(300, depth + 3), depth + 7);
    const CompiledForest compiled(forest);
    const std::string path =
        temp_path("round_trip_" + std::to_string(depth) + ".eslm");
    // Batch sizes straddling the 16-row traversal block: partial
    // blocks, exact blocks, multi-block.
    for (const std::size_t rows : {1u, 15u, 16u, 17u, 31u, 32u, 33u, 257u}) {
      SCOPED_TRACE("rows " + std::to_string(rows));
      expect_round_trip_parity(compiled, noisy(rows, depth + 50).x, path);
    }
  }
}

TEST(Artifact, SingleLeafDegenerateForestRoundTrips) {
  // Pure labels: every tree is one self-looping leaf (depth 0).
  Dataset pure;
  Rng rng(3);
  for (std::size_t i = 0; i < 32; ++i) {
    const RealVector row = {rng.normal(), rng.normal()};
    pure.push_back(row, 1);
  }
  ForestConfig config;
  config.tree_count = 4;
  RandomForest forest(config);
  forest.fit(pure, 5);
  const CompiledForest compiled(forest);
  ASSERT_EQ(compiled.max_depth(), 0u);
  expect_round_trip_parity(compiled, noisy(40, 11, 2).x,
                           temp_path("single_leaf.eslm"));
}

TEST(Artifact, ConstantFeatureLeafOnlyForestRoundTrips) {
  Dataset flat;
  const RealVector constant_row = {1.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 40; ++i) {
    flat.push_back(constant_row, i % 2 == 0 ? 1 : 0);
  }
  RandomForest forest;
  forest.fit(flat, 11);
  expect_round_trip_parity(CompiledForest(forest), flat.x,
                           temp_path("constant_feature.eslm"));
}

TEST(Artifact, BakedScalerRoundTripsIncludingZeroSpreadColumn) {
  const Dataset train = noisy(300, 21);
  RandomForest forest;
  forest.fit(train, 13);

  RowScaler scaler;
  for (std::size_t f = 0; f < train.feature_count(); ++f) {
    scaler.mean.push_back(0.25 * static_cast<Real>(f));
    scaler.stddev.push_back(1.0 + 0.1 * static_cast<Real>(f));
  }
  scaler.stddev.back() = 0.0;  // degenerate column: centered-to-zero path
  expect_round_trip_parity(CompiledForest(forest, scaler), noisy(64, 22).x,
                           temp_path("baked_scaler.eslm"));
}

TEST(Artifact, HeaderIntrospectionMatchesSourceForest) {
  RandomForest forest;
  forest.fit(noisy(200, 31), 17);
  const CompiledForest compiled(forest);
  const std::string path = temp_path("introspection.eslm");
  save_artifact(path, compiled);

  std::ifstream in(path, std::ios::binary);
  ArtifactHeader header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  ASSERT_TRUE(in);
  EXPECT_EQ(header.magic, k_artifact_magic);
  EXPECT_EQ(header.version, k_artifact_version);
  EXPECT_EQ(header.node_count, compiled.node_count());
  EXPECT_EQ(header.tree_count, compiled.tree_count());
  EXPECT_EQ(header.scaler_width, 0u);  // scaler-free fit
  EXPECT_EQ(header.max_depth, compiled.max_depth());
  EXPECT_EQ(header.max_feature, compiled.max_feature());
  EXPECT_EQ(header.decision_threshold, compiled.decision_threshold());

  const auto mapped = load_artifact(path);
  EXPECT_EQ(mapped->tree_count(), compiled.tree_count());
  EXPECT_STREQ(mapped->name(), "mapped");

  // The flat views point into the mapping and mirror the source arrays.
  const FlatForest& source = compiled.view();
  const FlatForest& view = mapped->view();
  EXPECT_TRUE(std::equal(source.feature.begin(), source.feature.end(),
                         view.feature.begin()));
  EXPECT_TRUE(std::equal(source.children.begin(), source.children.end(),
                         view.children.begin()));
  EXPECT_TRUE(std::equal(source.tree_root.begin(), source.tree_root.end(),
                         view.tree_root.begin()));
}

TEST(Artifact, SaveReplacesExistingFileAtomically) {
  RandomForest first;
  first.fit(noisy(100, 41), 1);
  RandomForest second;
  second.fit(noisy(200, 42, 6), 2);
  const std::string path = temp_path("replace.eslm");
  save_artifact(path, CompiledForest(first));
  save_artifact(path, CompiledForest(second));  // rename over the old file

  EXPECT_EQ(load_artifact(path)->node_count(),
            CompiledForest(second).node_count());
  expect_round_trip_parity(CompiledForest(second), noisy(32, 43, 6).x, path);
}

// ------------------------------------------------------- validate(header)

ArtifactHeader valid_header() {
  ArtifactHeader header;
  header.node_count = 100;
  header.tree_count = 8;
  header.scaler_width = 10;
  header.max_feature = 9;
  header.max_depth = 12;
  header.decision_threshold = 0.5;
  header.file_bytes = artifact_layout(100, 8, 10).total_bytes;
  return header;
}

TEST(ArtifactValidate, AcceptsAFreshHeaderAndRejectsEveryTamperedField) {
  EXPECT_NO_THROW(validate(valid_header()));

  const auto rejects = [](void (*tamper)(ArtifactHeader&)) {
    ArtifactHeader header = valid_header();
    tamper(header);
    EXPECT_THROW(validate(header), InvalidArgument);
  };
  rejects([](ArtifactHeader& h) { h.magic ^= 0xFF; });
  rejects([](ArtifactHeader& h) { h.version = k_artifact_version + 1; });
  rejects([](ArtifactHeader& h) { h.endianness = 0x04030201u; });
  rejects([](ArtifactHeader& h) { h.real_bytes = 4; });
  rejects([](ArtifactHeader& h) { h.index_bytes = 8; });
  rejects([](ArtifactHeader& h) { h.tree_count = 0; });
  rejects([](ArtifactHeader& h) { h.tree_count = h.node_count + 1; });
  rejects([](ArtifactHeader& h) { h.node_count = 1ull << 33; });
  rejects([](ArtifactHeader& h) { h.max_feature = 10; });  // == scaler_width
  rejects([](ArtifactHeader& h) { h.max_depth = h.node_count + 1; });
  rejects([](ArtifactHeader& h) { h.decision_threshold = 0.0; });
  rejects([](ArtifactHeader& h) { h.decision_threshold = 1.0; });
  rejects([](ArtifactHeader& h) {
    h.decision_threshold = std::numeric_limits<Real>::quiet_NaN();
  });
  rejects([](ArtifactHeader& h) { h.file_bytes += 64; });
  // Counts changed without recomputing file_bytes: size consistency.
  // (+16 nodes crosses the 64-byte alignment boundary of every array —
  // a +1 tamper can hide inside the padding and is legitimately
  // indistinguishable from the header alone.)
  rejects([](ArtifactHeader& h) { h.node_count += 16; });

  // The file-length overload rejects truncation and trailing garbage.
  const ArtifactHeader header = valid_header();
  EXPECT_NO_THROW(validate(header, header.file_bytes));
  EXPECT_THROW(validate(header, header.file_bytes - 1), InvalidArgument);
  EXPECT_THROW(validate(header, header.file_bytes + 1), InvalidArgument);
}

// --------------------------------------------------- on-disk corruption

class ArtifactCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    RandomForest forest;
    forest.fit(noisy(150, 61), 3);
    // Unique file per test: ctest runs each test as its own process, and
    // write_file truncates in place — sharing one name would let one
    // test truncate a file another has mmap'd (SIGBUS).
    path_ = temp_path(
        std::string("corrupt_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".eslm");
    save_artifact(path_, CompiledForest(forest));
  }

  std::vector<char> read_file() {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }
  void write_file(const std::vector<char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
};

TEST_F(ArtifactCorruption, RejectsFlippedMagic) {
  std::vector<char> bytes = read_file();
  bytes[0] ^= 0x01;
  write_file(bytes);
  EXPECT_THROW(load_artifact(path_), InvalidArgument);
}

TEST_F(ArtifactCorruption, RejectsWrongVersion) {
  std::vector<char> bytes = read_file();
  bytes[8] += 1;  // version is the u32 right after the magic
  write_file(bytes);
  EXPECT_THROW(load_artifact(path_), InvalidArgument);
}

TEST_F(ArtifactCorruption, RejectsForeignEndianness) {
  std::vector<char> bytes = read_file();
  std::swap(bytes[12], bytes[15]);  // byte-swap the endianness tag
  std::swap(bytes[13], bytes[14]);
  write_file(bytes);
  EXPECT_THROW(load_artifact(path_), InvalidArgument);
}

TEST_F(ArtifactCorruption, RejectsTruncationAnywhere) {
  const std::vector<char> bytes = read_file();
  // Mid-payload, mid-header, and empty-file truncations all reject.
  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2,
                                 sizeof(ArtifactHeader) - 8, std::size_t{0}}) {
    SCOPED_TRACE("keep " + std::to_string(keep));
    write_file({bytes.begin(), bytes.begin() + static_cast<long>(keep)});
    EXPECT_THROW(load_artifact(path_), InvalidArgument);
  }
}

TEST_F(ArtifactCorruption, RejectsTrailingGarbage) {
  std::vector<char> bytes = read_file();
  bytes.insert(bytes.end(), 128, '\0');
  write_file(bytes);
  EXPECT_THROW(load_artifact(path_), InvalidArgument);
}

TEST_F(ArtifactCorruption, MissingFileThrowsDataError) {
  EXPECT_THROW(load_artifact(path_ + ".does-not-exist"), DataError);
}

// ------------------------------------------------------ hostile payloads
//
// Regression suite for the fuzz finding that motivated
// validate_payload(): a file with a perfectly well-formed header but
// hostile *array values* (out-of-range child indices, roots, feature
// ids) used to pass validation and steer traversal outside the mapping.
// Every tamper here must be rejected at open time, before any predict.

class ArtifactPayloadTamper : public ArtifactCorruption {
 protected:
  /// The layout of the saved file, derived from its own header.
  ArtifactLayout layout() {
    const std::vector<char> bytes = read_file();
    ArtifactHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    return artifact_layout(header.node_count, header.tree_count,
                           header.scaler_width);
  }

  /// Overwrites the u32 at `byte_offset` with `value` and expects the
  /// open to reject the file.
  void expect_rejects_u32(std::size_t byte_offset, std::uint32_t value) {
    const std::vector<char> original = read_file();
    std::vector<char> bytes = original;
    ASSERT_LE(byte_offset + sizeof(value), bytes.size());
    std::memcpy(bytes.data() + byte_offset, &value, sizeof(value));
    write_file(bytes);
    EXPECT_THROW(load_artifact(path_), InvalidArgument);
    write_file(original);  // restore for the next tamper
  }

  std::uint32_t node_count() {
    const std::vector<char> bytes = read_file();
    ArtifactHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    return static_cast<std::uint32_t>(header.node_count);
  }
};

TEST_F(ArtifactPayloadTamper, RejectsTreeRootPastTheNodeArrays) {
  expect_rejects_u32(layout().tree_root, node_count());
}

TEST_F(ArtifactPayloadTamper, RejectsChildIndicesPastTheNodeArrays) {
  // left[0] and right[0] out of range (the interleave-consistency check
  // also fires, but range is what keeps traversal inside the mapping).
  expect_rejects_u32(layout().left, node_count());
  expect_rejects_u32(layout().right, ~std::uint32_t{0});
}

TEST_F(ArtifactPayloadTamper, RejectsInterleavedChildrenMismatch) {
  // Valid index, but children[0] no longer mirrors left[0]: the file
  // disagrees with itself about the tree it holds.
  const std::vector<char> bytes = read_file();
  std::uint32_t left0 = 0;
  std::memcpy(&left0, bytes.data() + layout().left, sizeof(left0));
  expect_rejects_u32(layout().children, left0 + 1 < node_count()
                                            ? left0 + 1
                                            : left0 - 1);
}

TEST_F(ArtifactPayloadTamper, RejectsFeatureIdPastTheDeclaredMaximum) {
  // predict bounds row width against header.max_feature; a bigger id in
  // the array would gather outside the batch rows.
  std::uint32_t max_feature = 0;
  {
    const std::vector<char> bytes = read_file();
    ArtifactHeader header;
    std::memcpy(&header, bytes.data(), sizeof(header));
    max_feature = header.max_feature;
  }
  expect_rejects_u32(layout().feature, max_feature + 1);
}

TEST_F(ArtifactPayloadTamper, RejectsTreeDepthPastTheDeclaredMaximum) {
  const std::vector<char> bytes = read_file();
  ArtifactHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  expect_rejects_u32(layout().tree_depth,
                     static_cast<std::uint32_t>(header.max_depth) + 1);
}

// ------------------------------------------------------- bind_artifact

TEST(BindArtifact, BindsAValidBufferWithoutAFile) {
  RandomForest forest;
  forest.fit(noisy(150, 71), 3);
  const CompiledForest compiled(forest);
  const std::string path = temp_path("bind.eslm");
  save_artifact(path, compiled);

  std::ifstream in(path, std::ios::binary);
  const std::vector<char> raw{std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>()};
  // bind_artifact requires alignof(Real); Real storage guarantees it.
  std::vector<Real> aligned((raw.size() + sizeof(Real) - 1) / sizeof(Real));
  std::memcpy(aligned.data(), raw.data(), raw.size());

  const ArtifactView view = bind_artifact(std::as_bytes(
      std::span<const Real>(aligned.data(), aligned.size())).first(raw.size()));
  EXPECT_EQ(view.header.node_count, compiled.node_count());
  EXPECT_EQ(view.forest.tree_count(), compiled.tree_count());
  EXPECT_TRUE(std::equal(view.forest.feature.begin(),
                         view.forest.feature.end(),
                         compiled.view().feature.begin()));

  // The bound view serves the same predictions as the source artifact.
  Matrix rows;
  Rng rng(5);
  for (std::size_t r = 0; r < 32; ++r) {
    RealVector row;
    for (std::size_t f = 0; f < 10; ++f) {
      row.push_back(rng.normal());
    }
    rows.append_row(row);
  }
  Matrix reference_rows = rows;
  RealVector proba_reference;
  std::vector<int> labels_reference;
  compiled.predict_into(reference_rows, proba_reference, labels_reference);

  Matrix bound_rows = rows;
  scale_rows(view.scaler_mean, view.scaler_stddev, bound_rows);
  RealVector proba;
  std::vector<int> labels;
  predict_flat(view.forest, bound_rows, proba, labels);
  EXPECT_EQ(proba, proba_reference);
  EXPECT_EQ(labels, labels_reference);
}

TEST(BindArtifact, RejectsShortAndEmptyBuffers) {
  alignas(alignof(Real)) const std::byte empty[1]{};
  EXPECT_THROW(bind_artifact({static_cast<const std::byte*>(empty), 0}),
               InvalidArgument);
  alignas(alignof(Real)) std::byte half_header[sizeof(ArtifactHeader) / 2]{};
  EXPECT_THROW(
      bind_artifact({static_cast<const std::byte*>(half_header),
                     sizeof(half_header)}),
      InvalidArgument);
}

// ----------------------------------------------------- cross-process CI

/// Both halves derive the identical forest deterministically; Save runs
/// in one ctest process, Load in another, so the only thing crossing the
/// boundary is the artifact file.
CompiledForest cross_process_forest() {
  static RandomForest forest = [] {
    RandomForest f;
    f.fit(noisy(250, 77), 7);
    return f;
  }();
  RowScaler scaler;
  for (std::size_t f = 0; f < 10; ++f) {
    scaler.mean.push_back(0.1 * static_cast<Real>(f));
    scaler.stddev.push_back(1.0 + 0.05 * static_cast<Real>(f));
  }
  return CompiledForest(forest, scaler);
}

TEST(Artifact, CrossProcessSave) {
  const char* dir = std::getenv("ESL_ARTIFACT_CROSS_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "set ESL_ARTIFACT_CROSS_DIR to run the cross-process pair";
  }
  std::filesystem::create_directories(dir);
  save_artifact(std::string(dir) + "/cross.eslm", cross_process_forest());
}

TEST(Artifact, CrossProcessLoad) {
  const char* dir = std::getenv("ESL_ARTIFACT_CROSS_DIR");
  if (dir == nullptr) {
    GTEST_SKIP() << "set ESL_ARTIFACT_CROSS_DIR to run the cross-process pair";
  }
  const CompiledForest reference = cross_process_forest();
  const Matrix raw = noisy(64, 78).x;
  Matrix reference_scratch = raw;
  RealVector proba_reference;
  std::vector<int> labels_reference;
  reference.predict_into(reference_scratch, proba_reference,
                         labels_reference);

  // The file was written by a different process (CrossProcessSave in a
  // prior ctest invocation); mapping it here must still be bit-identical
  // to the in-memory artifact.
  const auto mapped = load_artifact(std::string(dir) + "/cross.eslm");
  Matrix scratch = raw;
  RealVector proba;
  std::vector<int> labels;
  mapped->predict_into(scratch, proba, labels);
  EXPECT_EQ(proba, proba_reference);
  EXPECT_EQ(labels, labels_reference);
}

}  // namespace
}  // namespace esl::ml
