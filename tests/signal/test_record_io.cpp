#include "signal/record_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/random.hpp"

namespace esl::signal {
namespace {

EegRecord sample_record() {
  EegRecord record(256.0, "p1_s1_r0");
  Rng rng(1);
  RealVector left(600);
  RealVector right(600);
  for (std::size_t i = 0; i < left.size(); ++i) {
    left[i] = rng.normal(0.0, 30.0);
    right[i] = rng.normal(0.0, 30.0);
  }
  record.add_channel(montage::kF7T3, std::move(left));
  record.add_channel(montage::kF8T4, std::move(right));
  record.add_annotation({{0.5, 1.25}, EventKind::kSeizure});
  record.add_annotation({{2.0, 2.1}, EventKind::kArtifact});
  return record;
}

/// Temporary file path helper (removed on destruction).
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(RecordCsv, RoundTripPreservesEverything) {
  const EegRecord original = sample_record();
  std::stringstream stream;
  write_csv(original, stream);
  const EegRecord restored = read_csv(stream);

  EXPECT_EQ(restored.id(), original.id());
  EXPECT_DOUBLE_EQ(restored.sample_rate_hz(), original.sample_rate_hz());
  ASSERT_EQ(restored.channel_count(), 2u);
  ASSERT_EQ(restored.length_samples(), original.length_samples());
  for (std::size_t c = 0; c < 2; ++c) {
    EXPECT_EQ(restored.channel(c).electrodes.label(),
              original.channel(c).electrodes.label());
    for (std::size_t i = 0; i < restored.length_samples(); i += 37) {
      EXPECT_DOUBLE_EQ(restored.channel(c).samples[i],
                       original.channel(c).samples[i]);
    }
  }
  ASSERT_EQ(restored.annotations().size(), 2u);
  EXPECT_EQ(restored.annotations()[0].kind, EventKind::kSeizure);
  EXPECT_DOUBLE_EQ(restored.annotations()[0].interval.onset, 0.5);
  EXPECT_EQ(restored.annotations()[1].kind, EventKind::kArtifact);
}

TEST(RecordCsv, HeaderListsChannels) {
  std::stringstream stream;
  write_csv(sample_record(), stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("time_s,F7-T3,F8-T4"), std::string::npos);
  EXPECT_NE(text.find("# sample_rate_hz=256"), std::string::npos);
  EXPECT_NE(text.find("# event=seizure,0.5,1.25"), std::string::npos);
}

TEST(RecordCsv, MissingSampleRateRejected) {
  std::stringstream stream("# id=x\ntime_s,F7-T3\n0,1.0\n");
  EXPECT_THROW(read_csv(stream), DataError);
}

TEST(RecordCsv, RowWidthMismatchRejected) {
  std::stringstream stream(
      "# sample_rate_hz=256\ntime_s,F7-T3,F8-T4\n0,1.0\n");
  EXPECT_THROW(read_csv(stream), DataError);
}

TEST(RecordCsv, BadNumberRejected) {
  std::stringstream stream(
      "# sample_rate_hz=256\ntime_s,F7-T3\n0,abc\n");
  EXPECT_THROW(read_csv(stream), DataError);
}

TEST(RecordCsv, EmptyBodyRejected) {
  std::stringstream stream("# sample_rate_hz=256\ntime_s,F7-T3\n");
  EXPECT_THROW(read_csv(stream), DataError);
}

TEST(RecordCsv, UnknownEventKindRejected) {
  std::stringstream stream(
      "# sample_rate_hz=256\n# event=spindle,1,2\ntime_s,F7-T3\n0,1.0\n");
  EXPECT_THROW(read_csv(stream), DataError);
}

TEST(RecordCsv, FileRoundTrip) {
  const TempFile file("esl_record.csv");
  const EegRecord original = sample_record();
  write_csv_file(original, file.path());
  const EegRecord restored = read_csv_file(file.path());
  EXPECT_EQ(restored.id(), original.id());
  EXPECT_EQ(restored.length_samples(), original.length_samples());
}

TEST(RecordCsv, MissingFileRejected) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/record.csv"), DataError);
}

}  // namespace
}  // namespace esl::signal
