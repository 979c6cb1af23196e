// Record serialization as CSV with '#'-prefixed metadata lines —
// human-inspectable, easy to produce from real CHB-MIT data with any EDF
// exporter, so users can run the pipeline on real recordings.
#pragma once

#include <iosfwd>
#include <string>

#include "signal/eeg_record.hpp"

namespace esl::signal {

/// Writes a record as CSV: metadata comments, a header row
/// (time_s, <channel labels...>) and one row per sample.
void write_csv(const EegRecord& record, std::ostream& out);
void write_csv_file(const EegRecord& record, const std::string& path);

/// Parses a record produced by write_csv. Throws DataError on malformed
/// input (inconsistent row width, missing metadata, bad numbers).
EegRecord read_csv(std::istream& in);
EegRecord read_csv_file(const std::string& path);

}  // namespace esl::signal
