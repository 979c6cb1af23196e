#include "signal/record_io.hpp"

#include <fstream>
#include <iomanip>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace esl::signal {

namespace {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kSeizure:
      return "seizure";
    case EventKind::kArtifact:
      return "artifact";
  }
  return "unknown";
}

EventKind parse_event_kind(const std::string& name) {
  if (name == "seizure") {
    return EventKind::kSeizure;
  }
  if (name == "artifact") {
    return EventKind::kArtifact;
  }
  throw DataError("record_io: unknown event kind '" + name + "'");
}

std::vector<std::string> split(const std::string& line, char sep) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream stream(line);
  while (std::getline(stream, field, sep)) {
    fields.push_back(field);
  }
  return fields;
}

Real parse_real(const std::string& text, const char* context) {
  try {
    std::size_t consumed = 0;
    const Real value = std::stod(text, &consumed);
    if (consumed != text.size()) {
      throw DataError(std::string("record_io: trailing characters in ") +
                      context + ": '" + text + "'");
    }
    return value;
  } catch (const std::invalid_argument&) {
    throw DataError(std::string("record_io: bad number in ") + context + ": '" +
                    text + "'");
  } catch (const std::out_of_range&) {
    throw DataError(std::string("record_io: number out of range in ") +
                    context + ": '" + text + "'");
  }
}

}  // namespace

void write_csv(const EegRecord& record, std::ostream& out) {
  out << "# esl-record v1\n";
  out << "# id=" << record.id() << "\n";
  out << std::setprecision(17);
  out << "# sample_rate_hz=" << record.sample_rate_hz() << "\n";
  for (const auto& a : record.annotations()) {
    out << "# event=" << event_kind_name(a.kind) << "," << a.interval.onset
        << "," << a.interval.offset << "\n";
  }
  out << "time_s";
  for (const auto& c : record.channels()) {
    out << "," << c.electrodes.label();
  }
  out << "\n";
  const std::size_t n = record.length_samples();
  for (std::size_t i = 0; i < n; ++i) {
    out << record.sample_to_seconds(i);
    for (const auto& c : record.channels()) {
      out << "," << c.samples[i];
    }
    out << "\n";
  }
}

void write_csv_file(const EegRecord& record, const std::string& path) {
  std::ofstream out(path);
  expects(out.good(), "write_csv_file: cannot open '" + path + "'");
  write_csv(record, out);
  ensures(out.good(), "write_csv_file: write failed for '" + path + "'");
}

EegRecord read_csv(std::istream& in) {
  std::string line;
  std::string id;
  Real sample_rate = 0.0;
  std::vector<Annotation> annotations;
  std::vector<std::string> labels;

  // Metadata and header.
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    if (line[0] == '#') {
      const std::string body = line.substr(1);
      const auto trimmed = body.find_first_not_of(' ');
      const std::string meta =
          trimmed == std::string::npos ? "" : body.substr(trimmed);
      if (meta.rfind("id=", 0) == 0) {
        id = meta.substr(3);
      } else if (meta.rfind("sample_rate_hz=", 0) == 0) {
        sample_rate = parse_real(meta.substr(15), "sample_rate_hz");
      } else if (meta.rfind("event=", 0) == 0) {
        const auto fields = split(meta.substr(6), ',');
        if (fields.size() != 3) {
          throw DataError("record_io: malformed event line '" + line + "'");
        }
        Annotation a;
        a.kind = parse_event_kind(fields[0]);
        a.interval.onset = parse_real(fields[1], "event onset");
        a.interval.offset = parse_real(fields[2], "event offset");
        annotations.push_back(a);
      }
      continue;
    }
    // Header row.
    const auto fields = split(line, ',');
    if (fields.empty() || fields[0] != "time_s") {
      throw DataError("record_io: expected header row, got '" + line + "'");
    }
    labels.assign(fields.begin() + 1, fields.end());
    break;
  }
  if (sample_rate <= 0.0) {
    throw DataError("record_io: missing or invalid sample_rate_hz metadata");
  }
  if (labels.empty()) {
    throw DataError("record_io: no channels in header");
  }

  std::vector<RealVector> columns(labels.size());
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    const auto fields = split(line, ',');
    if (fields.size() != labels.size() + 1) {
      throw DataError("record_io: row width mismatch at '" + line + "'");
    }
    for (std::size_t c = 0; c < labels.size(); ++c) {
      columns[c].push_back(parse_real(fields[c + 1], "sample"));
    }
  }
  if (columns.front().empty()) {
    throw DataError("record_io: no samples");
  }

  EegRecord record(sample_rate, id);
  for (std::size_t c = 0; c < labels.size(); ++c) {
    record.add_channel(parse_pair(labels[c]), std::move(columns[c]));
  }
  for (const auto& a : annotations) {
    record.add_annotation(a);
  }
  return record;
}

EegRecord read_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) {
    throw DataError("read_csv_file: cannot open '" + path + "'");
  }
  return read_csv(in);
}

}  // namespace esl::signal
