#include "trace/io.hpp"

#include "trace/group_stream.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string_view>

#include "util/csv.hpp"
#include "util/csv_scanner.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace cwgl::trace {

namespace {

util::CsvScanPolicy scan_policy(const TraceReadOptions& options) {
  return util::CsvScanPolicy{options.lenient, options.diagnostics};
}

}  // namespace

namespace detail {

std::string row_preview(std::span<const std::string_view> fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += fields[i];
    if (out.size() > 120) {
      out.resize(120);
      out += "...";
      break;
    }
  }
  return out;
}

}  // namespace detail

namespace {

/// The malformed-row path of the whole-file readers: counts the row in `count`,
/// then throws ParseError naming `file` and the record in strict mode, or
/// records a `kind` diagnostic in lenient mode.
void malformed_row(const util::CsvScanner& scanner,
                   std::span<const std::string_view> fields,
                   std::string_view file, std::string_view kind,
                   const TraceReadOptions& options, std::size_t& count) {
  ++count;
  if (!options.lenient) {
    throw util::ParseError(std::string(file) + " record " +
                           std::to_string(scanner.record_number()) +
                           ": malformed row: " + detail::row_preview(fields));
  }
  if (options.diagnostics != nullptr) {
    options.diagnostics->record("ingest", kind, detail::row_preview(fields));
  }
}

}  // namespace

void write_batch_task_csv(std::ostream& out, std::span<const TaskRecord> tasks) {
  for (const TaskRecord& t : tasks) {
    const auto fields = t.to_fields();
    util::write_csv_record(out, fields);
  }
}

void write_batch_instance_csv(std::ostream& out,
                              std::span<const InstanceRecord> instances) {
  for (const InstanceRecord& r : instances) {
    const auto fields = r.to_fields();
    util::write_csv_record(out, fields);
  }
}

std::vector<TaskRecord> read_batch_task_csv(std::istream& in,
                                            std::size_t* skipped,
                                            const TraceReadOptions& options) {
  std::vector<TaskRecord> out;
  std::size_t bad = 0;
  util::CsvScanner scanner(in, util::CsvScanner::kDefaultBlockSize,
                           scan_policy(options));
  while (const auto fields = scanner.next()) {
    if (auto rec = TaskRecord::from_fields(*fields)) {
      out.push_back(std::move(*rec));
    } else {
      malformed_row(scanner, *fields, "batch_task.csv", "malformed-row",
                    options, bad);
    }
  }
  if (skipped) *skipped = bad + scanner.quarantined();
  return out;
}

std::vector<InstanceRecord> read_batch_instance_csv(
    std::istream& in, std::size_t* skipped, const TraceReadOptions& options) {
  std::vector<InstanceRecord> out;
  std::size_t bad = 0;
  util::CsvScanner scanner(in, util::CsvScanner::kDefaultBlockSize,
                           scan_policy(options));
  while (const auto fields = scanner.next()) {
    if (auto rec = InstanceRecord::from_fields(*fields)) {
      out.push_back(std::move(*rec));
    } else {
      malformed_row(scanner, *fields, "batch_instance.csv",
                    "malformed-instance-row", options, bad);
    }
  }
  if (skipped) *skipped = bad + scanner.quarantined();
  return out;
}

namespace {

/// Flushes and verifies the stream; ofstream swallows write errors (short
/// writes on a full disk just set badbit), so without this check a
/// truncated file would be reported as success.
void finish_file(std::ofstream& out, const std::filesystem::path& path) {
  out.flush();
  if (!out) {
    throw util::Error("write_trace: I/O error writing " + path.string() +
                      " (disk full or device error; file may be truncated)");
  }
}

}  // namespace

void write_trace(const Trace& trace, const std::filesystem::path& dir) {
  CWGL_FAILPOINT("io.write_trace");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) throw util::Error("write_trace: cannot create " + dir.string());
  {
    const auto path = dir / "batch_task.csv";
    std::ofstream out(path);
    if (!out) throw util::Error("write_trace: cannot open " + path.string());
    write_batch_task_csv(out, trace.tasks);
    finish_file(out, path);
  }
  {
    const auto path = dir / "batch_instance.csv";
    std::ofstream out(path);
    if (!out) throw util::Error("write_trace: cannot open " + path.string());
    write_batch_instance_csv(out, trace.instances);
    finish_file(out, path);
  }
}

Trace read_trace(const std::filesystem::path& dir, std::size_t* skipped,
                 const TraceReadOptions& options) {
  CWGL_FAILPOINT("io.read_trace");
  Trace trace;
  std::size_t bad_tasks = 0, bad_instances = 0;
  {
    const auto path = dir / "batch_task.csv";
    std::ifstream in(path);
    if (!in) throw util::Error("read_trace: cannot open " + path.string());
    trace.tasks = read_batch_task_csv(in, &bad_tasks, options);
    if (in.bad()) {
      throw util::Error("read_trace: I/O error while reading " + path.string());
    }
  }
  // The instance file is optional (partial downloads of the real trace), but
  // "absent" is the only tolerated failure: a file that exists yet cannot be
  // opened or dies mid-stream must raise, not silently yield a partial trace.
  if (const auto path = dir / "batch_instance.csv";
      std::filesystem::exists(path)) {
    std::ifstream in(path);
    if (!in) {
      throw util::Error("read_trace: " + path.string() +
                        " exists but cannot be opened");
    }
    trace.instances = read_batch_instance_csv(in, &bad_instances, options);
    if (in.bad()) {
      throw util::Error("read_trace: I/O error while reading " + path.string());
    }
  }
  if (skipped) *skipped = bad_tasks + bad_instances;
  return trace;
}

StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<TaskRecord>&& tasks)>& fn,
    const TraceReadOptions& options) {
  GroupStreamOptions stream;
  stream.read = options;
  return stream_job_groups(
      in, stream, nullptr,
      [&fn](std::size_t /*slot*/, const StreamedGroup& group, GroupLog&) {
        return fn(std::string(group.job_name),
                  std::vector<TaskRecord>(group.rows.begin(), group.rows.end()));
      });
}

}  // namespace cwgl::trace
