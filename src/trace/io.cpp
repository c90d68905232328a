#include "trace/io.hpp"

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

/// Reassembles a row preview ("f0,f1,...") for error messages and samples.
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

/// The one malformed-row path of the readers: counts the row in `count`,
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
                           ": malformed row: " + row_preview(fields));
  }
  if (options.diagnostics != nullptr) {
    options.diagnostics->record("ingest", kind, row_preview(fields));
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

bool TaskRowReader::ClosedJobs::insert(std::string_view name) {
  if (name.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw util::ParseError("batch_task.csv: job name longer than 4 GiB");
  }
  if (2 * (count_ + 1) > slots_.size()) grow();
  const std::size_t slot = find(name);
  if (slots_[slot] != kEmpty) return false;
  slots_[slot] = arena_.size();
  const auto length = static_cast<std::uint32_t>(name.size());
  arena_.append(reinterpret_cast<const char*>(&length), sizeof length);
  arena_.append(name);
  ++count_;
  return true;
}

std::string_view TaskRowReader::ClosedJobs::name_at(
    std::uint64_t offset) const {
  std::uint32_t length = 0;
  std::memcpy(&length, arena_.data() + offset, sizeof length);
  return {arena_.data() + offset + sizeof length, length};
}

std::size_t TaskRowReader::ClosedJobs::find(std::string_view name) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = std::hash<std::string_view>{}(name) & mask;
  while (slots_[slot] != kEmpty && name_at(slots_[slot]) != name) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void TaskRowReader::ClosedJobs::grow() {
  slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), kEmpty);
  for (std::uint64_t offset = 0; offset < arena_.size();) {
    const std::string_view name = name_at(offset);
    slots_[find(name)] = offset;
    offset += sizeof(std::uint32_t) + name.size();
  }
}

TaskRowReader::TaskRowReader(std::istream& in, const TraceReadOptions& options)
    : scanner_(in, util::CsvScanner::kDefaultBlockSize, scan_policy(options)),
      options_(options) {}

TaskRowReader::Row TaskRowReader::next(TaskRecord& rec) {
  while (const auto fields = scanner_.next()) {
    if (!rec.assign_fields(*fields)) {
      malformed_row(scanner_, *fields, "batch_task.csv", "malformed-row",
                    options_, stats_.malformed);
      continue;
    }
    ++stats_.rows;
    if (open_ && rec.job_name == open_job_) return Row::kSameJob;
    close_group();
    open_job_.assign(rec.job_name);
    open_ = true;
    return Row::kNewJob;
  }
  close_group();
  return Row::kEnd;
}

void TaskRowReader::close_group() {
  if (!open_) return;
  open_ = false;
  ++stats_.jobs;
  if (!closed_.insert(open_job_)) ++stats_.fragmented;
}

StreamStats TaskRowReader::stats() const noexcept {
  StreamStats out = stats_;
  out.malformed += scanner_.quarantined();
  return out;
}

StreamStats consume_jobs_in_task_csv(
    std::istream& in,
    const std::function<bool(std::string&& job_name,
                             std::vector<TaskRecord>&& tasks)>& fn,
    const TraceReadOptions& options) {
  TaskRowReader reader(in, options);
  std::vector<TaskRecord> group;
  TaskRecord row;
  for (;;) {
    const TaskRowReader::Row kind = reader.next(row);
    if (kind != TaskRowReader::Row::kSameJob && !group.empty()) {
      std::string job = group.front().job_name;
      if (!fn(std::move(job), std::move(group))) break;
      group.clear();
    }
    if (kind == TaskRowReader::Row::kEnd) break;
    group.push_back(row);
  }
  return reader.stats();
}

}  // namespace cwgl::trace
