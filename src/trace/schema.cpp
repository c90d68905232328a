#include "trace/schema.hpp"

#include "util/strings.hpp"

namespace cwgl::trace {

std::string_view to_string(Status s) noexcept {
  switch (s) {
    case Status::Waiting: return "Waiting";
    case Status::Running: return "Running";
    case Status::Terminated: return "Terminated";
    case Status::Failed: return "Failed";
    case Status::Cancelled: return "Cancelled";
    case Status::Interrupted: return "Interrupted";
    case Status::Unknown: return "Unknown";
  }
  return "Unknown";
}

std::vector<std::string> TaskRecord::to_fields() const {
  return {task_name,
          std::to_string(instance_num),
          job_name,
          std::to_string(task_type),
          std::string(to_string(status)),
          std::to_string(start_time),
          std::to_string(end_time),
          util::format_double(plan_cpu, 2),
          util::format_double(plan_mem, 2)};
}

bool TaskRecord::assign_fields(std::span<const std::string_view> f) {
  if (f.size() != 9) return false;
  const auto inst = util::to_int(f[1]);
  const auto type = util::to_int(f[3]);
  const auto start = util::to_int(f[5]);
  const auto end = util::to_int(f[6]);
  const auto cpu = util::to_double(f[7]);
  const auto mem = util::to_double(f[8]);
  if (!inst || !type || !start || !end || !cpu || !mem) return false;
  // assign() keeps each string's capacity: a recycled record holding a
  // longer name allocates nothing.
  task_name.assign(f[0]);
  instance_num = static_cast<int>(*inst);
  job_name.assign(f[2]);
  task_type = static_cast<int>(*type);
  status = parse_status(f[4]);
  start_time = *start;
  end_time = *end;
  plan_cpu = *cpu;
  plan_mem = *mem;
  return true;
}

std::optional<TaskRecord> TaskRecord::from_fields(
    std::span<const std::string_view> f) {
  std::optional<TaskRecord> out(std::in_place);
  if (!out->assign_fields(f)) return std::nullopt;
  return out;
}

std::optional<TaskRecord> TaskRecord::from_fields(
    const std::vector<std::string>& f) {
  const std::vector<std::string_view> views(f.begin(), f.end());
  return from_fields(std::span<const std::string_view>(views));
}

std::vector<std::string> InstanceRecord::to_fields() const {
  return {instance_name,
          task_name,
          job_name,
          std::to_string(task_type),
          std::string(to_string(status)),
          std::to_string(start_time),
          std::to_string(end_time),
          machine_id,
          std::to_string(seq_no),
          std::to_string(total_seq_no),
          util::format_double(cpu_avg, 2),
          util::format_double(cpu_max, 2),
          util::format_double(mem_avg, 2),
          util::format_double(mem_max, 2)};
}

std::optional<InstanceRecord> InstanceRecord::from_fields(
    std::span<const std::string_view> f) {
  if (f.size() != 14) return std::nullopt;
  const auto type = util::to_int(f[3]);
  const auto start = util::to_int(f[5]);
  const auto end = util::to_int(f[6]);
  const auto seq = util::to_int(f[8]);
  const auto total = util::to_int(f[9]);
  const auto cpu_a = util::to_double(f[10]);
  const auto cpu_m = util::to_double(f[11]);
  const auto mem_a = util::to_double(f[12]);
  const auto mem_m = util::to_double(f[13]);
  if (!type || !start || !end || !seq || !total || !cpu_a || !cpu_m || !mem_a ||
      !mem_m) {
    return std::nullopt;
  }
  // Built directly inside the returned optional (NRVO): the record holds
  // four strings, so a move out of a local would cost measurably per row.
  std::optional<InstanceRecord> out(std::in_place);
  InstanceRecord& r = *out;
  r.instance_name = f[0];
  r.task_name = f[1];
  r.job_name = f[2];
  r.task_type = static_cast<int>(*type);
  r.status = parse_status(f[4]);
  r.start_time = *start;
  r.end_time = *end;
  r.machine_id = f[7];
  r.seq_no = static_cast<int>(*seq);
  r.total_seq_no = static_cast<int>(*total);
  r.cpu_avg = *cpu_a;
  r.cpu_max = *cpu_m;
  r.mem_avg = *mem_a;
  r.mem_max = *mem_m;
  return out;
}

std::optional<InstanceRecord> InstanceRecord::from_fields(
    const std::vector<std::string>& f) {
  const std::vector<std::string_view> views(f.begin(), f.end());
  return from_fields(std::span<const std::string_view>(views));
}

}  // namespace cwgl::trace
