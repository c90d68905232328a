#include "trace/taskname.hpp"

#include <limits>

#include "util/strings.hpp"

namespace cwgl::trace {

bool parse_task_name(std::string_view name, char& type, int& index,
                     std::vector<int>& deps) {
  std::size_t i = 0;
  while (i < name.size() &&
         ((name[i] >= 'A' && name[i] <= 'Z') || (name[i] >= 'a' && name[i] <= 'z'))) {
    ++i;
  }
  if (i == 0 || i == name.size()) return false;  // no letters or no digits
  // "task_..." style independent names contain an underscore straight after
  // the letters; the grammar requires digits first, so they fail below.

  const auto parse_int_run = [&](std::size_t& pos) -> std::optional<int> {
    const std::size_t start = pos;
    while (pos < name.size() && name[pos] >= '0' && name[pos] <= '9') ++pos;
    if (pos == start) return std::nullopt;
    const auto value = util::to_int(name.substr(start, pos - start));
    // The range check matters: without it "M5000000000" would silently
    // truncate through the int cast instead of being rejected.
    if (!value || *value <= 0 || *value > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return static_cast<int>(*value);
  };

  const auto idx = parse_int_run(i);
  if (!idx) return false;
  const std::size_t deps_before = deps.size();
  while (i < name.size()) {
    const std::optional<int> dep =
        name[i] == '_' ? parse_int_run(++i) : std::optional<int>();
    if (!dep) {
      deps.resize(deps_before);
      return false;
    }
    deps.push_back(*dep);
  }
  type = name[0];
  index = *idx;
  return true;
}

std::optional<TaskName> parse_task_name(std::string_view name) {
  TaskName t;
  if (!parse_task_name(name, t.type, t.index, t.deps)) return std::nullopt;
  return t;
}

std::string encode_task_name(const TaskName& t) {
  std::string out(1, t.type);
  out += std::to_string(t.index);
  for (int d : t.deps) {
    out += '_';
    out += std::to_string(d);
  }
  return out;
}

std::string encode_task_name(char type, int index, std::span<const int> deps) {
  TaskName t;
  t.type = type;
  t.index = index;
  t.deps.assign(deps.begin(), deps.end());
  return encode_task_name(t);
}

bool is_dag_task_name(std::string_view name) {
  return parse_task_name(name).has_value();
}

}  // namespace cwgl::trace
