#include "trace/filter.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "trace/taskname.hpp"
#include "util/rng.hpp"

namespace cwgl::trace {

TraceIndex::TraceIndex(const Trace& trace) : trace_(&trace) {
  std::unordered_map<std::string, std::size_t> position;
  position.reserve(trace.tasks.size() / 2);
  for (std::size_t i = 0; i < trace.tasks.size(); ++i) {
    const std::string& job = trace.tasks[i].job_name;
    const auto [it, inserted] = position.emplace(job, groups_.size());
    if (inserted) {
      groups_.push_back(JobGroup{job, {}});
    }
    groups_[it->second].tasks.push_back(i);
  }
}

namespace {

bool record_terminated(const TaskRecord& t) {
  return t.status == Status::Terminated;
}

bool record_available(const TaskRecord& t) {
  return t.start_time > 0 && t.end_time >= t.start_time && t.plan_cpu > 0.0 &&
         t.plan_mem > 0.0 && t.instance_num > 0;
}

}  // namespace

bool passes_integrity(const Trace& trace, const JobGroup& job) {
  return std::all_of(job.tasks.begin(), job.tasks.end(), [&](std::size_t i) {
    return record_terminated(trace.tasks[i]);
  });
}

bool passes_availability(const Trace& trace, const JobGroup& job) {
  return std::all_of(job.tasks.begin(), job.tasks.end(), [&](std::size_t i) {
    return record_available(trace.tasks[i]);
  });
}

bool is_dag_job(const Trace& trace, const JobGroup& job) {
  if (job.tasks.size() < 2) return false;
  std::vector<int> deps;  // one for the whole job, not one per name
  for (std::size_t i : job.tasks) {
    char type = '?';
    int index = 0;
    if (!parse_task_name(trace.tasks[i].task_name, type, index, deps)) {
      return false;
    }
  }
  return !deps.empty();
}

bool passes_integrity(std::span<const TaskRecord> tasks) {
  return std::all_of(tasks.begin(), tasks.end(), record_terminated);
}

bool passes_availability(std::span<const TaskRecord> tasks) {
  return std::all_of(tasks.begin(), tasks.end(), record_available);
}

std::vector<std::size_t> select_jobs(const TraceIndex& index,
                                     const SamplingCriteria& criteria) {
  std::vector<std::size_t> out;
  const Trace& trace = index.trace();
  for (std::size_t j = 0; j < index.jobs().size(); ++j) {
    const JobGroup& job = index.jobs()[j];
    const int size = static_cast<int>(job.tasks.size());
    if (size < criteria.min_tasks || size > criteria.max_tasks) continue;
    if (criteria.require_integrity && !passes_integrity(trace, job)) continue;
    if (criteria.require_availability && !passes_availability(trace, job)) continue;
    if (criteria.require_dag && !is_dag_job(trace, job)) continue;
    out.push_back(j);
  }
  return out;
}

std::vector<std::size_t> variability_sample(const TraceIndex& index,
                                            std::span<const std::size_t> candidates,
                                            std::size_t count, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  // Stage 1 — coverage: one representative per distinct job size, so the
  // sample spans every topological scale the data offers (the paper's
  // experiment set covers 17 sizes).
  // Buckets hold slots (positions in `candidates`), so a pick is marked
  // taken without looking it up.
  std::map<std::size_t, std::vector<std::size_t>> by_size;
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    by_size[index.jobs()[candidates[s]].tasks.size()].push_back(s);
  }
  std::vector<std::size_t> picked;
  picked.reserve(count);
  std::vector<char> taken(candidates.size(), 0);
  for (auto& [size, bucket] : by_size) {
    if (picked.size() == count) break;
    const std::size_t slot =
        bucket[static_cast<std::size_t>(rng.uniform_u64(0, bucket.size() - 1))];
    picked.push_back(candidates[slot]);
    taken[slot] = 1;
  }

  // Stage 2 — natural fill: the remainder is drawn uniformly from the
  // unpicked candidates, so the sample otherwise follows the workload's own
  // (bottom-heavy) size distribution; this is what makes the dominant
  // cluster group a small-chain group, as in the paper's Fig. 9.
  std::vector<std::size_t> rest;
  rest.reserve(candidates.size());
  for (std::size_t s = 0; s < candidates.size(); ++s) {
    if (!taken[s]) rest.push_back(candidates[s]);
  }
  rng.shuffle(rest);
  for (std::size_t r = 0; picked.size() < count && r < rest.size(); ++r) {
    picked.push_back(rest[r]);
  }
  return picked;
}

std::vector<std::size_t> natural_sample(std::span<const std::size_t> candidates,
                                        std::size_t count, std::uint64_t seed) {
  util::Xoshiro256StarStar rng(seed);
  std::vector<std::size_t> pool(candidates.begin(), candidates.end());
  rng.shuffle(pool);
  if (pool.size() > count) pool.resize(count);
  return pool;
}

}  // namespace cwgl::trace
