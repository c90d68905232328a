#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "trace/schema.hpp"

namespace cwgl::trace {

/// All tasks of one job, as indices into a Trace's task vector.
struct JobGroup {
  std::string job_name;
  std::vector<std::size_t> tasks;
};

/// Groups a trace's task records by job, preserving first-seen job order
/// (the generator emits jobs contiguously; real traces nearly do).
class TraceIndex {
 public:
  explicit TraceIndex(const Trace& trace);

  const std::vector<JobGroup>& jobs() const noexcept { return groups_; }
  const Trace& trace() const noexcept { return *trace_; }

 private:
  const Trace* trace_;
  std::vector<JobGroup> groups_;
};

/// Integrity (Section IV-B): every task of the job terminated successfully —
/// jobs cut off by the window (Running/Waiting) or killed (Failed/Cancelled/
/// Interrupted) are rejected so DAGs are structurally complete.
bool passes_integrity(const Trace& trace, const JobGroup& job);

/// Availability (Section IV-B): temporal and resource records are usable —
/// every task has start_time > 0, end_time >= start_time, and positive
/// planned resources, so durations and demand are trustworthy.
bool passes_availability(const Trace& trace, const JobGroup& job);

/// True if the job is a dependency DAG: at least two tasks, every task name
/// follows the dependency grammar, and at least one task declares a parent.
bool is_dag_job(const Trace& trace, const JobGroup& job);

/// Criteria bundle for select_jobs.
struct SamplingCriteria {
  bool require_integrity = true;
  bool require_availability = true;
  bool require_dag = true;
  int min_tasks = 2;
  int max_tasks = std::numeric_limits<int>::max();
};

/// Span-based variants of the criteria for callers that hold one job's rows
/// directly (the streaming ingest, core::build_eligible_dag) instead of
/// indices into a full Trace. Semantically identical to the
/// TraceIndex-based predicates above.
bool passes_integrity(std::span<const TaskRecord> tasks);
bool passes_availability(std::span<const TaskRecord> tasks);

/// Returns indices into `index.jobs()` of jobs satisfying all criteria.
std::vector<std::size_t> select_jobs(const TraceIndex& index,
                                     const SamplingCriteria& criteria);

/// Variability sampling (Section IV-B): draws up to `count` jobs from
/// `candidates` in two stages — first one representative of every distinct
/// job size (topological-scale coverage, the paper's 17 size types), then a
/// uniform draw from the remaining candidates so the sample otherwise
/// follows the workload's natural, bottom-heavy size distribution.
/// Deterministic in `seed`.
std::vector<std::size_t> variability_sample(const TraceIndex& index,
                                            std::span<const std::size_t> candidates,
                                            std::size_t count, std::uint64_t seed);

/// Plain uniform sample without replacement — follows the workload's
/// natural size distribution with no coverage guarantee. Used to reproduce
/// population-share figures (the dominant small-job cluster group) where
/// stratification would distort group sizes. Deterministic in `seed`.
std::vector<std::size_t> natural_sample(std::span<const std::size_t> candidates,
                                        std::size_t count, std::uint64_t seed);

}  // namespace cwgl::trace
