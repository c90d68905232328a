#pragma once

// Workload table and input preparation: the traces `cwgl fit` reads, and
// the held-out jobs that `cwgl predict` classifies and the daemon serves,
// all made from the seed.

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/job_dag.hpp"
#include "serve/classifier.hpp"
#include "serve/protocol.hpp"
#include "trace/generator.hpp"

namespace cwgl::e2e {

/// One workload: a trace family fitted by `cwgl fit --full`, then a held-out
/// trace of the same family classified by `cwgl predict` and by a
/// `cwgl serve` daemon under an open-loop stream.
struct Workload {
  std::string_view name;
  bool diverse = false;       ///< half-new-shape mix instead of the paper's
  std::size_t jobs = 0;       ///< training trace size
  double rate = 0.0;          ///< classify requests per second, one connection
  double reload_every_s = 0;  ///< reloads on a second connection; 0 = none
};

std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

/// Generator settings of the workload's family at `seed`.
trace::GeneratorConfig generator_config(const Workload& w, std::uint64_t seed,
                                        std::size_t jobs);

/// Writes the trace for `cfg` under `root` unless a complete copy is
/// already there, and returns its directory. Other cached traces of the
/// family are removed, so the cache holds one trace per family.
std::filesystem::path prepare_trace(const std::filesystem::path& root,
                                    const std::string& family,
                                    const trace::GeneratorConfig& cfg);

/// Rebuilds a classify request's DAG exactly as the daemon does: one row per
/// task name, nothing but the name and the job.
std::optional<core::JobDag> request_dag(const serve::Request& r);

/// The held-out jobs: every DAG job of a trace that passes the sampling
/// criteria, in trace order — what `cwgl predict` classifies from the
/// trace's batch_task.csv — as classify requests, plus what each must be
/// answered with.
struct RequestStream {
  std::filesystem::path task_csv;         ///< input of `cwgl predict`
  std::vector<serve::Request> requests;   ///< ids are assigned at send time
  std::vector<core::JobDag> dags;         ///< request_dag() of each
  std::vector<serve::Prediction> expected;  ///< filled by predict()
};

/// Reads the held-out trace in `dir` (written by prepare_trace).
RequestStream make_requests(const std::filesystem::path& dir);

/// Classifies every request in-process; `cwgl predict` and the daemon must
/// agree exactly.
void predict(RequestStream& stream, const serve::Classifier& classifier);

/// Whether a daemon answer matches the in-process prediction: same cluster
/// and nearest representative, similarity within 1e-9.
bool matches(const serve::Response& r, const serve::Prediction& p);

}  // namespace cwgl::e2e
