#pragma once

// Test oracle for `cwgl predict`: the command as it stood before it
// streamed its task file. It reads the whole file into a trace::Trace,
// builds every DAG through the TraceIndex (build_all_dag_jobs), then
// classifies and renders one job at a time on the calling thread. The loop
// and its output code are kept verbatim, so the rendering here is its own
// copy, not the CLI's, and its JSON goes through the iostream writer of
// support/json_oracle.hpp, not util::JsonWriter.
// tests/cli/predict_differential_test.cpp holds the streamed command to it
// byte for byte.

#include <cstddef>
#include <fstream>
#include <ostream>
#include <string>

#include "core/pipeline.hpp"
#include "model/format.hpp"
#include "serve/classifier.hpp"
#include "support/json_oracle.hpp"
#include "trace/filter.hpp"
#include "trace/io.hpp"
#include "util/strings.hpp"

namespace cwgl::oracle {

/// `cwgl predict --model model_path input [--json]` after its flags were
/// checked: writes the report to `out`, problems to `err`, and returns the
/// exit code.
inline int predict(const std::string& model_path, const std::string& input,
                   bool as_json, std::ostream& out, std::ostream& err) {
  const serve::Classifier classifier(model::load_model(model_path));
  std::ifstream file(input);
  if (!file) {
    err << "predict: cannot open " << input << "\n";
    return 2;
  }
  std::size_t skipped = 0;
  trace::Trace incoming;
  incoming.tasks = trace::read_batch_task_csv(file, &skipped);
  const auto jobs =
      core::build_all_dag_jobs(incoming, trace::SamplingCriteria{});
  if (jobs.empty()) {
    err << "predict: no classifiable DAG jobs in " << input << " ("
        << incoming.tasks.size() << " rows, " << skipped << " malformed)\n";
    return 2;
  }

  if (as_json) {
    JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-predict-v1");
    j.field("model", model_path);
    j.field("clusters", classifier.num_clusters());
    j.key("jobs");
    j.begin_array();
    for (const core::JobDag& job : jobs) {
      const serve::Prediction p = classifier.classify(job);
      j.begin_object();
      j.field("job", job.job_name);
      j.field("tasks", static_cast<std::size_t>(job.size()));
      j.field("cluster", std::string(1, p.cluster_letter));
      j.field("similarity", p.similarity);
      j.field("nearest", p.nearest_job);
      j.field("oov_hits", p.oov_hits);
      j.key("predicted");
      j.begin_object();
      j.field("critical_path", p.predicted_critical_path);
      j.field("width", p.predicted_width);
      j.end_object();
      j.end_object();
    }
    j.end_array();
    j.end_object();
    out << "\n";
    return 0;
  }

  out << "classified " << jobs.size() << " DAG jobs against " << model_path
      << " (" << classifier.num_clusters() << " clusters)\n";
  out << util::pad_right("job", 14) << util::pad_left("tasks", 6)
      << util::pad_left("group", 6) << util::pad_left("similarity", 12)
      << util::pad_left("oov", 5) << "  nearest / forecast (cp, width)\n";
  for (const core::JobDag& job : jobs) {
    const serve::Prediction p = classifier.classify(job);
    out << util::pad_right(job.job_name, 14)
        << util::pad_left(std::to_string(job.size()), 6)
        << util::pad_left(std::string(1, p.cluster_letter), 6)
        << util::pad_left(util::format_double(p.similarity, 4), 12)
        << util::pad_left(std::to_string(p.oov_hits), 5) << "  "
        << p.nearest_job << " ("
        << util::format_double(p.predicted_critical_path, 1) << ", "
        << util::format_double(p.predicted_width, 1) << ")\n";
  }
  return 0;
}

}  // namespace cwgl::oracle
