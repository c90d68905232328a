#include "cli/predict.hpp"

#include <ostream>
#include <string_view>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace cwgl::cli {

std::string PredictionRenderer::operator()(std::size_t /*seq*/,
                                           core::JobDag&& job) const {
  const serve::Prediction p = classifier_->classify(job);
  const std::string_view cluster(&p.cluster_letter, 1);
  // Each thread renders into a buffer of its own that keeps its capacity
  // from job to job, and returns an exact-size copy, so the results held
  // until the stream ends cost only their bytes.
  thread_local std::string text;
  text.clear();
  if (json_) {
    util::JsonWriter j(text);
    j.begin_object();
    j.field("job", job.job_name);
    j.field("tasks", static_cast<std::size_t>(job.size()));
    j.field("cluster", cluster);
    j.field("similarity", p.similarity);
    j.field("nearest", p.nearest_job);
    j.field("oov_hits", p.oov_hits);
    j.key("predicted");
    j.begin_object();
    j.field("critical_path", p.predicted_critical_path);
    j.field("width", p.predicted_width);
    j.end_object();
    j.end_object();
  } else {
    text += util::pad_right(job.job_name, 14);
    text += util::pad_left(std::to_string(job.size()), 6);
    text += util::pad_left(cluster, 6);
    text += util::pad_left(util::format_double(p.similarity, 4), 12);
    text += util::pad_left(std::to_string(p.oov_hits), 5);
    text += "  ";
    text += p.nearest_job;
    text += " (";
    text += util::format_double(p.predicted_critical_path, 1);
    text += ", ";
    text += util::format_double(p.predicted_width, 1);
    text += ")\n";
  }
  return std::string(text);
}

void write_predictions(std::ostream& out, std::span<const std::string> jobs,
                       const std::string& model_path, std::size_t clusters,
                       bool json, const std::string& metrics_json) {
  if (json) {
    util::JsonWriter j(out);
    j.begin_object();
    j.field("schema", "cwgl-predict-v1");
    j.field("model", model_path);
    j.field("clusters", clusters);
    j.key("jobs");
    j.begin_array();
    for (const std::string& job : jobs) j.raw(job);
    j.end_array();
    if (!metrics_json.empty()) {
      j.key("metrics");
      j.raw(metrics_json);
    }
    j.end_object();
    out << "\n";
    return;
  }
  out << "classified " << jobs.size() << " DAG jobs against " << model_path
      << " (" << clusters << " clusters)\n";
  out << util::pad_right("job", 14) << util::pad_left("tasks", 6)
      << util::pad_left("group", 6) << util::pad_left("similarity", 12)
      << util::pad_left("oov", 5) << "  nearest / forecast (cp, width)\n";
  for (const std::string& job : jobs) out << job;
}

}  // namespace cwgl::cli
