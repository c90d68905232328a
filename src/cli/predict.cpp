#include "cli/predict.hpp"

#include <ostream>
#include <sstream>

#include "util/json.hpp"
#include "util/strings.hpp"

namespace cwgl::cli {

std::string PredictionRenderer::operator()(std::size_t /*seq*/,
                                           core::JobDag&& job) const {
  const serve::Prediction p = classifier_->classify(job);
  std::ostringstream text;
  if (json_) {
    util::JsonWriter j(text);
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
  } else {
    text << util::pad_right(job.job_name, 14)
         << util::pad_left(std::to_string(job.size()), 6)
         << util::pad_left(std::string(1, p.cluster_letter), 6)
         << util::pad_left(util::format_double(p.similarity, 4), 12)
         << util::pad_left(std::to_string(p.oov_hits), 5) << "  "
         << p.nearest_job << " ("
         << util::format_double(p.predicted_critical_path, 1) << ", "
         << util::format_double(p.predicted_width, 1) << ")\n";
  }
  return text.str();
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
