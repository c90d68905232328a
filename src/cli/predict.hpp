#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>

#include "core/job_dag.hpp"
#include "serve/classifier.hpp"

namespace cwgl::cli {

/// `cwgl predict`'s per-job transform for core::stream_transformed: it
/// classifies a job against the snapshot and renders that job's output, one
/// element of the `--json` report's `jobs` array or one row of the text
/// table, on the thread that built the job's DAG. Const after construction
/// and Classifier::classify is thread-safe, so the stream's workers share
/// one renderer.
class PredictionRenderer {
 public:
  PredictionRenderer(const serve::Classifier& classifier, bool json)
      : classifier_(&classifier), json_(json) {}

  std::string operator()(std::size_t seq, core::JobDag&& job) const;

 private:
  const serve::Classifier* classifier_;
  bool json_;
};

/// Writes the `cwgl predict` report around `jobs`, the renderer's output in
/// trace order: the cwgl-predict-v1 document, whose last member is
/// `"metrics"` when `metrics_json` is not empty, or the text header and
/// table.
void write_predictions(std::ostream& out, std::span<const std::string> jobs,
                       const std::string& model_path, std::size_t clusters,
                       bool json, const std::string& metrics_json = "");

}  // namespace cwgl::cli
