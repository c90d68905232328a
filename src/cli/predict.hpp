#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>

#include "core/job_dag.hpp"
#include "serve/classifier.hpp"

namespace cwgl::obs {
class Counter;
}

namespace cwgl::cli {

/// `cwgl predict`'s per-job transform for core::stream_transformed: it
/// classifies a job against the snapshot and renders that job's output, one
/// element of the `--json` report's `jobs` array or one row of the text
/// table, on the thread that built the job's DAG. The stream's workers
/// share one renderer: Classifier::classify is thread-safe, and the memo
/// below is the renderer's one mutable state.
///
/// Memo: most batch jobs repeat an earlier job's exact structure, and all
/// of a job's output after its name is a pure function of what
/// Classifier::classify reads: the vertex count, each vertex's task type
/// and the successor lists. Keyed by exactly those, the memo keeps each
/// distinct structure's rendered bytes after the name; a hit writes the
/// name and appends them, with no classify and no render. Each hit counts
/// in `predict.memo.hits`, so `serve.classify.jobs` + `predict.memo.hits`
/// is the jobs rendered. The memo lives as long as the renderer, one
/// command, and holds one entry per distinct structure.
class PredictionRenderer {
 public:
  PredictionRenderer(const serve::Classifier& classifier, bool json);
  PredictionRenderer(PredictionRenderer&&) noexcept;
  ~PredictionRenderer();

  std::string operator()(std::size_t seq, core::JobDag&& job) const;

 private:
  class Memo;

  const serve::Classifier* classifier_;
  bool json_;
  std::unique_ptr<Memo> memo_;
  obs::Counter* hits_;
};

/// Writes the `cwgl predict` report around `jobs`, the renderer's output in
/// trace order: the cwgl-predict-v1 document, whose last member is
/// `"metrics"` when `metrics_json` is not empty, or the text header and
/// table.
void write_predictions(std::ostream& out, std::span<const std::string> jobs,
                       const std::string& model_path, std::size_t clusters,
                       bool json, const std::string& metrics_json = "");

}  // namespace cwgl::cli
