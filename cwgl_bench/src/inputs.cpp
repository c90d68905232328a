#include "inputs.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <string>

#include "core/pipeline.hpp"
#include "trace/io.hpp"
#include "util/error.hpp"

namespace cwgl::e2e {

namespace {

// Sizes keep one fit near a second on 4 vCPUs, so a run takes many. The
// paper mix repeats a shape in most of its DAG jobs, so reading, indexing
// and interning dominate its fit and most held-out jobs repeat a training
// shape; the diverse mix makes about half its DAG jobs new shapes, so
// featurizing, clustering and the shapes x representatives scans dominate,
// and most held-out jobs miss the training shapes. The diverse daemon also
// rebuilds its Classifier every 2 s beside the reads.
constexpr std::array<Workload, 2> kWorkloads{{
    {"paper", false, 40000, 1000.0, 0.0},
    {"diverse", true, 8000, 400.0, 2.0},
}};

}  // namespace

std::span<const Workload> workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

trace::GeneratorConfig generator_config(const Workload& w, std::uint64_t seed,
                                        std::size_t jobs) {
  trace::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.num_jobs = jobs;
  cfg.emit_instances = true;
  if (w.diverse) {
    cfg.p_tiny = 0.1;
    cfg.size_geometric_p = 0.10;
    cfg.p_extra_dep = 0.5;
  }
  return cfg;
}

std::filesystem::path prepare_trace(const std::filesystem::path& root,
                                    const std::string& family,
                                    const trace::GeneratorConfig& cfg) {
  const std::string prefix = family + "-";
  const std::filesystem::path dir =
      root / (prefix + std::to_string(cfg.num_jobs) + "-s" +
              std::to_string(cfg.seed));
  const std::filesystem::path done = dir / "complete";
  if (std::filesystem::exists(done)) return dir;
  std::filesystem::create_directories(root);
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.path().filename().string().rfind(prefix, 0) == 0) {
      std::filesystem::remove_all(entry.path());
    }
  }
  trace::write_trace(trace::TraceGenerator(cfg).generate(), dir);
  std::ofstream(done) << "ok\n";
  return dir;
}

std::optional<core::JobDag> request_dag(const serve::Request& r) {
  std::vector<trace::TaskRecord> rows;
  rows.reserve(r.tasks.size());
  for (const std::string& name : r.tasks) {
    trace::TaskRecord rec;
    rec.task_name = name;
    rec.job_name = r.job_name;
    rec.instance_num = 1;
    rows.push_back(std::move(rec));
  }
  return core::build_job_dag(r.job_name, rows);
}

RequestStream make_requests(const std::filesystem::path& dir) {
  RequestStream stream;
  stream.task_csv = dir / "batch_task.csv";
  std::ifstream in(stream.task_csv);
  trace::Trace held_out;
  held_out.tasks = trace::read_batch_task_csv(in);
  for (const core::JobDag& job :
       core::build_all_dag_jobs(held_out, trace::SamplingCriteria{})) {
    serve::Request r;
    r.type = serve::RequestType::Classify;
    r.job_name = job.job_name;
    for (const core::TaskMeta& t : job.tasks) r.tasks.push_back(t.name);
    auto dag = request_dag(r);
    if (!dag) throw util::Error("held-out job " + r.job_name + " has no DAG");
    stream.requests.push_back(std::move(r));
    stream.dags.push_back(std::move(*dag));
  }
  return stream;
}

void predict(RequestStream& stream, const serve::Classifier& classifier) {
  stream.expected.clear();
  stream.expected.reserve(stream.dags.size());
  for (const core::JobDag& dag : stream.dags) {
    stream.expected.push_back(classifier.classify(dag));
  }
}

bool matches(const serve::Response& r, const serve::Prediction& p) {
  return r.status == serve::ResponseStatus::Ok && r.cluster_id == p.cluster &&
         r.nearest == p.nearest_job &&
         std::abs(r.similarity - p.similarity) <= 1e-9;
}

}  // namespace cwgl::e2e
