#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/generator.hpp"
#include "trace/group_stream.hpp"
#include "util/diagnostics.hpp"
#include "util/error.hpp"

namespace cwgl::trace {
namespace {

Trace small_trace() {
  GeneratorConfig cfg;
  cfg.seed = 77;
  cfg.num_jobs = 60;
  cfg.emit_instances = true;
  return TraceGenerator(cfg).generate();
}

TEST(TraceIo, TaskCsvRoundTrip) {
  const Trace trace = small_trace();
  std::stringstream buffer;
  write_batch_task_csv(buffer, trace.tasks);
  std::size_t skipped = 99;
  const auto back = read_batch_task_csv(buffer, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), trace.tasks.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].to_fields(), trace.tasks[i].to_fields());
  }
}

TEST(TraceIo, InstanceCsvRoundTrip) {
  const Trace trace = small_trace();
  ASSERT_FALSE(trace.instances.empty());
  std::stringstream buffer;
  write_batch_instance_csv(buffer, trace.instances);
  std::size_t skipped = 99;
  const auto back = read_batch_instance_csv(buffer, &skipped);
  EXPECT_EQ(skipped, 0u);
  ASSERT_EQ(back.size(), trace.instances.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].to_fields(), trace.instances[i].to_fields());
  }
}

TEST(TraceIo, MalformedRowsSkippedNotFatal) {
  std::stringstream buffer;
  buffer << "M1,2,j_1,1,Terminated,10,20,100.00,0.50\n";
  buffer << "this,row,is,broken\n";
  buffer << "R2_1,ten,j_1,1,Terminated,10,20,100.00,0.50\n";  // bad numeric
  buffer << "R2_1,4,j_1,1,Terminated,30,40,100.00,0.50\n";
  std::size_t skipped = 0;
  const auto tasks = read_batch_task_csv(buffer, &skipped);
  EXPECT_EQ(tasks.size(), 2u);
  EXPECT_EQ(skipped, 2u);
}

// The three readers share one malformed-row path: the same strict message
// (file and record number), the same lenient diagnostic kind per file, and
// the same count.
TEST(TraceIo, MalformedRowsReadTheSameInEveryReader) {
  const std::string task_rows =
      "M1,2,j_1,1,Terminated,10,20,100.00,0.50\n"
      "this,row,is,broken\n"
      "R2_1,4,j_1,1,Terminated,30,40,100.00,0.50\n";
  const std::string instance_rows =
      "i_1,M1,j_1,1,Terminated,10,20,m_1,1,1,50.0,60.0,0.2,0.3\n"
      "this,row,is,broken\n";
  const auto read_tasks = [](std::istream& in, const TraceReadOptions& o) {
    std::size_t malformed = 0;
    read_batch_task_csv(in, &malformed, o);
    return malformed;
  };
  const auto read_instances = [](std::istream& in, const TraceReadOptions& o) {
    std::size_t malformed = 0;
    read_batch_instance_csv(in, &malformed, o);
    return malformed;
  };
  const auto stream_tasks = [](std::istream& in, const TraceReadOptions& o) {
    const auto keep_going = [](std::string&&, std::vector<TaskRecord>&&) {
      return true;
    };
    return consume_jobs_in_task_csv(in, keep_going, o).malformed;
  };
  struct Case {
    std::string name;
    std::string rows;
    std::function<std::size_t(std::istream&, const TraceReadOptions&)> read;
    std::string message;
    std::string kind;
  };
  const std::vector<Case> cases = {
      {"read_batch_task_csv", task_rows, read_tasks,
       "batch_task.csv record 2: malformed row: this,row,is,broken",
       "malformed-row"},
      {"consume_jobs_in_task_csv", task_rows, stream_tasks,
       "batch_task.csv record 2: malformed row: this,row,is,broken",
       "malformed-row"},
      {"read_batch_instance_csv", instance_rows, read_instances,
       "batch_instance.csv record 2: malformed row: this,row,is,broken",
       "malformed-instance-row"},
  };
  for (const Case& c : cases) {
    std::stringstream lenient_in(c.rows);
    util::Diagnostics diagnostics;
    TraceReadOptions lenient;
    lenient.diagnostics = &diagnostics;
    EXPECT_EQ(c.read(lenient_in, lenient), 1u) << c.name;
    EXPECT_EQ(diagnostics.count_of("ingest", c.kind), 1u) << c.name;
    EXPECT_EQ(diagnostics.total(), 1u) << c.name;

    std::stringstream strict_in(c.rows);
    TraceReadOptions strict;
    strict.lenient = false;
    try {
      c.read(strict_in, strict);
      ADD_FAILURE() << c.name << " accepted a malformed row in strict mode";
    } catch (const util::ParseError& e) {
      EXPECT_EQ(std::string(e.what()), c.message) << c.name;
    }
  }
}

TEST(TraceIo, DirectoryRoundTrip) {
  const Trace trace = small_trace();
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_test";
  std::filesystem::remove_all(dir);
  write_trace(trace, dir);
  ASSERT_TRUE(std::filesystem::exists(dir / "batch_task.csv"));
  ASSERT_TRUE(std::filesystem::exists(dir / "batch_instance.csv"));
  std::size_t skipped = 0;
  const Trace back = read_trace(dir, &skipped);
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(back.tasks.size(), trace.tasks.size());
  EXPECT_EQ(back.instances.size(), trace.instances.size());
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, MissingInstanceFileTolerated) {
  const Trace trace = small_trace();
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_test2";
  std::filesystem::remove_all(dir);
  write_trace(trace, dir);
  std::filesystem::remove(dir / "batch_instance.csv");
  const Trace back = read_trace(dir);
  EXPECT_EQ(back.tasks.size(), trace.tasks.size());
  EXPECT_TRUE(back.instances.empty());
  std::filesystem::remove_all(dir);
}

TEST(TraceIoStream, GroupsConsecutiveRowsByJob) {
  const Trace trace = small_trace();
  std::stringstream buffer;
  write_batch_task_csv(buffer, trace.tasks);
  std::vector<std::string> jobs_seen;
  std::size_t rows_seen = 0;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](const std::string& job, const std::vector<TaskRecord>& tasks) {
        jobs_seen.push_back(job);
        rows_seen += tasks.size();
        for (const auto& t : tasks) EXPECT_EQ(t.job_name, job);
        return true;
      });
  EXPECT_EQ(stats.rows, trace.tasks.size());
  EXPECT_EQ(rows_seen, trace.tasks.size());
  EXPECT_EQ(stats.jobs, jobs_seen.size());
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.fragmented, 0u);
  // The generator emits jobs contiguously, so groups == distinct jobs.
  const std::set<std::string> distinct(jobs_seen.begin(), jobs_seen.end());
  EXPECT_EQ(distinct.size(), jobs_seen.size());
}

TEST(TraceIoStream, FragmentedJobsDetected) {
  std::stringstream buffer;
  buffer << "M1,1,j_1,1,Terminated,10,20,100.00,0.50\n";
  buffer << "M1,1,j_2,1,Terminated,10,20,100.00,0.50\n";
  buffer << "R2_1,1,j_1,1,Terminated,30,40,100.00,0.50\n";  // j_1 reappears
  std::size_t groups = 0;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](const std::string&, const std::vector<TaskRecord>&) {
        ++groups;
        return true;
      });
  EXPECT_EQ(groups, 3u);
  EXPECT_EQ(stats.jobs, 3u);
  EXPECT_EQ(stats.fragmented, 1u);
}

TEST(TraceIoStream, EarlyStopHonored) {
  const Trace trace = small_trace();
  std::stringstream buffer;
  write_batch_task_csv(buffer, trace.tasks);
  std::size_t groups = 0;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](const std::string&, const std::vector<TaskRecord>&) {
        return ++groups < 3;
      });
  EXPECT_EQ(groups, 3u);
  EXPECT_EQ(stats.jobs, 3u);
}

TEST(TraceIoStream, MalformedRowsCountedNotFatal) {
  std::stringstream buffer;
  buffer << "M1,1,j_1,1,Terminated,10,20,100.00,0.50\n";
  buffer << "garbage row\n";
  buffer << "R2_1,1,j_1,1,Terminated,30,40,100.00,0.50\n";
  std::size_t rows = 0;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](const std::string&, const std::vector<TaskRecord>& tasks) {
        rows += tasks.size();
        return true;
      });
  EXPECT_EQ(stats.malformed, 1u);
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(stats.jobs, 1u);
}

TEST(TraceIoStream, EmptyInput) {
  std::stringstream buffer;
  const auto stats = consume_jobs_in_task_csv(
      buffer,
      [&](const std::string&, const std::vector<TaskRecord>&) { return true; });
  EXPECT_EQ(stats.rows, 0u);
  EXPECT_EQ(stats.jobs, 0u);
}

TEST(TraceIoStream, EarlyStopDoesNotVisitLaterGroups) {
  std::stringstream buffer;
  buffer << "M1,1,j_1,1,Terminated,10,20,100.00,0.50\n";
  buffer << "M1,1,j_2,1,Terminated,10,20,100.00,0.50\n";
  buffer << "M1,1,j_3,1,Terminated,10,20,100.00,0.50\n";
  std::vector<std::string> seen;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](const std::string& job, const std::vector<TaskRecord>&) {
        seen.push_back(job);
        return false;  // stop after the very first group
      });
  EXPECT_EQ(seen, (std::vector<std::string>{"j_1"}));
  EXPECT_EQ(stats.jobs, 1u);
  // The stop lands when j_2's first row flushes j_1, so exactly one later
  // row was parsed and none of j_3's.
  EXPECT_EQ(stats.rows, 2u);
}

// Enough jobs to grow the job-name table many times over: names that are
// prefixes of one another ("j_1", "j_10", "j_100") stay distinct, and every
// reappearance, early or late, is counted exactly once.
TEST(TraceIoStream, FragmentsCountedExactlyAcrossManyJobs) {
  std::stringstream buffer;
  const auto row = [&buffer](const std::string& job) {
    buffer << "M1,1," << job << ",1,Terminated,10,20,100.00,0.50\n";
  };
  row("");  // an empty job name is a name too
  for (int j = 1; j <= 5000; ++j) row("j_" + std::to_string(j));
  std::size_t again = 0;
  for (int j = 1; j <= 5000; j += 7, ++again) row("j_" + std::to_string(j));
  row("");
  const auto stats = consume_jobs_in_task_csv(
      buffer, [](const std::string&, const std::vector<TaskRecord>&) {
        return true;
      });
  EXPECT_EQ(stats.jobs, 5001u + again + 1);
  EXPECT_EQ(stats.fragmented, again + 1);
}

TEST(TraceIoStream, RepeatedReoccurrencesEachCountFragmented) {
  std::stringstream buffer;
  for (int round = 0; round < 3; ++round) {
    buffer << "M1,1,j_a,1,Terminated,10,20,100.00,0.50\n";
    buffer << "M1,1,j_b,1,Terminated,10,20,100.00,0.50\n";
  }
  const auto stats = consume_jobs_in_task_csv(
      buffer, [](const std::string&, const std::vector<TaskRecord>&) {
        return true;
      });
  EXPECT_EQ(stats.jobs, 6u);
  // Both jobs re-occur twice after their first group: 4 fragmented groups.
  EXPECT_EQ(stats.fragmented, 4u);
}

TEST(TraceIoStream, ConsumeVariantTransfersOwnership) {
  const Trace trace = small_trace();
  std::stringstream buffer;
  write_batch_task_csv(buffer, trace.tasks);
  std::size_t rows = 0;
  std::vector<std::vector<TaskRecord>> groups;
  const auto stats = consume_jobs_in_task_csv(
      buffer, [&](std::string&&, std::vector<TaskRecord>&& tasks) {
        rows += tasks.size();
        groups.push_back(std::move(tasks));  // keep the moved-in storage
        return true;
      });
  EXPECT_EQ(stats.rows, trace.tasks.size());
  EXPECT_EQ(rows, trace.tasks.size());
  EXPECT_EQ(groups.size(), stats.jobs);
}

// A malformed row inside a group, even one naming another job, neither
// splits the group nor reaches it; a group closes only when the next one
// opens or at the end. At every chunk size.
TEST(GroupStream, MalformedRowsNeverSplitAGroup) {
  const std::string csv =
      "M1,1,j_1,1,Terminated,10,20,100.00,0.50\n"
      "R2_1,ten,j_2,1,Terminated,30,40,100.00,0.50\n"  // malformed
      "R2_1,1,j_1,1,Terminated,30,40,100.00,0.50\n"
      "M1,1,j_2,1,Terminated,50,60,100.00,0.50\n";
  for (const std::size_t chunk : {1u, 7u, 64u, 4096u}) {
    std::istringstream in(csv);
    GroupStreamOptions options;
    options.chunk_bytes = chunk;
    std::vector<std::pair<std::string, std::vector<std::string>>> groups;
    const StreamStats stats = stream_job_groups(
        in, options, nullptr,
        [&](std::size_t, const StreamedGroup& group, GroupLog&) {
          std::vector<std::string> tasks;
          for (const TaskRecord& row : group.rows) {
            EXPECT_EQ(row.job_name, group.job_name);
            tasks.push_back(row.task_name);
          }
          groups.emplace_back(std::string(group.job_name), tasks);
          return true;
        });
    using Groups = std::vector<std::pair<std::string, std::vector<std::string>>>;
    EXPECT_EQ(groups, (Groups{{"j_1", {"M1", "R2_1"}}, {"j_2", {"M1"}}}))
        << chunk;
    EXPECT_EQ(stats.rows, 3u);
    EXPECT_EQ(stats.malformed, 1u);
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.fragmented, 0u);
  }
}

// Rows are parsed in place into recycled records: names beyond the
// short-string buffer, then short ones, then long again. Every field comes
// from its own row, never from the one before, at every chunk size.
TEST(GroupStream, RecycledRecordsTakeEveryFieldOfTheirRow) {
  const std::vector<std::string> rows = {
      "J9_1_2_3_4_5_6_7_8,12,j_a_job_name_well_past_sso,3,Failed,5,9,"
      "12.50,0.75",
      "M1,1,j_b,1,Terminated,10,20,100.00,0.50",
      "R22_1_2_3_4_5_6_7_8_9_10,7,j_another_long_job_name_x,2,Running,0,0,"
      "0.00,0.00",
      "M2,3,j_c,1,Waiting,1,2,3.00,4.00",
  };
  std::string csv;
  for (const std::string& row : rows) csv += row + "\n";
  for (const std::size_t chunk : {1u, 2u, 64u, 4096u}) {
    std::istringstream in(csv);
    GroupStreamOptions options;
    options.chunk_bytes = chunk;
    std::size_t next = 0;
    stream_job_groups(in, options, nullptr,
                      [&](std::size_t, const StreamedGroup& group, GroupLog&) {
                        EXPECT_EQ(group.rows.size(), 1u);
                        std::stringstream one(rows.at(next++));
                        const auto fresh = read_batch_task_csv(one);
                        EXPECT_EQ(group.rows.front().to_fields(),
                                  fresh.at(0).to_fields())
                            << chunk;
                        return true;
                      });
    EXPECT_EQ(next, rows.size());
  }
}

TEST(TaskRecord, MalformedRowLeavesTheRecordUnchanged) {
  TaskRecord rec;
  const std::vector<std::string_view> good = {
      "M1", "1", "j_1", "1", "Terminated", "10", "20", "100.00", "0.50"};
  ASSERT_TRUE(rec.assign_fields(good));
  const auto before = rec.to_fields();
  const std::vector<std::string_view> bad = {
      "R2_1", "1", "j_2", "1", "Terminated", "30", "x", "100.00", "0.50"};
  EXPECT_FALSE(rec.assign_fields(bad));
  EXPECT_FALSE(rec.assign_fields(std::vector<std::string_view>{"short"}));
  EXPECT_EQ(rec.to_fields(), before);
}

TEST(TraceIo, WriteTraceThrowsWhenFileCannotBeOpened) {
  const Trace trace = small_trace();
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_blocked";
  std::filesystem::remove_all(dir);
  // A directory squatting on the target filename makes the open fail.
  std::filesystem::create_directories(dir / "batch_task.csv");
  EXPECT_THROW(write_trace(trace, dir), util::Error);
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, InstanceFilePresentButUnopenableThrows) {
  const Trace trace = small_trace();
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_unreadable";
  std::filesystem::remove_all(dir);
  write_trace(trace, dir);
  // Replace the instance file with a directory: it exists, so "absent" must
  // not be assumed — read_trace has to raise instead of returning a partial
  // trace with silently empty instances.
  std::filesystem::remove(dir / "batch_instance.csv");
  std::filesystem::create_directories(dir / "batch_instance.csv");
  EXPECT_THROW(read_trace(dir), util::Error);
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, InstanceFileCorruptMidStreamThrows) {
  const Trace trace = small_trace();
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_corrupt";
  std::filesystem::remove_all(dir);
  write_trace(trace, dir);
  {
    std::ofstream out(dir / "batch_instance.csv", std::ios::app);
    out << "\"unterminated quoted field";
  }
  TraceReadOptions strict;
  strict.lenient = false;
  EXPECT_THROW(read_trace(dir, nullptr, strict), util::Error);
  // The default (lenient) read quarantines the damaged record instead of
  // failing, and reports it through the skipped counter.
  std::size_t skipped = 0;
  const Trace recovered = read_trace(dir, &skipped);
  EXPECT_EQ(recovered.tasks.size(), trace.tasks.size());
  EXPECT_EQ(recovered.instances.size(), trace.instances.size());
  EXPECT_EQ(skipped, 1u);
  std::filesystem::remove_all(dir);
}

TEST(TraceIo, MissingTaskFileThrows) {
  const auto dir = std::filesystem::temp_directory_path() / "cwgl_io_missing";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  EXPECT_THROW(read_trace(dir), util::Error);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cwgl::trace
