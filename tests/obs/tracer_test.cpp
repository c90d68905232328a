#include "obs/tracer.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/ingest.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace cwgl::obs {
namespace {

TEST(Tracer, DisabledSpansRecordNothing) {
  Tracer tracer;
  {
    Span span("quiet.scope", tracer);
    span.arg("ignored", 1);
    EXPECT_FALSE(span.active());
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Tracer, SpanProducesBeginEndPairWithArgs) {
  Tracer tracer;
  tracer.start();
  {
    Span span("outer", tracer);
    span.arg("rows", 42);
    { Span inner("inner", tracer); }
  }
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, 'E');
  ASSERT_EQ(events[3].args.size(), 1u);
  EXPECT_EQ(events[3].args[0].first, "rows");
  EXPECT_EQ(events[3].args[0].second, 42u);
}

TEST(Tracer, EndClosesEarlyAndIsIdempotent) {
  Tracer tracer;
  tracer.start();
  {
    Span span("early", tracer);
    span.end();
    span.end();
    EXPECT_FALSE(span.active());
  }
  tracer.stop();
  EXPECT_EQ(tracer.events().size(), 2u);
}

TEST(Tracer, StartClearsPreviousEvents) {
  Tracer tracer;
  tracer.start();
  { Span span("first", tracer); }
  tracer.stop();
  tracer.start();
  { Span span("second", tracer); }
  tracer.stop();
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "second");
}

TEST(Tracer, DrainRemovesEventsAndKeepsCollecting) {
  Tracer tracer;
  tracer.start();
  { Span span("first", tracer); }
  const auto drained = tracer.drain();
  ASSERT_EQ(drained.size(), 2u);  // B + E
  EXPECT_EQ(drained[0].name, "first");
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_TRUE(tracer.enabled());  // drain does not disarm

  // Collection continues with the same epoch: later spans' timestamps are
  // not re-based below already-drained ones.
  { Span span("second", tracer); }
  const auto more = tracer.drain();
  ASSERT_EQ(more.size(), 2u);
  EXPECT_EQ(more[0].name, "second");
  EXPECT_GE(more[0].ts_us, drained[1].ts_us);
  tracer.stop();
}

TEST(Tracer, BoundedBufferDropsAndCounts) {
  Tracer tracer;
  tracer.start(4);  // room for two B/E pairs
  for (int i = 0; i < 10; ++i) {
    Span span("s", tracer);
  }
  EXPECT_EQ(tracer.events().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 16u);  // 20 events attempted, 4 kept
  // Draining frees capacity for new events; the drop counter is lifetime.
  tracer.drain();
  { Span span("late", tracer); }
  EXPECT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 16u);
  // start() resets the drop counter with the buffer.
  tracer.start(4);
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.stop();
}

TEST(Tracer, WriteTraceEventsJsonBareArray) {
  Tracer tracer;
  tracer.start();
  {
    Span span("payload", tracer);
    span.arg("rows", 7);
  }
  const auto events = tracer.drain();
  tracer.stop();
  std::ostringstream out;
  write_trace_events_json(out, events);
  const util::JsonValue doc = util::parse_json(out.str());
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), 2u);
  EXPECT_EQ(doc.as_array()[0].at("name").as_string(), "payload");
  EXPECT_EQ(doc.as_array()[0].at("ph").as_string(), "B");
  EXPECT_EQ(doc.as_array()[1].at("ph").as_string(), "E");
  EXPECT_EQ(doc.as_array()[1].at("args").at("rows").as_number(), 7.0);
}

// Replays the emitted Chrome trace-event JSON through the in-tree parser
// and asserts the structural contract Perfetto relies on: every event has
// pid/tid/ts/ph, timestamps never decrease in record order, and per thread
// the B/E events form a well-nested span tree (each E matches the most
// recent open B with the same name — no overlapping pairs).
void validate_trace_json(const std::string& text) {
  const util::JsonValue doc = util::parse_json(text);
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_FALSE(events.empty());

  double last_ts = 0.0;
  std::map<double, std::vector<std::string>> stacks;  // tid -> open spans
  for (const auto& e : events) {
    EXPECT_EQ(e.at("pid").as_number(), 1.0);
    EXPECT_EQ(e.at("cat").as_string(), "cwgl");
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
    const std::string ph = e.at("ph").as_string();
    const double tid = e.at("tid").as_number();
    const std::string name = e.at("name").as_string();
    auto& stack = stacks[tid];
    if (ph == "B") {
      stack.push_back(name);
    } else {
      ASSERT_EQ(ph, "E");
      ASSERT_FALSE(stack.empty())
          << "E for " << name << " with no open span on tid " << tid;
      EXPECT_EQ(stack.back(), name)
          << "overlapping B/E pair on tid " << tid;
      stack.pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

TEST(Tracer, PooledIngestEmitsWellFormedSpanTree) {
  // Generate a small trace CSV and ingest it with a worker pool so worker
  // and stream spans interleave across threads.
  trace::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.num_jobs = 300;
  const trace::Trace data = trace::TraceGenerator(cfg).generate();
  std::ostringstream csv;
  trace::write_batch_task_csv(csv, data.tasks);

  Tracer& tracer = Tracer::global();
  tracer.start();
  {
    std::istringstream in(csv.str());
    util::ThreadPool pool(2);
    core::IngestOptions options;
    options.chunk_bytes = 1024;  // many chunks, so both workers take some
    const auto dags = core::stream_dag_jobs(in, options, &pool);
    EXPECT_FALSE(dags.empty());
  }
  tracer.stop();

  std::ostringstream out;
  tracer.write_json(out);
  validate_trace_json(out.str());

  // The pooled path must cover worker and stream scopes; no thread reads
  // for the others any more.
  const std::string text = out.str();
  EXPECT_NE(text.find("ingest.stream"), std::string::npos);
  EXPECT_NE(text.find("ingest.worker"), std::string::npos);
  EXPECT_EQ(text.find("ingest.reader"), std::string::npos);

  // Each worker reports the CPU its thread spent inside the span and the
  // time it waited on the input lock and at the stitch; each of them fits
  // in the span's wall time, and the chunks add up to the stream's.
  std::map<std::string, std::size_t> seen;
  std::map<int, std::uint64_t> begin_ts;
  std::uint64_t chunks = 0;
  for (const TraceEvent& e : tracer.events()) {
    if (e.name != "ingest.worker") continue;
    if (e.phase == 'B') {
      begin_ts[e.tid] = e.ts_us;
      continue;
    }
    const std::uint64_t wall = e.ts_us - begin_ts.at(e.tid);
    for (const auto& [key, value] : e.args) {
      ++seen[key];
      if (key == "chunks") chunks += value;
      if (key == "cpu_us" || key == "input_wait_us" ||
          key == "stitch_wait_us") {
        // Thread CPU clocks tick in coarser steps than the wall clock.
        EXPECT_LE(value, wall + 10'000) << key;
      }
    }
  }
  for (const char* key :
       {"chunks", "groups", "cpu_us", "input_wait_us", "stitch_wait_us"}) {
    EXPECT_EQ(seen[key], 2u) << key;
  }
  // 300 jobs take well over 1 KiB: many chunks, plus the final one.
  EXPECT_GT(chunks, 10u);
}

TEST(Tracer, WriteJsonEscapesAndCarriesArgs) {
  Tracer tracer;
  tracer.start();
  {
    Span span("scope", tracer);
    span.arg("rows", 9);
  }
  tracer.stop();
  std::ostringstream out;
  tracer.write_json(out);
  const util::JsonValue doc = util::parse_json(out.str());
  const auto& events = doc.at("traceEvents").as_array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].at("args").at("rows").as_number(), 9.0);
}

}  // namespace
}  // namespace cwgl::obs
