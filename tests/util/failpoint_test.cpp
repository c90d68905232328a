#include "util/failpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace cwgl::util {
namespace {

// The registry is process-global: every test restores the clean state so
// ordering cannot matter.
class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::clear(); }
};

TEST_F(FailpointTest, UnconfiguredSitesAreNoOps) {
  failpoint::clear();
  EXPECT_FALSE(failpoint::configured("nothing.here"));
  failpoint::hit("nothing.here");                       // must not throw
  EXPECT_EQ(failpoint::clamp("nothing.here", 42u), 42u);
}

TEST_F(FailpointTest, ConfigureParsesSitesAndModes) {
  failpoint::configure("a.b=error;c.d=delay:2ms@0.5;e.f=short-read:3*2");
  EXPECT_TRUE(failpoint::configured("a.b"));
  EXPECT_TRUE(failpoint::configured("c.d"));
  EXPECT_TRUE(failpoint::configured("e.f"));
  EXPECT_FALSE(failpoint::configured("a.c"));
}

TEST_F(FailpointTest, MalformedSpecThrows) {
  EXPECT_THROW(failpoint::configure("novalue"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("a.b=bogusmode"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("a.b=error@notanumber"), InvalidArgument);
  EXPECT_THROW(failpoint::configure("a.b=error@1.5"), InvalidArgument);
}

TEST_F(FailpointTest, ErrorModeThrowsFailpointError) {
  failpoint::configure("x.y=error");
  EXPECT_THROW(failpoint::hit("x.y"), FailpointError);
  // FailpointError is an Error, so library catch sites treat it like a
  // genuine failure.
  EXPECT_THROW(failpoint::hit("x.y"), Error);
}

TEST_F(FailpointTest, ThrowModeThrowsForeignException) {
  failpoint::configure("x.y=throw");
  EXPECT_THROW(failpoint::hit("x.y"), std::runtime_error);
}

TEST_F(FailpointTest, LimitStopsTriggering) {
  failpoint::configure("x.y=error*2");
  EXPECT_THROW(failpoint::hit("x.y"), FailpointError);
  EXPECT_THROW(failpoint::hit("x.y"), FailpointError);
  failpoint::hit("x.y");  // third visit: limit exhausted, no throw
  const auto report = failpoint::report();
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].site, "x.y");
  EXPECT_EQ(report[0].visits, 3u);
  EXPECT_EQ(report[0].triggers, 2u);
}

TEST_F(FailpointTest, ProbabilityIsDeterministicForSeed) {
  const auto run = [] {
    failpoint::configure("x.y=error@0.5;seed=1234");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      bool threw = false;
      try {
        failpoint::hit("x.y");
      } catch (const FailpointError&) {
        threw = true;
      }
      fired.push_back(threw);
    }
    return fired;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  // p=0.5 over 64 visits: statistically certain to both fire and not fire.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST_F(FailpointTest, ShortReadClampsRequestedSize) {
  failpoint::configure("io.block=short-read:7");
  EXPECT_EQ(failpoint::clamp("io.block", 100u), 7u);
  EXPECT_EQ(failpoint::clamp("io.block", 3u), 3u);  // already smaller
  // A short-read site never fires through hit() (control path).
  failpoint::hit("io.block");
}

TEST_F(FailpointTest, ErrorSiteDoesNotClamp) {
  failpoint::configure("io.block=error");
  // clamp() is the size path; an error-mode site must not mangle sizes.
  EXPECT_EQ(failpoint::clamp("io.block", 100u), 100u);
}

TEST_F(FailpointTest, DelayModeSleeps) {
  failpoint::configure("x.y=delay:5ms");
  const auto start = std::chrono::steady_clock::now();
  failpoint::hit("x.y");
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(4));
}

TEST_F(FailpointTest, ClearDeactivatesEverything) {
  failpoint::configure("x.y=error");
  failpoint::clear();
  failpoint::hit("x.y");  // no throw
  EXPECT_TRUE(failpoint::report().empty());
}

TEST_F(FailpointTest, EmptySpecDeactivates) {
  failpoint::configure("x.y=error");
  failpoint::configure("");
  failpoint::hit("x.y");  // no throw
}

TEST_F(FailpointTest, HitRacesConfigureAndClear) {
  // hit() checks the registry's active flag without taking its lock while
  // configure() and clear() rewrite the flag under the lock: the TSan pass
  // flags any unsynchronized access between the two sides.
  constexpr int kThreads = 4;
  std::latch running(kThreads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      running.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        try {
          failpoint::hit("race.site");
        } catch (const FailpointError&) {
          // fired while configured; the point is the concurrent access
        }
      }
    });
  }
  running.arrive_and_wait();
  for (int i = 0; i < 20000; ++i) {
    failpoint::configure("race.site=error");
    failpoint::clear();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();
  failpoint::hit("race.site");  // cleared: no throw
  EXPECT_TRUE(failpoint::report().empty());
}

TEST_F(FailpointTest, CompiledInReflectsBuildFlag) {
#if defined(CWGL_FAILPOINTS_ENABLED)
  EXPECT_TRUE(failpoint::compiled_in());
#else
  EXPECT_FALSE(failpoint::compiled_in());
#endif
}

}  // namespace
}  // namespace cwgl::util
