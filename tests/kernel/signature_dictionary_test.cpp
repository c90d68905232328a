#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kernel/types.hpp"

namespace cwgl::kernel {
namespace {

std::string key_of(int i) { return "sig-" + std::to_string(i); }

TEST(SignatureDictionary, SerialAssignsFirstSeenOrder) {
  // Ids are dense and in first-seen order.
  SignatureDictionary dict;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(dict.intern(key_of(i)), i);
  }
  EXPECT_EQ(dict.size(), 100u);
}

TEST(SignatureDictionary, RepeatLookupIsStable) {
  SignatureDictionary dict;
  const int a = dict.intern("alpha");
  const int b = dict.intern("beta");
  EXPECT_NE(a, b);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(dict.intern("alpha"), a);
    EXPECT_EQ(dict.intern("beta"), b);
  }
  EXPECT_EQ(dict.size(), 2u);
}

TEST(SignatureDictionary, EmbeddedNulBytesAreDistinctKeys) {
  // Signatures are raw little-endian byte strings, so NUL is a payload
  // byte, not a terminator.
  SignatureDictionary dict;
  const std::string with_nul("a\0b", 3);
  const std::string without_nul("ab", 2);
  EXPECT_NE(dict.intern(with_nul), dict.intern(without_nul));
}

// The serving contract at dictionary level: find() is a pure read. It
// returns the interned id for known keys, nullopt for unknown ones, and —
// unlike intern() — NEVER inserts. serve::Classifier is built on this.
TEST(SignatureDictionary, FindReturnsInternedIdsWithoutInserting) {
  SignatureDictionary dict;
  const int a = dict.intern("alpha");
  const int b = dict.intern("beta");
  ASSERT_EQ(dict.size(), 2u);

  EXPECT_EQ(dict.find("alpha"), std::optional<int>(a));
  EXPECT_EQ(dict.find("beta"), std::optional<int>(b));
  EXPECT_EQ(dict.find("gamma"), std::nullopt);
  // The miss must not have interned "gamma" as a side effect.
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.find("gamma"), std::nullopt);
  EXPECT_EQ(dict.size(), 2u);
}

// The model store exports the dictionary as its signatures in id order;
// interning that list into a fresh dictionary gives every key its id back.
TEST(SignatureDictionary, SignaturesListEachKeyAtItsId) {
  SignatureDictionary dict;
  for (const int k : {7, 3, 7, 11, 3, 0}) dict.intern(key_of(k));
  const std::vector<std::string> signatures = dict.signatures();
  EXPECT_EQ(signatures, (std::vector<std::string>{key_of(7), key_of(3),
                                                  key_of(11), key_of(0)}));
  SignatureDictionary rebuilt;
  for (const std::string& s : signatures) rebuilt.intern(s);
  for (const std::string& s : signatures) {
    EXPECT_EQ(rebuilt.find(s), dict.find(s));
  }
}

// A frozen dictionary is read by every serving worker with no lock: 8
// threads look up known and unknown keys at once. Every known key keeps its
// id, every unknown one misses, and nothing is inserted. The TSan
// configuration checks that the concurrent const reads do not race.
TEST(SignatureDictionary, ConcurrentFindOnAFrozenDictionary) {
  constexpr int kThreads = 8;
  constexpr int kKnown = 512;
  constexpr int kRounds = 20;
  SignatureDictionary dict;
  for (int k = 0; k < kKnown; ++k) dict.intern(key_of(k));

  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dict, &ok, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kKnown; ++i) {
          const int k = (i * (t + 1) + round) % kKnown;
          if (dict.find(key_of(k)) != std::optional<int>(k)) ok = false;
          if (dict.find(key_of(kKnown + k)).has_value()) ok = false;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(dict.size(), static_cast<std::size_t>(kKnown));
}

}  // namespace
}  // namespace cwgl::kernel
