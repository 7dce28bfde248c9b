#include "mhd/util/flags.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace mhd {
namespace {

Flags make_flags(std::vector<std::string> args) {
  static std::vector<std::string> storage;
  storage = std::move(args);
  storage.insert(storage.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : storage) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, ParsesKeyValue) {
  const auto f = make_flags({"--size_mb=64", "--name=mhd"});
  EXPECT_EQ(f.get_int("size_mb", 0), 64);
  EXPECT_EQ(f.get("name", ""), "mhd");
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = make_flags({});
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_EQ(f.get("missing", "d"), "d");
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, BareFlagIsTrue) {
  const auto f = make_flags({"--verbose"});
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, ParsesDoubles) {
  const auto f = make_flags({"--rate=0.25"});
  EXPECT_DOUBLE_EQ(f.get_double("rate", 0), 0.25);
}

TEST(Flags, ParsesIntList) {
  const auto f = make_flags({"--ecs=512,1024,2048"});
  EXPECT_EQ(f.get_int_list("ecs", {}),
            (std::vector<std::int64_t>{512, 1024, 2048}));
}

TEST(Flags, IntListDefault) {
  const auto f = make_flags({});
  EXPECT_EQ(f.get_int_list("ecs", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(Flags, ChoiceAcceptsAllowedValue) {
  const auto f = make_flags({"--chunker-impl=simd"});
  EXPECT_EQ(f.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"),
            "simd");
}

TEST(Flags, ChoiceDefaultsWhenAbsent) {
  const auto f = make_flags({});
  EXPECT_EQ(f.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"),
            "auto");
}

TEST(Flags, ChoiceRejectsUnknownValue) {
  const auto f = make_flags({"--chunker-impl=sse9"});
  EXPECT_THROW(
      f.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"),
      std::invalid_argument);
}

TEST(Flags, HashImplChoiceVocabulary) {
  for (const char* v : {"auto", "shani", "simd", "portable"}) {
    const auto f = make_flags({std::string("--hash-impl=") + v});
    EXPECT_EQ(f.get_choice("hash-impl", {"auto", "shani", "simd", "portable"},
                           "auto"),
              v);
  }
  const auto bad = make_flags({"--hash-impl=sha256"});
  EXPECT_THROW(
      bad.get_choice("hash-impl", {"auto", "shani", "simd", "portable"},
                     "auto"),
      std::invalid_argument);
  EXPECT_THROW(make_flags({"--hash-impl=shani", "--hash-impl=portable"}),
               std::invalid_argument);
}

TEST(Flags, UintParsesAndDefaults) {
  const auto f = make_flags({"--max-sessions=8"});
  EXPECT_EQ(f.get_uint("max-sessions", 0), 8u);
  EXPECT_EQ(f.get_uint("missing", 4), 4u);
}

TEST(Flags, UintEnforcesRange) {
  const auto f = make_flags({"--max-sessions=300"});
  EXPECT_THROW(f.get_uint("max-sessions", 0, 0, 256),
               std::invalid_argument);
  EXPECT_EQ(f.get_uint("max-sessions", 0, 0, 512), 300u);
  const auto g = make_flags({"--depth=0"});
  EXPECT_THROW(g.get_uint("depth", 1, 1, 100), std::invalid_argument);
}

TEST(Flags, UintRejectsNonNumeric) {
  EXPECT_THROW(make_flags({"--n=-1"}).get_uint("n", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--n=4x"}).get_uint("n", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--n="}).get_uint("n", 0),
               std::invalid_argument);
  // a bare "--n" parses as "true", which is not an unsigned integer
  EXPECT_THROW(make_flags({"--n"}).get_uint("n", 0), std::invalid_argument);
}

TEST(Flags, UintRejectsOverflow) {
  EXPECT_THROW(make_flags({"--n=99999999999999999999"}).get_uint("n", 0),
               std::invalid_argument);
}

TEST(Flags, SizeParsesSuffixes) {
  EXPECT_EQ(make_flags({"--x=4"}).get_size("x", 0), 4u);
  EXPECT_EQ(make_flags({"--x=4K"}).get_size("x", 0), 4096u);
  EXPECT_EQ(make_flags({"--x=4k"}).get_size("x", 0), 4096u);
  EXPECT_EQ(make_flags({"--x=2M"}).get_size("x", 0), 2ull << 20);
  EXPECT_EQ(make_flags({"--x=3g"}).get_size("x", 0), 3ull << 30);
  EXPECT_EQ(make_flags({"--x=0"}).get_size("x", 7), 0u);
}

TEST(Flags, SizeAppliesUnitToBareNumbersOnly) {
  // --index-cache-mb style: a bare "8" means 8 MB, an explicit "512K"
  // overrides the unit.
  const auto f = make_flags({"--cache=8"});
  EXPECT_EQ(f.get_size("cache", 0, 0, UINT64_MAX, 1ull << 20), 8ull << 20);
  const auto g = make_flags({"--cache=512K"});
  EXPECT_EQ(g.get_size("cache", 0, 0, UINT64_MAX, 1ull << 20), 512u << 10);
  // The default is already in bytes: no unit scaling when absent.
  EXPECT_EQ(make_flags({}).get_size("cache", 123, 0, UINT64_MAX, 1ull << 20),
            123u);
}

TEST(Flags, SizeEnforcesRangeOnScaledValue) {
  const auto f = make_flags({"--cache=1"});
  // 1 MB after scaling is inside [64K, 1G]...
  EXPECT_EQ(f.get_size("cache", 0, 64u << 10, 1u << 30, 1ull << 20),
            1ull << 20);
  // ...but 1 raw byte (unit 1) is below the 64K floor.
  EXPECT_THROW(f.get_size("cache", 0, 64u << 10, 1u << 30),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--cache=2G"})
                   .get_size("cache", 0, 0, 1u << 30),
               std::invalid_argument);
}

TEST(Flags, SizeRejectsMalformedAndOverflow) {
  EXPECT_THROW(make_flags({"--x=-1"}).get_size("x", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=4KB"}).get_size("x", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x=K"}).get_size("x", 0),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--x="}).get_size("x", 0), std::invalid_argument);
  EXPECT_THROW(make_flags({"--x"}).get_size("x", 0), std::invalid_argument);
  // 2^64 bytes: overflows in the digit loop.
  EXPECT_THROW(make_flags({"--x=18446744073709551616"}).get_size("x", 0),
               std::invalid_argument);
  // Fits as a number but overflows when scaled by the suffix.
  EXPECT_THROW(make_flags({"--x=99999999999999999G"}).get_size("x", 0),
               std::invalid_argument);
}

TEST(Flags, SizeRejectsDuplicateDefinitions) {
  EXPECT_THROW(make_flags({"--cache=8", "--cache=16M"}),
               std::invalid_argument);
}

TEST(Flags, RejectsDuplicateDefinitions) {
  EXPECT_THROW(make_flags({"--ecs=512", "--ecs=1024"}),
               std::invalid_argument);
  EXPECT_THROW(make_flags({"--verify", "--verify"}), std::invalid_argument);
}

TEST(Flags, CollectsPositional) {
  const auto f = make_flags({"input.img", "--x=1", "out.img"});
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"input.img", "out.img"}));
}

TEST(Flags, KeysListsEveryFlagSortedWithoutPositionals) {
  const auto f = make_flags({"--zeta=1", "input.img", "--alpha", "--mid=x"});
  EXPECT_EQ(f.keys(), (std::vector<std::string>{"alpha", "mid", "zeta"}));
  EXPECT_TRUE(make_flags({"only.img"}).keys().empty());
}

}  // namespace
}  // namespace mhd
