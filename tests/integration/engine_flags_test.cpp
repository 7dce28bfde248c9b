// The one flag → EngineConfig binder: caller defaults, range checks, the
// rejections that used to crash or wrap (--sd=0, --ecs=-1), and the
// unknown-flag check that keeps a removed or misspelt flag from silently
// doing nothing.
#include "mhd/sim/engine_flags.h"

#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

namespace mhd {
namespace {

Flags make_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

EngineConfig defaults(std::uint32_t ecs, std::uint32_t sd) {
  EngineConfig d;
  d.ecs = ecs;
  d.sd = sd;
  return d;
}

TEST(EngineFlags, AbsentFlagsKeepTheCallersDefaults) {
  const EngineConfig cli = bind_engine_flags(make_flags({}), defaults(4096, 64));
  EXPECT_EQ(cli.ecs, 4096u);
  EXPECT_EQ(cli.sd, 64u);
  const EngineConfig exp = bind_engine_flags(make_flags({}), defaults(1024, 32));
  EXPECT_EQ(exp.ecs, 1024u);
  EXPECT_EQ(exp.sd, 32u);
  EXPECT_EQ(exp.chunker, ChunkerKind::kRabin);
  EXPECT_EQ(exp.index_impl, IndexImpl::kMem);
  EXPECT_FALSE(exp.framed);
}

TEST(EngineFlags, BindsEveryEngineFlag) {
  const Flags flags = make_flags(
      {"--ecs=2048", "--sd=16", "--chunker=gear", "--chunker-impl=scalar",
       "--hash-impl=portable", "--index-impl=sampled", "--sample-bits=4",
       "--champions=3", "--index-cache-mb=1", "--index-bloom-bits-per-key=12",
       "--framed", "--fault-plan=seed:7", "--container-mb=2",
       "--restore-cache-mb=4", "--rewrite=har"});
  // The exported key list is exactly the set of flags bound here.
  const std::vector<std::string> given = flags.keys();
  std::vector<std::string> listed(kEngineFlagKeys.begin(),
                                  kEngineFlagKeys.end());
  std::sort(listed.begin(), listed.end());
  EXPECT_EQ(given, listed);

  const EngineConfig cfg = bind_engine_flags(flags, defaults(4096, 64));
  EXPECT_EQ(cfg.ecs, 2048u);
  EXPECT_EQ(cfg.sd, 16u);
  EXPECT_EQ(cfg.chunker, ChunkerKind::kGear);
  EXPECT_EQ(cfg.chunker_impl, ChunkerImpl::kScalar);
  EXPECT_EQ(cfg.hash_impl, Sha1Impl::kPortable);
  EXPECT_EQ(cfg.index_impl, IndexImpl::kSampled);
  EXPECT_EQ(cfg.sample_bits, 4u);
  EXPECT_EQ(cfg.max_champions, 3u);
  EXPECT_EQ(cfg.index_cache_bytes, 1ull << 20);
  EXPECT_EQ(cfg.index_bloom_bits_per_key, 12u);
  EXPECT_TRUE(cfg.framed);
  EXPECT_EQ(cfg.fault_plan, "seed:7");
  EXPECT_EQ(cfg.container_bytes, 2ull << 20);
  EXPECT_EQ(cfg.restore_cache_bytes, 4ull << 20);
  EXPECT_EQ(cfg.rewrite, RewriteMode::kHar);
}

TEST(EngineFlags, RejectsZeroSampleDistance) {
  EXPECT_THROW(bind_engine_flags(make_flags({"--sd=0"}), defaults(4096, 64)),
               std::invalid_argument);
  EXPECT_EQ(bind_engine_flags(make_flags({"--sd=1"}), defaults(4096, 64)).sd,
            1u);
}

TEST(EngineFlags, RejectsEcsOutsideSixtyFourBytesToOneMebibyte) {
  for (const char* bad : {"--ecs=-1", "--ecs=0", "--ecs=63", "--ecs=1048577",
                          "--ecs=4x", "--ecs=4294967295"}) {
    EXPECT_THROW(bind_engine_flags(make_flags({bad}), defaults(4096, 64)),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(bind_engine_flags(make_flags({"--ecs=64"}), defaults(4096, 64)).ecs,
            64u);
  EXPECT_EQ(
      bind_engine_flags(make_flags({"--ecs=1048576"}), defaults(4096, 64)).ecs,
      1u << 20);
}

TEST(EngineFlags, RejectsUnknownEnumValues) {
  for (const char* bad : {"--chunker=zstd", "--chunker-impl=avx9",
                          "--hash-impl=md5", "--index-impl=btree",
                          "--rewrite=always"}) {
    EXPECT_THROW(bind_engine_flags(make_flags({bad}), defaults(4096, 64)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(EngineFlags, EcsSweepIsLeftToTheCaller) {
  const EngineConfig cfg =
      bind_engine_flags(make_flags({"--ecs=512,1024", "--sd=8"}),
                        defaults(1024, 32), /*ecs_sweep=*/true);
  EXPECT_EQ(cfg.ecs, 1024u);
  EXPECT_EQ(cfg.sd, 8u);
}

/// The message reject_unknown_flags throws, or "" when it accepts.
std::string rejection(const std::vector<std::string>& args,
                      std::initializer_list<std::string_view> own_keys) {
  try {
    reject_unknown_flags(make_flags(args), own_keys);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(EngineFlags, RemovedPipelineFlagsAreUnknown) {
  EXPECT_EQ(rejection({"--ingest-threads=4"}, {}),
            "unknown flag: --ingest-threads");
  EXPECT_EQ(rejection({"--pipeline-queue-depth=8"}, {"algo"}),
            "unknown flag: --pipeline-queue-depth");
  EXPECT_EQ(rejection({"--pipeline"}, {}), "unknown flag: --pipeline");
}

TEST(EngineFlags, UnknownFlagIsNamedAmongKnownOnes) {
  EXPECT_EQ(rejection({"--ecs=1024", "--ecs-size=2048", "--json"}, {"json"}),
            "unknown flag: --ecs-size");
  // A binary's own key is known to that binary only.
  EXPECT_EQ(rejection({"--listen=unix:/x"}, {}), "unknown flag: --listen");
}

TEST(EngineFlags, EngineAndOwnFlagsAreAccepted) {
  std::vector<std::string> args;
  for (const std::string_view key : kEngineFlagKeys) {
    args.push_back("--" + std::string(key) + "=1");
  }
  args.push_back("--json");
  args.push_back("positional-argument");
  EXPECT_EQ(rejection(args, {"json"}), "");
  EXPECT_EQ(rejection({}, {}), "");
}

}  // namespace
}  // namespace mhd
