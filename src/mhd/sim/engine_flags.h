// The one command-line binder for EngineConfig, and the reconciliation of
// an invocation with a repository's recorded properties (repo.meta).
//
// The engine flags dedup_cli, run_experiment and the bench harnesses
// share:
//   --ecs=N (64..1 MiB)  --sd=N (>= 1)  --chunker=rabin|tttd|gear|fixed
//   --chunker-impl=auto|scalar|simd  --hash-impl=auto|shani|simd|portable
//   --index-impl=mem|disk|sampled  --sample-bits=N  --champions=N
//   --index-cache-mb=N  --index-bloom-bits-per-key=N
//   --framed  --fault-plan=SPEC  --container-mb=N  --restore-cache-mb=N
//   --rewrite=none|cbr|capping|har
// Every value is range-checked; a bad one throws std::invalid_argument
// naming the flag. Each binary passes its own defaults (dedup_cli keeps
// ECS 4096 / SD 64, run_experiment and the bench harnesses 1024 / 32), so
// existing repositories and recorded experiment numbers do not move.
// A binary rejects every flag that is neither an engine flag nor its own
// (reject_unknown_flags), so a removed or misspelt flag is an error.
#pragma once

#include <array>
#include <filesystem>
#include <initializer_list>
#include <string_view>

#include "mhd/dedup/engine.h"
#include "mhd/util/flags.h"

namespace mhd {

/// Every key bind_engine_flags reads.
inline constexpr std::array<std::string_view, 15> kEngineFlagKeys = {
    "ecs", "sd", "chunker", "chunker-impl", "hash-impl", "index-impl",
    "sample-bits", "champions", "index-cache-mb", "index-bloom-bits-per-key",
    "framed", "fault-plan", "container-mb", "restore-cache-mb", "rewrite"};

/// Throws std::invalid_argument naming the first flag in `flags` that is
/// neither in kEngineFlagKeys nor one of the binary's `own_keys`.
void reject_unknown_flags(const Flags& flags,
                          std::initializer_list<std::string_view> own_keys);

/// `defaults` with every engine flag present in `flags` applied. With
/// `ecs_sweep` the caller owns --ecs (a bench harness's comma-separated
/// sweep) and the returned config keeps defaults.ecs.
EngineConfig bind_engine_flags(const Flags& flags, const EngineConfig& defaults,
                               bool ecs_sweep = false);

/// The engine config of one command on the repository at `root`: the
/// flags bound over `defaults`, then reconciled with the repository's
/// record — repo.meta, or for a repository that predates it the legacy
/// markers (adopt_legacy_repo). Recorded properties (chunker, ECS, SD,
/// framed, container size, index tier, sample bits) come from the record;
/// a flag that contradicts one throws std::invalid_argument naming the
/// field, the recorded and the given value, before anything is written.
/// A `writer` (a command holding store.lock) records a new or adopted
/// repository in repo.meta and removes the legacy markers.
EngineConfig resolve_repo_config(const std::filesystem::path& root,
                                 const Flags& flags,
                                 const EngineConfig& defaults, bool writer);

}  // namespace mhd
