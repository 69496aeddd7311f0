#pragma once
// The benchmark's workloads. Each runs one measured pass (untraced: the
// end-to-end metrics) or one traced pass (the per-layer metrics), checks
// every output it produced, and returns what to print.

#include <cstdint>

#include "common.hpp"

namespace wbench {

/// Seed of every canary request (the pinned-digest output check).
inline constexpr std::uint64_t kCanarySeed = 1;

/// FNV-1a 64 of the canonical CSV bytes of the random-upp canary batch
/// (2000 instances, seed kCanarySeed), shared by upp-batch and drive-remote.
inline constexpr std::uint64_t kUppCanaryDigest = 0x14fef3d477ec50c3ULL;
/// ... of the conflict-batch mix canary (512 instances, seed kCanarySeed).
inline constexpr std::uint64_t kConflictCanaryDigest = 0xc0b8bedf4359bdf3ULL;
/// FNV-1a 64 over the serve canary's solve answers (strategy, paths, load,
/// wavelengths, optimal of random-upp seeds 1..32).
inline constexpr std::uint64_t kServeCanaryDigest = 0x826e976ebfa16f9bULL;

Result run_upp_batch(const Args& args);
Result run_conflict_batch(const Args& args);
Result run_serve_churn(const Args& args);
Result run_drive_remote(const Args& args);

}  // namespace wbench
