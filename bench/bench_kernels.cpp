// Per-kernel microbenches for the runtime-dispatched SIMD tiers: every
// (kernel, bits, tier) cell is timed on its own, so a kernel-level
// regression shows even when end-to-end batch numbers hide it behind
// other costs. Plain executable (no google-benchmark) so it builds
// everywhere; emits one `{"bench":"kernels",...}` JSON line. Ungated: the
// one perf gate is the wdagbench A/B (scripts/perf_ab.sh).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace simd = wdag::util::simd;

namespace {

constexpr std::size_t kBitSizes[] = {512, 4096, 65536};
constexpr std::size_t kOrRowsCount = 64;

/// Compiler sink: keeps the measured loop from being optimized away.
void keep(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times `op` (one kernel invocation per call) and returns calls/second.
/// Calibrates the iteration count so each cell runs ~25 ms.
template <class Op>
double ops_per_second(Op&& op) {
  std::size_t iters = 64;
  for (;;) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    const double elapsed = seconds_since(start);
    if (elapsed >= 0.025 || iters >= (std::size_t{1} << 24)) {
      return static_cast<double>(iters) / elapsed;
    }
    const double target = 0.035;
    const double scale = elapsed > 0 ? target / elapsed : 16.0;
    iters = static_cast<std::size_t>(static_cast<double>(iters) *
                                     (scale < 16.0 ? scale : 16.0)) +
            1;
  }
}

struct Buffers {
  std::vector<std::uint64_t> dst;
  std::vector<std::uint64_t> src;
  std::vector<std::uint64_t> all_ones;
  std::vector<std::uint64_t> pool;
  std::vector<std::uint32_t> ids;
  std::size_t words = 0;
  std::size_t stride = 0;

  explicit Buffers(std::size_t bits) {
    words = (bits + 63) / 64;
    stride = (words + 7) / 8 * 8;
    wdag::util::Xoshiro256 rng(0xBE7C);
    dst.resize(words);
    src.resize(words);
    for (auto& w : dst) w = rng();
    for (auto& w : src) w = rng();
    all_ones.assign(words, ~std::uint64_t{0});
    pool.resize(kOrRowsCount * stride);
    for (auto& w : pool) w = rng();
    ids.resize(kOrRowsCount);
    for (std::size_t r = 0; r < kOrRowsCount; ++r) {
      ids[r] = static_cast<std::uint32_t>(r);
    }
  }
};

}  // namespace

int main() {
  wdag::util::Table table(
      "SIMD kernel throughput (calls/s, one kernel invocation per call)",
      {"kernel", "bits", "tier", "ops_per_s"});

  for (const simd::IsaTier tier : simd::reachable_tiers()) {
    simd::set_active_tier(tier);
    const simd::Kernels& k = simd::kernels();
    const std::string tier_name = simd::tier_name(tier);
    for (const std::size_t bits : kBitSizes) {
      Buffers b(bits);
      const long long bits_cell = static_cast<long long>(bits);

      table.add_row({std::string("or_words"), bits_cell, tier_name,
                     ops_per_second([&] {
                       k.or_words(b.dst.data(), b.src.data(), b.words);
                       keep(b.dst.data());
                     })});
      table.add_row({std::string("zero_words"), bits_cell, tier_name,
                     ops_per_second([&] {
                       k.zero_words(b.dst.data(), b.words);
                       keep(b.dst.data());
                     })});
      table.add_row({std::string("find_not_ones"), bits_cell, tier_name,
                     ops_per_second([&] {
                       // All-ones buffer: the full-scan worst case.
                       const std::size_t r = k.find_not_ones(
                           b.all_ones.data(), 0, b.words);
                       keep(&r);
                     })});
      table.add_row({std::string("or_rows"), bits_cell, tier_name,
                     ops_per_second([&] {
                       k.or_rows(b.pool.data(), b.stride, b.ids.data(),
                                 b.ids.size(), b.src.data(), b.words);
                       keep(b.pool.data());
                     })});
    }
  }

  std::fputs(table.to_text().c_str(), stdout);
  std::fputs("\n", stdout);
  std::printf("{\"bench\":\"kernels\",\"rows\":%s}\n",
              table.to_json_rows().c_str());
  return 0;
}
