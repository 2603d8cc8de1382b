// The benchmark's own rules, kept free of I/O so perfbench_selftest can
// pin them: which percentiles a sample supports, the open-loop arrival
// schedule, output digests and seed derivation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// A reported percentile needs at least this many samples beyond it, so
/// that it is not set by one or two outliers.
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of the q-quantile among n samples: ceil(q * n),
/// clamped to [1, n]. Requires n > 0 and 0 < q < 1.
std::size_t nearest_rank(std::size_t n, double q);

/// Samples strictly above the nearest-rank position of the q-quantile.
std::size_t samples_beyond(std::size_t n, double q);

/// True when n samples leave at least kMinSamplesBeyond beyond the
/// q-quantile (for q = 0.9 that takes n >= 100).
bool percentile_supported(std::size_t n, double q);

/// Nearest-rank q-percentile. Throws std::invalid_argument when the
/// sample does not support it (see percentile_supported).
double percentile(std::vector<double> samples, double q);

/// Median (mean of the middle pair for an even count). Throws
/// std::invalid_argument on an empty sample.
double median(std::vector<double> samples);

/// One job of the open-loop load.
struct Arrival {
  double due_seconds = 0.0;  ///< offset from the start of the window
  std::size_t tenant = 0;
  std::uint32_t generator_seed = 0;  ///< 32 bits: JSON numbers stay exact
};

/// A Poisson process conditioned on exactly `jobs` arrivals in
/// [0, window_seconds): sorted uniform arrival times. Fixing the count
/// keeps the offered load identical across seeds while the gaps stay
/// exponential-like. Tenants and generator seeds are drawn from the same
/// stream, so the whole schedule is a function of `seed` alone.
std::vector<Arrival> open_loop_schedule(std::uint64_t seed, std::size_t jobs,
                                        double window_seconds,
                                        std::size_t tenants);

/// Identity of an output byte string: FNV-1a (io::fnv1a) plus length.
struct Digest {
  std::uint64_t fnv = 0;
  std::size_t bytes = 0;
  bool operator==(const Digest&) const = default;
};
Digest digest_of(std::string_view bytes);
std::string to_string(const Digest& digest);

/// Independent 64-bit seed for one input family of a run.
std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream);

}  // namespace perfbench
