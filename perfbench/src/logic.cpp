#include "logic.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "io/fsio.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0 || !(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("nearest_rank: need n > 0 and 0 < q < 1");
  }
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n - nearest_rank(n, q);
}

bool percentile_supported(std::size_t n, double q) {
  return n > 0 && samples_beyond(n, q) >= kMinSamplesBeyond;
}

double percentile(std::vector<double> samples, double q) {
  if (!percentile_supported(samples.size(), q)) {
    throw std::invalid_argument(
        "percentile: " + std::to_string(samples.size()) +
        " samples leave fewer than " + std::to_string(kMinSamplesBeyond) +
        " beyond p" + std::to_string(static_cast<int>(q * 100)));
  }
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median: empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::vector<Arrival> open_loop_schedule(std::uint64_t seed, std::size_t jobs,
                                        double window_seconds,
                                        std::size_t tenants) {
  adaparse::util::Rng rng(derive_seed(seed, 0x5C4ED));
  std::vector<Arrival> out(jobs);
  for (Arrival& a : out) {
    a.due_seconds = rng.uniform(0.0, window_seconds);
    a.tenant = static_cast<std::size_t>(rng.below(std::max<std::size_t>(1, tenants)));
    a.generator_seed = static_cast<std::uint32_t>(rng.next_u64());
  }
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.due_seconds < b.due_seconds;
  });
  return out;
}

Digest digest_of(std::string_view bytes) {
  return {adaparse::io::fnv1a(bytes), bytes.size()};
}

std::string to_string(const Digest& digest) {
  return std::to_string(digest.fnv) + "/" + std::to_string(digest.bytes);
}

std::uint64_t derive_seed(std::uint64_t run_seed, std::uint64_t stream) {
  return adaparse::util::mix64(run_seed, stream);
}

}  // namespace perfbench
