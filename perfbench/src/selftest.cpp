// Tests of the benchmark's own logic: the percentile rule, the open-loop
// schedule and the output digest. Exits non-zero on the first failure.
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "logic.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED: %s\n", what);
    ++g_failures;
  }
}

bool throws(void (*fn)()) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  using namespace perfbench;
  check(samples_beyond(100, 0.90) == 10, "p90 of 100 leaves 10 beyond");
  check(percentile_supported(100, 0.90), "p90 needs 100 samples");
  check(!percentile_supported(99, 0.90), "99 samples cannot carry p90");
  check(percentile_supported(20, 0.50), "p50 of 20 leaves 10 beyond");
  check(!percentile_supported(19, 0.50), "p50 of 19 leaves 9 beyond");
  check(throws([] { percentile(std::vector<double>(99, 1.0), 0.90); }),
        "percentile refuses an unsupported sample");

  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);  // unsorted input
  check(percentile(samples, 0.90) == 90.0, "p90 of 1..100 is 90");
  check(percentile(samples, 0.50) == 50.0, "p50 of 1..100 is 50");
  int beyond = 0;
  for (const double s : samples) beyond += s > percentile(samples, 0.90);
  check(beyond == 10, "exactly ten samples lie beyond p90 of 1..100");
  check(median({3.0, 1.0, 2.0}) == 2.0, "median of an odd sample");
  check(median({4.0, 1.0, 2.0, 3.0}) == 2.5, "median of an even sample");
}

void schedule_is_deterministic() {
  using namespace perfbench;
  const auto a = open_loop_schedule(7, 120, 10.0, 3);
  const auto b = open_loop_schedule(7, 120, 10.0, 3);
  const auto c = open_loop_schedule(8, 120, 10.0, 3);
  check(a.size() == 120, "the schedule has the requested job count");
  bool same = a.size() == b.size(), differs = false, ordered = true,
       in_window = true;
  std::size_t tenants_seen[3] = {0, 0, 0};
  for (std::size_t i = 0; i < a.size(); ++i) {
    same = same && a[i].due_seconds == b[i].due_seconds &&
           a[i].tenant == b[i].tenant &&
           a[i].generator_seed == b[i].generator_seed;
    differs = differs || a[i].due_seconds != c[i].due_seconds ||
              a[i].generator_seed != c[i].generator_seed;
    if (i > 0) ordered = ordered && a[i - 1].due_seconds <= a[i].due_seconds;
    in_window = in_window && a[i].due_seconds >= 0.0 && a[i].due_seconds < 10.0;
    if (a[i].tenant < 3) ++tenants_seen[a[i].tenant];
  }
  check(same, "the same seed gives the same schedule");
  check(differs, "another seed gives another schedule");
  check(ordered, "arrivals are in due order");
  check(in_window, "arrivals fall inside the window");
  check(tenants_seen[0] > 0 && tenants_seen[1] > 0 && tenants_seen[2] > 0,
        "every tenant gets jobs");
}

void digest_sees_one_byte() {
  using namespace perfbench;
  std::string bytes = "{\"document_id\":\"doc-1\",\"text\":\"alpha beta\"}\n";
  const Digest original = digest_of(bytes);
  check(digest_of(bytes) == original, "a digest is stable");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string changed = bytes;
    changed[i] = static_cast<char>(changed[i] ^ 0x01);
    if (digest_of(changed) == original) {
      check(false, "a one-byte change alters the digest");
      break;
    }
  }
  check(!(digest_of(bytes + "x") == original), "an appended byte alters it");
  check(!(digest_of(bytes.substr(1)) == original), "a dropped byte alters it");
}

}  // namespace

int main() {
  percentile_rule();
  schedule_is_deterministic();
  digest_sees_one_byte();
  if (g_failures > 0) return 1;
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
