#pragma once
// Harness plumbing of the end-to-end benchmark: clocks, the seeded
// stream, map hashing, the percentile helper, the span tracer and the
// metric record.  Nothing here is part of the program under test; the
// program only ever sees the generated netlists and edits.
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "data/shard.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// SplitMix64: a portable seeded stream (the std:: distributions are not
/// specified bit for bit across standard libraries, so inputs derived
/// from them could differ between toolchains for the same seed).
struct SplitMix64 {
  std::uint64_t state;

  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
};

/// Derive an independent sub-seed from a seed and a stream index.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 s{seed ^ (0xD1B54A32D192ED03ULL * (stream + 1))};
  return s.next();
}

/// FNV-1a offset basis, data::fnv1a_bytes' default seed.
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;

/// Fold a trivially copyable value (or a string) into a running FNV-1a
/// hash (data::fnv1a_bytes, the repository's checksum).
template <typename T>
std::uint64_t hash_value(const T& v, std::uint64_t h = kFnvBasis) {
  return lmmir::data::fnv1a_bytes(&v, sizeof(T), h);
}

inline std::uint64_t hash_string(const std::string& s,
                                 std::uint64_t h = kFnvBasis) {
  return lmmir::data::fnv1a_bytes(s.data(), s.size(), hash_value(s.size(), h));
}

/// Nearest-rank percentile of an ascending, non-empty sample, with p in
/// parts per thousand (900 = p90): the value at rank ceil(p·n/1000).
double percentile(const std::vector<double>& sorted, int per_mille);

/// The highest of p50/p75/p90/p95/p99/p99.9 (in parts per thousand) that
/// has at least ten samples beyond it at sample size n, or 0 when even
/// the median has fewer.
int tail_percentile(std::size_t n);

/// Median (nearest rank) of an unsorted sample; 0 for an empty one.
double median(std::vector<double> v);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Spans recorded from the benchmark's own code around calls into the
/// program's layers.  One span per call, kept in memory and written out
/// at the end in the Chrome trace format.  Separate from obs::Span on
/// purpose: turning obs tracing on would also switch on the program's
/// own spans, which the benchmark must not change.  Single-threaded: the
/// traced replay runs on one thread.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    int tag = -1;              // channel index; -1 = none
    std::uint32_t unit = 0;    // request (or batch) the span belongs to
    std::int32_t parent = -1;  // index of the enclosing span
    std::uint64_t t0 = 0, t1 = 0;  // steady-clock ns
  };

  class Span {
   public:
    Span(Tracer& tracer, const char* name, int tag = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Spans opened from now on belong to this request (or batch) id.
  void set_unit(std::uint32_t unit) { unit_ = unit; }

  /// Self time in ms (duration minus the direct children's durations),
  /// summed per unit, for the spans called `name` (and, when tag >= 0,
  /// carrying that tag).  One value per unit that has such a span.
  std::vector<double> self_ms_per_unit(const std::string& name,
                                       int tag = -1) const;

  /// Write every span as a Chrome-trace complete ("X") event.
  bool write_chrome(const std::string& path) const;

 private:
  std::vector<Record> records_;
  std::vector<std::int32_t> open_;
  bool enabled_ = false;
  std::uint32_t unit_ = 0;
};

}  // namespace perfbench
