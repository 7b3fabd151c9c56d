#include "harness.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

/// Zero-based index of the nearest-rank percentile.
std::size_t rank_index(std::size_t n, int per_mille) {
  const std::size_t rank =
      (static_cast<std::size_t>(per_mille) * n + 999) / 1000;  // ceil
  return rank == 0 ? 0 : std::min(rank, n) - 1;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

}  // namespace

double percentile(const std::vector<double>& sorted, int per_mille) {
  return sorted[rank_index(sorted.size(), per_mille)];
}

int tail_percentile(std::size_t n) {
  if (n == 0) return 0;
  for (int p : {999, 990, 950, 900, 750, 500})
    if (n - rank_index(n, p) - 1 >= 10) return p;
  return 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return percentile(v, 500);
}

Tracer::Span::Span(Tracer& tracer, const char* name, int tag)
    : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Record r;
  r.name = name;
  r.tag = tag;
  r.unit = tracer_.unit_;
  r.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  index_ = static_cast<std::int32_t>(tracer_.records_.size());
  tracer_.records_.push_back(r);
  tracer_.open_.push_back(index_);
  tracer_.records_.back().t0 = now_ns();
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[static_cast<std::size_t>(index_)].t1 = now_ns();
  tracer_.open_.pop_back();
}

std::vector<double> Tracer::self_ms_per_unit(const std::string& name,
                                             int tag) const {
  std::vector<double> child_ns(records_.size(), 0.0);
  for (const Record& r : records_)
    if (r.parent >= 0)
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.t1 - r.t0);
  std::map<std::uint32_t, double> per_unit;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (name != r.name || (tag >= 0 && r.tag != tag)) continue;
    per_unit[r.unit] += (static_cast<double>(r.t1 - r.t0) - child_ns[i]) / 1e6;
  }
  std::vector<double> out;
  out.reserve(per_unit.size());
  for (const auto& [unit, ms] : per_unit) out.push_back(ms);
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::uint64_t base = records_.empty() ? 0 : records_.front().t0;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"unit\": %u, "
                 "\"tag\": %d, \"parent\": %d}}",
                 i ? ",\n" : "", r.name, static_cast<double>(r.t0 - base) / 1e3,
                 static_cast<double>(r.t1 - r.t0) / 1e3, r.unit, r.tag,
                 r.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
