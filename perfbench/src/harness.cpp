#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <random>

namespace perfbench {

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || !(p > 0.0) || p > 100.0) return std::nullopt;
  // p * n is exact for integral p and any realistic n, so p99 of 1000
  // samples lands on rank 990, not 991.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0));
  if (rank < 1 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         double p, int windows) {
  if (windows < 1) return std::nullopt;
  const std::size_t n = samples.size();
  const auto w = static_cast<std::size_t>(windows);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < w; ++i) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(i * n / w);
    const auto last =
        samples.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / w);
    const std::optional<double> v = Percentile({first, last}, p);
    if (!v) return std::nullopt;
    per_window.push_back(*v);
  }
  return Median(std::move(per_window));
}

std::optional<double> Median(std::vector<double> samples) {
  const std::size_t n = samples.size();
  if (n == 0) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds) {
  std::vector<double> at;
  if (!(rate_per_s > 0.0) || !(seconds > 0.0)) return at;
  std::mt19937_64 gen(seed);
  double t = 0.0;
  for (;;) {
    // 53 random bits -> u in [0, 1); 1 - u in (0, 1] keeps log finite.
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;
    t += -std::log(1.0 - u) / rate_per_s;
    if (t >= seconds) return at;
    at.push_back(t);
  }
}

std::int64_t FirstBitMismatch(const shflbw::Matrix<float>& a,
                              const shflbw::Matrix<float>& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint32_t x = 0, y = 0;
    std::memcpy(&x, a.data() + i, sizeof x);
    std::memcpy(&y, b.data() + i, sizeof y);
    if (x != y) return static_cast<std::int64_t>(i);
  }
  return -1;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.Seconds());
  }
  return out;
}

double SelfSeconds(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> iv;
  for (const Span& c : children) {
    const double lo = std::max(c.start, parent.start);
    const double hi = std::min(c.end, parent.end);
    if (hi > lo) iv.emplace_back(lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : iv) {
    if (open && lo <= cur_hi) {
      cur_hi = std::max(cur_hi, hi);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = lo;
    cur_hi = hi;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return parent.Seconds() - covered;
}

void WriteChromeTrace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                      double origin) {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const std::vector<Span>& spans = logs[tid]->spans();
    std::vector<std::vector<Span>> children(spans.size());
    for (const Span& s : spans) {
      if (s.parent != kNoParent) {
        children[static_cast<std::size_t>(s.parent)].push_back(s);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double self = SelfSeconds(s, children[i]);
      os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
         << ",\"ts\":" << (s.start - origin) * 1e6
         << ",\"dur\":" << s.Seconds() * 1e6 << ",\"args\":{\"parent\":"
         << s.parent << ",\"request\":" << s.request
         << ",\"self_us\":" << self * 1e6 << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
