// Measurement primitives of the repository benchmark (perfbench/):
// nearest-rank percentiles, a seeded Poisson arrival schedule, a
// bit-identity checker for output matrices, and an in-memory span log
// with self-time arithmetic. Kept free of any workload code so the
// self-tests in perfbench/tests/ can pin each primitive down.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/matrix.h"

namespace perfbench {

/// Fewest samples a percentile must leave beyond its rank before it is
/// reported: a tail percentile needs at least ten observations past it
/// to mean anything.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile p in (0, 100] of `samples` (any order):
/// the value at 1-based rank ceil(p/100 * n) of the sorted sample.
/// Returns nullopt when fewer than kMinBeyond samples lie beyond that
/// rank — the sample cannot support the percentile.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Median of the per-window nearest-rank percentiles: `samples` are
/// split, in order, into `windows` consecutive equal windows, each
/// window's percentile p is taken, and the median of those is
/// returned. A single stall then moves one window, not the result.
/// nullopt when any window cannot support p.
std::optional<double> WindowedPercentile(const std::vector<double>& samples,
                                         double p, int windows);

/// Median (mean of the two middle values for even n); nullopt when
/// empty.
std::optional<double> Median(std::vector<double> samples);

/// Open-loop arrival times in seconds from 0, exponential
/// inter-arrivals at `rate_per_s`, ending before `seconds`. Depends on
/// nothing but its arguments (the uniform variates are taken from the
/// raw 64-bit mt19937_64 output, not from a library distribution), so
/// the same seed yields the same schedule on every host.
std::vector<double> PoissonSchedule(std::uint64_t seed, double rate_per_s,
                                    double seconds);

/// Element index of the first bit-level difference between `a` and
/// `b`, -1 when identical. A shape mismatch reports index 0. NaNs
/// compare by bit pattern, so -0.0f != 0.0f and a one-ULP change is a
/// mismatch.
std::int64_t FirstBitMismatch(const shflbw::Matrix<float>& a,
                              const shflbw::Matrix<float>& b);

inline constexpr std::int32_t kNoParent = -1;
inline constexpr std::int64_t kNoRequest = -1;

/// One timed call into a module's public function.
struct Span {
  std::string name;
  double start = 0;  // steady-clock seconds
  double end = 0;
  std::int32_t parent = kNoParent;  // index into the same log
  std::int64_t request = kNoRequest;

  [[nodiscard]] double Seconds() const { return end - start; }
};

/// Spans of one thread, kept in memory and written out at exit. Not
/// thread-safe: each recording thread owns its own log.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }

  /// Appends a span and returns its index (usable as a parent).
  std::int32_t Add(Span s) {
    spans_.push_back(std::move(s));
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  /// Sets the end of span `index` (opened with Add before its children).
  void Close(std::int32_t index, double end) {
    spans_[static_cast<std::size_t>(index)].end = end;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Durations in seconds of every span named `name`.
  [[nodiscard]] std::vector<double> Durations(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

/// Duration of `parent` minus the length of the union of the
/// `children` intervals clipped to the parent's interval (overlapping
/// children are counted once, parts outside the parent not at all).
double SelfSeconds(const Span& parent, const std::vector<Span>& children);

/// Writes logs as Chrome trace-event JSON (one "X" event per span;
/// tid = log index; parent index, request id and self time — SelfSeconds
/// over the span's direct children — in microseconds as args).
void WriteChromeTrace(std::ostream& os, const std::vector<const SpanLog*>& logs,
                      double origin);

}  // namespace perfbench
