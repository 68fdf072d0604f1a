#ifndef SERVEBENCH_BENCH_STATS_H_
#define SERVEBENCH_BENCH_STATS_H_

// Pure bookkeeping of the serving benchmark, kept free of sockets and of
// the xcq library so selftest.cc can check it on synthetic inputs:
//   * the percentile rule for reported tails,
//   * framing of `OK <n>` multi-line replies,
//   * the open-loop send schedule,
//   * the time-weighted sampler behind the Little's-law waits.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

// Nearest-rank index of percentile `p` (0 < p <= 100) in `n` sorted
// samples: the smallest index whose rank covers p% of the samples.
inline size_t PercentileIndex(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

// Samples strictly after percentile `p`'s index.
inline size_t SamplesBeyond(size_t n, double p) {
  return n - 1 - PercentileIndex(n, p);
}

// The reporting rule: the highest percentile, no higher than `cap`, that
// leaves at least 10 samples beyond it. Percentiles are tried on a fine
// ladder (p50, then p90 up to p99.9 in 0.1 steps) so the result is the
// tail the sample actually supports. 0 when even the median does not
// have 10 samples beyond it.
inline double SupportedPercentile(size_t n, double cap) {
  if (n == 0) return 0.0;
  double best = 0.0;
  if (SamplesBeyond(n, 50.0) >= 10 && cap >= 50.0) best = 50.0;
  for (int tenths = 900; tenths <= 999; ++tenths) {
    const double p = tenths / 10.0;
    if (p > cap + 1e-9) break;
    if (SamplesBeyond(n, p) >= 10) best = p;
  }
  return best;
}

// A latency distribution summary, in the samples' own unit.
struct Summary {
  size_t count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double tail_percentile = 0.0;  // what `tail` is the percentile of
  double tail = 0.0;
};

// Summarizes `samples` (any order); the tail follows SupportedPercentile
// capped at `tail_cap`. With fewer samples than the rule needs for a
// median, p50 and the tail are still the nearest-rank median (reported
// with tail_percentile = 0) so a sparse metric is never silently empty.
inline Summary Summarize(std::vector<double> samples, double tail_cap) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0.0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = samples[PercentileIndex(samples.size(), 50.0)];
  s.tail_percentile = SupportedPercentile(samples.size(), tail_cap);
  s.tail = s.tail_percentile > 0.0
               ? samples[PercentileIndex(samples.size(), s.tail_percentile)]
               : s.p50;
  return s;
}

// ---------------------------------------------------------------------------
// Reply framing
// ---------------------------------------------------------------------------

// If `line` is exactly `OK <n>` (a multi-line reply header), stores n.
inline bool ParseMultiLineHeader(std::string_view line, uint64_t* n) {
  if (line.size() < 4 || line.substr(0, 3) != "OK ") return false;
  const std::string_view digits = line.substr(3);
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc() || end != digits.data() + digits.size()) return false;
  *n = value;
  return true;
}

// Groups reply lines into replies. A reply is one line (`OK ...` or
// `ERR ...`), except that an `OK <n>` header (BATCH, STATS, METRICS) is
// followed by exactly n detail lines that belong to it.
class ReplyAssembler {
 public:
  // Consumes one line; true when it completed a reply, which is then
  // moved into `*reply` (header first).
  bool Feed(std::string line, std::vector<std::string>* reply) {
    if (remaining_ == 0) {
      lines_.clear();
      uint64_t n = 0;
      const bool multi = ParseMultiLineHeader(line, &n);
      lines_.push_back(std::move(line));
      if (!multi || n == 0) {
        *reply = std::move(lines_);
        lines_.clear();
        return true;
      }
      remaining_ = n;
      return false;
    }
    lines_.push_back(std::move(line));
    if (--remaining_ > 0) return false;
    *reply = std::move(lines_);
    lines_.clear();
    return true;
  }

 private:
  std::vector<std::string> lines_;
  uint64_t remaining_ = 0;
};

// The number in the ` key=<number>` field of a reply line (an integer
// such as `tree=17` or a decimal such as `label_s=0.000012`); false if
// the field is absent or malformed.
template <typename T>
bool Field(std::string_view line, std::string_view key, T* value) {
  size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    if (pos == 0 || line[pos - 1] == ' ') {
      const char* begin = line.data() + pos + key.size();
      const auto [end, ec] =
          std::from_chars(begin, line.data() + line.size(), *value);
      return ec == std::errc() && end != begin;
    }
    pos += key.size();
  }
  return false;
}

// ---------------------------------------------------------------------------
// Open-loop schedule
// ---------------------------------------------------------------------------

// Poisson arrivals at `rate_per_s` over [start, end): independent users,
// each request's due time drawn from `seed` with exponential gaps. (Fixed
// intervals would make every hold that lasts until a connection's next
// request a whole number of intervals, and the tail would jump between
// multiples.) The generator asks for every request due by `now`; each
// comes back with the time it was due, so latency counts from the
// schedule and lateness is now - due.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(int64_t start_ns, int64_t end_ns, double rate_per_s,
                   uint64_t seed)
      : end_ns_(end_ns) {
    if (!(rate_per_s > 0.0)) return;  // a closed loop has no schedule
    std::mt19937_64 rng(seed);
    double t = static_cast<double>(start_ns);
    for (;;) {
      // Inverse-CDF draw from a 53-bit uniform in [0, 1).
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      t += -std::log1p(-u) * 1e9 / rate_per_s;
      if (t >= static_cast<double>(end_ns)) break;
      due_ns_.push_back(static_cast<int64_t>(t));
    }
  }

  // Pops the next request due at or before `now_ns`, if any.
  bool PopDue(int64_t now_ns, int64_t* due_ns) {
    if (done() || due_ns_[next_] > now_ns) return false;
    *due_ns = due_ns_[next_++];
    return true;
  }

  // When the next request is due (end_ns once the schedule is spent).
  int64_t next_due_ns() const { return done() ? end_ns_ : due_ns_[next_]; }

  bool done() const { return next_ == due_ns_.size(); }

  // Requests popped so far.
  uint64_t issued() const { return next_; }

  // Requests the schedule holds in total.
  uint64_t total() const { return due_ns_.size(); }

 private:
  int64_t end_ns_;
  std::vector<int64_t> due_ns_;
  size_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Little's law
// ---------------------------------------------------------------------------

// Time-weighted mean of a step function sampled at irregular times: each
// sample holds until the next one. Used on the server's queue depth and
// in-flight job count, sampled on every generator wakeup. Two samples
// further apart than `max_gap_s` start a new segment: the time between
// them is not observed and counts for nothing (sampling runs in slices).
class StepMean {
 public:
  explicit StepMean(double max_gap_s) : max_gap_s_(max_gap_s) {}

  void Sample(double t_s, double value) {
    if (has_last_ && t_s - last_t_ <= max_gap_s_) {
      area_ += last_value_ * (t_s - last_t_);
      span_ += t_s - last_t_;
    }
    has_last_ = true;
    last_t_ = t_s;
    last_value_ = value;
    peak_ = std::max(peak_, value);
  }

  // Mean over the observed time; 0 before two samples of one segment.
  double Mean() const { return span_ > 0.0 ? area_ / span_ : 0.0; }

  double span_s() const { return span_; }
  double peak() const { return peak_; }

 private:
  double max_gap_s_;
  double area_ = 0.0;
  double span_ = 0.0;
  double last_t_ = 0.0;
  double last_value_ = 0.0;
  double peak_ = 0.0;
  bool has_last_ = false;
};

// Little's law, W = L / lambda: the mean time an item spends in a stage
// whose mean occupancy is `mean_items`, at `completions_per_s`.
inline double LittleWaitSeconds(double mean_items, double completions_per_s) {
  return completions_per_s > 0.0 ? mean_items / completions_per_s : 0.0;
}

}  // namespace servebench

#endif  // SERVEBENCH_BENCH_STATS_H_
