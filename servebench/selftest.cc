// Self-tests of the benchmark's own bookkeeping (bench_stats.h): the
// percentile rule, `OK <n>` reply framing, open-loop schedule
// accounting, and the Little's-law sampler. Exits non-zero on the first
// failed check; run.py --selftest builds and runs it.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench_stats.h"

namespace servebench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b, double tol) { return std::fabs(a - b) <= tol; }

// Oracle for the percentile rule, written from the definitions on a
// sorted vector: the nearest-rank p-th percentile is the k-th smallest
// sample for the least k with k >= p% of n; the reported tail is the
// highest ladder percentile with at least 10 samples after that k.
double OracleTail(const std::vector<double>& sorted, double cap,
                  double* percentile) {
  const size_t n = sorted.size();
  std::vector<double> ladder = {50.0};
  for (int tenths = 900; tenths <= 999; ++tenths) ladder.push_back(tenths / 10.0);
  *percentile = 0.0;
  double value = sorted[0];
  for (double p : ladder) {
    if (p > cap + 1e-9) break;
    size_t k = 1;
    while (static_cast<double>(k) * 100.0 < p * static_cast<double>(n) - 1e-6) {
      ++k;
    }
    if (n - k >= 10) {
      *percentile = p;
      value = sorted[k - 1];
    }
  }
  if (*percentile == 0.0) {
    size_t k = 1;
    while (static_cast<double>(k) * 2 < static_cast<double>(n)) ++k;
    value = sorted[k - 1];
  }
  return value;
}

void TestPercentileRule() {
  std::mt19937_64 rng(7);
  for (size_t n : {1, 2, 19, 20, 21, 99, 100, 101, 199, 200, 999, 1000, 1001,
                   1999, 2000, 5000, 9999, 10000, 12345}) {
    std::vector<double> samples(n);
    std::exponential_distribution<double> dist(1.0);
    for (double& v : samples) v = std::floor(dist(rng) * 100.0);  // ties too
    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double cap : {50.0, 99.0, 99.9}) {
      double oracle_p = 0.0;
      const double oracle = OracleTail(sorted, cap, &oracle_p);
      const Summary s = Summarize(samples, cap);
      EXPECT(s.count == n);
      EXPECT(s.tail_percentile == oracle_p);
      EXPECT(s.tail == oracle);
      double oracle_median_p = 0.0;
      EXPECT(s.p50 == OracleTail(sorted, 50.0, &oracle_median_p));
    }
  }
  EXPECT(SupportedPercentile(1000, 99.0) == 99.0);
  EXPECT(Near(SupportedPercentile(999, 99.0), 98.9, 1e-9));
  EXPECT(SupportedPercentile(19, 99.0) == 0.0);
  EXPECT(SupportedPercentile(20, 99.0) == 50.0);
  EXPECT(SupportedPercentile(100, 99.0) == 90.0);
  EXPECT(SupportedPercentile(100000, 99.0) == 99.0);
  EXPECT(Summarize({}, 99.0).count == 0);
}

void TestReplyFraming() {
  ReplyAssembler assembler;
  std::vector<std::string> reply;
  // QUERY and LOAD replies are one line even though they start "OK ".
  EXPECT(assembler.Feed("OK dag=3 tree=7 splits=0 label_s=0 eval_s=0", &reply));
  EXPECT(reply.size() == 1);
  EXPECT(assembler.Feed("OK loaded d vertices=1 edges=2 bytes=3 source=xml",
                        &reply));
  EXPECT(reply.size() == 1);
  EXPECT(assembler.Feed("ERR NotFound: no document named 'x' is loaded",
                        &reply));
  EXPECT(reply.size() == 1);
  // BATCH: header plus exactly n lines, even when a line looks like a
  // header itself.
  EXPECT(!assembler.Feed("OK 3", &reply));
  EXPECT(!assembler.Feed("0 dag=1 tree=1", &reply));
  EXPECT(!assembler.Feed("OK 2", &reply));
  EXPECT(assembler.Feed("2 dag=1 tree=4", &reply));
  EXPECT(reply.size() == 4);
  EXPECT(reply[0] == "OK 3" && reply[2] == "OK 2" && reply[3] == "2 dag=1 tree=4");
  // `OK 0` is complete by itself; malformed counts are one-line replies.
  EXPECT(assembler.Feed("OK 0", &reply));
  EXPECT(reply.size() == 1);
  EXPECT(assembler.Feed("OK 3x", &reply));
  EXPECT(assembler.Feed("OK ", &reply));
  EXPECT(assembler.Feed("OK -1", &reply));
  uint64_t n = 0;
  EXPECT(ParseMultiLineHeader("OK 8", &n) && n == 8);
  EXPECT(!ParseMultiLineHeader("OK bye", &n));
  EXPECT(!ParseMultiLineHeader("ERR 8", &n));

  uint64_t value = 0;
  double real = 0.0;
  const std::string line = "OK dag=3 tree=17 splits=2 label_s=0.0125 eval_s=1";
  EXPECT(Field(line, "tree=", &value) && value == 17);
  EXPECT(Field(line, "dag=", &value) && value == 3);
  EXPECT(Field(line, "label_s=", &real) && Near(real, 0.0125, 1e-12));
  EXPECT(!Field(line, "missing=", &value));
  EXPECT(Field("0 dag=1 tree=4", "tree=", &value) && value == 4);
  // A key must start a field: `subtree=` is not `tree=`.
  EXPECT(Field("x subtree=9 tree=5", "tree=", &value) && value == 5);
}

void TestOpenLoopSchedule() {
  const int64_t start = 1000;
  const int64_t second = 1000000000;
  const double rate = 1200.0;
  OpenLoopSchedule s(start, start + 20 * second, rate, 42);
  // Poisson counts: 24,000 expected, standard deviation about 155.
  EXPECT(s.total() > 23400 && s.total() < 24600);
  int64_t due = 0;
  EXPECT(!s.PopDue(start, &due) || due >= start);
  // A generator waking late finds every request due meanwhile, each with
  // its own due time (so lateness is per request), in order (two may
  // round to the same nanosecond), and none
  // due later than the wakeup.
  OpenLoopSchedule late(start, start + 20 * second, rate, 42);
  const int64_t wake = start + second / 2;
  uint64_t popped = 0;
  int64_t last = start - 1;
  while (late.PopDue(wake, &due)) {
    EXPECT(due >= last && due <= wake);
    last = due;
    ++popped;
  }
  EXPECT(late.issued() == popped);
  EXPECT(late.next_due_ns() > wake);
  // Everything else, in order, all inside the window; the count adds up.
  while (late.PopDue(start + 100 * second, &due)) {
    EXPECT(due >= last && due < start + 20 * second);
    last = due;
    ++popped;
  }
  EXPECT(popped == late.total() && late.done());
  EXPECT(late.next_due_ns() == start + 20 * second);
  // Same seed, same schedule; another seed, another one.
  OpenLoopSchedule again(start, start + 20 * second, rate, 42);
  OpenLoopSchedule other(start, start + 20 * second, rate, 43);
  EXPECT(again.total() == s.total());
  int64_t a = 0, b = 0, c = 0;
  bool differs = false;
  while (again.PopDue(start + 100 * second, &a) &&
         s.PopDue(start + 100 * second, &b)) {
    EXPECT(a == b);
    if (other.PopDue(start + 100 * second, &c) && c != a) differs = true;
  }
  EXPECT(differs);
  // The gaps are exponential: mean 1/rate, and about e^-1 of them exceed
  // the mean.
  OpenLoopSchedule gaps(0, 100 * second, rate, 7);
  int64_t prev = 0;
  double sum = 0.0;
  uint64_t n = 0, longer = 0;
  while (gaps.PopDue(100 * second, &due)) {
    const double gap = static_cast<double>(due - prev) / 1e9;
    sum += gap;
    if (gap > 1.0 / rate) ++longer;
    prev = due;
    ++n;
  }
  EXPECT(Near(sum / static_cast<double>(n), 1.0 / rate, 0.02 / rate));
  EXPECT(Near(static_cast<double>(longer) / static_cast<double>(n),
              std::exp(-1.0), 0.01));
  // A closed loop (rate 0) has nothing scheduled.
  OpenLoopSchedule none(0, second, 0.0, 1);
  EXPECT(none.total() == 0 && none.done() && none.next_due_ns() == second);
}

void TestLittleSampler() {
  {
    StepMean m(10.0);
    m.Sample(0.0, 2.0);
    m.Sample(1.0, 4.0);
    m.Sample(3.0, 0.0);
    EXPECT(Near(m.Mean(), 10.0 / 3.0, 1e-12));
    EXPECT(m.peak() == 4.0);
  }
  {
    // Gaps wider than the bound are not observed time.
    StepMean m(0.5);
    m.Sample(0.0, 1.0);
    m.Sample(0.2, 1.0);
    m.Sample(0.4, 3.0);
    m.Sample(10.0, 5.0);
    m.Sample(10.1, 5.0);
    EXPECT(Near(m.span_s(), 0.5, 1e-12));
    EXPECT(Near(m.Mean(), (0.2 + 0.2 + 0.5) / 0.5, 1e-9));
  }
  {
    // A synthetic queue: an arrival every 10 ms, each staying 25 ms.
    // Sampled at irregular instants, Little's law must give back the
    // 25 ms stay from the mean occupancy and the completion rate.
    std::mt19937_64 rng(3);
    std::uniform_real_distribution<double> step(0.00005, 0.0004);
    StepMean occupancy(0.01);
    const double period = 0.010, stay = 0.025, horizon = 20.0;
    for (double t = 1.0; t < horizon; t += step(rng)) {
      const double since = std::fmod(t, period);
      // Items present at t arrived at t - since - j*period for j >= 0,
      // and are still there while their age is below the stay.
      int items = 0;
      for (double age = since; age < stay; age += period) ++items;
      occupancy.Sample(t, items);
    }
    const double wait = LittleWaitSeconds(occupancy.Mean(), 1.0 / period);
    EXPECT(Near(wait, stay, stay * 0.02));
  }
  EXPECT(LittleWaitSeconds(2.0, 100.0) == 0.02);
  EXPECT(LittleWaitSeconds(2.0, 0.0) == 0.0);
}

}  // namespace
}  // namespace servebench

int main() {
  servebench::TestPercentileRule();
  servebench::TestReplyFraming();
  servebench::TestOpenLoopSchedule();
  servebench::TestLittleSampler();
  if (servebench::failures > 0) {
    std::fprintf(stderr, "servebench_selftest: %d check(s) failed\n",
                 servebench::failures);
    return 1;
  }
  std::printf("servebench_selftest: all checks passed\n");
  return 0;
}
