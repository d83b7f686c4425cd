// Unit tests for the benchmark's own helpers: the percentile rank rule
// and sample count, and span self time under nesting.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_quantile_rank_rule() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  const auto p99 = rtccbench::quantile(v, 0.99);
  expect(p99.value == 99.0, "p99 of 1..100 is the 99th value");
  expect(p99.n == 100 && p99.rank == 99 && p99.beyond == 1,
         "p99 of 100 samples: rank 99, one beyond");
  const auto p50 = rtccbench::quantile(v, 0.50);
  expect(p50.value == 50.0 && p50.rank == 50, "p50 of 1..100 is 50");

  std::vector<double> ten = {5, 3, 9, 1, 7, 2, 8, 4, 10, 6};
  const auto t99 = rtccbench::quantile(ten, 0.99);
  expect(t99.value == 10.0 && t99.beyond == 0,
         "p99 of ten samples is the maximum, none beyond");
  const auto t50 = rtccbench::quantile(ten, 0.5);
  expect(t50.value == 5.0 && t50.rank == 5, "nearest-rank p50 of ten");

  std::vector<double> many(300000, 1.0);
  many.back() = 2.0;
  const auto m99 = rtccbench::quantile(many, 0.99);
  expect(m99.beyond == 3000 && m99.value == 1.0,
         "p99 of 300k samples has 3000 beyond it");

  std::vector<double> one = {4.0};
  const auto o = rtccbench::quantile(one, 0.99);
  expect(o.value == 4.0 && o.rank == 1 && o.n == 1, "single sample");
  std::vector<double> none;
  expect(rtccbench::quantile(none, 0.5).n == 0, "empty set");

  std::vector<double> forty;
  for (int i = 1; i <= 40; ++i) forty.push_back(i);
  const auto tail = rtccbench::resolved_tail(forty, 0.99, 10);
  expect(tail.rank == 30 && tail.beyond == 10 && tail.value == 30.0,
         "40 samples resolve the tail at rank 30, ten beyond");
  std::vector<double> twelve(12, 1.0);
  expect(rtccbench::resolved_tail(twelve, 0.99, 10).rank == 6,
         "a tail never drops below the median rank");
  std::vector<double> big(300000, 1.0);
  expect(rtccbench::resolved_tail(big, 0.99, 10).rank == 297000,
         "enough samples: the p99 itself");

  expect(rtccbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(rtccbench::median({4, 1, 3, 2}) == 2.5, "even median averages");
}

void test_nested_self_time() {
  using rtccbench::Span;
  // root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9] > a [6,7];
  // pass 1 holds a span that must not leak into pass 0.
  const std::vector<Span> spans = {
      {"root", 0.0, 10.0, -1, 0}, {"a", 1.0, 4.0, 0, 0},
      {"a1", 2.0, 3.0, 1, 0},     {"b", 5.0, 9.0, 0, 0},
      {"a", 6.0, 7.0, 3, 0},      {"a", 0.0, 100.0, -1, 1},
  };
  const auto self = rtccbench::self_times(spans, 0);
  expect(near(self.at("root"), 3.0), "root self = 10 - 3 - 4");
  expect(near(self.at("a"), 2.0 + 1.0), "a self sums over both spans");
  expect(near(self.at("a1"), 1.0), "leaf self = duration");
  expect(near(self.at("b"), 3.0), "b self = 4 - 1");
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  expect(near(total, 10.0), "self times sum to the root's duration");
  expect(near(rtccbench::self_times(spans, 1).at("a"), 100.0),
         "pass filter");
}

void test_tracer_parents() {
  rtccbench::Tracer t;
  {
    rtccbench::Scope root(t, "root");
    { rtccbench::Scope child(t, "child"); }
    {
      rtccbench::Scope other(t, "push");
      other.rename("emit");
    }
  }
  const auto& s = t.spans();
  expect(s.size() == 3, "three spans");
  expect(s[0].parent == -1 && s[1].parent == 0 && s[2].parent == 0,
         "children point at the enclosing span");
  expect(std::string(s[2].name) == "emit", "rename on close");
  expect(s[1].start >= s[0].start && s[1].end <= s[0].end, "nesting");
}

}  // namespace

int main() {
  test_quantile_rank_rule();
  test_nested_self_time();
  test_tracer_parents();
  if (failures == 0) std::printf("all unit tests passed\n");
  return failures == 0 ? 0 : 1;
}
