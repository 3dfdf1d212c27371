// Self-tests for the benchmark's arithmetic (stats.h): quantiles and their
// sample counts, ratio bases, the calibration drift score, span self time
// and the per-event host-time attribution. run.py runs this before every
// benchmark run; it prints each failure and exits 1 if any check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

namespace pb = perfbench;

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest line %d: %s\n", line, what);
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b)); }

#define EXPECT(cond) expect((cond), #cond, __LINE__)

void quantiles() {
  const pb::Quantile odd = pb::median({5.0, 1.0, 3.0});
  EXPECT(near(odd.value, 3.0) && odd.n == 3);
  const pb::Quantile even = pb::median({4.0, 1.0, 3.0, 2.0});
  EXPECT(near(even.value, 2.5) && even.n == 4);
  EXPECT(near(pb::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0).value, 1.0));
  EXPECT(near(pb::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0).value, 5.0));
  // Rank p*(n-1) = 0.99*4 = 3.96: 4 + 0.96 * (5 - 4).
  EXPECT(near(pb::quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.99).value, 4.96));
  const pb::Quantile one = pb::median({7.0});
  EXPECT(near(one.value, 7.0) && one.n == 1);
  const pb::Quantile none = pb::median({});
  EXPECT(none.value == 0.0 && none.n == 0);
  // Group medians 2, 10 and 6; the empty group is not counted.
  const pb::Quantile panel = pb::median_of_medians({{3.0, 1.0}, {10.0}, {}, {100.0, 4.0, 6.0}});
  EXPECT(near(panel.value, 6.0) && panel.n == 3);
  // A week repeated more often still counts once.
  EXPECT(near(pb::median_of_medians({{1.0}, {5.0, 5.0, 5.0, 5.0, 5.0}}).value, 3.0));
  EXPECT(pb::median_of_medians({}).n == 0);
  EXPECT(pb::max_of({}) == 0.0 && pb::max_of({2.0, 9.0, 4.0}) == 9.0);
}

void ratios() {
  EXPECT(near(pb::ratio(3.0, 4.0), 0.75));
  EXPECT(pb::ratio(3.0, 0.0) == 0.0);  // empty base: the layer did no work
  EXPECT(pb::ratio(0.0, 5.0) == 0.0);
  // Shares that split one base add back up to it.
  EXPECT(near(pb::ratio(1.0, 8.0) + pb::ratio(7.0, 8.0), 1.0));
}

void calibration() {
  std::vector<pb::DriftRow> rows = {
      // gated, enough samples, passes: |88.5 - 88| / 4 = 0.125
      {88.5, 88.0, 4.0, true, true, true},
      // gated, enough samples, drifts: |9 - 5.8| / 3 = 1.0667
      {9.0, 5.8, 3.0, true, true, false},
      // ungated: ignored however far it drifts
      {50.0, 10.0, 1.0, false, true, false},
      // too few samples: ignored
      {99.0, 1.0, 1.0, true, false, false},
  };
  const pb::CalibScore s = pb::calib_score(rows);
  EXPECT(s.gated_rows == 2 && s.passed == 1);
  EXPECT(near(s.pass_frac, 0.5));
  EXPECT(near(s.drift, 3.2 / 3.0));
  rows.erase(rows.begin() + 1);
  const pb::CalibScore clean = pb::calib_score(rows);
  EXPECT(clean.gated_rows == 1 && near(clean.pass_frac, 1.0) && near(clean.drift, 0.125));
  EXPECT(pb::calib_score({}).pass_frac == 0.0 && pb::calib_score({}).gated_rows == 0);
}

void span_self_time() {
  pb::SpanLog log;
  const int root = log.open("root", 0, 1);
  const int a = log.open("a", 10, 1);
  const int a1 = log.open("a1", 12, 1);  // grandchild: counts against a, not root
  EXPECT(log.close(a1, 28));
  EXPECT(log.close(a, 30));
  const int b = log.open("b", 40, 1);
  EXPECT(!log.close(root, 45));  // only the innermost span may close
  EXPECT(log.close(b, 60));
  EXPECT(log.close(root, 100));
  const auto& s = log.spans();
  EXPECT(s.size() == 4);
  EXPECT(s[1].parent == root && s[2].parent == a && s[3].parent == root);
  EXPECT(s[0].run == 1);
  EXPECT(log.self_ns(0) == 100 - 20 - 20);  // root minus a [10,30] and b [40,60]
  EXPECT(log.self_ns(1) == 20 - 16);        // a minus a1 [12,28]
  EXPECT(log.self_ns(2) == 16);             // a leaf owns all its time
  const std::vector<double> secs = log.seconds_of("b");
  EXPECT(secs.size() == 1 && near(secs[0], 20e-9));
}

void overlapping_children() {
  // Children recorded out of order and overlapping: their union, clipped
  // to the parent, is what the parent loses.
  pb::SpanLog log;
  const int p = log.open("p", 100, 0);
  const int c1 = log.open("c1", 150, 0);
  log.close(c1, 180);
  const int c2 = log.open("c2", 120, 0);  // clock went backwards in the record
  log.close(c2, 160);
  const int c3 = log.open("c3", 190, 0);
  log.close(c3, 260);  // runs past the parent's end
  log.close(p, 200);
  // Union of [150,180], [120,160], [190,200] = [120,180] + [190,200] = 70.
  EXPECT(log.self_ns(0) == 100 - 70);
}

void event_share() {
  pb::EventShare share;
  share.book(700, true, true);    // a solve and a tick: booked to net
  share.book(200, false, true);   // tick only: proto
  share.book(100, false, false);  // neither: other
  share.book(0, true, false);
  EXPECT(share.total_ns() == 1000);
  EXPECT(share.events(pb::EventShare::kNet) == 2);
  EXPECT(share.events(pb::EventShare::kProto) == 1);
  EXPECT(near(share.share(pb::EventShare::kNet), 0.7));
  EXPECT(near(share.share(pb::EventShare::kProto), 0.2));
  EXPECT(near(share.share(pb::EventShare::kOther), 0.1));
  EXPECT(pb::EventShare().share(pb::EventShare::kNet) == 0.0);
}

}  // namespace

int main() {
  quantiles();
  ratios();
  calibration();
  span_self_time();
  overlapping_children();
  event_share();
  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d checks failed\n", failures);
    return 1;
  }
  std::fprintf(stderr, "selftest: all checks passed\n");
  return 0;
}
