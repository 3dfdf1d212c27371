// The benchmark's own arithmetic: quantiles with their sample counts,
// ratios with an explicit base, the calibration drift score, span self
// time, and per-event host-time attribution. Kept free of program headers
// so selftest.cc can check every formula on hand-made inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// A quantile of a sample set, with the number of samples it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t n = 0;
};

// p-quantile by linear interpolation between closest ranks (the "type 7"
// estimator: rank p*(n-1)). p = 0.5 is the ordinary median. An empty set
// gives {0, 0}.
inline Quantile quantile(std::vector<double> v, double p) {
  Quantile q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const double rank = std::clamp(p, 0.0, 1.0) * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  q.value = v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
  return q;
}

inline Quantile median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// The median over groups of each group's median, taken over the non-empty
// groups (n counts them). A timed run summarises its fixed panel of weeks
// this way: each week counts once however often it was repeated, so a host
// that repeats more weeks does not change which weeks the figure stands for.
inline Quantile median_of_medians(const std::vector<std::vector<double>>& groups) {
  std::vector<double> medians;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) medians.push_back(median(g).value);
  }
  return median(std::move(medians));
}

inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

// num / base, defined as 0 when the base is empty (a layer that did no
// work on a workload reports a zero ratio, never NaN).
inline double ratio(double num, double base) { return base > 0.0 ? num / base : 0.0; }

// One calibration row as the drift score sees it.
struct DriftRow {
  double estimate = 0.0;
  double target = 0.0;
  double tolerance = 0.0;
  bool gated = false;
  bool enough_samples = false;  // at least the row's min_samples
  bool pass = false;
};

// calib_pass_frac: gated rows that PASS over gated rows with enough
// samples. calib_drift: max over those rows of |estimate - target| /
// tolerance, so 1.0 sits exactly on the band edge.
struct CalibScore {
  std::size_t gated_rows = 0;
  std::size_t passed = 0;
  double pass_frac = 0.0;
  double drift = 0.0;
};

inline CalibScore calib_score(const std::vector<DriftRow>& rows) {
  CalibScore s;
  for (const DriftRow& r : rows) {
    if (!r.gated || !r.enough_samples) continue;
    ++s.gated_rows;
    if (r.pass) ++s.passed;
    if (r.tolerance > 0.0) {
      s.drift = std::max(s.drift, std::fabs(r.estimate - r.target) / r.tolerance);
    }
  }
  s.pass_frac = ratio(static_cast<double>(s.passed), static_cast<double>(s.gated_rows));
  return s;
}

// Host-time spans recorded by the benchmark around its calls into the
// program. `parent` is the index of the enclosing open span, or -1.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

class SpanLog {
 public:
  // Opens a span at `now_ns` under the innermost open span.
  int open(std::string name, std::int64_t now_ns, int run) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({std::move(name), now_ns, now_ns, parent, run});
    stack_.push_back(static_cast<int>(spans_.size() - 1));
    return stack_.back();
  }
  // Closes the innermost open span, which must be `id`.
  bool close(int id, std::int64_t now_ns) {
    if (stack_.empty() || stack_.back() != id) return false;
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns;
    stack_.pop_back();
    return true;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // The span's duration minus the part of its interval that its direct
  // children cover (the union of their intervals, clipped to the span).
  std::int64_t self_ns(std::size_t i) const {
    const Span& s = spans_[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const Span& c : spans_) {
      if (c.parent == static_cast<int>(i)) {
        kids.emplace_back(std::max(c.start_ns, s.start_ns), std::min(c.end_ns, s.end_ns));
      }
    }
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [a, b] : kids) {
      const std::int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    return (s.end_ns - s.start_ns) - covered;
  }

  // Durations in seconds of every span called `name`.
  std::vector<double> seconds_of(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
    return out;
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Books each event's host time to the layer whose work it carried: `net`
// when the solver-run counter moved during the event, otherwise `proto`
// when the swarm-tick counter moved, otherwise `other`.
class EventShare {
 public:
  enum Layer { kNet = 0, kProto = 1, kOther = 2 };

  void book(std::int64_t ns, bool solver_moved, bool ticks_moved) {
    const Layer l = solver_moved ? kNet : (ticks_moved ? kProto : kOther);
    ns_[l] += ns;
    events_[l] += 1;
  }
  std::int64_t ns(Layer l) const { return ns_[l]; }
  std::uint64_t events(Layer l) const { return events_[l]; }
  std::int64_t total_ns() const { return ns_[kNet] + ns_[kProto] + ns_[kOther]; }
  // Share of the booked host time that went to layer `l`.
  double share(Layer l) const {
    return ratio(static_cast<double>(ns_[l]), static_cast<double>(total_ns()));
  }

 private:
  std::int64_t ns_[3] = {0, 0, 0};
  std::uint64_t events_[3] = {0, 0, 0};
};

}  // namespace perfbench
