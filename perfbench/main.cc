// perfbench: the repo benchmark.
//
//   perfbench --workload <cloud_week|odr_week|resume_week|serve_flash>
//             --seconds N [--seed N] [--trace 0|1] [--spans-dir DIR]
//
// One process, one thread, one workload. Arrivals are simulated (trace
// replay or serve::TrafficGen) and executed as fast as the host allows, so
// every host-time metric is a throughput at the workload's stated divisor
// and every simulated metric is a pure function of the seed.
//
// --trace 0 times a fixed panel of weeks (the --seed week, then further
// weeks drawn from it), each at least once, until --seconds of wall time
// have passed, and reports the end-to-end metrics as medians over the
// weeks; the correctness checks run after the timer stops. --trace 1 runs
// the --seed week untraced and then traced: an ambient obs::ScopedObserver
// fills the program's own counters and the benchmark records host-time
// spans around each public call it makes; it reports the per-layer
// metrics. NOTES.md explains the workloads and the metrics.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis/metrics.h"
#include "analysis/replay.h"
#include "cloud/xuanfeng.h"
#include "fault/fault_plan.h"
#include "net/network.h"
#include "obs/observer.h"
#include "run/parallel_runner.h"
#include "serve/service_loop.h"
#include "sim/simulator.h"
#include "snapshot/audit.h"
#include "snapshot/world.h"
#include "stats.h"
#include "workload/catalog.h"
#include "workload/request_gen.h"
#include "workload/user_model.h"

namespace {

using namespace odr;
namespace pb = perfbench;
using Clock = std::chrono::steady_clock;

// --- workload shapes ---------------------------------------------------------
// Why each workload exists, and why these sizes, is in NOTES.md.
constexpr double kCloudDivisor = 100.0;
// The week the program's calibration targets (obs::paper_calibration_targets,
// EXPERIMENTS.md) were fitted on, and the benchmark's default seed. The
// program gates calibration at this seed only; across seeds it reports the
// spread (bench/robustness_seeds), and so does the benchmark.
constexpr std::uint64_t kCalibratedSeed = 20151028;
constexpr double kOdrDivisor = 100.0;
constexpr double kResumeDivisor = 200.0;
constexpr int kResumeChaosLevel = 3;
constexpr SimTime kSaveEvery = 12 * kHour;
constexpr int kResumeFromSave = 7;  // the 84 h save: mid-week
constexpr double kServeDivisor = 200.0;
constexpr SimTime kServeSpan = 48 * kHour;
constexpr double kServeBaseRate = 0.1;  // tasks/s before diurnal and flash
// serve_load's divisor-4000 service shape (64 slots, 256 queue) scaled by
// 4000 / 200.
constexpr std::size_t kServeInflight = 1280;
constexpr std::size_t kServeQueue = 5120;
// Events run between two looks at the clock when the benchmark drives a
// CloudWorld in chunks (untraced), and the tombstone sampling stride when
// it steps one event at a time (traced).
constexpr std::uint64_t kChunkEvents = 4096;
// Weeks in each workload's timed panel: as many as one pass through takes
// about 20 s of a 4-vCPU Xeon's CPU time.
constexpr int kCloudPanel = 5;
constexpr int kOdrPanel = 8;
constexpr int kResumePanel = 11;
constexpr int kServePanel = 14;
constexpr std::size_t kSetupsPerWeek = 3;
// Peak RSS is read after this many weeks of the panel. The high-water mark
// after the whole panel spread several times wider over seeds (odr_week:
// 0.020 against 0.002-0.004 after two weeks).
constexpr int kRssWeeks = 2;

const char* const kWorkloads[] = {"cloud_week", "odr_week", "resume_week", "serve_flash"};

// --- metric names ------------------------------------------------------------
struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"tasks_per_s", "tasks/s"},
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"sim.heap_peak", "count"},
    {"sim.tombstone_frac", "frac"},
    {"sim.other_event_share", "frac"},
    {"net.solver.runs", "count"},
    {"net.solver.iterations", "count"},
    {"net.iter_per_solve", "ratio"},
    {"net.iter_per_task", "ratio"},
    {"net.solves_per_flow", "ratio"},
    {"net.flows.started", "count"},
    {"net.flows.cancelled", "count"},
    {"net.component_flows_mean", "flows"},
    {"net.component_flows_p99", "flows"},
    {"net.component_flows_top_bin_frac", "frac"},
    {"net.solve_event_share", "frac"},
    {"proto.swarm.ticks", "count"},
    {"proto.tick_event_share", "frac"},
    {"workload.build_s", "s"},
    {"workload.requests", "count"},
    {"cloud.warm_s", "s"},
    {"cloud.pool.hit_ratio", "ratio"},
    {"cloud.vm.tasks_started", "count"},
    {"cloud.upload.reject_frac", "frac"},
    {"ap.predownloads", "count"},
    {"ap.task_share", "frac"},
    {"core.budget.denied_frac", "frac"},
    {"task.hedge.pairs", "count"},
    {"task.hedge.waste_bytes", "bytes"},
    {"core.executor.reroutes", "count"},
    {"serve.shed_frac", "frac"},
    {"serve.drop_frac", "frac"},
    {"serve.queue_peak", "count"},
    {"serve.inflight_peak", "count"},
    {"serve.p99_s", "sim_s"},
    {"fault.activations", "count"},
    {"cloud.vm.retries", "count"},
    {"snapshot.save_ms_p50", "ms"},
    {"snapshot.save_ms_max", "ms"},
    {"snapshot.save_mb_per_s", "MB/s"},
    {"snapshot.bytes", "bytes"},
    {"snapshot.audit_ms", "ms"},
    {"snapshot.load_s", "s"},
    {"snapshot.restore_s", "s"},
    {"analysis.finalize_s", "s"},
    {"analysis.success_ratio", "ratio"},
    {"analysis.calib_pass_frac", "frac"},
    {"analysis.calib_drift", "ratio"},
    {"analysis.odr_impeded_frac", "frac"},
    {"analysis.odr_fetch_p50_kbps", "KBps"},
    {"obs.trace_overhead_frac", "frac"},
    {"bench.check_fail_frac", "frac"},
};

// --- command line ------------------------------------------------------------
struct Args {
  std::string workload;
  std::uint64_t seed = kCalibratedSeed;
  std::uint64_t seconds = 0;  // required: BENCHMARK.json's run_seconds sets it
  bool trace = false;
  std::string spans_out;  // <--spans-dir>/<workload>-<seed>.json
};

bool parse_uint(const std::string& text, std::uint64_t lo, std::uint64_t hi,
                std::uint64_t& out) {
  if (text.empty() || text[0] == '+' || text[0] == '-') return false;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end && out >= lo && out <= hi;
}

int usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <cloud_week|odr_week|resume_week|"
               "serve_flash> --seconds 1..600 [--seed N>=1] [--trace 0|1] "
               "[--spans-dir DIR]\n",
               why.c_str());
  return 1;
}

// Returns 0 on success, otherwise the exit code for a rejected command line.
int parse_args(int argc, char** argv, Args& a) {
  std::set<std::string> seen;
  std::string spans_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" &&
        flag != "--trace" && flag != "--spans-dir") {
      return usage("unknown argument '" + flag + "'");
    }
    if (!seen.insert(flag).second) return usage(flag + " given twice");
    if (i + 1 >= argc) return usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      if (!parse_uint(value, 1, UINT64_MAX, a.seed)) {
        return usage("--seed must be a whole number >= 1, got '" + value + "'");
      }
    } else if (flag == "--seconds") {
      if (!parse_uint(value, 1, 600, a.seconds)) {
        return usage("--seconds must be a whole number in 1..600, got '" + value + "'");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        return usage("--trace must be 0 or 1, got '" + value + "'");
      }
      a.trace = value == "1";
    } else {
      if (value.empty()) return usage("--spans-dir needs a directory");
      spans_dir = value;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || a.workload == w;
  if (!known) return usage("--workload must name one workload, got '" + a.workload + "'");
  if (a.seconds == 0) return usage("--seconds is required");
  if (!spans_dir.empty()) {
    a.spans_out = spans_dir + "/" + a.workload + "-" + std::to_string(a.seed) + ".json";
  }
  return 0;
}

// --- results and checks ------------------------------------------------------
double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::int64_t ns_since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin).count();
}

class Report {
 public:
  // Every correctness check belongs to one simulated run; a run with any
  // failed check counts once into `failed`.
  void begin_run(std::string label) {
    end_run();
    label_ = std::move(label);
    open_ = true;
    ++attempted_;
  }
  void check(bool ok, const std::string& what) {
    ++checks_;
    if (ok) return;
    failures_.push_back(label_ + ": " + what);
    run_failed_ = true;
  }
  void end_run() {
    if (open_ && run_failed_) ++failed_;
    open_ = false;
    run_failed_ = false;
  }

  void set(const std::string& name, double value, std::size_t n = 1) {
    values_[name] = {value, n};
  }
  void set(const std::string& name, const pb::Quantile& q) { set(name, q.value, q.n); }

  // Prints the human-readable lines, then the result as the last line.
  void emit(bool layer) {
    end_run();
    set("bench.check_fail_frac",
        pb::ratio(static_cast<double>(failed_), static_cast<double>(attempted_)));
    const bool correct = failed_ == 0 && attempted_ > 0;
    std::string json;
    json.append("{\"correct\": ").append(correct ? "true" : "false");
    json.append(", \"attempted\": ").append(std::to_string(attempted_));
    json.append(", \"failed\": ").append(std::to_string(failed_));
    json.append(", \"metrics\": {");
    bool first = true;
    auto put = [&](const MetricSpec& m) {
      const auto it = values_.find(m.name);
      const Value v = it == values_.end() ? Value{} : it->second;
      const std::string value = fmt(v.value);
      std::printf("  %-34s %22s %-8s n=%zu\n", m.name, value.c_str(), m.unit, v.n);
      json.append(first ? "\"" : ", \"").append(m.name).append("\": {\"value\": ");
      json.append(value).append(", \"unit\": \"").append(m.unit).append("\"}");
      first = false;
    };
    std::printf("%s metrics:\n", layer ? "per-layer" : "end-to-end");
    if (layer) {
      for (const MetricSpec& m : kPerLayer) put(m);
    } else {
      for (const MetricSpec& m : kEndToEnd) put(m);
    }
    std::printf("checks: %zu evaluated over %llu runs, %llu runs failed (check_fail_frac %s)\n",
                checks_, static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_),
                fmt(pb::ratio(static_cast<double>(failed_), static_cast<double>(attempted_)))
                    .c_str());
    for (const std::string& f : failures_) std::printf("CHECK FAILED %s\n", f.c_str());
    json.append("}}");
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
  }

 private:
  struct Value {
    double value = 0.0;
    std::size_t n = 0;
  };
  static std::string fmt(double v) {
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
  }

  std::map<std::string, Value> values_;
  std::vector<std::string> failures_;
  std::string label_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::size_t checks_ = 0;
  bool open_ = false, run_failed_ = false;
};

// Each task id in 1..n settles exactly once.
template <class Outcome>
bool settles_once(const std::vector<Outcome>& outcomes, std::size_t submitted) {
  if (outcomes.size() != submitted) return false;
  std::vector<char> seen(submitted + 1, 0);
  for (const Outcome& o : outcomes) {
    if (o.task_id < 1 || o.task_id > submitted || seen[o.task_id]) return false;
    seen[o.task_id] = 1;
  }
  return true;
}

void check_cloud_result(Report& rep, const analysis::CloudReplayResult& r) {
  rep.check(!r.requests.empty(), "the week submitted no tasks");
  rep.check(settles_once(r.outcomes, r.requests.size()),
            "task conservation: " + std::to_string(r.outcomes.size()) + " outcomes for " +
                std::to_string(r.requests.size()) + " submitted tasks");
}

double cloud_success_ratio(const analysis::CloudReplayResult& r) {
  std::size_t ok = 0;
  for (const cloud::TaskOutcome& o : r.outcomes) ok += o.fetched ? 1 : 0;
  return pb::ratio(static_cast<double>(ok), static_cast<double>(r.outcomes.size()));
}

// --- observer and calibration -------------------------------------------------
obs::ObsConfig quiet_obs(bool calibration) {
  obs::ObsConfig c;
  c.tracing = false;
  c.dump_on_audit_failure = false;
  c.dump_on_fault_fired = false;
  c.dump_on_bench_abort = false;
  c.dump_on_overload = false;
  c.max_auto_dumps = 0;
  c.sample_period = 0;
  c.calibration = calibration;
  c.spans = calibration;
  return c;
}

pb::CalibScore calib_score(const obs::Observer& o) {
  std::vector<pb::DriftRow> rows;
  if (const obs::CalibrationMonitor* m = o.calibration()) {
    for (const obs::CalibrationRow& r : m->report().rows) {
      pb::DriftRow d;
      d.estimate = r.estimate;
      d.target = r.spec.target;
      d.tolerance = r.spec.tolerance;
      d.gated = r.spec.gated;
      d.enough_samples = r.status != obs::CalibrationRow::Status::kNa;
      d.pass = r.status == obs::CalibrationRow::Status::kPass;
      rows.push_back(d);
    }
  }
  return pb::calib_score(rows);
}

// The gated calibration rows with enough samples that read outside their band.
std::vector<std::string> drifted_rows(const obs::Observer& o) {
  std::vector<std::string> drifted;
  if (const obs::CalibrationMonitor* m = o.calibration()) {
    for (const obs::CalibrationRow& r : m->report().rows) {
      if (r.spec.gated && r.status == obs::CalibrationRow::Status::kDrift) {
        drifted.push_back("calibration row " + r.spec.key + " drifted: estimate " +
                          std::to_string(r.estimate) + " vs target " +
                          std::to_string(r.spec.target) + " +- " +
                          std::to_string(r.spec.tolerance));
      }
    }
  }
  return drifted;
}

// Every gated calibration row with enough samples must PASS.
void check_calibration(Report& rep, const obs::Observer& o, const pb::CalibScore& s) {
  rep.check(s.gated_rows > 0, "no gated calibration row had enough samples");
  for (const std::string& d : drifted_rows(o)) rep.check(false, d);
}

// Gates calibration on the calibrated week. `o` observed the --seed week
// of cloud_week; at the calibrated seed its rows are gated, at any other
// seed they are printed and the calibrated week runs once more to be
// gated. Call it last: it may open a run in `rep`.
void check_calibrated_week(Report& rep, std::uint64_t seed, const obs::Observer& o) {
  if (seed == kCalibratedSeed) {
    check_calibration(rep, o, calib_score(o));
    return;
  }
  for (const std::string& d : drifted_rows(o)) {
    std::printf("seed %llu, reported and not gated: %s\n",
                static_cast<unsigned long long>(seed), d.c_str());
  }
  rep.begin_run("cloud_week calibrated week (seed " + std::to_string(kCalibratedSeed) + ")");
  obs::ScopedObserver co(quiet_obs(true));
  const analysis::CloudReplayResult r =
      analysis::run_cloud_replay(analysis::make_scaled_config(kCloudDivisor, kCalibratedSeed));
  check_cloud_result(rep, r);
  check_calibration(rep, *co, calib_score(*co));
}

// --- traced-run helpers ---------------------------------------------------------
// Span recorder for the traced run. Run ids: 0 is the standalone build,
// 1 the traced world, 2 the world restored from a checkpoint.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  void set_run(int run) { run_ = run; }
  int open(const std::string& name) { return log_.open(name, ns_since(origin_), run_); }
  void close(int id) { log_.close(id, ns_since(origin_)); }
  template <class F>
  auto span(const std::string& name, F&& f) {
    const int id = open(name);
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      close(id);
    } else {
      auto r = f();
      close(id);
      return r;
    }
  }
  const pb::SpanLog& log() const { return log_; }
  double median_s(const std::string& name) const { return pb::median(log_.seconds_of(name)).value; }

  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"schema\": \"perfbench.spans.v1\", \"spans\": [";
    const auto& spans = log_.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const pb::Span& s = spans[i];
      out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
          << ", \"parent\": " << s.parent << ", \"run\": " << s.run
          << ", \"self_ns\": " << log_.self_ns(i) << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  Clock::time_point origin_;
  int run_ = 0;
  pb::SpanLog log_;
};

std::uint64_t counter(const obs::Observer& o, const char* name) {
  const obs::Counter* c = o.metrics().find_counter(name);
  return c ? c->value() : 0;
}

// Registry-derived per-layer counts shared by every workload.
void report_registry(Report& rep, const obs::Observer& o, std::uint64_t tasks) {
  const double runs = static_cast<double>(counter(o, "net.solver.runs"));
  const double iters = static_cast<double>(counter(o, "net.solver.iterations"));
  const double flows = static_cast<double>(counter(o, "net.flows.started"));
  rep.set("sim.events", static_cast<double>(counter(o, "sim.events.executed")));
  rep.set("net.solver.runs", runs);
  rep.set("net.solver.iterations", iters);
  rep.set("net.iter_per_solve", pb::ratio(iters, runs));
  rep.set("net.iter_per_task", pb::ratio(iters, static_cast<double>(tasks)));
  rep.set("net.solves_per_flow", pb::ratio(runs, flows));
  rep.set("net.flows.started", flows);
  rep.set("net.flows.cancelled", static_cast<double>(counter(o, "net.flows.cancelled")));
  if (const Histogram* h = o.metrics().find_histogram("net.solver.component_flows")) {
    // Every solve re-times each member flow's completion, so the mean
    // component size is also completion reschedules per solve. The
    // histogram has 8-flow bins, so the mean is taken at bin midpoints.
    const double n = static_cast<double>(h->total_count());
    double flows_sum = 0.0;
    for (std::size_t i = 0; i < h->bins(); ++i) {
      flows_sum += static_cast<double>(h->bin_count(i)) * 0.5 * (h->bin_lo(i) + h->bin_hi(i));
    }
    rep.set("net.component_flows_mean", pb::ratio(flows_sum, n), h->total_count());
    rep.set("net.component_flows_p99", h->quantile(0.99), h->total_count());
    rep.set("net.component_flows_top_bin_frac",
            pb::ratio(static_cast<double>(h->bin_count(h->bins() - 1)), n), h->total_count());
  }
  rep.set("proto.swarm.ticks", static_cast<double>(counter(o, "proto.swarm.ticks")));
  rep.set("workload.requests", static_cast<double>(tasks));
  const double hits = static_cast<double>(counter(o, "cloud.pool.hits"));
  const double misses = static_cast<double>(counter(o, "cloud.pool.misses"));
  rep.set("cloud.pool.hit_ratio", pb::ratio(hits, hits + misses));
  rep.set("cloud.vm.tasks_started", static_cast<double>(counter(o, "cloud.vm.tasks.started")));
  const double rejected = static_cast<double>(counter(o, "cloud.upload.rejected"));
  const double admitted = static_cast<double>(counter(o, "cloud.upload.admitted"));
  rep.set("cloud.upload.reject_frac", pb::ratio(rejected, rejected + admitted));
  rep.set("ap.predownloads", static_cast<double>(counter(o, "ap.predownloads.submitted")));
  const double granted = static_cast<double>(counter(o, "core.budget.granted"));
  const double denied = static_cast<double>(counter(o, "core.budget.denied"));
  rep.set("core.budget.denied_frac", pb::ratio(denied, granted + denied));
  rep.set("task.hedge.pairs", static_cast<double>(counter(o, "task.hedge.pairs")));
  rep.set("task.hedge.waste_bytes", static_cast<double>(counter(o, "task.hedge.wasted_bytes")));
  rep.set("core.executor.reroutes", static_cast<double>(counter(o, "core.executor.reroutes")));
  rep.set("fault.activations", static_cast<double>(counter(o, "fault.activations")));
  rep.set("cloud.vm.retries", static_cast<double>(counter(o, "cloud.vm.retries")));
  const pb::CalibScore s = calib_score(o);
  rep.set("analysis.calib_pass_frac", s.pass_frac, s.gated_rows);
  rep.set("analysis.calib_drift", s.drift, s.gated_rows);
}

// The build every replay performs before its first event, called
// piecewise so the traced run can time the workload and warm-up layers:
// catalog, users, request trace, then a cloud warmed with the preceding
// weeks. Returns the number of requests the trace holds.
std::size_t traced_build(Tracer& tr, const analysis::ExperimentConfig& config, Rate user_cap,
                         bool generate) {
  sim::Simulator sim;
  net::Network net(sim);
  Rng rng(config.seed);
  std::optional<workload::Catalog> catalog;
  std::vector<workload::WorkloadRecord> requests;
  tr.span("workload.build", [&] {
    catalog.emplace(config.catalog, rng);
    workload::UserModelParams users_params = config.users;
    if (user_cap > 0) users_params.bandwidth_max = std::min(users_params.bandwidth_max, user_cap);
    workload::UserPopulation users(users_params, rng);
    if (generate) {
      requests = workload::RequestGenerator(config.requests).generate(*catalog, users, rng);
    }
  });
  tr.span("cloud.warm", [&] {
    cloud::XuanfengCloud cloud(sim, net, *catalog, config.sources, config.cloud, rng);
    Rng warm_rng = rng.fork();
    analysis::warm_cloud_for_replay(cloud, *catalog, config.requests.num_requests,
                                    config.warmup_weeks, warm_rng);
  });
  return requests.size();
}

// Steps a CloudWorld one event at a time, booking each event's host time
// to net / proto / other from the counters it moved. `between` runs after
// every event with the world (for checkpoint cadences).
struct StepStats {
  pb::EventShare share;
  std::size_t heap_peak = 0;
  std::vector<double> tombstone_samples;
};

void step_world(snapshot::CloudWorld& world, obs::Observer& o, StepStats& st,
                const std::function<void()>& between) {
  // Cached once: the registry's references stay valid for its lifetime.
  const obs::Counter& solves = o.metrics().counter("net.solver.runs");
  const obs::Counter& ticks = o.metrics().counter("proto.swarm.ticks");
  std::uint64_t n = 0;
  while (world.sim().has_pending()) {
    const std::uint64_t s0 = solves.value(), t0 = ticks.value();
    const auto a = Clock::now();
    world.run(1);
    const auto b = Clock::now();
    st.share.book(std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count(),
                  solves.value() != s0, ticks.value() != t0);
    const sim::Simulator& sim = world.sim();
    st.heap_peak = std::max(st.heap_peak, sim.heap_size());
    if (++n % kChunkEvents == 0 && sim.heap_size() > 0) {
      st.tombstone_samples.push_back(
          pb::ratio(static_cast<double>(sim.heap_size() - sim.pending_count()),
                    static_cast<double>(sim.heap_size())));
    }
    if (between) between();
  }
}

void report_steps(Report& rep, const StepStats& st) {
  rep.set("net.solve_event_share", st.share.share(pb::EventShare::kNet),
          st.share.events(pb::EventShare::kNet));
  rep.set("proto.tick_event_share", st.share.share(pb::EventShare::kProto),
          st.share.events(pb::EventShare::kProto));
  rep.set("sim.other_event_share", st.share.share(pb::EventShare::kOther),
          st.share.events(pb::EventShare::kOther));
  rep.set("sim.heap_peak", static_cast<double>(st.heap_peak));
  rep.set("sim.tombstone_frac", pb::median(st.tombstone_samples));
}

// --- timed instances ---------------------------------------------------------
// Host time in the timed runs is the CPU time of the benchmark's one
// thread: on a shared machine, time the thread spends descheduled is not
// the program's cost.
double cpu_seconds() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) + 1e-9 * static_cast<double>(t.tv_nsec);
}

// Seed of week w of the timed panel. Week 0 is the --seed week itself; the
// others are further weeks drawn from it (splitmix64). How long a week
// takes to simulate depends on its seed (cloud_week's ranges 2.9-5.3 s over
// seeds 1-12), so a run times a panel of weeks and reports their median
// rather than the cost of one week's particular shape.
std::uint64_t week_seed(std::uint64_t seed, int w) {
  if (w == 0) return seed;
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(w);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

std::string instance_label(const char* workload, int k, std::uint64_t seed) {
  return std::string(workload) + " instance " + std::to_string(k) + " (seed " +
         std::to_string(seed) + ")";
}

double mib(std::size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

// What one timed instance measured.
struct Sample {
  double setup_s = 0.0;      // CPU s from config to the first event
  double tasks_per_s = 0.0;  // tasks settled per CPU s of the event loop
  std::uint64_t fingerprint = 0;
};

// Runs the panel's weeks in turn, instance k on week k % panel, until every
// week has run once and --seconds of wall time have passed. instance(k,
// seed) runs one week, opens its run in `rep`, and returns what it
// measured; a repeated week must give its first run's fingerprint.
// setup_only(seed) builds a week's world and returns its set-up CPU
// seconds; it tops every week up to kSetupsPerWeek set-up samples.
// tasks_per_s and setup_s are medians over the weeks of each week's median,
// and peak RSS is read after the first kRssWeeks weeks, so all three stand
// for the same weeks on every host. Returns the --seed week's fingerprint.
std::uint64_t run_timed(const Args& args, int panel, Report& rep,
                        const std::function<Sample(int, std::uint64_t)>& instance,
                        const std::function<double(std::uint64_t)>& setup_only) {
  std::vector<std::vector<double>> setup(panel), rate(panel);
  std::vector<std::uint64_t> fingerprint(panel);
  std::size_t rss = 0;
  const auto start = Clock::now();
  int k = 0;
  for (; k < panel || seconds_between(start, Clock::now()) < static_cast<double>(args.seconds);
       ++k) {
    const int w = k % panel;
    const Sample s = instance(k, week_seed(args.seed, w));
    std::printf("instance %d (week %d): %.1f tasks/s, set-up %.4f s\n", k, w, s.tasks_per_s,
                s.setup_s);
    setup[w].push_back(s.setup_s);
    rate[w].push_back(s.tasks_per_s);
    if (k < panel) {
      fingerprint[w] = s.fingerprint;
    } else {
      rep.check(s.fingerprint == fingerprint[w],
                "week " + std::to_string(w) + " repeated with another fingerprint");
    }
    if (k + 1 == kRssWeeks) rss = run::peak_rss_bytes();
  }
  const double wall = seconds_between(start, Clock::now());
  for (int w = 0; w < panel; ++w) {
    while (setup[w].size() < kSetupsPerWeek) setup[w].push_back(setup_only(week_seed(args.seed, w)));
  }
  rep.set("tasks_per_s", pb::median_of_medians(rate));
  rep.set("setup_s", pb::median_of_medians(setup));
  rep.set("peak_rss_mib", mib(rss), static_cast<std::size_t>(kRssWeeks));
  std::printf("%s: %d timed instances of %d weeks in %.2f s of wall time\n", args.workload.c_str(),
              k, panel, wall);
  return fingerprint[0];
}

snapshot::WorldOptions world_options() {
  snapshot::WorldOptions o;
  o.checkpoint_period = 0;  // the benchmark drives its own save cadence
  o.audit_at_checkpoint = false;
  return o;
}

// The untraced reference obs.trace_overhead_frac divides by: the faster of
// two plain runs, so the first run's cold heap is not booked as tracing
// overhead. `plain` runs the workload once and returns the host seconds of
// its event loop; the faster run's loop time comes back in `loop_s`.
double untraced_reference(const std::function<double()>& plain, double& loop_s) {
  double best = 0.0;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    const double loop = plain();
    const double wall = seconds_between(t0, Clock::now());
    if (i == 0 || wall < best) {
      best = wall;
      loop_s = loop;
    }
  }
  return best;
}

// ============================================================================
// cloud_week: the exact §4 cloud week at divisor 100 on CloudWorld.
// ============================================================================
void cloud_week(const Args& args, Report& rep) {
  const analysis::ExperimentConfig config = analysis::make_scaled_config(kCloudDivisor, args.seed);
  if (!args.trace) {
    auto config_of = [](std::uint64_t seed) {
      return analysis::make_scaled_config(kCloudDivisor, seed);
    };
    const std::uint64_t fp0 = run_timed(
        args, kCloudPanel, rep,
        [&](int k, std::uint64_t seed) {
          const double c0 = cpu_seconds();
          snapshot::CloudWorld world(config_of(seed), world_options());
          const double c1 = cpu_seconds();
          world.run();
          const double c2 = cpu_seconds();
          const analysis::CloudReplayResult r = world.finalize();
          rep.begin_run(instance_label("cloud_week", k, seed));
          check_cloud_result(rep, r);
          return Sample{c1 - c0, static_cast<double>(r.outcomes.size()) / (c2 - c1),
                        analysis::outcome_fingerprint(r.outcomes)};
        },
        [&](std::uint64_t seed) {
          const double c0 = cpu_seconds();
          snapshot::CloudWorld world(config_of(seed), world_options());
          return cpu_seconds() - c0;
        });

    // After the timer: run_cloud_replay repeats the --seed week and must
    // reproduce CloudWorld's outcomes, and the calibrated week must stay
    // calibrated.
    rep.begin_run("cloud_week run_cloud_replay");
    obs::ScopedObserver o(quiet_obs(true));
    const analysis::CloudReplayResult r = analysis::run_cloud_replay(config);
    check_cloud_result(rep, r);
    rep.check(analysis::outcome_fingerprint(r.outcomes) == fp0,
              "run_cloud_replay fingerprint differs from CloudWorld's");
    check_calibrated_week(rep, args.seed, *o);
    return;
  }

  Tracer tr;
  std::uint64_t fp_plain = 0;
  double untraced_run = 0.0;
  const double untraced = untraced_reference(
      [&] {
        snapshot::CloudWorld world(config, world_options());
        const auto a = Clock::now();
        world.run();
        const double loop = seconds_between(a, Clock::now());
        fp_plain = analysis::outcome_fingerprint(world.finalize().outcomes);
        return loop;
      },
      untraced_run);

  const std::size_t built = traced_build(tr, config, 0.0, true);
  tr.set_run(1);
  obs::ScopedObserver o(quiet_obs(true));
  const auto t0 = Clock::now();
  const int root = tr.open("cloud_week");
  auto world = tr.span("snapshot.world_ctor",
                       [&] { return std::make_unique<snapshot::CloudWorld>(config, world_options()); });
  StepStats st;
  const int run_span = tr.open("cloud_world.run");
  step_world(*world, *o, st, nullptr);
  tr.close(run_span);
  const analysis::CloudReplayResult r = tr.span("analysis.finalize", [&] { return world->finalize(); });
  tr.close(root);
  const double traced = seconds_between(t0, Clock::now());

  rep.begin_run("cloud_week traced");
  check_cloud_result(rep, r);
  rep.check(analysis::outcome_fingerprint(r.outcomes) == fp_plain,
            "traced fingerprint differs from the untraced run's");
  rep.check(built == r.requests.size(), "standalone build generated a different trace");

  report_registry(rep, *o, r.outcomes.size());
  report_steps(rep, st);
  rep.set("sim.ns_per_event", pb::ratio(untraced_run * 1e9,
                                        static_cast<double>(counter(*o, "sim.events.executed"))));
  rep.set("analysis.success_ratio", cloud_success_ratio(r), r.outcomes.size());
  rep.set("workload.build_s", tr.median_s("workload.build"));
  rep.set("cloud.warm_s", tr.median_s("cloud.warm"));
  rep.set("analysis.finalize_s", tr.median_s("analysis.finalize"));
  rep.set("obs.trace_overhead_frac", traced / untraced - 1.0);
  rep.check(tr.write(args.spans_out), "could not write spans to " + args.spans_out);
  check_calibrated_week(rep, args.seed, *o);
}

// ============================================================================
// odr_week: the §6 ODR strategy replay at divisor 100.
// ============================================================================
analysis::StrategyReplayConfig odr_config(std::uint64_t seed) {
  analysis::StrategyReplayConfig cfg;
  cfg.experiment = analysis::make_scaled_config(kOdrDivisor, seed);
  cfg.strategy = core::Strategy::kOdr;
  return cfg;
}

// The user-line clamp run_strategy_replay applies to the §6.2 testbed.
Rate odr_user_cap(const analysis::StrategyReplayConfig& cfg) {
  return cfg.premises_line_rate * kTransportEfficiency;
}

void check_odr_result(Report& rep, const analysis::StrategyReplayResult& r, std::size_t submitted) {
  rep.check(submitted > 0, "the week submitted no tasks");
  rep.check(settles_once(r.outcomes, submitted),
            "task conservation: " + std::to_string(r.outcomes.size()) + " outcomes for " +
                std::to_string(submitted) + " submitted tasks");
}

double odr_success_ratio(const analysis::StrategyReplayResult& r) {
  std::size_t ok = 0;
  for (const core::ExecOutcome& o : r.outcomes) ok += o.success ? 1 : 0;
  return pb::ratio(static_cast<double>(ok), static_cast<double>(r.outcomes.size()));
}

void odr_week(const Args& args, Report& rep) {
  const analysis::StrategyReplayConfig cfg = odr_config(args.seed);
  // run_strategy_replay builds and runs in one call, so its set-up is
  // timed by repeating the same build sequence standalone (catalog, users,
  // trace, cloud warm-up), which also yields the submitted-task count.
  auto standalone_setup = [](const analysis::StrategyReplayConfig& c, std::size_t& submitted) {
    Tracer tr;
    const double c0 = cpu_seconds();
    submitted = traced_build(tr, c.experiment, odr_user_cap(c), true);
    return cpu_seconds() - c0;
  };
  std::size_t submitted = 0;
  if (!args.trace) {
    const std::uint64_t fp0 = run_timed(
        args, kOdrPanel, rep,
        [&](int k, std::uint64_t seed) {
          const analysis::StrategyReplayConfig c = odr_config(seed);
          const double setup = standalone_setup(c, submitted);
          const double c0 = cpu_seconds();
          const analysis::StrategyReplayResult r = analysis::run_strategy_replay(c);
          const double loop = cpu_seconds() - c0;
          rep.begin_run(instance_label("odr_week", k, seed));
          check_odr_result(rep, r, submitted);
          return Sample{setup, static_cast<double>(r.outcomes.size()) / loop,
                        analysis::exec_outcome_fingerprint(r.outcomes)};
        },
        [&](std::uint64_t seed) { return standalone_setup(odr_config(seed), submitted); });

    // After the timer: the --seed week again, outcome for outcome.
    rep.begin_run("odr_week repeat");
    std::size_t want = 0;
    standalone_setup(cfg, want);
    const analysis::StrategyReplayResult r = analysis::run_strategy_replay(cfg);
    check_odr_result(rep, r, want);
    rep.check(analysis::exec_outcome_fingerprint(r.outcomes) == fp0,
              "same-seed fingerprint differs between two runs");
    return;
  }

  Tracer tr;
  std::uint64_t fp_plain = 0;
  double untraced_run = 0.0;
  const double untraced = untraced_reference(
      [&] {
        const auto a = Clock::now();
        fp_plain = analysis::exec_outcome_fingerprint(analysis::run_strategy_replay(cfg).outcomes);
        return seconds_between(a, Clock::now());
      },
      untraced_run);

  submitted = traced_build(tr, cfg.experiment, odr_user_cap(cfg), true);
  tr.set_run(1);
  obs::ScopedObserver o(quiet_obs(true));
  const auto t0 = Clock::now();
  const analysis::StrategyReplayResult r =
      tr.span("analysis.run_strategy_replay", [&] { return analysis::run_strategy_replay(cfg); });
  const double traced = seconds_between(t0, Clock::now());

  rep.begin_run("odr_week traced");
  check_odr_result(rep, r, submitted);
  rep.check(analysis::exec_outcome_fingerprint(r.outcomes) == fp_plain,
            "traced fingerprint differs from the untraced run's");
  // The calibration table holds the §4 cloud-week and §5 AP-testbed
  // targets. ODR routes about half the week away from the cloud and the
  // unpopular files away from the APs, which moves those marginals by
  // design, so here the rows are reported (analysis.calib_*) but not gated.

  report_registry(rep, *o, r.outcomes.size());
  // One call runs the whole week, so here ns per event is over the whole
  // untraced call, set-up included.
  rep.set("sim.ns_per_event", pb::ratio(untraced_run * 1e9,
                                        static_cast<double>(counter(*o, "sim.events.executed"))));
  std::size_t on_ap = 0;
  for (const core::ExecOutcome& x : r.outcomes) {
    on_ap += (x.route == core::Route::kSmartAp || x.route == core::Route::kCloudThenSmartAp) ? 1 : 0;
  }
  rep.set("ap.task_share", pb::ratio(static_cast<double>(on_ap), static_cast<double>(r.outcomes.size())),
          r.outcomes.size());
  rep.set("analysis.success_ratio", odr_success_ratio(r), r.outcomes.size());
  const analysis::StrategyMetrics m = analysis::strategy_metrics(
      "odr", r.outcomes, r.duration, r.cloud_capacity, r.storage_throttled_fraction);
  rep.set("analysis.odr_impeded_frac", m.impeded_fraction, r.outcomes.size());
  rep.set("analysis.odr_fetch_p50_kbps", m.fetch_speed_kbps.summary().median,
          m.fetch_speed_kbps.summary().count);
  rep.set("workload.build_s", tr.median_s("workload.build"));
  rep.set("cloud.warm_s", tr.median_s("cloud.warm"));
  rep.set("obs.trace_overhead_frac", traced / untraced - 1.0);
  rep.check(tr.write(args.spans_out), "could not write spans to " + args.spans_out);
}

// ============================================================================
// resume_week: the §4 week at divisor 200 under chaos plan 3, saved and
// audited every 12 simulated hours, then resumed from the mid-week save.
// ============================================================================
analysis::ExperimentConfig resume_config(std::uint64_t seed) {
  analysis::ExperimentConfig config = analysis::make_scaled_config(kResumeDivisor, seed);
  config.fault_plan = fault::make_chaos_plan(kResumeChaosLevel);
  return config;
}

// Checkpoint cadence driven from outside the world: after each run slice,
// once simulated time has passed the next 12 h mark, save the world to a
// buffer and audit it. Saves land on the first slice boundary after each
// mark, which is a pure function of the seed.
class SaveCadence {
 public:
  SaveCadence(Report& rep, Tracer* tr) : rep_(rep), tr_(tr) {}

  void after_slice(const snapshot::CloudWorld& world) {
    if (world.sim().now() < next_) return;
    next_ += kSaveEvery;
    ++saves_;
    const auto t0 = Clock::now();
    const int save_span = tr_ ? tr_->open("snapshot.save_to_buffer") : -1;
    std::string buf = world.save_to_buffer();
    if (tr_) tr_->close(save_span);
    const auto t1 = Clock::now();
    const int audit_span = tr_ ? tr_->open("snapshot.audit") : -1;
    const std::vector<std::string> problems = snapshot::audit(world);
    if (tr_) tr_->close(audit_span);
    save_ms_.push_back(seconds_between(t0, t1) * 1e3);
    bytes_.push_back(static_cast<double>(buf.size()));
    rep_.check(problems.empty(), "audit at save " + std::to_string(saves_) + ": " +
                                     (problems.empty() ? std::string() : problems.front()));
    if (saves_ == kResumeFromSave) mid_ = std::move(buf);
  }

  const std::string& mid_buffer() const { return mid_; }
  const std::vector<double>& save_ms() const { return save_ms_; }
  const std::vector<double>& bytes() const { return bytes_; }

 private:
  Report& rep_;
  Tracer* tr_;
  SimTime next_ = kSaveEvery;
  int saves_ = 0;
  std::string mid_;
  std::vector<double> save_ms_, bytes_;
};

void run_in_slices(snapshot::CloudWorld& world, SaveCadence& cadence) {
  while (world.sim().has_pending()) {
    world.run(kChunkEvents);
    cadence.after_slice(world);
  }
}

void resume_week(const Args& args, Report& rep) {
  const analysis::ExperimentConfig config = resume_config(args.seed);
  // Restores the mid-week buffer into a second world and runs it out; the
  // outcome must equal the uninterrupted run's. Returns the restore time.
  auto resume_from = [&](const analysis::ExperimentConfig& c, const std::string& buf,
                         std::uint64_t want_fp, Tracer* tr) {
    rep.check(!buf.empty(), "the week ended before the mid-week save");
    if (buf.empty()) return 0.0;
    if (tr) tr->set_run(2);
    const auto t0 = Clock::now();
    const int span = tr ? tr->open("snapshot.restore_ctor") : -1;
    snapshot::CloudWorld resumed(c, world_options(), buf);
    if (tr) tr->close(span);
    const double restore_s = seconds_between(t0, Clock::now());
    const int run_span = tr ? tr->open("cloud_world.run_resumed") : -1;
    resumed.run();
    if (tr) tr->close(run_span);
    const analysis::CloudReplayResult r = resumed.finalize();
    check_cloud_result(rep, r);
    rep.check(analysis::outcome_fingerprint(r.outcomes) == want_fp,
              "resumed run's fingerprint differs from the uninterrupted run's");
    return restore_s;
  };

  if (!args.trace) {
    const std::uint64_t fp0 = run_timed(
        args, kResumePanel, rep,
        [&](int k, std::uint64_t seed) {
          const analysis::ExperimentConfig c = resume_config(seed);
          rep.begin_run(instance_label("resume_week", k, seed));
          SaveCadence cadence(rep, nullptr);
          const double c0 = cpu_seconds();
          auto world = std::make_unique<snapshot::CloudWorld>(c, world_options());
          const double c1 = cpu_seconds();
          run_in_slices(*world, cadence);
          const double c2 = cpu_seconds();
          const analysis::CloudReplayResult r = world->finalize();
          world.reset();
          check_cloud_result(rep, r);
          const std::uint64_t fp = analysis::outcome_fingerprint(r.outcomes);
          resume_from(c, cadence.mid_buffer(), fp, nullptr);
          return Sample{c1 - c0, static_cast<double>(r.outcomes.size()) / (c2 - c1), fp};
        },
        [&](std::uint64_t seed) {
          const double c0 = cpu_seconds();
          snapshot::CloudWorld world(resume_config(seed), world_options());
          return cpu_seconds() - c0;
        });

    // After the timer: the --seed week again, uninterrupted.
    rep.begin_run("resume_week repeat");
    snapshot::CloudWorld world(config, world_options());
    world.run();
    const analysis::CloudReplayResult r = world.finalize();
    check_cloud_result(rep, r);
    rep.check(analysis::outcome_fingerprint(r.outcomes) == fp0,
              "same-seed fingerprint differs between two runs");
    return;
  }

  Tracer tr;
  std::uint64_t fp_plain = 0;
  double untraced_run = 0.0;
  const double untraced = untraced_reference(
      [&] {
        Report unchecked;  // the traced run below repeats these checks
        SaveCadence cadence(unchecked, nullptr);
        snapshot::CloudWorld world(config, world_options());
        const auto a = Clock::now();
        run_in_slices(world, cadence);
        const double loop = seconds_between(a, Clock::now());
        fp_plain = analysis::outcome_fingerprint(world.finalize().outcomes);
        return loop;
      },
      untraced_run);

  traced_build(tr, config, 0.0, true);
  tr.set_run(1);
  obs::ScopedObserver o(quiet_obs(false));
  rep.begin_run("resume_week traced");
  SaveCadence cadence(rep, &tr);
  const auto t0 = Clock::now();
  const int root = tr.open("resume_week");
  auto world = tr.span("snapshot.world_ctor",
                       [&] { return std::make_unique<snapshot::CloudWorld>(config, world_options()); });
  StepStats st;
  std::uint64_t stepped = 0;
  const int run_span = tr.open("cloud_world.run");
  step_world(*world, *o, st, [&] {
    if (++stepped % kChunkEvents == 0 || !world->sim().has_pending()) cadence.after_slice(*world);
  });
  tr.close(run_span);
  const analysis::CloudReplayResult r = tr.span("analysis.finalize", [&] { return world->finalize(); });
  world.reset();
  tr.close(root);
  const double traced = seconds_between(t0, Clock::now());
  const std::uint64_t fp = analysis::outcome_fingerprint(r.outcomes);
  check_cloud_result(rep, r);
  rep.check(fp == fp_plain, "traced fingerprint differs from the untraced run's");
  const double restore_s = resume_from(config, cadence.mid_buffer(), fp, &tr);

  report_registry(rep, *o, r.outcomes.size());
  report_steps(rep, st);
  rep.set("sim.ns_per_event", pb::ratio(untraced_run * 1e9,
                                        static_cast<double>(counter(*o, "sim.events.executed"))));
  rep.set("analysis.success_ratio", cloud_success_ratio(r), r.outcomes.size());
  rep.set("workload.build_s", tr.median_s("workload.build"));
  rep.set("cloud.warm_s", tr.median_s("cloud.warm"));
  rep.set("analysis.finalize_s", tr.median_s("analysis.finalize"));
  rep.set("snapshot.save_ms_p50", pb::median(cadence.save_ms()));
  rep.set("snapshot.save_ms_max", pb::max_of(cadence.save_ms()), cadence.save_ms().size());
  double total_bytes = 0.0, total_ms = 0.0;
  for (double b : cadence.bytes()) total_bytes += b;
  for (double ms : cadence.save_ms()) total_ms += ms;
  rep.set("snapshot.bytes", pb::median(cadence.bytes()));
  rep.set("snapshot.save_mb_per_s", pb::ratio(total_bytes / 1e6, total_ms / 1e3), cadence.bytes().size());
  const std::vector<double> audits = tr.log().seconds_of("snapshot.audit");
  std::vector<double> audit_ms;
  for (double a : audits) audit_ms.push_back(a * 1e3);
  rep.set("snapshot.audit_ms", pb::median(audit_ms));
  rep.set("snapshot.restore_s", restore_s);
  rep.set("snapshot.load_s", restore_s - tr.median_s("snapshot.world_ctor"));
  rep.set("obs.trace_overhead_frac", traced / untraced - 1.0);
  rep.check(tr.write(args.spans_out), "could not write spans to " + args.spans_out);
}

// ============================================================================
// serve_flash: the live service under diurnal arrivals and a 6x flash crowd
// on one hot file during the middle third of 48 simulated hours.
// ============================================================================
serve::ServeConfig flash_config(std::uint64_t seed) {
  serve::ServeConfig cfg;
  cfg.experiment = analysis::make_scaled_config(kServeDivisor, seed);
  cfg.experiment.cloud.degraded_admission = true;
  cfg.experiment.cloud.retry_budget_enabled = true;
  cfg.strategy = core::Strategy::kHedged;
  cfg.use_circuit_breakers = true;
  cfg.max_inflight = kServeInflight;
  cfg.queue_capacity = kServeQueue;
  cfg.traffic.phases.push_back({kServeSpan, kServeBaseRate});
  cfg.traffic.diurnal = true;
  cfg.traffic.diurnal_shape.duration = kServeSpan;
  cfg.traffic.diurnal_shape.daily_growth = 0.0;
  cfg.traffic.flash.start = kServeSpan / 3;
  cfg.traffic.flash.duration = kServeSpan / 3;
  cfg.traffic.flash.rate_multiplier = 6.0;
  cfg.traffic.flash.hot_file_fraction = 0.5;
  cfg.traffic.flash.hot_file = 0;
  return cfg;
}

void check_serve_result(Report& rep, const serve::ServeResult& r) {
  rep.check(r.offered > 0, "the generator offered no tasks");
  rep.check(r.offered == r.admitted + r.shed_unpopular + r.dropped_full,
            "admission conservation: offered " + std::to_string(r.offered) + " != admitted " +
                std::to_string(r.admitted) + " + shed " + std::to_string(r.shed_unpopular) +
                " + dropped " + std::to_string(r.dropped_full));
  rep.check(r.completed == r.admitted, "completion conservation: completed " +
                                           std::to_string(r.completed) + " != admitted " +
                                           std::to_string(r.admitted));
  rep.check(r.completed == r.succeeded + r.failed,
            "completed tasks are neither succeeded nor failed");
}

void serve_flash(const Args& args, Report& rep) {
  const serve::ServeConfig cfg = flash_config(args.seed);
  if (!args.trace) {
    const std::uint64_t fp0 = run_timed(
        args, kServePanel, rep,
        [&](int k, std::uint64_t seed) {
          const serve::ServeConfig c = flash_config(seed);
          const double c0 = cpu_seconds();
          auto loop = std::make_unique<serve::ServiceLoop>(c);
          const double c1 = cpu_seconds();
          const serve::ServeResult r = loop->run();
          const double c2 = cpu_seconds();
          loop.reset();
          rep.begin_run(instance_label("serve_flash", k, seed));
          check_serve_result(rep, r);
          return Sample{c1 - c0, static_cast<double>(r.offered) / (c2 - c1), r.fingerprint};
        },
        [&](std::uint64_t seed) {
          const double c0 = cpu_seconds();
          serve::ServiceLoop loop(flash_config(seed));
          return cpu_seconds() - c0;
        });

    // After the timer: the --seed service run again, verdict for verdict.
    rep.begin_run("serve_flash repeat");
    const serve::ServeResult r = serve::ServiceLoop(cfg).run();
    check_serve_result(rep, r);
    rep.check(r.fingerprint == fp0, "same-seed fingerprint differs between two runs");
    return;
  }

  Tracer tr;
  std::uint64_t fp_plain = 0;
  double untraced_run = 0.0;
  const double untraced = untraced_reference(
      [&] {
        serve::ServiceLoop loop(cfg);
        const auto a = Clock::now();
        fp_plain = loop.run().fingerprint;
        return seconds_between(a, Clock::now());
      },
      untraced_run);

  traced_build(tr, cfg.experiment, cfg.premises_line_rate * kTransportEfficiency, false);
  tr.set_run(1);
  obs::ScopedObserver o(quiet_obs(false));
  const auto t0 = Clock::now();
  const int root = tr.open("serve_flash");
  auto loop = tr.span("serve.service_loop_ctor", [&] { return std::make_unique<serve::ServiceLoop>(cfg); });
  const serve::ServeResult r = tr.span("serve.service_loop_run", [&] { return loop->run(); });
  loop.reset();
  tr.close(root);
  const double traced = seconds_between(t0, Clock::now());

  rep.begin_run("serve_flash traced");
  check_serve_result(rep, r);
  rep.check(r.fingerprint == fp_plain, "traced fingerprint differs from the untraced run's");

  report_registry(rep, *o, r.offered);
  rep.set("sim.ns_per_event", pb::ratio(untraced_run * 1e9,
                                        static_cast<double>(counter(*o, "sim.events.executed"))));
  const double offered = static_cast<double>(r.offered);
  rep.set("serve.shed_frac", pb::ratio(static_cast<double>(r.shed_unpopular), offered), r.offered);
  rep.set("serve.drop_frac", pb::ratio(static_cast<double>(r.dropped_full), offered), r.offered);
  rep.set("serve.queue_peak", static_cast<double>(r.peak_queue_depth));
  rep.set("serve.inflight_peak", static_cast<double>(r.peak_inflight));
  rep.set("serve.p99_s", r.slo.p99_seconds, r.slo.completed);
  rep.set("analysis.success_ratio", r.slo.success_ratio, r.offered);
  rep.set("workload.build_s", tr.median_s("workload.build"));
  rep.set("cloud.warm_s", tr.median_s("cloud.warm"));
  rep.set("obs.trace_overhead_frac", traced / untraced - 1.0);
  rep.check(tr.write(args.spans_out), "could not write spans to " + args.spans_out);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (const int rc = parse_args(argc, argv, args); rc != 0) return rc;
  Report rep;
  try {
    if (args.workload == "cloud_week") cloud_week(args, rep);
    if (args.workload == "odr_week") odr_week(args, rep);
    if (args.workload == "resume_week") resume_week(args, rep);
    if (args.workload == "serve_flash") serve_flash(args, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  rep.emit(args.trace);
  return 0;
}
