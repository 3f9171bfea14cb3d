// rmp_perfbench — the end-to-end benchmark binary (see README.md).
//
//   rmp_perfbench --workload <c3_threaded|c3_serial|spool_mixed|c3_baseline>
//                 --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   rmp_perfbench --selftest --work-dir <dir>
//
// Every workload runs real RunSpecs, generated from --seed, through
// api::Session or an in-process api::JobServer.  With --trace 0 it repeats
// the untraced workload pass until --seconds would be exceeded and prints
// the end-to-end metrics (medians over passes).  With --trace 1 it runs one
// untraced pass, then one pass with every problem wrapped in the
// trace decorator (trace.hpp), and prints the per-layer metrics.  Every
// pass's outputs are checked; the last stdout line is the result object.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/run.hpp"
#include "api/serve.hpp"
#include "api/session.hpp"
#include "api/spec.hpp"
#include "api/trace.hpp"
#include "core/json.hpp"
#include "pareto/front.hpp"
#include "pareto/hypervolume.hpp"
#include "trace.hpp"

namespace fs = std::filesystem;
using rmp::api::RunSpec;
using rmp::core::Json;

namespace {

// ---------------------------------------------------------------- workloads

constexpr const char* kPmo2 = "pmo2?islands=4&population=16&migration_interval=5";
constexpr const char* kScenarios[] = {"past-low",    "past-high",   "present-low",
                                      "present-high", "future-low", "future-high"};

// C3 run sizes.  The benchmark workloads average many small runs, because
// one run's wall time moves by up to 30% from seed to seed (the share of
// candidates that take the kinetic cycle path depends on the trajectory).
// c3_baseline is the spec the ROADMAP baseline diagnosis was measured at;
// it is not a benchmark workload.
struct C3Size {
  std::size_t generations;
  std::size_t trials;
  std::size_t surface_samples;
};
constexpr C3Size kSmallSize{3, 20, 6};
constexpr C3Size kBaselineSize{8, 100, 6};
/// Consecutive seeds per pass, starting at --seed.  c3_serial's first
/// kThreadedSeeds runs are c3_threaded's present-high runs at threads 1.
constexpr std::uint64_t kThreadedSeeds = 2;
constexpr std::uint64_t kSerialSeeds = 5;

// spool_mixed job sizes.
constexpr std::size_t kSpoolC3Generations = 8;
constexpr std::size_t kSpoolGeoGenerations = 4;
constexpr std::size_t kSpoolGeoTrials = 40;
constexpr std::size_t kSpoolZdtGenerations = 150;

RunSpec base_spec(const std::string& problem, std::size_t generations,
                  std::uint64_t seed, std::size_t threads) {
  RunSpec spec;
  spec.problem = problem;
  spec.optimizer = kPmo2;
  spec.generations = generations;
  spec.seed = seed;
  spec.threads = threads;
  return spec;
}

RunSpec c3_spec(const std::string& scenario, std::uint64_t seed, std::size_t threads,
                C3Size size) {
  RunSpec spec = base_spec("photosynthesis?scenario=" + scenario, size.generations, seed,
                           threads);
  spec.robustness.enabled = true;
  spec.robustness.trials = size.trials;
  spec.robustness.surface_samples = size.surface_samples;
  return spec;
}

std::vector<RunSpec> session_specs(const std::string& workload, std::uint64_t seed) {
  std::vector<RunSpec> specs;
  if (workload == "c3_threaded") {
    for (std::uint64_t k = 0; k < kThreadedSeeds; ++k) {
      for (const char* s : kScenarios) specs.push_back(c3_spec(s, seed + k, 4, kSmallSize));
    }
  } else if (workload == "c3_serial") {
    for (std::uint64_t k = 0; k < kSerialSeeds; ++k) {
      specs.push_back(c3_spec("present-high", seed + k, 1, kSmallSize));
    }
  } else if (workload == "c3_baseline") {
    specs.push_back(c3_spec("present-high", seed, 1, kBaselineSize));
  }
  return specs;
}

/// Jobs of spool_mixed, keyed by job id (admission order = id order).
std::vector<std::pair<std::string, RunSpec>> spool_jobs(std::uint64_t seed) {
  RunSpec c3 = base_spec("photosynthesis?scenario=past-high", kSpoolC3Generations, seed, 4);
  RunSpec geo = base_spec("geobacter", kSpoolGeoGenerations, seed, 4);
  geo.robustness.enabled = true;
  geo.robustness.trials = kSpoolGeoTrials;
  RunSpec zdt = base_spec("zdt1", kSpoolZdtGenerations, seed, 4);
  return {{"a-c3-past-high", c3}, {"b-geobacter", geo}, {"c-zdt1", zdt}};
}

/// Fixed normalization boxes for the hypervolume metric, per problem name.
void hv_box(const std::string& problem, rmp::num::Vec& ideal, rmp::num::Vec& nadir) {
  const std::string name = rmp::api::parse_ref(problem).name;
  if (name == "photosynthesis") {  // (-CO2 uptake, nitrogen)
    ideal = {-80.0, 0.0};
    nadir = {0.0, 1.2e6};
  } else if (name == "geobacter") {  // (-electron production, -biomass)
    ideal = {-200.0, -2.0};
    nadir = {0.0, 0.0};
  } else {  // zdt1
    ideal = {0.0, 0.0};
    nadir = {1.0, 10.0};
  }
}

// ------------------------------------------------------------- run outcomes

/// One RunSpec's result, as the checks and the transparency comparison see it.
struct Outcome {
  std::string label;
  std::size_t threads = 1;  ///< the spec's thread budget
  bool kinetic = false;     ///< a photosynthesis run
  bool ok = true;
  std::string why;
  std::uint64_t fingerprint = 0;
  rmp::moo::EvalStats stats;
  double hypervolume = 0.0;
  double optimize_s = 0.0;
  double robustness_s = 0.0;
};

Outcome outcome_for(std::string label, const RunSpec& spec) {
  Outcome o;
  o.label = std::move(label);
  o.threads = spec.threads;
  o.kinetic = rmp::api::parse_ref(spec.problem).name == "photosynthesis";
  return o;
}

void fail(Outcome& o, const std::string& why) {
  if (o.ok) o.why = why;
  o.ok = false;
}

/// Output checks shared by Session and spool passes: finite non-empty front, every
/// yield in [0,1], and the EvalStats accounting identity.
void check_result(Outcome& o, const rmp::pareto::Front& front,
                  const std::vector<double>& gammas) {
  if (front.empty()) fail(o, "empty front");
  for (const auto& m : front.members()) {
    for (const double v : m.f) {
      if (!std::isfinite(v)) fail(o, "non-finite objective on the front");
    }
  }
  for (const double g : gammas) {
    if (!(g >= 0.0 && g <= 1.0)) fail(o, "yield outside [0,1]");
  }
  const auto& s = o.stats;
  if (s.evaluations != s.cache_hits + s.prescreen_skips + s.pool_hits + s.full_evaluations) {
    fail(o, "EvalStats identity broken");
  }
}

struct Pass {
  double wall_s = 0.0;
  double setup_s = 0.0;
  std::vector<Outcome> runs;
  std::vector<std::string> issues;  ///< pass-level failures (spool)
  // Session timings, summed over runs.
  double step_s = 0.0;
  double finish_s = 0.0;
  // Spool, traced only.
  std::vector<double> tick_ms;
  double serve_overhead_s = 0.0;
  double checkpoint_bytes = 0.0;
  double event_bytes = 0.0;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

double hv_of(const RunSpec& spec, const rmp::pareto::Front& front) {
  rmp::num::Vec ideal, nadir;
  hv_box(spec.problem, ideal, nadir);
  return rmp::pareto::normalized_hypervolume(front, ideal, nadir);
}

Pass run_session_pass(const std::vector<RunSpec>& specs, bool traced) {
  Pass pass;
  const std::int64_t start = perfbench::now_ns();
  for (const RunSpec& base : specs) {
    Outcome o = outcome_for(base.problem + "@threads=" + std::to_string(base.threads), base);
    try {
      RunSpec spec = base;
      if (traced) {
        spec.problem = perfbench::register_traced(base.problem, base.generations,
                                                  base.threads);
      }
      const std::int64_t t0 = perfbench::now_ns();
      rmp::api::Session session(spec);
      const std::int64_t t1 = perfbench::now_ns();
      while (!session.done()) session.step_epoch();
      const std::int64_t t2 = perfbench::now_ns();
      const rmp::api::RunResult r = session.finish();
      const std::int64_t t3 = perfbench::now_ns();
      pass.setup_s += seconds_between(t0, t1);
      pass.step_s += seconds_between(t1, t2);
      pass.finish_s += seconds_between(t2, t3);
      o.fingerprint = r.fingerprint;
      o.stats = r.eval_stats;
      o.optimize_s = r.optimize_seconds;
      o.robustness_s = r.robustness_seconds;
      o.hypervolume = hv_of(base, r.front);
      std::vector<double> gammas;
      for (const auto& c : r.mined) {
        if (c.yield) gammas.push_back(c.yield->gamma);
      }
      for (const auto& p : r.surface) gammas.push_back(p.gamma);
      check_result(o, r.front, gammas);
    } catch (const std::exception& e) {
      fail(o, std::string("threw: ") + e.what());
    }
    pass.runs.push_back(std::move(o));
  }
  pass.wall_s = seconds_between(start, perfbench::now_ns());
  return pass;
}

std::uintmax_t bytes_matching(const fs::path& dir, const std::string& suffix) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    const std::string name = e.path().filename().string();
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += e.file_size(ec);
    }
  }
  return total;
}

std::vector<std::string> names_in(const fs::path& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

Outcome outcome_from_artifact(const std::string& id, const RunSpec& spec,
                              const fs::path& file) {
  Outcome o = outcome_for(id, spec);
  try {
    const Json doc = rmp::core::load_json_file(file.string());
    o.fingerprint = doc.at("fingerprint").as_u64();
    const Json& st = doc.at("eval_stats");
    o.stats.evaluations = st.at("evaluations").as_size();
    o.stats.cache_hits = st.at("cache_hits").as_size();
    o.stats.prescreen_skips = st.at("prescreen_skips").as_size();
    o.stats.pool_hits = st.at("pool_hits").as_size();
    o.stats.full_evaluations = st.at("full_evaluations").as_size();
    o.optimize_s = doc.at("timings_seconds").at("optimize").as_double();
    o.robustness_s = doc.at("timings_seconds").at("robustness").as_double();
    rmp::pareto::Front front;
    for (const Json& m : doc.at("front").at("members").items()) {
      rmp::moo::Individual ind;
      for (const Json& v : m.at("f").items()) ind.f.push_back(v.as_double());
      front.add(std::move(ind));
    }
    std::vector<double> gammas;
    for (const Json& c : doc.at("mined").items()) {
      if (const Json* y = c.find("yield")) gammas.push_back(y->at("gamma").as_double());
    }
    for (const Json& p : doc.at("surface").items()) gammas.push_back(p.at("gamma").as_double());
    o.hypervolume = hv_of(spec, front);
    check_result(o, front, gammas);
  } catch (const std::exception& e) {
    fail(o, std::string("unreadable result artifact: ") + e.what());
  }
  return o;
}

double factory_seconds(const perfbench::Recorder& rec) {
  double total = 0.0;
  for (const auto& inst : rec.instances()) total += inst.factory_s;
  return total;
}

Pass run_spool_pass(const fs::path& spool, std::uint64_t seed, bool traced) {
  Pass pass;
  std::error_code ec;
  fs::remove_all(spool, ec);
  const auto jobs = spool_jobs(seed);
  perfbench::Recorder& rec = perfbench::Recorder::global();

  const std::int64_t start = perfbench::now_ns();
  try {
    rmp::api::ServeOptions options;
    options.spool = spool.string();
    options.default_checkpoint_every = 1;
    options.drain = true;
    options.owner = "bench";
    rmp::api::JobServer server(options);
    for (const auto& [id, base] : jobs) {
      RunSpec spec = base;
      if (traced) {
        spec.problem = perfbench::register_traced(base.problem, base.generations,
                                                  base.threads);
      }
      std::ofstream(spool / "jobs" / (id + ".json"))
          << rmp::api::spec_to_json(spec).dump(2) << "\n";
    }
    std::size_t admitted = 0;
    std::size_t finished = 0;
    bool setup_done = false;
    for (std::size_t round = 0; round < 100000; ++round) {
      const std::int64_t t0 = perfbench::now_ns();
      const std::vector<std::int64_t> busy0 = traced ? rec.busy_by_thread()
                                                     : std::vector<std::int64_t>{};
      const double built0 = traced ? factory_seconds(rec) : 0.0;
      const rmp::api::TickReport rep = server.tick();
      const std::int64_t t1 = perfbench::now_ns();
      admitted += rep.admitted;
      finished += rep.completed + rep.failed;
      if (!setup_done && admitted >= jobs.size()) {
        pass.setup_s = seconds_between(start, t1);
        setup_done = true;
      }
      if (traced) {
        const std::vector<std::int64_t> busy1 = rec.busy_by_thread();
        std::int64_t busiest = 0;
        for (std::size_t t = 0; t < busy1.size(); ++t) {
          busiest = std::max(busiest, busy1[t] - (t < busy0.size() ? busy0[t] : 0));
        }
        // Problem construction at admission is the api layer's, not serving's.
        const double built = factory_seconds(rec) - built0;
        pass.tick_ms.push_back(seconds_between(t0, t1) * 1e3);
        pass.serve_overhead_s +=
            seconds_between(t0, t1) - static_cast<double>(busiest) * 1e-9 - built;
        pass.checkpoint_bytes +=
            static_cast<double>(bytes_matching(spool / "work", ".checkpoint.json"));
        pass.event_bytes = static_cast<double>(bytes_matching(spool / "events", ".jsonl"));
      }
      if (rep.active == 0 && finished >= jobs.size()) break;
    }
  } catch (const std::exception& e) {
    pass.issues.push_back(std::string("threw: ") + e.what());
  }
  pass.wall_s = seconds_between(start, perfbench::now_ns());

  // Exactly-once: every job has one result, nothing is left anywhere else.
  std::vector<std::string> expected;
  for (const auto& [id, spec] : jobs) expected.push_back(id + ".json");
  if (names_in(spool / "results") != expected) pass.issues.push_back("results/ mismatch");
  for (const char* dir : {"failed", "jobs", "work"}) {
    if (!names_in(spool / dir).empty()) pass.issues.push_back(std::string(dir) + "/ not empty");
  }
  for (const auto& issue : rmp::api::verify_spool_traces(spool.string(), true)) {
    pass.issues.push_back("trace " + issue.job + ":" + std::to_string(issue.line) + " " +
                          issue.what);
  }
  for (const auto& [id, spec] : jobs) {
    pass.runs.push_back(outcome_from_artifact(id, spec, spool / "results" / (id + ".json")));
  }
  fs::remove_all(spool, ec);
  return pass;
}

// ---------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The highest percentile (0.1 resolution, at most 99.9) with at least ten
/// samples beyond it; the median when the sample is too small for a tail
/// above it.
struct Tail {
  double p50 = 0.0;
  double value = 0.0;
  double pct = 50.0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  t.p50 = percentile(v, 50.0);
  t.value = t.p50;
  for (int tenths = 999; tenths > 500; --tenths) {
    const double pct = tenths / 10.0;
    if (n - std::ceil(pct / 100.0 * n) >= 10.0) {
      t.pct = pct;
      t.value = percentile(v, pct);
      break;
    }
  }
  return t;
}

// ------------------------------------------------------------------- output

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void add(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.items.size(); ++i) {
    const auto& [name, vu] = metrics.items[i];
    if (i > 0) out += ", ";
    out += "\"" + name + "\": {\"value\": " + number(vu.first) + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

double peak_rss_mb() {
  // VmHWM is this process image's own high-water mark.  getrusage's
  // ru_maxrss would also carry the parent's footprint across exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // kB on Linux
}

// ----------------------------------------------------------------- checking

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> notes;

  void count(const Pass& pass) {
    for (const Outcome& o : pass.runs) {
      ++attempted;
      if (!o.ok || !pass.issues.empty()) {
        ++failed;
        notes.push_back(o.label + ": " + (o.ok ? pass.issues.front() : o.why));
      }
    }
  }
};

/// Deterministic replay: run i of `b` must give run i of `a`'s fingerprint
/// and EvalStats; a run that does not is failed in `b`.
void check_same(const Pass& a, Pass& b, const std::string& what) {
  for (std::size_t i = 0; i < a.runs.size() && i < b.runs.size(); ++i) {
    const auto& x = a.runs[i].stats;
    const auto& y = b.runs[i].stats;
    const bool same = a.runs[i].fingerprint == b.runs[i].fingerprint &&
                      x.evaluations == y.evaluations && x.cache_hits == y.cache_hits &&
                      x.prescreen_skips == y.prescreen_skips &&
                      x.pool_hits == y.pool_hits && x.full_evaluations == y.full_evaluations;
    if (!same) fail(b.runs[i], what + " differ");
  }
}

/// The decorator's kinetic call count must equal the kinetic problems' own
/// EvalStats evaluations; on a mismatch every kinetic run of `traced` fails.
void check_kinetic_calls(Pass& traced) {
  const perfbench::Recorder& rec = perfbench::Recorder::global();
  const std::int64_t calls =
      rec.counter(perfbench::kKinSettledCalls) + rec.counter(perfbench::kKinCycleCalls);
  std::int64_t evaluations = 0;
  for (const Outcome& o : traced.runs) {
    if (o.kinetic) evaluations += static_cast<std::int64_t>(o.stats.evaluations);
  }
  if (calls == evaluations) return;
  for (Outcome& o : traced.runs) {
    if (o.kinetic) {
      fail(o, "kinetics.calls " + std::to_string(calls) + " != EvalStats evaluations " +
                  std::to_string(evaluations));
    }
  }
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void log_fingerprints(const std::string& workload, std::uint64_t seed, const Pass& pass) {
  std::cerr << "perfbench " << workload << " seed=" << seed << " fingerprints:";
  for (const Outcome& o : pass.runs) std::cerr << " " << o.label << "=" << hex(o.fingerprint);
  std::cerr << "\n";
}

// ------------------------------------------------------------------- passes

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  fs::path work_dir = ".bench_work";
};

bool is_session_workload(const std::string& w) {
  return w == "c3_threaded" || w == "c3_serial" || w == "c3_baseline";
}

Pass run_pass(const Options& opt, bool traced) {
  if (is_session_workload(opt.workload)) {
    return run_session_pass(session_specs(opt.workload, opt.seed), traced);
  }
  return run_spool_pass(opt.work_dir / "spool", opt.seed, traced);
}

int run_untraced(const Options& opt) {
  Tally tally;
  std::vector<Pass> passes;
  const std::int64_t start = perfbench::now_ns();
  do {
    Pass pass = run_pass(opt, false);
    if (!passes.empty()) check_same(passes.front(), pass, "repeat passes");
    tally.count(pass);
    passes.push_back(std::move(pass));
    const double elapsed = seconds_between(start, perfbench::now_ns());
    if (elapsed + passes.back().wall_s > opt.seconds) break;
  } while (true);
  log_fingerprints(opt.workload, opt.seed, passes.front());

  std::vector<double> wall, setup;
  for (const Pass& p : passes) {
    wall.push_back(p.wall_s);
    setup.push_back(p.setup_s);
  }
  double hv = 0.0;
  for (const Outcome& o : passes.front().runs) hv += o.hypervolume;
  hv /= static_cast<double>(std::max<std::size_t>(1, passes.front().runs.size()));

  for (const std::string& n : tally.notes) std::cerr << "perfbench check failed: " << n << "\n";
  std::cout << "passes=" << passes.size() << " ops_failed_share="
            << number(static_cast<double>(tally.failed) /
                      static_cast<double>(std::max<std::size_t>(1, tally.attempted)))
            << "\n";
  Metrics m;
  m.add("wall_s", median(wall), "s");
  m.add("setup_s", median(setup), "s");
  m.add("hypervolume", hv, "1");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  print_result(tally.failed == 0, tally.attempted, tally.failed, m);
  return 0;
}

/// A serial workload's first runs repeated at threads 4 (for c3_serial,
/// exactly c3_threaded's present-high runs) must give the same fingerprints
/// and EvalStats as at threads 1.
void cross_width_check(const Options& opt, const Pass& serial, Tally& tally) {
  std::vector<RunSpec> specs = session_specs(opt.workload, opt.seed);
  specs.resize(std::min<std::size_t>(specs.size(), kThreadedSeeds));
  for (RunSpec& spec : specs) spec.threads = 4;
  Pass wide = run_session_pass(specs, false);
  check_same(serial, wide, "threads=1 vs threads=4 fingerprints");
  tally.count(wide);
  for (std::size_t i = 0; i < wide.runs.size(); ++i) {
    std::cerr << "perfbench cross-width " << wide.runs[i].label << ": threads=1 "
              << hex(serial.runs[i].fingerprint) << " threads=4 "
              << hex(wide.runs[i].fingerprint) << "\n";
  }
}

int run_traced(const Options& opt) {
  Tally tally;
  perfbench::Recorder& rec = perfbench::Recorder::global();
  const Pass plain = run_pass(opt, false);
  tally.count(plain);
  rec.reset();
  Pass traced = run_pass(opt, true);
  check_same(plain, traced, "traced vs untraced fingerprints/EvalStats");
  check_kinetic_calls(traced);
  tally.count(traced);
  if (opt.workload == "c3_serial" || opt.workload == "c3_baseline") {
    cross_width_check(opt, plain, tally);
  }
  log_fingerprints(opt.workload, opt.seed, traced);

  const auto c = [&](perfbench::Counter k) { return static_cast<double>(rec.counter(k)); };
  const double kin_calls = c(perfbench::kKinSettledCalls) + c(perfbench::kKinCycleCalls);

  double construct_s = 0.0, init_s = 0.0, fba_build_s = 0.0;
  for (const auto& inst : rec.instances()) {
    construct_s += inst.factory_s;
    init_s += inst.init_s;
    if (inst.layer == perfbench::Layer::kFba) fba_build_s += inst.factory_s;
  }
  double optimize_s = 0.0, robustness_s = 0.0;
  double robustness_threads_wall = 0.0;
  for (const Outcome& o : traced.runs) {
    optimize_s += o.optimize_s;
    robustness_s += o.robustness_s;
    robustness_threads_wall += static_cast<double>(o.threads) * o.robustness_s;
  }

  std::vector<double> epoch_wall;
  double imbalance = 0.0, serial_s = 0.0;
  std::size_t imbalance_n = 0;
  for (const auto& e : rec.epochs()) {
    epoch_wall.push_back(e.wall_s);
    double sum = 0.0, busiest = 0.0;
    for (const double b : e.busy_s) {
      sum += b;
      busiest = std::max(busiest, b);
    }
    serial_s += e.wall_s - busiest;
    if (sum > 0.0) {
      imbalance += busiest / (sum / static_cast<double>(e.threads));
      ++imbalance_n;
    }
  }
  const Tail epoch = tail_of(epoch_wall);
  const Tail cycle = tail_of(rec.cycle_call_ms());
  const Tail tick = tail_of(traced.tick_ms);

  Metrics m;
  m.add("api.construct_s", construct_s, "s");
  m.add("api.init_s", init_s, "s");
  m.add("api.optimize_s", optimize_s, "s");
  m.add("api.robustness_s", robustness_s, "s");
  m.add("api.step_s", traced.step_s, "s");
  m.add("api.finish_s", traced.finish_s, "s");
  m.add("kinetics.calls", kin_calls, "count");
  m.add("kinetics.settled_calls", c(perfbench::kKinSettledCalls), "count");
  m.add("kinetics.cycle_calls", c(perfbench::kKinCycleCalls), "count");
  m.add("kinetics.infeasible_calls", c(perfbench::kKinInfeasibleCalls), "count");
  m.add("kinetics.settled_busy_s", c(perfbench::kKinSettledNs) * 1e-9, "s");
  m.add("kinetics.cycle_busy_s", c(perfbench::kKinCycleNs) * 1e-9, "s");
  m.add("kinetics.cycle_call_p50_ms", cycle.p50, "ms");
  m.add("kinetics.cycle_call_tail_ms", cycle.value, "ms");
  m.add("kinetics.cycle_call_tail_pct", cycle.pct, "%");
  double pool_hits = 0.0, full = 0.0;
  for (const Outcome& o : traced.runs) {
    if (!o.kinetic) continue;
    pool_hits += static_cast<double>(o.stats.pool_hits);
    full += static_cast<double>(o.stats.full_evaluations);
  }
  m.add("kinetics.pool_hits", pool_hits, "count");
  m.add("kinetics.full_evaluations", full, "count");
  m.add("kinetics.pool_hit_rate", pool_hits + full > 0 ? pool_hits / (pool_hits + full) : 0.0,
        "1");
  m.add("kinetics.commit_s", c(perfbench::kKinCommitNs) * 1e-9, "s");
  m.add("moo.epochs", static_cast<double>(epoch_wall.size()), "count");
  m.add("moo.epoch_p50_s", epoch.p50, "s");
  m.add("moo.epoch_tail_s", epoch.value, "s");
  m.add("moo.epoch_tail_pct", epoch.pct, "%");
  m.add("moo.island_imbalance",
        imbalance_n > 0 ? imbalance / static_cast<double>(imbalance_n) : 0.0, "1");
  m.add("moo.serial_s", serial_s, "s");
  m.add("robustness.calls", c(perfbench::kRobustnessCalls), "count");
  m.add("robustness.busy_s", c(perfbench::kRobustnessNs) * 1e-9, "s");
  m.add("robustness.parallel_eff",
        robustness_threads_wall > 0.0
            ? c(perfbench::kRobustnessNs) * 1e-9 / robustness_threads_wall
            : 0.0,
        "1");
  m.add("fba.build_s", fba_build_s, "s");
  m.add("fba.calls", c(perfbench::kFbaCalls), "count");
  m.add("fba.busy_s", c(perfbench::kFbaNs) * 1e-9, "s");
  m.add("fba.repair_calls", c(perfbench::kFbaRepairCalls), "count");
  m.add("fba.repair_busy_s", c(perfbench::kFbaRepairNs) * 1e-9, "s");
  m.add("serve.ticks", static_cast<double>(traced.tick_ms.size()), "count");
  m.add("serve.tick_p50_ms", tick.p50, "ms");
  m.add("serve.tick_tail_ms", tick.value, "ms");
  m.add("serve.tick_tail_pct", tick.pct, "%");
  m.add("serve.overhead_s", traced.serve_overhead_s, "s");
  m.add("serve.checkpoint_bytes", traced.checkpoint_bytes, "B");
  m.add("serve.event_bytes", traced.event_bytes, "B");
  m.add("trace.overhead_pct",
        plain.wall_s > 0.0 ? 100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s : 0.0, "%");

  for (const std::string& n : tally.notes) std::cerr << "perfbench check failed: " << n << "\n";
  print_result(tally.failed == 0, tally.attempted, tally.failed, m);
  return 0;
}

/// Decorator transparency and cross-width determinism on small specs: the
/// traced and untraced runs of one spec give bit-identical fingerprints and
/// EvalStats, on the kinetic, FBA (repair) and analytic problems and through
/// the spool; and a spec's fingerprint does not depend on its thread count.
int run_selftest(const Options& opt) {
  Tally tally;
  auto small_c3 = [](std::size_t threads) {
    return c3_spec("present-high", 11, threads, C3Size{2, 10, 2});
  };
  RunSpec geo = base_spec("geobacter", 2, 11, 4);
  geo.robustness.enabled = true;
  geo.robustness.trials = 8;
  const std::vector<RunSpec> specs = {small_c3(4), geo, base_spec("zdt1", 10, 11, 4)};

  perfbench::Recorder::global().reset();
  const Pass plain = run_session_pass(specs, false);
  Pass traced = run_session_pass(specs, true);
  check_same(plain, traced, "traced vs untraced fingerprints/EvalStats");
  check_kinetic_calls(traced);
  tally.count(plain);
  tally.count(traced);

  Pass serial = run_session_pass({small_c3(1)}, false);
  check_same(plain, serial, "threads=4 vs threads=1 fingerprints");
  tally.count(serial);

  perfbench::Recorder::global().reset();
  const Pass spool_plain = run_spool_pass(opt.work_dir / "selftest-spool", 11, false);
  Pass spool_traced = run_spool_pass(opt.work_dir / "selftest-spool", 11, true);
  check_same(spool_plain, spool_traced, "spool traced vs untraced");
  tally.count(spool_plain);
  tally.count(spool_traced);

  for (const std::string& n : tally.notes) std::cerr << "selftest failed: " << n << "\n";
  std::cout << "selftest: " << tally.attempted << " runs, " << tally.failed << " failed\n";
  return tally.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rmp_perfbench: " << why << "\n"
            << "usage: rmp_perfbench --workload "
               "<c3_threaded|c3_serial|spool_mixed|c3_baseline> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       rmp_perfbench --selftest [--work-dir <dir>]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("malformed value for " + arg);
    }
  }
  if (!opt.selftest && !is_session_workload(opt.workload) && opt.workload != "spool_mixed") {
    usage("unknown workload \"" + opt.workload + "\"");
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  try {
    if (opt.selftest) return run_selftest(opt);
    return opt.trace ? run_traced(opt) : run_untraced(opt);
  } catch (const std::exception& e) {
    std::cerr << "rmp_perfbench: " << e.what() << "\n";
    return 1;
  }
}
