// rasc_perfbench: end-to-end benchmark of the RASC simulator.
//
//   rasc_perfbench [--workload all|paper32|compose128|drift128]
//                  [--seed 42] [--seconds 25] [--trace 0|1]
//                  [--revision REV] [--spans FILE] [--worlds K]
//
// A workload is a set of simulated worlds on the serial simulator. Before
// timing, world 0 also runs through exp::run_experiment, and both must give
// identical outcomes (fidelity gate). Passes run every world of the set
// while they fit in --seconds, at least one (one untraced and one traced
// with --trace 1), and must reproduce the first pass's simulated outcomes
// exactly. Host times are scaled by a fixed reference work timed around
// each world (reference.cpp). --worlds overrides the set size for quick
// checks.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced passes and prints the per-layer metrics, writing every span to
// --spans (JSON lines). The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 when
// every output check passed and no run threw, 1 otherwise, and 2 on bad
// arguments. README.md documents the workloads, the metrics and the map
// from layer metrics to end-to-end metrics.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"

namespace perfbench {
namespace {

using rasc::util::SummaryStats;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double a, double b) { return b != 0 ? a / b : 0; }

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Spread over passes, for host-time metrics (printed, not in JSON).
  std::string spread;
};

struct Pass {
  bool traced = false;
  std::vector<SubRun> runs;
  /// reference_work_s() before world 0 and after each world.
  std::vector<double> reference_s;
  std::vector<Span> spans;
};

struct WorkloadResult {
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> problems;  // failed output checks
  std::vector<std::string> errors;    // exceptions a run threw
};

std::string manifest_json(const std::string& revision, std::uint64_t seed,
                          const std::string& workload, double seconds,
                          int trace, int worlds_override,
                          std::vector<std::string>* warnings) {
  char host[256] = "unknown";
  gethostname(host, sizeof host - 1);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string cxx_flags = PERFBENCH_CXX_FLAGS;
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::vector<std::string> sanitizers;
#if defined(__SANITIZE_ADDRESS__)
  sanitizers.push_back("address");
#endif
#if defined(__SANITIZE_THREAD__)
  sanitizers.push_back("thread");
#endif
  if (cxx_flags.find("-fsanitize") != std::string::npos) {
    sanitizers.push_back("flags: " + cxx_flags);
  }
  if (!optimized || (build_type != "Release" && build_type != "RelWithDebInfo")) {
    warnings->push_back("not an optimised build (build type '" + build_type +
                        "'); host times are not comparable");
  }
  std::string sanitizer_list = sanitizers.empty() ? "none" : "";
  for (const auto& x : sanitizers) {
    sanitizer_list += (x == sanitizers.front() ? "" : ", ") + x;
  }
  if (!sanitizers.empty()) {
    warnings->push_back("sanitizer build; host times are not comparable");
  }

  std::ostringstream o;
  o << "{\"host\": " << json_string(host)
    << ", \"nproc\": " << std::thread::hardware_concurrency()
    << ", \"compiler\": " << json_string(compiler)
    << ", \"build_type\": " << json_string(build_type)
    << ", \"cxx_flags\": " << json_string(cxx_flags)
    << ", \"optimized\": " << (optimized ? "true" : "false")
    << ", \"sanitizers\": " << json_string(sanitizer_list)
    << ", \"revision\": " << json_string(revision) << ", \"seed\": " << seed
    << ", \"workload\": " << json_string(workload)
    << ", \"seconds\": " << json_number(seconds) << ", \"trace\": " << trace
    << ", \"workloads\": {";
  bool first = true;
  for (const auto& w : workloads()) {
    if (workload != w.name && !(workload == "all" && w.listed)) continue;
    o << (first ? "" : ", ") << json_string(w.name) << ": {\"flags\": "
      << json_string(w.flags) << ", \"worlds\": "
      << (worlds_override > 0 ? worlds_override : w.worlds) << "}";
    first = false;
  }
  o << "}, \"warnings\": [";
  for (std::size_t i = 0; i < warnings->size(); ++i) {
    o << (i ? ", " : "") << json_string((*warnings)[i]);
  }
  o << "]}";
  return o.str();
}

SubRun guarded_drive(const rasc::exp::RunConfig& config, Tracer& tracer) {
  SubRun failed;
  try {
    return drive(config, tracer);
  } catch (const std::exception& e) {
    failed.error = e.what();
  } catch (...) {
    failed.error = "unknown exception";
  }
  failed.seed = config.world.seed;
  failed.sim.requests = config.workload.num_requests;
  return failed;
}

/// Span names the benchmark records, in BENCHMARK.json order.
const std::vector<const char*>& span_names() {
  static const std::vector<const char*> names = {
      "overlay.build", "world", "sim.slice", "coord.submit", "core.compose",
      "obs.snapshot"};
  return names;
}

std::string self_metric_name(const std::string& span) {
  std::string n = "self." + span + "_s";
  std::replace(n.begin() + 5, n.end() - 2, '.', '_');
  return n;
}

/// Host seconds not covered by a child span, per span; checks nesting.
std::vector<double> self_times(const std::vector<Span>& spans,
                               std::vector<std::string>* problems) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_s - spans[i].start_s;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p < 0) continue;
    const Span& parent = spans[std::size_t(p)];
    if (spans[i].start_s < parent.start_s || spans[i].end_s > parent.end_s) {
      problems->push_back(std::string("span ") + spans[i].name +
                          " lies outside its parent " + parent.name);
    }
    self[std::size_t(p)] -= spans[i].end_s - spans[i].start_s;
  }
  return self;
}

/// Index of the root span above `i`.
std::size_t root_of(const std::vector<Span>& spans, std::size_t i) {
  while (spans[i].parent >= 0) i = std::size_t(spans[i].parent);
  return i;
}

WorkloadResult run_workload(const Workload& w, std::uint64_t seed,
                            double seconds, bool trace, int worlds_override,
                            std::ofstream* spans_out) {
  WorkloadResult result;
  const int k_all = worlds_override > 0 ? worlds_override : w.worlds;
  std::vector<rasc::exp::RunConfig> configs;
  for (int k = 0; k < k_all; ++k) {
    configs.push_back(cli_config(w.flags, world_seed(seed, k)));
  }
  std::printf("workload %s: %s | seeds", w.name.c_str(), w.flags.c_str());
  for (const auto& c : configs) {
    std::printf(" %llu", (unsigned long long)c.world.seed);
  }
  std::printf("\n");
  std::fflush(stdout);

  // Fidelity gate, which also warms caches and the allocator.
  Tracer off(false);
  const SubRun first = guarded_drive(configs[0], off);
  if (first.error.empty()) {
    std::string diff;
    try {
      diff = check_fidelity(configs[0], first);
    } catch (const std::exception& e) {
      diff = std::string("run_experiment threw: ") + e.what();
    } catch (...) {
      diff = "run_experiment threw";
    }
    if (!diff.empty()) {
      result.problems.push_back("fidelity, seed " +
                                std::to_string(first.seed) + ": " + diff);
    }
    std::printf("  fidelity seed %llu vs exp::run_experiment: %s\n",
                (unsigned long long)first.seed,
                diff.empty() ? "identical" : "DIFFERENT");
  }

  // Passes. Each runs every world of the set, untraced, or alternately
  // untraced and traced, with the reference work before the first world
  // and after each. At least one pass of each kind runs, and another
  // starts only if it should end within --seconds.
  std::vector<Pass> passes;
  bool aborted = !first.error.empty();
  const double start = host_now();
  const std::size_t min_passes = trace ? 2 : 1;
  while (!aborted) {
    const double pass_start = host_now();
    Pass pass;
    pass.traced = trace && passes.size() % 2 == 1;
    Tracer tracer(pass.traced);
    pass.reference_s.push_back(reference_work_s());
    for (int k = 0; k < k_all && !aborted; ++k) {
      tracer.set_run(k);
      pass.runs.push_back(guarded_drive(configs[std::size_t(k)], tracer));
      pass.reference_s.push_back(reference_work_s());
      aborted = !pass.runs.back().error.empty();
    }
    pass.spans = tracer.spans();
    const double now = host_now();
    std::printf("  pass %zu%s: %zu worlds in %.2f s, reference work %.4f s "
                "(median)\n",
                passes.size(), pass.traced ? " (traced)" : "", pass.runs.size(),
                now - pass_start, median(pass.reference_s));
    passes.push_back(std::move(pass));
    if (passes.size() >= min_passes &&
        now + (now - pass_start) > start + seconds) {
      break;
    }
  }

  // Failure accounting over one set: the first pass, or the world that
  // threw before it. Simulated metrics come from the first pass too.
  const std::vector<SubRun> set =
      passes.empty() ? std::vector<SubRun>{first} : passes.front().runs;
  for (const auto& r : set) {
    result.attempted += r.sim.requests;
    result.failed += r.failed();
    if (!r.error.empty()) {
      result.errors.push_back("seed " + std::to_string(r.seed) + ": " +
                              r.error);
    }
  }
  if (aborted) {
    for (int k = int(set.size()); k < k_all; ++k) {
      result.attempted += configs[std::size_t(k)].workload.num_requests;
      result.failed += configs[std::size_t(k)].workload.num_requests;
    }
    return result;
  }

  // Every pass must reproduce the first one's simulation exactly.
  if (first.digest != set[0].digest) {
    result.problems.push_back("world 0 differs between the fidelity run "
                              "and the first pass");
  }
  for (std::size_t p = 1; p < passes.size(); ++p) {
    for (std::size_t k = 0; k < passes[p].runs.size(); ++k) {
      if (passes[p].runs[k].digest != set[k].digest) {
        result.problems.push_back(
            "pass " + std::to_string(p) + " seed " +
            std::to_string(set[k].seed) +
            ": simulated outcomes differ from the first pass");
      }
    }
  }

  // Same fields and format as rasc_cli's per-repetition line, so each
  // world can be checked against `rasc_cli <flags> --seed <seed>`.
  for (const auto& r : set) {
    const auto& m = r.sim;
    std::printf(
        "  seed %llu: composed %d/%d | emitted %lld | delivered %.3f | "
        "timely %.3f | ooo %.4f | delay %.1f ms | jitter %.2f ms | split "
        "%.2f | net drops %lld\n",
        (unsigned long long)r.seed, m.composed, m.requests,
        (long long)m.emitted, m.delivered_fraction(), m.timely_fraction(),
        m.out_of_order_fraction(), m.mean_delay_ms(), m.mean_jitter_ms(),
        m.splitting_degree(), (long long)m.drops_network);
  }

  const double k_d = double(k_all);
  auto add = [&result](std::string name, double value, std::string unit,
                       std::string spread = "") {
    result.metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(spread)});
  };
  auto sum = [](const std::vector<SubRun>& runs, auto field) {
    double s = 0;
    for (const auto& r : runs) s += field(r);
    return s;
  };
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (const double x : v) s += x;
    return v.empty() ? 0 : s / double(v.size());
  };
  auto quartiles = [](const std::vector<double>& v) {
    char text[96];
    std::snprintf(text, sizeof text, "q1 %.6g q3 %.6g over %zu worlds",
                  quantile(v, 0.25), quantile(v, 0.75), v.size());
    return std::string(text);
  };
  // Host times, scaled to the reference host's speed. The host slows
  // down in phases lasting seconds to minutes, in which the program and
  // the reference work (reference.cpp) stretch alike, so each world's times
  // are divided by the reference work's time around it (the mean of the
  // runs just before and just after the world) and multiplied by that
  // work's time on the reference host. Per world, the median over the
  // passes of one kind; README.md gives the evidence.
  struct HostTimes {
    std::vector<double> setup_s, run_s, raw_run_s;
  };
  auto host_times = [&](bool traced) {
    HostTimes h;
    for (std::size_t k = 0; k < std::size_t(k_all); ++k) {
      std::vector<double> setup, run, raw;
      for (const Pass& p : passes) {
        if (p.traced != traced) continue;
        const double scale = 2 * kReferenceHostSeconds /
                             (p.reference_s[k] + p.reference_s[k + 1]);
        setup.push_back(p.runs[k].setup_s * scale);
        run.push_back(p.runs[k].run_s * scale);
        raw.push_back(p.runs[k].run_s);
      }
      h.setup_s.push_back(median(setup));
      h.run_s.push_back(median(run));
      h.raw_run_s.push_back(median(raw));
    }
    return h;
  };
  const HostTimes untraced = host_times(false);
  const double events =
      sum(set, [](const SubRun& r) { return double(r.events); });
  const double delivered =
      sum(set, [](const SubRun& r) { return double(r.sim.delivered); });
  const double emitted =
      sum(set, [](const SubRun& r) { return double(r.sim.emitted); });
  const double untraced_run_s = mean(untraced.run_s);
  std::vector<double> reference_s;
  for (const Pass& p : passes) {
    reference_s.insert(reference_s.end(), p.reference_s.begin(),
                       p.reference_s.end());
  }

  if (!trace) {
    add("setup_s", mean(untraced.setup_s), "s", quartiles(untraced.setup_s));
    add("run_s", untraced_run_s, "s", quartiles(untraced.run_s));
    add("events_per_s", ratio(events, untraced_run_s * k_d), "1/s");
    add("units_per_s", ratio(delivered, untraced_run_s * k_d), "1/s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    add("peak_rss_mb", double(usage.ru_maxrss) / 1024.0, "MB");

    const double requests =
        sum(set, [](const SubRun& r) { return r.sim.requests; });
    const double composed =
        sum(set, [](const SubRun& r) { return r.sim.composed; });
    const double timely =
        sum(set, [](const SubRun& r) { return double(r.sim.timely); });
    SummaryStats delay;
    std::vector<double> admit;
    for (const auto& r : set) {
      delay.merge(r.sim.delay_ms);
      admit.insert(admit.end(), r.admit_ms.begin(), r.admit_ms.end());
    }
    add("composed_fraction", ratio(composed, requests), "fraction");
    add("delivered_fraction", ratio(delivered, emitted), "fraction");
    add("timely_fraction", ratio(timely, delivered), "fraction");
    add("mean_delay_ms", delay.mean(), "ms");
    add("admit_p50_ms", quantile(admit, 0.5), "ms");
    add("admit_p80_ms", quantile(admit, 0.8), "ms");
    return result;
  }

  // Per-layer metrics, per world. Counts repeat exactly in every pass, so
  // they come from the first. Layer host times are not scaled; they come
  // from each world's fastest traced pass, so that a world's layer times
  // all come from one run.
  std::vector<const SubRun*> traced(std::size_t(k_all), nullptr);
  std::vector<std::size_t> traced_pass(std::size_t(k_all), 0);
  for (std::size_t p = 0; p < passes.size(); ++p) {
    if (!passes[p].traced) continue;
    for (std::size_t k = 0; k < traced.size(); ++k) {
      const SubRun& r = passes[p].runs[k];
      if (traced[k] == nullptr || r.run_s < traced[k]->run_s) {
        traced[k] = &r;
        traced_pass[k] = p;
      }
    }
  }
  auto per_run = [&](auto field) { return sum(set, field) / k_d; };
  auto traced_mean = [&](auto field) {
    double s = 0;
    for (const SubRun* r : traced) s += field(*r);
    return s / k_d;
  };
  auto count = [&](const char* name) {
    return per_run([name](const SubRun& r) { return r.counts.at(name); });
  };

  add("sim.events", events / k_d, "count");
  add("sim.events_per_unit", ratio(events, delivered), "count");
  double pending_max = 0;
  for (const auto& r : set) {
    pending_max = std::max(pending_max, double(r.pending_max));
  }
  add("sim.pending_max", pending_max, "count");
  add("sim.submit_s", traced_mean([](const SubRun& r) { return r.submit_s; }),
      "s");
  add("sim.steady_s", traced_mean([](const SubRun& r) { return r.steady_s; }),
      "s");
  for (const char* name :
       {"net.packets", "net.bytes", "net.port_drops", "net.bytes.runtime",
        "net.bytes.monitor", "net.bytes.overlay", "net.bytes.core"}) {
    add(name, count(name),
        std::string(name).starts_with("net.bytes") ? "bytes" : "count");
  }
  add("net.packets_per_unit",
      ratio(count("net.packets") * k_d, delivered), "count");
  const double build_s =
      traced_mean([](const SubRun& r) { return r.overlay_build_s; });
  add("overlay.build_s", build_s, "s");
  add("overlay.register_s",
      traced_mean([](const SubRun& r) { return r.setup_s; }) - build_s, "s");

  // Self time per span, and the checks that children nest inside their
  // parents and that spans plus the unspanned remainder add up to run_s,
  // over every traced pass.
  std::map<std::string, double> self_s;
  std::vector<double> compose_us;
  double unspanned_s = 0;
  for (std::size_t pi = 0; pi < passes.size(); ++pi) {
    const Pass& p = passes[pi];
    if (!p.traced) continue;
    const auto self = self_times(p.spans, &result.problems);
    std::vector<double> in_run(p.runs.size(), 0), slices(p.runs.size(), 0);
    for (std::size_t i = 0; i < p.spans.size(); ++i) {
      const Span& s = p.spans[i];
      const auto k = std::size_t(s.run);
      if (traced_pass[k] == pi) {
        self_s[s.name] += self[i];
        if (std::string_view(s.name) == "core.compose") {
          compose_us.push_back((s.end_s - s.start_s) * 1e6);
        }
      }
      if (std::string_view(p.spans[root_of(p.spans, i)].name) != "sim.slice") {
        continue;
      }
      in_run[k] += self[i];
      if (s.parent < 0) slices[k] += s.end_s - s.start_s;
    }
    for (std::size_t k = 0; k < p.runs.size(); ++k) {
      const double run_s = p.runs[k].run_s;
      const double unspanned = run_s - slices[k];
      if (traced_pass[k] == pi) unspanned_s += unspanned;
      if (unspanned < 0 || std::abs(in_run[k] + unspanned - run_s) > 1e-6) {
        result.problems.push_back("spans do not add up to run_s for seed " +
                                  std::to_string(p.runs[k].seed));
      }
    }
    if (spans_out != nullptr) {
      for (std::size_t i = 0; i < p.spans.size(); ++i) {
        const Span& s = p.spans[i];
        *spans_out << "{\"workload\": " << json_string(w.name)
                   << ", \"pass\": " << pi << ", \"run\": " << s.run
                   << ", \"seed\": " << p.runs[std::size_t(s.run)].seed
                   << ", \"id\": " << i << ", \"parent\": " << s.parent
                   << ", \"name\": " << json_string(s.name)
                   << ", \"start_s\": " << json_number(s.start_s)
                   << ", \"end_s\": " << json_number(s.end_s) << "}\n";
      }
    }
  }

  const double compose_s =
      traced_mean([](const SubRun& r) { return r.compose_s; });
  const double traced_run_s = traced_mean([](const SubRun& r) { return r.run_s; });
  add("core.compose_calls",
      per_run([](const SubRun& r) { return double(r.compose_calls); }),
      "count");
  add("core.compose_s", compose_s, "s");
  add("core.compose_p50_us", quantile(compose_us, 0.5), "us");
  add("core.compose_p80_us", quantile(compose_us, 0.8), "us");
  add("core.compose_share", ratio(compose_s, traced_run_s), "fraction");
  add("core.admitted", count("core.admitted"), "count");
  add("core.rejected", count("core.rejected"), "count");
  add("core.adapt_solves", count("core.adapt_solves"), "count");
  add("core.adapt_solve_s", traced_mean([](const SubRun& r) {
        return r.counts.at("core.adapt_solve_s");
      }),
      "s");
  add("core.adapt_deltas", count("core.adapt_deltas"), "count");
  add("monitor.stats_requests", count("monitor.stats_requests"), "count");
  add("runtime.units_emitted", emitted / k_d, "count");
  add("runtime.units_delivered", delivered / k_d, "count");
  add("runtime.drops_queue_full", count("runtime.drops_queue_full"), "count");
  add("runtime.drops_deadline", count("runtime.drops_deadline"), "count");
  add("runtime.useful_ratio", ratio(delivered, emitted), "fraction");
  add("chaos.faults", count("chaos.faults"), "count");
  add("obs.snapshot_s",
      traced_mean([](const SubRun& r) { return r.snapshot_s; }), "s");
  add("obs.rows", per_run([](const SubRun& r) { return double(r.rows); }),
      "count");
  add("trace.overhead", ratio(mean(host_times(true).run_s), untraced_run_s),
      "ratio");
  for (const char* name : span_names()) {
    add(self_metric_name(name), self_s[name] / k_d, "s");
  }
  add("trace.unspanned_s", unspanned_s / k_d, "s");
  add("host.reference_s", median(reference_s), "s");
  add("host.raw_run_s", mean(untraced.raw_run_s), "s");
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Deploy timeouts are counted as failed requests in the result; the
  // per-occurrence warnings would only bury the report.
  rasc::util::set_log_level(rasc::util::LogLevel::kError);
  try {
    rasc::util::Flags flags(argc, argv);
    const std::string workload = flags.get_string("workload", "all");
    const auto seed = std::uint64_t(flags.get_int("seed", 42));
    const double seconds = flags.get_double("seconds", 25);
    const auto trace = flags.get_int("trace", 0);
    const std::string revision = flags.get_string("revision", "unknown");
    const std::string spans_path = flags.get_string("spans", "");
    const auto worlds = flags.get_int("worlds", 0);
    flags.finish();
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    if (!(seconds >= 0) || worlds < 0) {
      throw std::invalid_argument("--seconds and --worlds must be >= 0");
    }
    std::vector<const Workload*> selected;
    for (const auto& w : workloads()) {
      if (workload == w.name || (workload == "all" && w.listed)) {
        selected.push_back(&w);
      }
    }
    if (selected.empty()) {
      throw std::invalid_argument("unknown --workload " + workload);
    }

    std::vector<std::string> warnings;
    const std::string manifest =
        manifest_json(revision, seed, workload, seconds, int(trace),
                      int(worlds), &warnings);
    std::printf("manifest %s\n", manifest.c_str());
    for (const auto& w : warnings) {
      std::fprintf(stderr, "perfbench: warning: %s\n", w.c_str());
    }

    std::ofstream spans_out;
    if (trace == 1) {
      const std::string path =
          spans_path.empty() ? "perfbench-spans-" + workload + "-seed" +
                                   std::to_string(seed) + ".jsonl"
                             : spans_path;
      const auto dir = std::filesystem::path(path).parent_path();
      if (!dir.empty()) std::filesystem::create_directories(dir);
      spans_out.open(path);
      if (!spans_out) throw std::runtime_error("cannot write " + path);
      spans_out << "{\"manifest\": " << manifest << "}\n";
      std::printf("spans -> %s\n", path.c_str());
    }

    bool correct = true;
    int attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> all_metrics;
    for (const Workload* w : selected) {
      const auto r = run_workload(*w, seed, seconds, trace == 1,
                                  int(worlds),
                                  trace == 1 ? &spans_out : nullptr);
      attempted += r.attempted;
      failed += r.failed;
      for (const auto& e : r.errors) {
        std::fprintf(stderr, "perfbench: %s run aborted, %s\n",
                     w->name.c_str(), e.c_str());
        std::printf("  ERROR run aborted, %s\n", e.c_str());
        correct = false;
      }
      for (const auto& p : r.problems) {
        std::printf("  CHECK FAILED %s\n", p.c_str());
        correct = false;
      }
      std::printf("  requests %d, failed %d\n", r.attempted, r.failed);
      for (const auto& m : r.metrics) {
        std::printf("  %-26s %16s %-8s %s\n", m.name.c_str(),
                    json_number(m.value).c_str(), m.unit.c_str(),
                    m.spread.c_str());
        const std::string key =
            selected.size() == 1 ? m.name : w->name + "." + m.name;
        all_metrics.emplace_back(key, m);
      }
      std::fflush(stdout);
    }
    if (spans_out.is_open()) {
      spans_out.close();
      if (!spans_out) throw std::runtime_error("writing spans failed");
    }

    std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    for (std::size_t i = 0; i < all_metrics.size(); ++i) {
      const auto& [key, m] = all_metrics[i];
      json += (i ? ", " : "") + json_string(key) + ": {\"value\": " +
              json_number(m.value) + ", \"unit\": " + json_string(m.unit) +
              "}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  } catch (...) {
    std::fprintf(stderr, "perfbench: unknown exception\n");
    return 2;
  }
}
