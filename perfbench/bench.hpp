// End-to-end benchmark of the RASC simulator: workload table, span tracer
// and one instrumented simulated run. README.md explains the workloads and
// which layer metric should move which end-to-end metric.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  /// rasc_cli flags that reproduce one world (plus --seed).
  std::string flags;
  /// Worlds that make up the set: world i of seed s is repetition i of
  /// `rasc_cli <flags> --seed s --reps <worlds>`. Every pass runs them all.
  int worlds = 1;
  /// Part of the benchmark contract (run by `--workload all`). Unlisted
  /// workloads stay runnable by name to reproduce a known defect.
  bool listed = true;
};

const std::vector<Workload>& workloads();

/// Seed of world `i`: the seed rasc_cli --reps gives repetition i.
inline std::uint64_t world_seed(std::uint64_t base, int i) {
  return base + std::uint64_t(i) * 7919;
}

/// The RunConfig rasc_cli builds from `flags` and `seed`. Only the flags of
/// the centralized control plane without a deadline are accepted, because
/// drive() reproduces exactly that path; others throw
/// std::invalid_argument.
rasc::exp::RunConfig cli_config(const std::string& flags, std::uint64_t seed);

/// Host seconds since the first call (process-wide steady clock origin).
double host_now();

/// Runs a fixed piece of work that shares no code with the program and
/// returns the host seconds it took: a gauge of how fast the host runs
/// at that moment.
double reference_work_s();

/// reference_work_s() on the reference host (4-vCPU Xeon VM, gcc 12.2,
/// Release) when nothing else loads it. Host metrics are scaled to it.
inline constexpr double kReferenceHostSeconds = 0.021;

/// One timed interval at a layer boundary. `parent` indexes the enclosing
/// span in the same Tracer (-1 = none); `run` is the world index.
struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int run = -1;
};

/// Records spans in memory when enabled; when disabled, open() and close()
/// do nothing and read no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }
  const std::vector<Span>& spans() const { return spans_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name)
        : tracer_(tracer), id_(tracer.open(name)) {}
    ~Scope() { tracer_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int id_;
  };

 private:
  int open(const char* name);
  void close(int id);

  bool enabled_;
  int run_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Outcome of one simulated world driven through the benchmark's own
/// submission loop.
struct SubRun {
  std::uint64_t seed = 0;
  /// Non-empty when the run threw; every request then counts as failed.
  std::string error;

  // Host seconds.
  double setup_s = 0;     // exp::World construction
  double run_s = 0;       // first submission to end of drain
  double submit_s = 0;    // inside the submission window
  double steady_s = 0;    // steady streaming plus drain
  double overlay_build_s = 0;  // standalone build_overlay (traced runs)
  double snapshot_s = 0;       // MetricRegistry::snapshot after the run
  double compose_s = 0;        // inside Composer::compose (traced runs)

  std::int64_t events = 0;       // simulated events in the run window
  std::int64_t pending_max = 0;  // event queue length, max at slice ends
  std::int64_t compose_calls = 0;
  std::int64_t rows = 0;         // registry snapshot rows

  /// The paper's stream outcomes, collected exactly as run_experiment does.
  rasc::exp::RunMetrics sim;
  /// Per-layer counts read from the world's registry (README.md names).
  std::map<std::string, double> counts;
  /// SubmitOutcome::composition_latency of every request, in ms.
  std::vector<double> admit_ms;
  int outcomes = 0;
  int deploy_timeouts = 0;

  /// Hash of the registry snapshot, wall-clock cells excluded.
  std::uint64_t registry_digest = 0;
  /// Hash of registry_digest, the stream outcomes and admit_ms.
  std::uint64_t digest = 0;

  /// Requests whose deploy timed out or whose outcome never arrived; all
  /// of them when the run threw.
  int failed() const;
};

/// Runs one world. Host timings come from clocks read around calls into
/// the program; spans go to `tracer` when it is enabled.
SubRun drive(const rasc::exp::RunConfig& config, Tracer& tracer);

/// Compares `run` with exp::run_experiment on the same config: stream
/// outcomes and the registry digest must be identical. Returns an empty
/// string on a match, else what differed.
std::string check_fidelity(const rasc::exp::RunConfig& config,
                           const SubRun& run);

}  // namespace perfbench
