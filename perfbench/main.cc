// The repository benchmark. One process runs one workload, drives it through
// the public API for a fixed time, checks every output against a reference,
// and prints its metrics. perfbench/run.py builds this binary and runs it;
// BENCHMARK.json names the workloads and metrics.
//
//   perfbench --workload q7_spill|serve_adhoc --seed N
//             --seconds S --trace 0|1 --spill-dir DIR --state-dir DIR
//
// Workloads (why each was chosen is recorded in BENCHMARK.json):
//   q7_spill     closed loop, TPC-H Q7 above a 256 KiB budget: shuffle,
//                breakers, spill and record encode/decode carry the time.
//                No spilled run is skipped through its zone map at this
//                budget, so zone-map skipping is not exercised.
//   serve_adhoc  open loop against a QueryServer, 60% of the requests fresh
//                Q7 programs the plan cache has not seen: annotation, plan
//                search, costing and admission carry the latency. Nothing
//                spills, so it is also the no-spill case.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
// untraced units and prints the per-layer metrics, taken by timing calls into
// each module from here (see trace.h). The last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}; a table with sample counts
// precedes it. A drifting deterministic counter or a workload that no longer
// has the shape it was chosen for ends the run with exit code 3.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/annotation_provider.h"
#include "api/optimized_program.h"
#include "engine/executor.h"
#include "optimizer/physical.h"
#include "optimizer/plan_cache.h"
#include "record/spill_file.h"
#include "reorder/plan.h"
#include "serve/query_server.h"
#include "trace.h"
#include "workloads/clickstream.h"
#include "workloads/textmining.h"
#include "workloads/tpch.h"

namespace perfbench {
namespace {

using namespace blackbox;

// Shared by every workload: the simulated cluster width and the number of
// set-up repetitions whose median is setup_s.
constexpr int kDop = 8;
constexpr int kSetupReps = 5;

// Closed-loop workloads: one client, two worker threads. Two threads are the
// most that stay steady on a shared four-core machine.
constexpr int kClosedThreads = 2;
// Spill files live inside the benchmark's own directory, on whatever disk
// holds it. Measured on a shared 4-core machine with an ext4 disk: at 32 KiB
// and 128 KiB a Q7 job writes 500 to 1100 spill files (and spilled build runs
// are skipped through zone maps), and file system time swung run medians by
// 30-40%. At 320 KiB the volume spilled depends on the seed (3 to 9 MB per
// job), which showed as spread between seeds. At 256 KiB a job spills 18 to
// 20 MB through every breaker kind whatever the seed. From 448 KiB on the
// chosen plan does not spill.
constexpr double kQ7SpillBudget = 256.0 * 1024;

// serve_adhoc: offered rate, server shape, and the request mix.
// 40 requests/s is about half the knee; at that load, slow periods of a
// shared machine showed up as queueing and moved p99 by 35% from run to run.
// At 24 requests/s a 45 s window holds over 1000 requests, so p99 has ten
// samples beyond it, and requests rarely overlap.
constexpr double kServeRate = 24.0;  // requests per second
// The open loop runs this long at kServeRate before the measured window:
// the first second of a fresh loop ran two to four times slower (allocator
// and page growth). Warm-up requests are checked but not reported.
constexpr double kServeWarmupSeconds = 2.0;
constexpr int kServeThreads = 2;
constexpr int kServeInflight = 2;
// Each request executes (and a fresh one is costed) on one thread, so the two
// pool threads serve two requests side by side. Split over both threads, a
// request waits for its slower half whenever another process takes a core;
// measured over six seeds, that doubled the run-to-run spread of job_p90_s
// and req_p99_s.
constexpr int kServeRequestThreads = 1;
// The request mix is dealt in blocks of 10: per block, 6 fresh and 2 reused
// q7 requests, 1 reused textmining and 1 reused clickstream request, in a
// seeded order. Every stretch of the run then has the planned mix, and a
// seed changes only the order and the inputs. A fresh Q7 request (optimize
// ~20 ms, execution ~6 ms) is the slowest class; the text-mining and
// clickstream inputs are sized so that their execution stays below it. So
// p50, p90 and p99 all fall inside the fresh-Q7 cluster, whose time is
// mostly the optimize path. Interpreter-bound execution ran up to 1.8x
// faster or slower with the host's state on a shared machine, while the
// optimize path moved by about 5%; with percentiles on the edge between
// classes or on an execution-bound class, job_p90_s and req_p99_s spread
// past their bounds from run to run.
struct ClassSlots {
  int fresh;
  int reused;
};
const ClassSlots kClassSlots[] = {{6, 2}, {0, 1}, {0, 1}};
// Every class's latency limit, armed as each request's deadline: far above
// the healthy p99 (tens of ms), so only a broken server misses it.
constexpr double kClassLimit = 1.0;
constexpr double kFreshShare = 0.6;  // planned share; see kClassSlots
constexpr double kFreshShareTolerance = 0.1;
// Budgets stay above what any class needs, so no request spills: spill time
// on the benchmark's disk is noisy, and this workload is about the optimize
// and admission path, not the data plane.
constexpr double kFreshBudgetMin = 512.0 * 1024;
constexpr double kFreshBudgetMax = 2048.0 * 1024;
const double kFixedBudgets[] = {768.0 * 1024, 1536.0 * 1024};
constexpr double kMaxGenLagP99 = 0.25;  // seconds; past it the load is invalid

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spill_dir;
  std::string state_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--spill-dir") {
      args->spill_dir = value;
    } else if (key == "--state-dir") {
      args->state_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && !args->workload.empty() &&
         args->seconds > 0 && !args->spill_dir.empty() &&
         !args->state_dir.empty();
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stdout);
  std::exit(3);
}

void CheckOk(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Nearest-rank percentile (p in (0, 100]); 0 for no samples.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// A tail percentile that one host stall cannot move alone: the samples, in
/// arrival order, are cut into kTailChunks consecutive chunks and the median
/// of the chunks' percentiles is reported.
constexpr size_t kTailChunks = 10;
double TailPercentile(const std::vector<double>& ordered, double p) {
  if (ordered.size() < kTailChunks) return Percentile(ordered, p);
  std::vector<double> per_chunk;
  for (size_t k = 0; k < kTailChunks; ++k) {
    per_chunk.push_back(Percentile(
        std::vector<double>(ordered.begin() + k * ordered.size() / kTailChunks,
                            ordered.begin() +
                                (k + 1) * ordered.size() / kTailChunks),
        p));
  }
  return Median(per_chunk);
}

/// splitmix64: a portable seeded stream for the request mix.
class Rng64 {
 public:
  explicit Rng64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Bag-equality form of a sink output: records sorted, then encoded. Two
/// plans of one flow must produce the same string (the paper's claim that
/// licensed reorderings keep the flow's meaning).
std::string Canonical(const DataSet& data) {
  std::vector<Record> records = data.records();
  std::sort(records.begin(), records.end());
  std::string bytes;
  for (const Record& r : records) EncodeRecord(r, &bytes);
  return bytes;
}

/// Per-job counters the engine promises are a pure function of plan, data,
/// dop and budget — identical at every thread count, job after job.
struct Counts {
  int64_t network_bytes = 0;
  int64_t disk_bytes = 0;
  int64_t output_rows = 0;
  int64_t instructions = 0;
  int64_t udf_calls = 0;

  static Counts Of(const engine::ExecStats& s) {
    return {s.network_bytes, s.disk_bytes, s.output_rows,
            s.interp_instructions, s.udf_calls};
  }
  bool operator==(const Counts& o) const {
    return network_bytes == o.network_bytes && disk_bytes == o.disk_bytes &&
           output_rows == o.output_rows && instructions == o.instructions &&
           udf_calls == o.udf_calls;
  }
  std::string ToString() const {
    return std::to_string(network_bytes) + " " + std::to_string(disk_bytes) +
           " " + std::to_string(output_rows) + " " +
           std::to_string(instructions) + " " + std::to_string(udf_calls);
  }
};

/// Checks Counts for exact repeats: within the run per key, and across runs
/// of the same binary and seed through a file in the state directory.
class RepeatCheck {
 public:
  RepeatCheck(const std::string& state_dir, const std::string& workload,
              uint64_t seed, const std::string& binary) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(state_dir, ec);
    path_ = state_dir + "/counts-" + workload + "-seed" +
            std::to_string(seed) + ".txt";
    // A rebuilt binary may legitimately count differently: key the stored
    // counts by the binary's size and modification time.
    stamp_ = std::to_string(fs::file_size(binary, ec)) + ":" +
             std::to_string(
                 fs::last_write_time(binary, ec).time_since_epoch().count());
    std::ifstream in(path_);
    std::string line;
    if (std::getline(in, line) && line == "stamp " + stamp_) {
      while (std::getline(in, line)) {
        size_t sep = line.find('|');
        if (sep != std::string::npos) {
          previous_[line.substr(0, sep)] = line.substr(sep + 1);
        }
      }
    }
  }

  void Check(const std::string& key, const engine::ExecStats& stats) {
    const Counts counts = Counts::Of(stats);
    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = seen_.emplace(key, counts);
    if (!inserted && !(it->second == counts)) {
      Fatal("deterministic counters drifted within the run for " + key +
            ": " + it->second.ToString() + " vs " + counts.ToString() +
            " (network disk output_rows instructions udf_calls)");
    }
    auto prev = previous_.find(key);
    if (prev != previous_.end() && prev->second != counts.ToString()) {
      Fatal("deterministic counters drifted across runs for " + key + ": " +
            prev->second + " vs " + counts.ToString());
    }
  }

  /// Persists this run's counts for the next run with the same seed.
  void Save() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::string> all = previous_;
    for (const auto& [key, counts] : seen_) all[key] = counts.ToString();
    std::ofstream out(path_);
    out << "stamp " << stamp_ << "\n";
    for (const auto& [key, counts] : all) out << key << "|" << counts << "\n";
  }

 private:
  std::string path_;
  std::string stamp_;
  std::map<std::string, std::string> previous_;
  mutable std::mutex mu_;
  std::map<std::string, Counts> seen_;  // guarded by mu_
};

// ---------------------------------------------------------------------------
// Timed calls into the library.

/// Delegates to the SCA provider and records an sca.annotate span. Reports
/// the inner provider's name, so plan-cache keys are those of plain SCA.
class TracedProvider : public api::AnnotationProvider {
 public:
  TracedProvider(const api::AnnotationProvider& inner, Tracer& tracer,
                 uint64_t unit, uint64_t parent)
      : inner_(inner), tracer_(tracer), unit_(unit), parent_(parent) {}

  std::string name() const override { return inner_.name(); }
  bool deterministic() const override { return inner_.deterministic(); }
  StatusOr<dataflow::AnnotatedFlow> Annotate(
      const dataflow::DataFlow& flow,
      const api::SourceBindings& sources) const override {
    Clock::time_point start = Clock::now();
    StatusOr<dataflow::AnnotatedFlow> out = inner_.Annotate(flow, sources);
    end_ = Clock::now();
    tracer_.Record(0, parent_, unit_, "sca.annotate", start, *end_);
    return out;
  }

  /// End of the last Annotate call, if any.
  std::optional<Clock::time_point> end() const { return end_; }

 private:
  const api::AnnotationProvider& inner_;
  Tracer& tracer_;
  const uint64_t unit_;
  const uint64_t parent_;
  mutable std::optional<Clock::time_point> end_;
};

/// What a cold (not plan-cache) optimization reported through the
/// OptimizedProgram accessors.
struct ColdOptimize {
  double enumeration_s = 0;
  double costing_s = 0;
  double plans_enumerated = 0;
  double plans_pruned = 0;
  double plans_discovered = 0;
};

/// Shared state of one benchmark process.
struct Bench {
  Bench(const Args& a, const std::string& binary)
      : args(a),
        tracer(a.trace),
        repeats(a.state_dir, a.workload, a.seed, binary) {}

  Args args;
  Tracer tracer;
  RepeatCheck repeats;
  api::ScaProvider sca;
  std::vector<double> setup_s;        // per set-up repetition
  std::vector<double> gen_s;          // per set-up repetition
  std::vector<ColdOptimize> cold;     // appended by one thread at a time
};

struct Optimized {
  StatusOr<api::OptimizedProgram> program = Status::Internal("unset");
  Clock::time_point start;
  Clock::time_point end;
};

/// api::OptimizeFlow with the SCA provider. When `traced`, records the
/// api.optimize span (id `span`) and, for a cold optimization, its
/// sca.annotate child plus enumerate.search and optimizer.costing children
/// laid out after the annotation from the program's phase timings.
Optimized Optimize(Bench& bench, const workloads::Workload& w,
                   const api::SourceBindings& sources,
                   const api::OptimizeOptions& options, bool traced,
                   uint64_t unit, uint64_t parent, uint64_t span) {
  Optimized out;
  TracedProvider provider(bench.sca, bench.tracer, unit, span);
  const api::AnnotationProvider& used =
      traced ? static_cast<const api::AnnotationProvider&>(provider)
             : bench.sca;
  out.start = Clock::now();
  out.program = api::OptimizeFlow(w.flow, used, options, sources);
  out.end = Clock::now();
  if (!out.program.ok()) return out;
  const api::OptimizedProgram& p = *out.program;
  if (!p.from_plan_cache()) {
    bench.cold.push_back(
        {p.enumeration_seconds(), p.costing_seconds(),
         static_cast<double>(p.plans_enumerated()),
         static_cast<double>(p.plans_pruned()),
         static_cast<double>(p.num_alternatives())});
  }
  if (!traced) return out;
  bench.tracer.Record(span, parent, unit, "api.optimize", out.start, out.end);
  if (!p.from_plan_cache()) {
    auto clip = [&](Clock::time_point t) { return std::min(t, out.end); };
    auto after = [](Clock::time_point t, double s) {
      return t + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(s));
    };
    Clock::time_point a = provider.end().value_or(out.start);
    Clock::time_point b = after(a, p.enumeration_seconds());
    Clock::time_point c = after(b, p.costing_seconds());
    bench.tracer.Record(0, span, unit, "enumerate.search", clip(a), clip(b));
    bench.tracer.Record(0, span, unit, "optimizer.costing", clip(b), clip(c));
  }
  return out;
}

api::SourceBindings Bind(const workloads::Workload& w) {
  api::SourceBindings sources;
  for (const auto& [id, data] : w.source_data) sources[id] = &data;
  return sources;
}

/// The correctness oracle: the flow exactly as written (no reordering),
/// physically planned and executed once.
std::string ImplementedOutput(Bench& bench, const workloads::Workload& w,
                              const engine::ExecOptions& exec) {
  Clock::time_point start = Clock::now();
  StatusOr<dataflow::AnnotatedFlow> af = bench.sca.Annotate(w.flow, {});
  CheckOk(af.status(), "oracle annotate " + w.name);
  optimizer::CostWeights weights;
  weights.dop = exec.dop;
  weights.mem_budget_bytes = exec.mem_budget_bytes;
  StatusOr<optimizer::PhysicalPlan> plan = optimizer::OptimizePhysical(
      *af, reorder::PlanFromFlow(*af->owner), weights);
  CheckOk(plan.status(), "oracle plan " + w.name);
  engine::Executor executor(&*af, exec);
  for (const auto& [id, data] : w.source_data) executor.BindSource(id, &data);
  StatusOr<DataSet> out = executor.Execute(*plan);
  CheckOk(out.status(), "oracle run " + w.name);
  bench.tracer.Record(0, 0, 0, "engine.oracle", start, Clock::now());
  return Canonical(*out);
}

workloads::Workload Generate(Bench& bench,
                             const std::function<workloads::Workload()>& make,
                             double* gen_s) {
  Clock::time_point start = Clock::now();
  workloads::Workload w = make();
  Clock::time_point end = Clock::now();
  bench.tracer.Record(0, 0, 0, "workloads.gen", start, end);
  *gen_s += Seconds(start, end);
  return w;
}

// ---------------------------------------------------------------------------
// Samples and results.

/// One job (closed loop) or request (open loop).
struct Sample {
  bool traced = false;
  bool completed = false;  // OK status; only these units carry latencies
  bool ok = false;         // completed with output equal to the oracle
  bool missed = false;     // failed, rejected, or over the class limit
  bool from_cache = false;
  bool fresh = false;      // serve_adhoc: drawn as a fresh program
  double job_s = 0;        // optimize + execution
  double req_s = 0;        // due -> result
  double lag_s = 0;        // due -> issued
  double optimize_s = 0;
  double queue_s = 0;      // optimize end -> execution start
  double exec_s = 0;
  engine::ExecStats stats;
};

struct RunResult {
  std::vector<Sample> samples;
  std::vector<uint64_t> traced_units;
  double window_s = 0;      // first due -> last result
  double exec_cpu_s = 0;    // process CPU during execution
  double exec_wall_s = 0;   // wall the CPU figure is over
  optimizer::PlanCacheStats cache_before;
  optimizer::PlanCacheStats cache_after;
  serve::MetricsSnapshot serve;
  double carved_high_water = 0;
  int64_t live_high_water = 0;
  int64_t ledger_violations = 0;
};

// ---------------------------------------------------------------------------
// Closed loop: q7_spill.

struct ClosedWorkload {
  workloads::Workload w;
  api::SourceBindings sources;
  std::string oracle;
  api::OptimizeOptions options;
};

ClosedWorkload SetupClosed(Bench& bench,
                           const std::function<workloads::Workload()>& make,
                           double budget) {
  ClosedWorkload cw;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    optimizer::PlanCache::Global().Clear();
    double gen_s = 0;
    cw.w = Generate(bench, make, &gen_s);
    cw.sources = Bind(cw.w);
    cw.options = api::OptimizeOptions{};
    cw.options.exec.dop = kDop;
    cw.options.exec.num_threads = kClosedThreads;
    cw.options.exec.mem_budget_bytes = budget;
    cw.options.exec.spill_dir = bench.args.spill_dir;
    cw.oracle = ImplementedOutput(bench, cw.w, cw.options.exec);
    // Warm-up: the cold optimization fills the plan cache; a run of the best
    // plan settles the allocator and the page cache of the spill files.
    for (int k = 0; k < 2; ++k) {
      Optimized o = Optimize(bench, cw.w, cw.sources, cw.options,
                             bench.args.trace, 0, 0, bench.tracer.NewId());
      CheckOk(o.program.status(), "warm-up optimize");
      if (k == 0) continue;
      engine::ExecStats stats;
      StatusOr<DataSet> out = o.program->Run(0, &stats);
      CheckOk(out.status(), "warm-up run");
      if (Canonical(*out) != cw.oracle) {
        Fatal("warm-up output of " + cw.w.name + " differs from the oracle");
      }
      bench.repeats.Check(cw.w.name, stats);
    }
    bench.setup_s.push_back(Seconds(start, Clock::now()));
    bench.gen_s.push_back(gen_s);
  }
  return cw;
}

RunResult RunClosed(Bench& bench, const ClosedWorkload& cw) {
  RunResult r;
  r.cache_before = optimizer::PlanCache::Global().stats();
  const Clock::time_point begin = Clock::now();
  const Clock::time_point stop =
      begin + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(bench.args.seconds));
  Clock::time_point due = begin;
  for (uint64_t unit = 1; Clock::now() < stop; ++unit) {
    Sample s;
    s.traced = bench.args.trace && unit % 2 == 1;
    const uint64_t root = bench.tracer.NewId();
    const Clock::time_point issued = Clock::now();
    Optimized o = Optimize(bench, cw.w, cw.sources, cw.options, s.traced, unit,
                           root, bench.tracer.NewId());
    engine::ExecStats stats;
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point run_start = Clock::now();
    StatusOr<DataSet> out = o.program.ok()
                                ? o.program->Run(0, &stats)
                                : StatusOr<DataSet>(o.program.status());
    const Clock::time_point run_end = Clock::now();
    r.exec_cpu_s += ProcessCpuSeconds() - cpu0;
    r.exec_wall_s += Seconds(run_start, run_end);

    s.optimize_s = Seconds(o.start, o.end);
    s.queue_s = Seconds(o.end, run_start);
    s.exec_s = Seconds(run_start, run_end);
    s.job_s = Seconds(o.start, run_end);
    s.req_s = Seconds(issued, run_end);
    s.lag_s = Seconds(due, issued);
    s.from_cache = o.program.ok() && o.program->from_plan_cache();
    s.stats = stats;
    if (s.traced) {
      bench.tracer.Record(0, root, unit, "engine.run", run_start, run_end);
      bench.tracer.Record(root, 0, unit, "harness.job", issued, run_end);
      r.traced_units.push_back(unit);
    }
    // Checking is outside every timed interval.
    s.completed = out.ok();
    s.ok = out.ok() && Canonical(*out) == cw.oracle;
    if (!out.ok()) {
      std::fprintf(stderr, "job %llu: %s\n",
                   static_cast<unsigned long long>(unit),
                   out.status().ToString().c_str());
    } else {
      bench.repeats.Check(cw.w.name, stats);
    }
    s.missed = !s.ok;
    r.samples.push_back(s);
    due = Clock::now();
    r.window_s = Seconds(begin, run_end);
  }
  r.cache_after = optimizer::PlanCache::Global().stats();
  return r;
}

// ---------------------------------------------------------------------------
// Open loop: serve_adhoc.

struct ServeClass {
  std::string name;
  workloads::Workload w;
  api::SourceBindings sources;
  std::string oracle;
};

struct ServeWorkload {
  std::vector<ServeClass> classes;
  api::OptimizeOptions options;  // exec.mem_budget_bytes set per request
  serve::ServeOptions serve_options;
  std::unique_ptr<serve::QueryServer> server;
};

std::vector<std::function<workloads::Workload()>> ServeMakers(uint64_t seed) {
  workloads::TpchScale tpch;
  tpch.lineitems = 3000;
  tpch.orders = 750;
  tpch.customers = 75;
  tpch.suppliers = 25;
  tpch.seed = seed;
  workloads::TextMiningScale mining;
  mining.documents = 1000;
  mining.seed = seed;
  workloads::ClickstreamScale click;
  click.sessions = 800;
  click.users = 120;
  click.seed = seed;
  return {[tpch] { return workloads::MakeTpchQ7(tpch); },
          [mining] { return workloads::MakeTextMining(mining); },
          [click] { return workloads::MakeClickstream(click); }};
}

/// Submits one request and waits for it; used only by set-up.
serve::QueryResult SubmitAndWait(serve::QueryServer& server,
                                 const api::OptimizedProgram& program,
                                 const ServeClass& c,
                                 const engine::ExecOptions& exec) {
  serve::QueryRequest request;
  request.program = &program;
  request.tenant = c.name;
  request.workload_class = c.name;
  request.exec = exec;
  StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
      server.Submit(std::move(request));
  CheckOk(handle.status(), "warm-up submit");
  return (*handle)->Wait();
}

void SetupServe(Bench& bench, ServeWorkload* sw) {
  static const char* kNames[] = {"q7", "textmining", "clickstream"};
  const auto makers = ServeMakers(bench.args.seed);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    optimizer::PlanCache::Global().Clear();
    sw->server.reset();
    sw->classes.clear();
    sw->options = api::OptimizeOptions{};
    sw->options.exec.dop = kDop;
    sw->options.exec.num_threads = kServeRequestThreads;
    sw->serve_options = serve::ServeOptions{};
    sw->serve_options.max_inflight = kServeInflight;
    sw->serve_options.max_queued = 4096;
    sw->serve_options.num_threads = kServeThreads;
    sw->serve_options.spill_root = bench.args.spill_dir;
    double gen_s = 0;
    for (size_t i = 0; i < makers.size(); ++i) {
      ServeClass c;
      c.name = kNames[i];
      c.w = Generate(bench, makers[i], &gen_s);
      sw->classes.push_back(std::move(c));
    }
    sw->server = std::make_unique<serve::QueryServer>(sw->serve_options);
    for (ServeClass& c : sw->classes) {
      c.sources = Bind(c.w);
      engine::ExecOptions exec = sw->options.exec;
      exec.mem_budget_bytes = kFixedBudgets[0];
      c.oracle = ImplementedOutput(bench, c.w, exec);
      // Warm-up: every fixed budget's program enters the plan cache and runs
      // once through the server.
      for (double budget : kFixedBudgets) {
        api::OptimizeOptions options = sw->options;
        options.exec.mem_budget_bytes = budget;
        Optimized o = Optimize(bench, c.w, c.sources, options,
                               bench.args.trace, 0, 0, bench.tracer.NewId());
        CheckOk(o.program.status(), "warm-up optimize");
        serve::QueryResult result =
            SubmitAndWait(*sw->server, *o.program, c, options.exec);
        CheckOk(result.status, "warm-up request");
        if (Canonical(result.output) != c.oracle) {
          Fatal("warm-up output of " + c.name + " differs from the oracle");
        }
        bench.repeats.Check(c.name + "@" + std::to_string(budget),
                            result.stats);
      }
    }
    bench.setup_s.push_back(Seconds(start, Clock::now()));
    bench.gen_s.push_back(gen_s);
  }
}

struct MixDraw {
  size_t cls = 0;
  bool fresh = false;
};

/// One block of the request mix (see kClassSlots), shuffled.
std::vector<MixDraw> DealMixBlock(Rng64& rng) {
  std::vector<MixDraw> block;
  for (size_t cls = 0; cls < std::size(kClassSlots); ++cls) {
    for (int k = 0; k < kClassSlots[cls].fresh; ++k) {
      block.push_back({cls, true});
    }
    for (int k = 0; k < kClassSlots[cls].reused; ++k) {
      block.push_back({cls, false});
    }
  }
  for (size_t i = block.size() - 1; i > 0; --i) {
    std::swap(block[i], block[rng.Next() % (i + 1)]);
  }
  return block;
}

/// A submitted request awaiting its result.
struct Pending {
  uint64_t unit = 0;
  size_t cls = 0;
  double budget = 0;
  Sample sample;
  Clock::time_point due;
  Clock::time_point submitted;
  uint64_t root = 0;
  std::unique_ptr<api::OptimizedProgram> program;
  std::shared_ptr<serve::QueryHandle> handle;
  Status submit_status = Status::OK();
};

RunResult RunServe(Bench& bench, ServeWorkload& sw) {
  RunResult r;
  Rng64 rng(bench.args.seed * 0x2545f4914f6cdd1dULL + 1);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::unique_ptr<Pending>> pending;  // guarded by mu
  bool generator_done = false;                   // guarded by mu

  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point start = Clock::now();
  const int64_t warmup =
      static_cast<int64_t>(kServeWarmupSeconds * kServeRate);
  const int64_t total =
      warmup + static_cast<int64_t>(bench.args.seconds * kServeRate);
  const Clock::time_point begin =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warmup / kServeRate));

  // One generator thread: optimizes and submits each request at its
  // scheduled time, never waiting for results.
  std::thread generator([&] {
    std::vector<MixDraw> block;
    for (int64_t i = 0; i < total; ++i) {
      auto p = std::make_unique<Pending>();
      p->unit = static_cast<uint64_t>(i) + 1;
      p->due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(i / kServeRate));
      if (block.empty()) block = DealMixBlock(rng);
      p->cls = block.back().cls;
      p->sample.fresh = block.back().fresh;
      block.pop_back();
      const size_t fixed = rng.Next() % std::size(kFixedBudgets);
      const double u = rng.Uniform();
      p->budget = p->sample.fresh ? kFreshBudgetMin +
                                        u * (kFreshBudgetMax - kFreshBudgetMin)
                                  : kFixedBudgets[fixed];
      p->sample.traced = bench.args.trace && i >= warmup && p->unit % 2 == 1;
      std::this_thread::sleep_until(p->due);
      // Only this thread optimizes, so the plan-cache counters read here
      // cover exactly the measured requests.
      if (i == warmup) r.cache_before = optimizer::PlanCache::Global().stats();
      const ServeClass& c = sw.classes[p->cls];
      p->root = bench.tracer.NewId();
      const Clock::time_point issued = Clock::now();
      p->sample.lag_s = Seconds(p->due, issued);
      api::OptimizeOptions options = sw.options;
      options.exec.mem_budget_bytes = p->budget;
      Optimized o = Optimize(bench, c.w, c.sources, options, p->sample.traced,
                             p->unit, p->root, bench.tracer.NewId());
      p->sample.optimize_s = Seconds(o.start, o.end);
      if (!o.program.ok()) {
        p->submit_status = o.program.status();
      } else {
        p->sample.from_cache = o.program->from_plan_cache();
        p->program = std::make_unique<api::OptimizedProgram>(
            std::move(o.program).value());
        serve::QueryRequest request;
        request.program = p->program.get();
        request.tenant = c.name;
        request.workload_class = c.name;
        request.deadline =
            p->due + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kClassLimit));
        request.exec = options.exec;
        p->submitted = Clock::now();
        StatusOr<std::shared_ptr<serve::QueryHandle>> handle =
            sw.server->Submit(std::move(request));
        if (handle.ok()) {
          p->handle = std::move(handle).value();
        } else {
          p->submit_status = handle.status();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        pending.push_back(std::move(p));
      }
      cv.notify_one();
    }
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
    cv.notify_one();
  });

  // This thread collects results in submission order and checks them.
  Clock::time_point last_result = begin;
  for (;;) {
    std::unique_ptr<Pending> p;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !pending.empty() || generator_done; });
      if (pending.empty()) break;
      p = std::move(pending.front());
      pending.pop_front();
    }
    Sample& s = p->sample;
    const ServeClass& c = sw.classes[p->cls];
    if (p->unit <= static_cast<uint64_t>(warmup)) {
      if (!p->handle) Fatal("warm-up submit: " + p->submit_status.ToString());
      const serve::QueryResult& result = p->handle->Wait();
      CheckOk(result.status, "warm-up request");
      if (Canonical(result.output) != c.oracle) {
        Fatal("warm-up output of " + c.name + " differs from the oracle");
      }
      continue;
    }
    if (!p->handle) {
      std::fprintf(stderr, "request %llu (%s): %s\n",
                   static_cast<unsigned long long>(p->unit), c.name.c_str(),
                   p->submit_status.ToString().c_str());
      s.ok = false;
      s.missed = true;
      r.samples.push_back(s);
      continue;
    }
    const serve::QueryResult& result = p->handle->Wait();
    const Clock::time_point exec_start =
        p->submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(result.queue_seconds));
    const Clock::time_point done =
        p->submitted + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(result.total_seconds));
    s.queue_s = result.queue_seconds + Seconds(p->due, p->submitted) -
                s.lag_s - s.optimize_s;
    s.exec_s = result.exec_seconds;
    s.job_s = s.optimize_s + s.exec_s;
    s.req_s = Seconds(p->due, done);
    s.stats = result.stats;
    last_result = std::max(last_result, done);
    if (s.traced) {
      bench.tracer.Record(0, p->root, p->unit, "serve.queue", p->submitted,
                          exec_start);
      bench.tracer.Record(0, p->root, p->unit, "engine.run", exec_start, done);
      bench.tracer.Record(p->root, 0, p->unit, "harness.request", p->due, done);
      r.traced_units.push_back(p->unit);
    }
    if (!result.status.ok()) {
      std::fprintf(stderr, "request %llu (%s): %s\n",
                   static_cast<unsigned long long>(p->unit), c.name.c_str(),
                   result.status.ToString().c_str());
    } else {
      s.completed = true;
      s.ok = Canonical(result.output) == c.oracle;
      if (!s.ok) {
        std::fprintf(stderr, "request %llu (%s): output differs from the "
                             "oracle\n",
                     static_cast<unsigned long long>(p->unit), c.name.c_str());
      }
      if (!s.fresh) {
        bench.repeats.Check(c.name + "@" + std::to_string(p->budget),
                            result.stats);
      }
    }
    s.missed = !s.ok || s.req_s > kClassLimit;
    r.samples.push_back(s);
  }
  generator.join();
  sw.server->Drain();
  r.window_s = Seconds(begin, last_result);
  r.exec_cpu_s = ProcessCpuSeconds() - cpu0;
  r.exec_wall_s = Seconds(start, Clock::now());
  r.cache_after = optimizer::PlanCache::Global().stats();
  r.serve = sw.server->metrics().Snapshot();
  r.carved_high_water = sw.server->budget_pool().carved_high_water();
  r.live_high_water = sw.server->budget_pool().live_high_water();
  r.ledger_violations = sw.server->budget_pool().violations();
  return r;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  size_t samples = 0;
};

enum class Which { kAll, kTraced, kUntraced };

/// One timing per completed unit: a unit that failed or was rejected counts
/// in fail_frac and miss_frac, not in the latency percentiles, where its
/// early end would read as a gain.
std::vector<double> Collect(const std::vector<Sample>& samples,
                            double Sample::*field, Which which) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (!s.completed) continue;
    if (which == Which::kTraced && !s.traced) continue;
    if (which == Which::kUntraced && s.traced) continue;
    out.push_back(s.*field);
  }
  return out;
}

std::vector<Metric> EndToEnd(const Bench& bench, const RunResult& r) {
  const std::vector<Sample>& s = r.samples;
  const std::vector<double> job = Collect(s, &Sample::job_s, Which::kAll);
  const std::vector<double> req = Collect(s, &Sample::req_s, Which::kAll);
  size_t completed = 0;
  for (const Sample& x : s) completed += x.ok ? 1 : 0;
  return {
      {"setup_s", Median(bench.setup_s), "s", bench.setup_s.size()},
      {"job_p50_s", Percentile(job, 50), "s", job.size()},
      {"job_p90_s", TailPercentile(job, 90), "s", job.size()},
      {"jobs_per_s", completed / r.window_s, "1/s", completed},
      {"req_p50_s", Percentile(req, 50), "s", req.size()},
      {"req_p99_s", TailPercentile(req, 99), "s", req.size()},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
  };
}

std::vector<Metric> PerLayer(const Bench& bench, const RunResult& r) {
  const std::vector<Sample>& s = r.samples;
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, std::string unit,
                  size_t samples) {
    m.push_back({std::move(name), value, std::move(unit), samples});
  };
  const size_t n = s.size();

  // Failures, against the units attempted.
  size_t failed = 0, missed = 0;
  for (const Sample& x : s) {
    failed += x.ok ? 0 : 1;
    missed += x.missed ? 1 : 0;
  }
  add("fail_frac", static_cast<double>(failed) / n, "fraction", n);
  add("miss_frac", static_cast<double>(missed) / n, "fraction", n);

  // workloads and sca: per call, set-up included (the timed loops of the
  // closed workloads never annotate; plan_cache.misses counts the timed
  // units that did).
  add("workloads.gen_s", Median(bench.gen_s), "s", bench.gen_s.size());
  const std::vector<double> annotate = bench.tracer.Durations("sca.annotate");
  add("sca.annotate_s", Median(annotate), "s", annotate.size());

  // api, enumerate, optimizer, plan_cache.
  const std::vector<double> opt =
      Collect(s, &Sample::optimize_s, Which::kTraced);
  add("api.optimize_p50_s", Percentile(opt, 50), "s", opt.size());
  add("api.optimize_p99_s", Percentile(opt, 99), "s", opt.size());
  std::vector<double> enum_s, cost_s, enumerated;
  double pruned = 0, discovered = 0;
  for (const ColdOptimize& c : bench.cold) {
    enum_s.push_back(c.enumeration_s);
    cost_s.push_back(c.costing_s);
    enumerated.push_back(c.plans_enumerated);
    pruned += c.plans_pruned;
    discovered += c.plans_discovered;
  }
  add("enumerate.s", Median(enum_s), "s", enum_s.size());
  add("enumerate.plans_enumerated", Median(enumerated), "count",
      enumerated.size());
  add("enumerate.prune_ratio", discovered > 0 ? pruned / discovered : 0,
      "fraction", bench.cold.size());
  add("optimizer.costing_s", Median(cost_s), "s", cost_s.size());
  const double hits =
      static_cast<double>(r.cache_after.hits - r.cache_before.hits);
  const double misses =
      static_cast<double>(r.cache_after.misses - r.cache_before.misses);
  add("plan_cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
      "fraction", static_cast<size_t>(hits + misses));
  add("plan_cache.misses", misses, "count", n);

  // engine, record, interp, tac: timings of traced units; counters are
  // means over every unit.
  const std::vector<double> run = Collect(s, &Sample::exec_s, Which::kTraced);
  add("engine.run_p50_s", Percentile(run, 50), "s", run.size());
  add("engine.run_p90_s", Percentile(run, 90), "s", run.size());
  add("engine.run_p99_s", Percentile(run, 99), "s", run.size());
  add("engine.cpu_per_wall", r.exec_cpu_s / r.exec_wall_s, "ratio", n);
  auto mean = [&](int64_t engine::ExecStats::*field) {
    double sum = 0;
    for (const Sample& x : s) sum += static_cast<double>(x.stats.*field);
    return sum / n;
  };
  using ES = engine::ExecStats;
  add("engine.network_bytes", mean(&ES::network_bytes), "bytes", n);
  add("engine.records_processed", mean(&ES::records_processed), "count", n);
  add("engine.peak_bytes", mean(&ES::peak_bytes), "bytes", n);
  add("engine.disk_bytes", mean(&ES::disk_bytes), "bytes", n);
  add("engine.skipped_spill_bytes", mean(&ES::skipped_spill_bytes), "bytes",
      n);
  const double disk = mean(&ES::disk_bytes);
  const double skipped = mean(&ES::skipped_spill_bytes);
  add("record.skip_ratio", disk + skipped > 0 ? skipped / (disk + skipped) : 0,
      "fraction", n);
  add("record.skipped_batches", mean(&ES::skipped_batches), "count", n);
  add("record.projected_fields_skipped", mean(&ES::projected_fields_skipped),
      "count", n);
  add("interp.udf_calls", mean(&ES::udf_calls), "count", n);
  add("interp.instructions", mean(&ES::interp_instructions), "count", n);
  add("interp.cpu_burn_units", mean(&ES::cpu_burn_units), "count", n);
  add("tac.fused_chains", mean(&ES::fused_chains), "count", n);
  add("tac.instructions_saved", mean(&ES::specialized_instructions_saved),
      "count", n);

  // serve: queue wait is the gap between optimize and execution start — the
  // server's queue on serve_adhoc, the client's hand-off on q7_spill.
  const std::vector<double> queue =
      Collect(s, &Sample::queue_s, Which::kTraced);
  add("serve.queue_p50_s", Percentile(queue, 50), "s", queue.size());
  add("serve.queue_p99_s", Percentile(queue, 99), "s", queue.size());
  add("serve.admitted", r.serve.admitted, "count", n);
  add("serve.rejected", r.serve.rejected, "count", n);
  add("serve.queue_high_water", r.serve.queue_high_water, "count", n);
  add("serve.carved_high_water_bytes", r.carved_high_water, "bytes", n);
  add("serve.live_high_water_bytes", r.live_high_water, "bytes", n);
  add("serve.ledger_violations", r.ledger_violations, "count", n);

  // Self time per layer, as a share of the traced units' wall time.
  const std::map<std::string, double> self =
      bench.tracer.SelfSeconds(r.traced_units);
  double total = 0;
  for (const auto& [layer, seconds] : self) total += seconds;
  for (const char* layer : {"harness", "api", "sca", "enumerate", "optimizer",
                            "serve", "engine"}) {
    auto it = self.find(layer);
    const double seconds = it == self.end() ? 0 : it->second;
    add(std::string(layer) + ".self_frac", total > 0 ? seconds / total : 0,
        "fraction", r.traced_units.size());
  }

  // The harness itself: generator lag and the cost of tracing.
  const std::vector<double> lag = Collect(s, &Sample::lag_s, Which::kAll);
  add("harness.gen_lag_p99_s", Percentile(lag, 99), "s", lag.size());
  const std::vector<double> traced_job =
      Collect(s, &Sample::job_s, Which::kTraced);
  const std::vector<double> plain_job =
      Collect(s, &Sample::job_s, Which::kUntraced);
  add("harness.trace_overhead",
      Median(plain_job) > 0 ? Median(traced_job) / Median(plain_job) : 0,
      "ratio", traced_job.size());
  return m;
}

/// Fails the run if the workload no longer has the shape it was chosen for.
void CheckShape(const Args& args, const RunResult& r) {
  const size_t n = r.samples.size();
  if (n == 0) Fatal("no job completed within --seconds");
  double disk = 0;
  size_t cached = 0, fresh = 0, fresh_cold = 0;
  std::vector<double> lag;
  for (const Sample& s : r.samples) {
    disk += s.stats.disk_bytes;
    cached += s.from_cache ? 1 : 0;
    fresh += s.fresh ? 1 : 0;
    fresh_cold += s.fresh && !s.from_cache ? 1 : 0;
    lag.push_back(s.lag_s);
  }
  char buf[256];
  if (args.workload == "q7_spill") {
    if (disk <= 0) Fatal("shape: q7_spill did not spill");
    if (cached != n) Fatal("shape: q7_spill missed the plan cache");
  } else {
    if (disk != 0) Fatal("shape: serve_adhoc spilled");
    // Base: every request of the run. A reused program may also miss, after
    // LRU eviction by the fresh ones; a fresh program must never hit.
    const double share = static_cast<double>(n - cached) / n;
    std::snprintf(buf, sizeof(buf),
                  "plan-cache miss share %.3f of %zu requests (planned fresh "
                  "share %.2f): %zu fresh draws, %zu reused draws missed",
                  share, n, kFreshShare, fresh, n - cached - fresh_cold);
    std::fprintf(stderr, "perfbench: serve_adhoc %s\n", buf);
    if (std::fabs(share - kFreshShare) > kFreshShareTolerance) {
      Fatal(std::string("shape: ") + buf);
    }
    if (fresh_cold != fresh) Fatal("shape: a fresh program hit the plan cache");
    if (r.ledger_violations != 0) Fatal("shape: ledger violations");
    const double lag99 = Percentile(lag, 99);
    if (lag99 > kMaxGenLagP99) {
      std::snprintf(buf, sizeof(buf),
                    "shape: generator lag p99 %.3fs exceeds %.3fs", lag99,
                    kMaxGenLagP99);
      Fatal(buf);
    }
  }
}

void Print(const std::vector<Metric>& metrics, const RunResult& r) {
  size_t failed = 0;
  for (const Sample& s : r.samples) failed += s.ok ? 0 : 1;
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.9g %-8s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", r.samples.size(), failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --spill-dir DIR --state-dir DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.spill_dir, ec);
  if (ec) Fatal("cannot create spill dir " + args.spill_dir);

  const Clock::time_point epoch = Clock::now();
  Bench bench(args, argv[0]);
  RunResult result;
  if (args.workload == "q7_spill") {
    workloads::TpchScale scale;
    scale.lineitems = 120000;
    scale.orders = 30000;
    scale.customers = 3000;
    scale.suppliers = 100;
    scale.seed = args.seed;
    ClosedWorkload cw = SetupClosed(
        bench, [scale] { return workloads::MakeTpchQ7(scale); },
        kQ7SpillBudget);
    result = RunClosed(bench, cw);
  } else if (args.workload == "serve_adhoc") {
    ServeWorkload sw;
    SetupServe(bench, &sw);
    result = RunServe(bench, sw);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  CheckShape(args, result);
  bench.repeats.Save();
  if (args.trace) {
    const std::string path = args.state_dir + "/trace-" + args.workload +
                             "-seed" + std::to_string(args.seed) + ".json";
    if (!bench.tracer.WriteJson(path, epoch)) Fatal("cannot write " + path);
    std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
  }
  Print(args.trace ? PerLayer(bench, result) : EndToEnd(bench, result),
        result);
  return 0;
}
