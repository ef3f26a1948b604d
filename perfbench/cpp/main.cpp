// Replay benchmark driver: runs one named workload through the ccnopt
// library's public API, times it against the frozen reference kernel,
// checks the outputs against the independent oracle, and prints one JSON
// result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out-dir <dir>
//   perfbench --selfcheck --seed <n> --seconds <s> --out-dir <dir>
//   perfbench --setup-only --workload <name> --seed <n>
//
// --trace 0 reports the end-to-end metrics (requests_per_s, setup_s,
// peak_rss_mib); --trace 1 reports the per-layer metrics instead, timed
// from outside around calls into each layer's public functions.
// --selfcheck runs the oracle's tests and the calibration self-check.
// --setup-only performs one cold set-up and prints its host seconds; the
// --trace 0 run starts one such process per round. See README.md for the
// method.
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "ccnopt/cache/policy.hpp"
#include "ccnopt/common/random.hpp"
#include "ccnopt/obs/export.hpp"
#include "ccnopt/obs/timeline.hpp"
#include "ccnopt/obs/topo.hpp"
#include "ccnopt/obs/trace.hpp"
#include "ccnopt/popularity/sampler.hpp"
#include "ccnopt/runtime/shard_scheduler.hpp"
#include "ccnopt/runtime/thread_pool.hpp"
#include "ccnopt/sim/metrics.hpp"
#include "ccnopt/sim/network.hpp"
#include "ccnopt/sim/sharded.hpp"
#include "ccnopt/sim/simulation.hpp"
#include "ccnopt/topology/datasets.hpp"
#include "ccnopt/topology/shortest_paths.hpp"
#include "kernel.hpp"
#include "oracle.hpp"

extern char** environ;

namespace {

using namespace ccnopt;
namespace oracle_ns = perfbench::oracle;
using Clock = std::chrono::steady_clock;

// Taken during static initialisation, before main(): the cold set-up is
// timed from here.
const Clock::time_point kProcessStart = Clock::now();

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---------------------------------------------------------------------------
// Calibration against the reference kernel.

// A kernel slice: 2^18 requests, ~75 ms on the reference host.
constexpr std::uint64_t kSliceRequests = 1ull << 18;

// The kernel's rate on the reference host, measured once (README.md,
// "Calibration"). Calibrated seconds are host seconds times the kernel's
// observed rate over the nominal one: what the interval would have taken
// on the reference host with the kernel at its nominal speed. Never change
// it without re-recording every figure in the README.
constexpr double kNominalKernelRate = 3.5e6;  // requests per second

/// Times slices of the reference kernel on one thread.
class Calibrator {
 public:
  explicit Calibrator(std::uint64_t seed)
      : kernel_(perfbench::ReplayKernel::Shape{}, seed ^ 0x6b65726e656cull) {
    kernel_.replay(kSliceRequests);  // fill the LRU; uncounted
  }

  /// Times one slice; returns its host seconds.
  double slice() {
    const Clock::time_point start = Clock::now();
    hits_ += kernel_.replay(kSliceRequests);
    const double seconds = seconds_since(start);
    requests_ += kSliceRequests;
    rates_.push_back(static_cast<double>(kSliceRequests) / seconds);
    return seconds;
  }

  /// Host-to-calibrated factor from the slices on either side of an
  /// interval (their host seconds): observed rate / nominal.
  double factor(double before_s, double after_s) const {
    return 2.0 * static_cast<double>(kSliceRequests) /
           (before_s + after_s) / kNominalKernelRate;
  }

  /// The same factor from the median rate of every slice so far.
  double median_factor() const;

  std::uint64_t hits() const { return hits_; }
  std::uint64_t requests() const { return requests_; }
  /// Rate of every slice so far.
  const std::vector<double>& rates() const { return rates_; }
  const perfbench::ReplayKernel::Shape& shape() const { return kernel_.shape(); }

 private:
  perfbench::ReplayKernel kernel_;
  std::uint64_t hits_ = 0;
  std::uint64_t requests_ = 0;
  std::vector<double> rates_;
};

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double Calibrator::median_factor() const { return median(rates_) / kNominalKernelRate; }

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  topology::Graph (*graph)() = nullptr;
  sim::SimConfig config;
  /// Writes timeline, topo, trace and metrics exports every trial.
  bool telemetry = false;
  /// Checks the origin load against Che's prediction.
  bool che_check = false;
  /// Checks the report against the single-shard engine's.
  bool compare_single_shard = false;
  /// Ranks whose probability mass bounds the network hit ratio under IRM:
  /// no placement can serve more than F(bound_ranks) of the requests.
  std::uint64_t bound_ranks = 0;
};

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  sim::SimConfig& c = w.config;
  c.seed = seed;
  c.zipf_s = 0.8;
  c.network.seed = seed;
  c.network.local_mode = sim::LocalStoreMode::kLru;
  c.network.catalog_size = 20000;
  c.network.capacity_c = 200;
  c.coordinated_x = 100;
  c.warmup_requests = 200000;
  c.measured_requests = 800000;
  w.graph = &topology::us_a;
  if (name == "usa-lru") {
    w.che_check = true;
  } else if (name == "usa-lru-4shards") {
    c.shards = 4;
    c.warmup_requests = 400000;
    c.measured_requests = 1600000;
    w.compare_single_shard = true;
  } else if (name == "geant-lcd-pit-telemetry") {
    w.graph = &topology::geant;
    c.network.strategy = "lcd";
    c.coordinated_x = 0;
    c.interest_aggregation = true;
    c.warmup_requests = 100000;
    c.measured_requests = 300000;
    c.timeline_epoch = 10000;
    c.record_topo = true;
    c.trace_sample_k = 100;
    w.telemetry = true;
  } else if (name == "webscale-lfu") {
    c.network.local_mode = sim::LocalStoreMode::kLfu;
    c.network.catalog_size = 10000000;
    c.network.capacity_c = 1000;
    c.coordinated_x = 500;
  } else {
    return std::nullopt;
  }
  const std::uint64_t routers = w.graph().node_count();
  w.bound_ranks = c.network.capacity_c - c.coordinated_x +
                  routers * c.coordinated_x;
  if (c.coordinated_x == 0) w.bound_ranks = routers * c.network.capacity_c;
  return w;
}

std::unique_ptr<sim::Simulation> build(const Workload& w) {
  auto simulation = std::make_unique<sim::Simulation>(w.graph(), w.config);
  simulation->network().provision(w.config.coordinated_x);
  return simulation;
}

// ---------------------------------------------------------------------------
// Shard executor that times every region from outside the engine.

/// Wraps the scheduler the sharded engine runs its regions on. A region's
/// stage is the order in which its body's call site first appeared (each
/// run_shards call site passes its own lambda type): the engine's first
/// window issues generate, merge, serve and record in that order, and
/// every later window repeats those call sites.
class TimingExecutor final : public sim::ShardExecutor {
 public:
  static constexpr std::size_t kStages = 4;  // generate, merge, serve, record

  explicit TimingExecutor(sim::ShardExecutor& inner) : inner_(inner) {}

  void run_shards(std::size_t count,
                  const std::function<void(std::size_t)>& body) override {
    const std::type_info& site = body.target_type();
    std::size_t stage = 0;
    while (stage < sites_.size() && *sites_[stage] != site) ++stage;
    if (stage == sites_.size()) sites_.push_back(&site);
    std::vector<double> body_s(count, 0.0);
    const Clock::time_point start = Clock::now();
    inner_.run_shards(count, [&](std::size_t i) {
      const Clock::time_point body_start = Clock::now();
      body(i);
      body_s[i] = seconds_since(body_start);
    });
    const double wall = seconds_since(start);
    double slowest = 0.0;
    double mean = 0.0;
    for (const double s : body_s) {
      slowest = std::max(slowest, s);
      mean += s;
    }
    mean /= static_cast<double>(std::max<std::size_t>(count, 1));
    if (stage < kStages) stage_wall[stage] += wall;
    region_wall += wall;
    imbalance += wall - mean;
    dispatch += wall - slowest;
    ++regions;
  }

  double stage_wall[kStages] = {0.0, 0.0, 0.0, 0.0};
  double region_wall = 0.0;
  double imbalance = 0.0;
  double dispatch = 0.0;
  std::uint64_t regions = 0;

 private:
  sim::ShardExecutor& inner_;
  std::vector<const std::type_info*> sites_;
};

// ---------------------------------------------------------------------------
// One trial: a whole run plus its exports.

struct WriterSeconds {
  double timeline = 0.0;
  double topo = 0.0;
  double trace = 0.0;
  double metrics = 0.0;
  std::uint64_t bytes = 0;
};

struct TrialResult {
  sim::SimReport report;
  double run_seconds = 0.0;  // run() alone, host time
  double seconds = 0.0;      // run() plus exports, host time
  WriterSeconds writers;
};

template <typename Write>
double timed_write(const std::filesystem::path& path, Write write,
                   std::uint64_t& bytes) {
  const Clock::time_point start = Clock::now();
  {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot open " + path.string());
    write(out);
    out.flush();
    if (!out) throw std::runtime_error("cannot write " + path.string());
  }
  const double seconds = seconds_since(start);
  bytes += std::filesystem::file_size(path);
  return seconds;
}

TrialResult run_trial(const Workload& w, sim::Simulation& simulation,
                      const std::filesystem::path& out_dir, bool exports) {
  TrialResult result;
  const Clock::time_point start = Clock::now();
  result.report = simulation.run();
  result.run_seconds = seconds_since(start);
  if (exports) {
    WriterSeconds& ws = result.writers;
    ws.timeline = timed_write(
        out_dir / (w.name + "-timeline.json"),
        [&](std::ostream& out) {
          obs::write_timeline_json(out, simulation.timeline());
        },
        ws.bytes);
    ws.topo = timed_write(
        out_dir / (w.name + "-topo.json"),
        [&](std::ostream& out) { obs::write_topo_json(out, simulation.topo()); },
        ws.bytes);
    ws.trace = timed_write(
        out_dir / (w.name + "-trace.json"),
        [&](std::ostream& out) {
          obs::write_traces_json(out, simulation.traces());
        },
        ws.bytes);
    ws.metrics = timed_write(
        out_dir / (w.name + "-metrics.json"),
        [&](std::ostream& out) { obs::export_snapshot(out); }, ws.bytes);
  }
  result.seconds = seconds_since(start);
  return result;
}

// ---------------------------------------------------------------------------
// Output checks.

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok && failures_.size() < 20) failures_.push_back(what);
    if (!ok) ++failed_;
  }
  bool ok() const { return failed_ == 0; }
  void print(std::ostream& out) const {
    for (const std::string& failure : failures_) {
      out << "perfbench: check failed: " << failure << "\n";
    }
  }

 private:
  std::vector<std::string> failures_;
  std::uint64_t failed_ = 0;
};

template <typename... Parts>
std::string text(const Parts&... parts) {
  std::ostringstream out;
  out.precision(10);
  (out << ... << parts);
  return out.str();
}

bool same_report(const sim::SimReport& a, const sim::SimReport& b) {
  return a.total_requests == b.total_requests &&
         a.aggregated_requests == b.aggregated_requests &&
         a.upstream_fetches == b.upstream_fetches &&
         a.local_fraction == b.local_fraction &&
         a.network_fraction == b.network_fraction &&
         a.origin_load == b.origin_load &&
         a.mean_latency_ms == b.mean_latency_ms &&
         a.mean_hops == b.mean_hops &&
         a.mean_local_latency_ms == b.mean_local_latency_ms &&
         a.mean_network_latency_ms == b.mean_network_latency_ms &&
         a.mean_origin_latency_ms == b.mean_origin_latency_ms &&
         a.coordination_messages == b.coordination_messages;
}

std::uint64_t tier_count(double fraction, std::uint64_t total) {
  return static_cast<std::uint64_t>(
      std::llround(fraction * static_cast<double>(total)));
}

/// Checks that hold for one report whatever the engine did.
void check_report(const Workload& w, const sim::SimReport& report,
                  Checks& checks, std::map<std::string, double>& notes) {
  const sim::SimConfig& c = w.config;
  const double measured = static_cast<double>(c.measured_requests);
  checks.expect(report.total_requests == c.measured_requests,
                text(w.name, ": total_requests ", report.total_requests,
                     " != measured ", c.measured_requests));
  // IRM bound: requests are independent of the cache state, so the chance
  // that the requested item is cached anywhere is at most the mass of the
  // bound_ranks most popular items.
  const oracle_ns::ZipfCdf zipf(c.network.catalog_size, c.zipf_s);
  const double floor = 1.0 - zipf(w.bound_ranks);
  const double tol = oracle_ns::binomial_halfwidth(floor, measured,
                                                   oracle_ns::kCheckZ);
  notes["irm_origin_floor"] = floor;
  checks.expect(report.origin_load >= floor - tol,
                text(w.name, ": origin load ", report.origin_load,
                     " below the IRM bound ", floor, " - ", tol));
  if (w.che_check) {
    const double che = oracle_ns::che_coordinated_origin_load(
        c.network.catalog_size, c.zipf_s, w.graph().node_count(),
        c.network.capacity_c, c.coordinated_x);
    const double che_tol =
        oracle_ns::binomial_halfwidth(che, measured, oracle_ns::kCheckZ);
    notes["che_origin_load"] = che;
    checks.expect(std::abs(report.origin_load - che) <= che_tol,
                  text(w.name, ": origin load ", report.origin_load,
                       " vs Che ", che, " +- ", che_tol));
  }
}

double column_sum_from(const obs::Timeline& timeline, const char* column,
                       std::uint64_t first_request) {
  const std::size_t index = timeline.column_index(column);
  if (index == obs::Timeline::npos) return -1.0;
  double sum = 0.0;
  for (const obs::TimelineEpoch& epoch : timeline.epochs()) {
    if (epoch.first_request >= first_request) sum += epoch.values[index];
  }
  return sum;
}

/// Telemetry reconciliation: the timeline's measured-phase epochs and the
/// topo recorder count every request that issued its own fetch by tier;
/// requests that joined an in-flight fetch (PIT) are counted by the
/// timeline's `aggregated` column and by the report under their fetch's
/// tier, never as local.
void check_telemetry(const Workload& w, const sim::Simulation& simulation,
                     const sim::SimReport& report, Checks& checks) {
  const std::uint64_t warmup = w.config.warmup_requests;
  const obs::Timeline& timeline = simulation.timeline();
  const auto sum = [&](const char* column) {
    return static_cast<std::uint64_t>(
        std::llround(column_sum_from(timeline, column, warmup)));
  };
  const std::uint64_t total = report.total_requests;
  const std::uint64_t local = tier_count(report.local_fraction, total);
  const std::uint64_t upstream =
      tier_count(report.network_fraction, total) +
      tier_count(report.origin_load, total);
  checks.expect(warmup % w.config.timeline_epoch == 0,
                "warmup is a whole number of epochs");
  checks.expect(sum("requests") == total,
                text("timeline requests ", sum("requests"), " != ", total));
  checks.expect(sum("local") == local,
                text("timeline local ", sum("local"), " != report ", local));
  checks.expect(
      sum("network") + sum("origin") + sum("aggregated") == upstream,
      text("timeline network+origin+aggregated ",
           sum("network") + sum("origin") + sum("aggregated"),
           " != report network+origin ", upstream));
  std::uint64_t topo_tiers[3] = {0, 0, 0};
  for (const obs::TopoNodeStats& node : simulation.topo().nodes()) {
    topo_tiers[0] += node.local;
    topo_tiers[1] += node.network;
    topo_tiers[2] += node.origin;
  }
  checks.expect(topo_tiers[0] == sum("local") &&
                    topo_tiers[1] == sum("network") &&
                    topo_tiers[2] == sum("origin"),
                text("topo tiers ", topo_tiers[0], "/", topo_tiers[1], "/",
                     topo_tiers[2], " != timeline ", sum("local"), "/",
                     sum("network"), "/", sum("origin")));
  checks.expect(!simulation.traces().empty(), "trace sampled no request");
}

void check_kernel(const Calibrator& calibrator, Checks& checks,
                  std::map<std::string, double>& notes) {
  const perfbench::ReplayKernel::Shape& shape = calibrator.shape();
  const oracle_ns::ZipfCdf zipf(shape.catalog, shape.exponent);
  std::vector<double> rates(shape.catalog);
  for (std::uint64_t k = 1; k <= shape.catalog; ++k) rates[k - 1] = zipf.pmf(k);
  const double che =
      oracle_ns::che_hit_ratio(rates, static_cast<double>(shape.capacity));
  const double requests = static_cast<double>(calibrator.requests());
  const double observed = static_cast<double>(calibrator.hits()) / requests;
  const double tol =
      oracle_ns::binomial_halfwidth(che, requests, oracle_ns::kCheckZ);
  notes["kernel_hit_ratio"] = observed;
  notes["kernel_che_hit_ratio"] = che;
  checks.expect(std::abs(observed - che) <= tol,
                text("kernel hit ratio ", observed, " vs Che ", che, " +- ",
                     tol));
}

// ---------------------------------------------------------------------------
// JSON output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
        << metrics[i].unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_detail(const std::map<std::string, double>& detail) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"perfbench_detail\": {";
  bool first = true;
  for (const auto& [key, value] : detail) {
    out << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

/// Peak resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is not used: Linux carries it across exec, so it reports the
/// launching interpreter's footprint when that is larger.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// ---------------------------------------------------------------------------
// Options.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selfcheck = false;
  bool setup_only = false;
  std::filesystem::path out_dir = ".";
};

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selfcheck") {
      options.selfcheck = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else {
      std::cerr << "perfbench: unknown or incomplete argument '" << arg
                << "'\n";
      return std::nullopt;
    }
  }
  if (!(options.seconds > 0.0)) {
    std::cerr << "perfbench: --seconds must be positive\n";
    return std::nullopt;
  }
  return options;
}


struct Executor {
  std::unique_ptr<runtime::ThreadPool> pool;
  std::unique_ptr<runtime::ShardScheduler> scheduler;
};

/// The worker pool of a sharded workload: one worker. ShardScheduler runs
/// each region's last shard on the calling thread and the others on the
/// worker, so at most two threads run at once. Four threads were not
/// steady on a host whose CPUs are shared (README.md, "Workloads").
Executor make_executor(const Workload& w) {
  Executor executor;
  if (w.config.shards > 1) {
    executor.pool = std::make_unique<runtime::ThreadPool>(1);
    executor.scheduler =
        std::make_unique<runtime::ShardScheduler>(*executor.pool);
  }
  return executor;
}

void check_single_shard(const Workload& w, const sim::SimReport& sharded,
                        Checks& checks) {
  if (!w.compare_single_shard) return;
  Workload single = w;
  single.config.shards = 1;
  const sim::SimReport report = build(single)->run();
  checks.expect(same_report(report, sharded),
                text(w.name, ": sharded report differs from the single-shard "
                             "engine's (origin ",
                     sharded.origin_load, " vs ", report.origin_load, ")"));
}

std::uint64_t replayed_requests(const Workload& w) {
  return w.config.warmup_requests + w.config.measured_requests;
}

// ---------------------------------------------------------------------------
// Cold set-ups, one per fresh process.

/// Cold set-up, from process start to the first request: the worker pool,
/// the topology, the network's routing and owner tables, the workload's
/// sampler, and provisioning. Prints its host seconds.
int run_setup_only(const Workload& w) {
  Executor executor = make_executor(w);
  std::unique_ptr<sim::Simulation> simulation = build(w);
  const double seconds = seconds_since(kProcessStart);
  std::ostringstream out;
  out.precision(17);
  out << seconds << "\n";
  std::cout << out.str() << std::flush;
  return 0;
}

/// Runs this executable with --setup-only in a fresh process, waits for it
/// to end, and returns the host seconds of its cold set-up.
double cold_setup_in_child(const Options& options) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const std::string exe = "/proc/self/exe";
  std::vector<std::string> args = {exe,         "--setup-only",
                                   "--workload", options.workload,
                                   "--seed",     std::to_string(options.seed)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string output;
  if (spawned == 0) {
    char buffer[256];
    ssize_t got = 0;
    while ((got = read(fds[0], buffer, sizeof(buffer))) != 0) {
      if (got > 0) output.append(buffer, static_cast<std::size_t>(got));
      else if (errno != EINTR) break;
    }
  }
  close(fds[0]);
  if (spawned != 0) throw std::runtime_error("cannot start a set-up process");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  char* end = nullptr;
  const double seconds = std::strtod(output.c_str(), &end);
  if (end == output.c_str() || !(seconds > 0.0)) {
    throw std::runtime_error("set-up process printed '" + output + "'");
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// --trace 0: the end-to-end metrics.

int run_end_to_end(const Options& options, const Workload& w) {
  Executor executor = make_executor(w);
  const double requests = static_cast<double>(replayed_requests(w));
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Checks checks;
  std::optional<sim::SimReport> first;

  // A first trial, before the calibrator and its kernels exist, so that
  // the peak resident set is the program's own. It warms up and is not
  // timed; later trials replay the same inputs and reach the same peak.
  ++attempted;
  try {
    std::unique_ptr<sim::Simulation> simulation = build(w);
    simulation->set_shard_executor(executor.scheduler.get());
    const TrialResult trial =
        run_trial(w, *simulation, options.out_dir, w.telemetry);
    first = trial.report;
    if (w.telemetry) check_telemetry(w, *simulation, trial.report, checks);
  } catch (const std::exception& error) {
    ++failed;
    std::cerr << "perfbench: first trial failed: " << error.what() << "\n";
  }
  const double peak_rss = peak_rss_mib();

  // Rounds of: a cold set-up in a fresh process, a trial, a kernel slice.
  // A trial is calibrated by the slices around it. A set-up, at ~2.5 ms, is
  // far shorter than a slice: the median set-up is calibrated by the
  // kernel's median rate over the run.
  Calibrator calibrator(options.seed);
  double before = calibrator.slice();
  std::vector<double> calibrated_rps;
  std::vector<double> raw_rps;
  std::vector<double> raw_setup;
  std::vector<double> factors;
  const Clock::time_point measure_start = Clock::now();
  for (std::uint64_t round = 1;; ++round) {
    const Clock::time_point round_start = Clock::now();
    std::optional<double> setup_s;
    std::optional<double> trial_s;
    attempted += 2;
    try {
      setup_s = cold_setup_in_child(options);
    } catch (const std::exception& error) {
      ++failed;
      std::cerr << "perfbench: round " << round
                << " set-up failed: " << error.what() << "\n";
    }
    try {
      std::unique_ptr<sim::Simulation> simulation = build(w);
      simulation->set_shard_executor(executor.scheduler.get());
      const TrialResult trial =
          run_trial(w, *simulation, options.out_dir, w.telemetry);
      trial_s = trial.seconds;
      if (!first) first = trial.report;
      checks.expect(same_report(*first, trial.report),
                    text(w.name, ": round ", round,
                         " report differs from the first trial's"));
    } catch (const std::exception& error) {
      ++failed;
      std::cerr << "perfbench: round " << round
                << " trial failed: " << error.what() << "\n";
    }
    const double after = calibrator.slice();
    const double factor = calibrator.factor(before, after);
    before = after;
    factors.push_back(factor);
    if (setup_s) raw_setup.push_back(*setup_s);
    if (trial_s) {
      raw_rps.push_back(requests / *trial_s);
      calibrated_rps.push_back(requests / (*trial_s * factor));
    }
    const double round_s = seconds_since(round_start);
    if (round >= 3 &&
        seconds_since(measure_start) + round_s > options.seconds) {
      break;
    }
  }

  std::map<std::string, double> detail;
  if (first) {
    check_report(w, *first, checks, detail);
    check_single_shard(w, *first, checks);
  } else {
    checks.expect(false, "no trial completed");
  }
  check_kernel(calibrator, checks, detail);
  checks.print(std::cerr);

  const double setup_s = median(raw_setup) * calibrator.median_factor();
  detail["trials"] = static_cast<double>(calibrated_rps.size());
  detail["setups"] = static_cast<double>(raw_setup.size());
  detail["requests_per_trial"] = requests;
  detail["raw_requests_per_s"] = median(raw_rps);
  detail["raw_setup_s"] = median(raw_setup);
  detail["calibration_factor"] = median(factors);
  detail["kernel_rate"] = median(calibrator.rates());
  detail["origin_load"] = first ? first->origin_load : 0.0;
  print_detail(detail);
  print_result(checks.ok() && !calibrated_rps.empty() &&
                   !raw_setup.empty(),
               attempted, failed,
               {{"requests_per_s", median(calibrated_rps), "1/s"},
                {"setup_s", setup_s, "s"},
                {"peak_rss_mib", peak_rss, "MiB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// --trace 1: the per-layer metrics, timed from outside.

constexpr std::size_t kLayerOps = 1u << 20;

/// Repeats `body` until at least `min_seconds` passed; returns the mean
/// host seconds per call.
template <typename Body>
double mean_seconds(Body body, double min_seconds) {
  std::uint64_t calls = 0;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  do {
    body();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

/// Host times (seconds or nanoseconds) and ratios of one round of layer
/// calls; every key named *_s or *_ns is a time.
using Sample = std::map<std::string, double>;

void measure_layers(const Workload& w, std::uint64_t seed, Sample& out,
                    Checks& checks) {
  const sim::SimConfig& c = w.config;
  const std::uint64_t catalog = c.network.catalog_size;
  const double ops = static_cast<double>(kLayerOps);

  // common: the arrival clock's exponential draws.
  {
    Rng rng(seed);
    double sum = 0.0;
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kLayerOps; ++i) sum += rng.exponential(1.0);
    out["random.exponential_ns"] = seconds_since(start) / ops * 1e9;
    checks.expect(std::abs(sum / ops - 1.0) <= oracle_ns::kCheckZ / std::sqrt(ops),
                  text("exponential draws average ", sum / ops));
  }

  // popularity: building the workload's sampler, then block draws.
  std::unique_ptr<popularity::RankSampler> sampler;
  out["popularity.build_s"] = mean_seconds(
      [&] { sampler = popularity::make_zipf_sampler(catalog, c.zipf_s); },
      0.02);
  std::vector<std::uint64_t> contents(kLayerOps);
  {
    Rng rng(seed + 1);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kLayerOps; i += 256) {
      sampler->sample_block(rng, contents.data() + i, 256);
    }
    out["popularity.draw_ns"] = seconds_since(start) / ops * 1e9;
    const oracle_ns::ZipfCdf zipf(catalog, c.zipf_s);
    const double expected = zipf(100);
    const double observed =
        static_cast<double>(std::count_if(
            contents.begin(), contents.end(),
            [](std::uint64_t k) { return k >= 1 && k <= 100; })) /
        ops;
    checks.expect(std::abs(observed - expected) <=
                      oracle_ns::binomial_halfwidth(expected, ops,
                                                    oracle_ns::kCheckZ),
                  text("sampler P(rank <= 100) ", observed, " vs F(100) ",
                       expected));
  }

  // topology: the shortest-path tables.
  const topology::Graph graph = w.graph();
  out["topology.routing_s"] =
      mean_seconds([&] { (void)topology::all_pairs(graph); }, 0.02);

  // strategy: provisioning an epoch.
  sim::NetworkConfig network_config = c.network;
  network_config.track_link_load = c.record_topo;
  sim::CcnNetwork network(graph, network_config);
  out["strategy.provision_s"] =
      mean_seconds([&] { network.provision(c.coordinated_x); }, 0.02);

  // cache: the workload's local policy and index, replayed directly.
  {
    const cache::PolicyKind kind =
        c.network.local_mode == sim::LocalStoreMode::kLfu
            ? cache::PolicyKind::kLfu
            : cache::PolicyKind::kLru;
    const std::unique_ptr<cache::CachePolicy> policy = cache::make_policy(
        kind, c.network.capacity_c - c.coordinated_x, seed,
        cache::IndexSpec{cache::IndexMode::kAuto, catalog});
    std::uint64_t hits = 0;
    const Clock::time_point start = Clock::now();
    for (const std::uint64_t content : contents) hits += policy->admit(content);
    out["cache.admit_ns"] = seconds_since(start) / ops * 1e9;
    out["cache.local_hit_ratio"] = static_cast<double>(hits) / ops;
  }

  // sim: serve() over a pre-drawn stream, then the metrics record path.
  const std::size_t routers = graph.node_count();
  std::vector<std::uint32_t> first_hops(kLayerOps);
  {
    Rng rng(seed + 2);
    for (std::uint32_t& router : first_hops) {
      router = static_cast<std::uint32_t>(rng.uniform_int(0, routers - 1));
    }
  }
  std::vector<std::uint8_t> tiers(kLayerOps);
  std::vector<double> latencies(kLayerOps);
  std::vector<std::uint32_t> hops(kLayerOps);
  network.provision(c.coordinated_x);
  {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kLayerOps; ++i) {
      const sim::ServeResult result = network.serve(first_hops[i], contents[i]);
      tiers[i] = static_cast<std::uint8_t>(result.tier);
      latencies[i] = result.latency_ms;
      hops[i] = result.hops;
    }
    out["network.serve_ns"] = seconds_since(start) / ops * 1e9;
  }
  {
    sim::MetricsCollector metrics;
    metrics.resize_routers(routers);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kLayerOps; ++i) {
      metrics.record(first_hops[i], static_cast<sim::ServeTier>(tiers[i]),
                     latencies[i], hops[i]);
    }
    out["metrics.record_ns"] = seconds_since(start) / ops * 1e9;
    checks.expect(metrics.total_requests() == kLayerOps,
                  "metrics collector lost records");
  }
}

int run_traced(const Options& options, const Workload& w) {
  Executor executor = make_executor(w);
  Calibrator calibrator(options.seed);
  Checks checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> rounds;
  const double requests = static_cast<double>(replayed_requests(w));

  double before = calibrator.slice();
  const Clock::time_point measure_start = Clock::now();
  for (std::uint64_t round = 0;; ++round) {
    const Clock::time_point round_start = Clock::now();
    Sample sample;
    try {
      // Untraced run: the reference for the tracing overhead and the
      // source of the program's own phase clocks.
      ++attempted;
      std::unique_ptr<sim::Simulation> plain = build(w);
      plain->set_shard_executor(executor.scheduler.get());
      const TrialResult untraced =
          run_trial(w, *plain, options.out_dir, w.telemetry);
      std::map<std::string, double> notes;
      check_report(w, untraced.report, checks, notes);
      if (w.telemetry) check_telemetry(w, *plain, untraced.report, checks);
      const sim::Simulation::PhaseSeconds phases = plain->last_phase_seconds();
      sample["sim.warmup_s"] = phases.warmup;
      sample["sim.measured_s"] = phases.measured;
      sample["sim.record_s"] = plain->last_record_seconds();
      const double joined =
          static_cast<double>(untraced.report.aggregated_requests);
      sample["pit.aggregated_share"] =
          joined / std::max(1.0, joined + static_cast<double>(
                                              untraced.report.upstream_fetches));
      sample["obs.timeline_write_s"] = untraced.writers.timeline;
      sample["obs.topo_write_s"] = untraced.writers.topo;
      sample["obs.trace_write_s"] = untraced.writers.trace;
      sample["obs.metrics_export_s"] = untraced.writers.metrics;
      sample["obs.bytes_written"] = static_cast<double>(untraced.writers.bytes);
      plain.reset();

      // Traced run: the same replay with every shard region timed. Off the
      // sharded engine there is no region to time, hence no traced run and
      // no overhead.
      static const char* const kStageNames[TimingExecutor::kStages] = {
          "sharded.generate_s", "sharded.merge_s", "sharded.serve_s",
          "sharded.record_s"};
      for (const char* name : kStageNames) sample[name] = 0.0;
      sample["sharded.between_regions_s"] = 0.0;
      sample["sharded.imbalance_s"] = 0.0;
      sample["runtime.dispatch_s"] = 0.0;
      sample["sharded.regions"] = 0.0;
      sample["trace.overhead_share"] = 0.0;
      if (executor.scheduler) {
        ++attempted;
        TimingExecutor timing(*executor.scheduler);
        std::unique_ptr<sim::Simulation> traced_sim = build(w);
        traced_sim->set_shard_executor(&timing);
        const TrialResult traced =
            run_trial(w, *traced_sim, options.out_dir, w.telemetry);
        traced_sim.reset();
        checks.expect(same_report(traced.report, untraced.report),
                      "traced run's report differs from the untraced run's");
        sample["trace.overhead_share"] =
            (traced.seconds - untraced.seconds) / untraced.seconds;
        for (std::size_t stage = 0; stage < TimingExecutor::kStages; ++stage) {
          sample[kStageNames[stage]] = timing.stage_wall[stage];
        }
        sample["sharded.between_regions_s"] =
            traced.run_seconds - timing.region_wall;
        sample["sharded.imbalance_s"] = timing.imbalance;
        sample["runtime.dispatch_s"] = timing.dispatch;
        sample["sharded.regions"] = static_cast<double>(timing.regions);
      }

      // Recording off: what the telemetry costs the same run.
      sample["obs.recording_share"] = 0.0;
      if (w.telemetry) {
        ++attempted;
        Workload quiet = w;
        quiet.config.timeline_epoch = 0;
        quiet.config.record_topo = false;
        quiet.config.trace_sample_k = 0;
        std::unique_ptr<sim::Simulation> quiet_sim = build(quiet);
        const TrialResult off =
            run_trial(quiet, *quiet_sim, options.out_dir, false);
        sample["obs.recording_share"] =
            (untraced.seconds - off.seconds) / untraced.seconds;
      }

      measure_layers(w, options.seed, sample, checks);
      sample["network.serve_share"] =
          sample["network.serve_ns"] * 1e-9 * requests / untraced.run_seconds;
    } catch (const std::exception& error) {
      ++failed;
      std::cerr << "perfbench: round " << round
                << " failed: " << error.what() << "\n";
    }
    const double after = calibrator.slice();
    const double factor = calibrator.factor(before, after);
    before = after;
    for (const auto& [name, value] : sample) {
      const bool is_time = name.ends_with("_s") || name.ends_with("_ns");
      rounds[name].push_back(is_time ? value * factor : value);
    }
    const double round_s = seconds_since(round_start);
    if (seconds_since(measure_start) + round_s > options.seconds) break;
  }
  std::map<std::string, double> detail;
  check_kernel(calibrator, checks, detail);
  checks.print(std::cerr);

  static const std::map<std::string, std::string> kUnits = {
      {"random.exponential_ns", "ns"},   {"popularity.draw_ns", "ns"},
      {"popularity.build_s", "s"},       {"topology.routing_s", "s"},
      {"strategy.provision_s", "s"},     {"cache.admit_ns", "ns"},
      {"cache.local_hit_ratio", "ratio"}, {"network.serve_ns", "ns"},
      {"network.serve_share", "ratio"},  {"metrics.record_ns", "ns"},
      {"sim.warmup_s", "s"},             {"sim.measured_s", "s"},
      {"sim.record_s", "s"},             {"pit.aggregated_share", "ratio"},
      {"sharded.generate_s", "s"},       {"sharded.merge_s", "s"},
      {"sharded.serve_s", "s"},          {"sharded.record_s", "s"},
      {"sharded.between_regions_s", "s"}, {"sharded.imbalance_s", "s"},
      {"runtime.dispatch_s", "s"},       {"sharded.regions", "count"},
      {"obs.timeline_write_s", "s"},     {"obs.topo_write_s", "s"},
      {"obs.trace_write_s", "s"},        {"obs.metrics_export_s", "s"},
      {"obs.bytes_written", "bytes"},    {"obs.recording_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : kUnits) {
    const auto found = rounds.find(name);
    metrics.push_back({name, found == rounds.end() ? 0.0 : median(found->second),
                       unit});
  }
  detail["rounds"] = static_cast<double>(
      rounds.empty() ? 0 : rounds.begin()->second.size());
  detail["kernel_rate"] = median(calibrator.rates());
  print_detail(detail);
  print_result(checks.ok() && failed < attempted, attempted, failed, metrics);
  return 0;
}


// ---------------------------------------------------------------------------
// --selfcheck: the oracle's tests and the calibration self-check.

struct Throughput {
  double raw = 0.0;
  double calibrated = 0.0;
};

/// Replays `w` in trials between kernel slices for `seconds`; returns the
/// median raw and calibrated requests per second.
Throughput replay_for(const Workload& w, Calibrator& calibrator,
                      double seconds) {
  const double requests = static_cast<double>(replayed_requests(w));
  std::vector<double> raw;
  std::vector<double> calibrated;
  double before = calibrator.slice();
  const Clock::time_point start = Clock::now();
  do {
    std::unique_ptr<sim::Simulation> simulation = build(w);
    const Clock::time_point trial_start = Clock::now();
    simulation->run();
    const double trial_s = seconds_since(trial_start);
    const double after = calibrator.slice();
    raw.push_back(requests / trial_s);
    calibrated.push_back(requests /
                         (trial_s * calibrator.factor(before, after)));
    before = after;
  } while (raw.size() < 3 || seconds_since(start) < seconds);
  return {median(raw), median(calibrated)};
}

int run_selfcheck(const Options& options) {
  Checks checks;
  for (const std::string& failure : oracle_ns::self_test()) {
    checks.expect(false, "oracle: " + failure);
  }

  // The kernel's LRU against the exact enumeration (n = 6, capacity 2).
  {
    const perfbench::ReplayKernel::Shape tiny{6, 0.8, 2};
    perfbench::ReplayKernel kernel(tiny, options.seed);
    kernel.replay(1u << 12);
    const std::uint64_t requests = 1u << 22;
    const double observed =
        static_cast<double>(kernel.replay(requests)) /
        static_cast<double>(requests);
    const oracle_ns::ZipfCdf zipf(6, 0.8);
    std::vector<double> p;
    for (std::uint64_t k = 1; k <= 6; ++k) p.push_back(zipf.pmf(k));
    const double exact = oracle_ns::exact_lru_hit_ratio(p, 2);
    const double tol = oracle_ns::binomial_halfwidth(
        exact, static_cast<double>(requests), oracle_ns::kCheckZ);
    std::cout << "kernel LRU n=6 c=2 s=0.8: hit ratio " << observed
              << ", exact " << exact << " +- " << tol << ", Che "
              << oracle_ns::che_hit_ratio(p, 2.0) << "\n";
    checks.expect(std::abs(observed - exact) <= tol,
                  text("kernel LRU ", observed, " vs exact ", exact));
  }

  // Contention: pin the process to one of its CPUs, replay usa-lru alone,
  // then again while a busy thread of this process shares that CPU. The
  // raw rate must fall far more than the calibrated one.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    std::cerr << "perfbench: sched_getaffinity failed\n";
    return 1;
  }
  int cpu = 0;
  while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &allowed)) ++cpu;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    std::cerr << "perfbench: sched_setaffinity failed\n";
    return 1;
  }
  const Workload w = *make_workload("usa-lru", options.seed);
  Calibrator calibrator(options.seed);
  const double phase_s = options.seconds / 2.0;
  const Throughput alone = replay_for(w, calibrator, phase_s);
  std::atomic<bool> stop{false};
  std::thread busy([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
    }
  });
  Throughput shared;
  try {
    shared = replay_for(w, calibrator, phase_s);
  } catch (...) {
    stop = true;
    busy.join();
    throw;
  }
  stop = true;
  busy.join();
  std::map<std::string, double> notes;
  check_kernel(calibrator, checks, notes);

  const double raw_drop = 1.0 - shared.raw / alone.raw;
  const double calibrated_drop = 1.0 - shared.calibrated / alone.calibrated;
  std::cout << "pinned to cpu " << cpu << "\n"
            << "alone:  raw " << alone.raw << " req/s, calibrated "
            << alone.calibrated << " req/s\n"
            << "shared: raw " << shared.raw << " req/s, calibrated "
            << shared.calibrated << " req/s\n"
            << "drop:   raw " << raw_drop * 100.0 << " %, calibrated "
            << calibrated_drop * 100.0 << " %\n";
  checks.expect(raw_drop >= 0.3,
                text("a busy thread on the same CPU cut raw throughput by "
                     "only ",
                     raw_drop * 100.0, " %"));
  checks.expect(std::abs(calibrated_drop) <= raw_drop / 3.0,
                text("calibrated throughput moved by ",
                     calibrated_drop * 100.0, " % against raw ",
                     raw_drop * 100.0, " %"));
  checks.print(std::cout);
  std::cout << (checks.ok() ? "selfcheck passed" : "selfcheck FAILED")
            << std::endl;
  return checks.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> options = parse(argc, argv);
  if (!options) return 2;
  try {
    const std::optional<Workload> workload =
        options->selfcheck ? std::nullopt
                           : make_workload(options->workload, options->seed);
    if (options->setup_only && workload) return run_setup_only(*workload);
    std::filesystem::create_directories(options->out_dir);
    if (options->selfcheck) return run_selfcheck(*options);
    if (!workload) {
      std::cerr << "perfbench: unknown workload '" << options->workload
                << "' (usa-lru, usa-lru-4shards, geant-lcd-pit-telemetry, "
                   "webscale-lfu)\n";
      return 2;
    }
    return options->trace ? run_traced(*options, *workload)
                          : run_end_to_end(*options, *workload);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
