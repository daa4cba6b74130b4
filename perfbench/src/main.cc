// perfbench — the repository benchmark binary (see perfbench/README.md).
//
//   perfbench --workload serve-repeat|serve-variants|batch-search
//             --seed N --seconds S --trace 0|1 --cli <soctest_cli>
//             --work <dir> [--rate R --lateness-bound B
//             --trace-requests N --trace-out <file>]
//
// --trace 0 measures the end-to-end metrics, --trace 1 the per-layer ones.
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; every check that fails is counted in `failed` and makes the
// exit code non-zero.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "bench_util.h"
#include "loadgen.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "server_process.h"
#include "service/batch_scheduler.h"
#include "service/net/protocol.h"
#include "service/request.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;
  std::string work;
  std::string trace_out;
  double rate = 1000;            // open-loop requests/s
  double lateness_bound = 0.25;  // the latency_p50_us bound
  int trace_requests = 2000;     // serve workloads: requests the traced run replays
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::runtime_error("bad argument " + key);
    kv[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) throw std::runtime_error("arguments come in --key value pairs");
  const auto take = [&kv](const char* key, auto& field) {
    const auto it = kv.find(key);
    if (it == kv.end()) return;
    using T = std::decay_t<decltype(field)>;
    if constexpr (std::is_same_v<T, std::string>) {
      field = it->second;
    } else if constexpr (std::is_same_v<T, bool>) {
      field = it->second == "1";
    } else if constexpr (std::is_floating_point_v<T>) {
      field = std::stod(it->second);
    } else {
      field = static_cast<T>(std::stoll(it->second));
    }
    kv.erase(it);
  };
  take("workload", a.workload);
  take("seed", a.seed);
  take("seconds", a.seconds);
  take("trace", a.trace);
  take("cli", a.cli);
  take("work", a.work);
  take("trace-out", a.trace_out);
  take("rate", a.rate);
  take("lateness-bound", a.lateness_bound);
  take("trace-requests", a.trace_requests);
  if (!kv.empty()) throw std::runtime_error("unknown argument --" + kv.begin()->first);
  if (a.workload != "serve-repeat" && a.workload != "serve-variants" &&
      a.workload != "batch-search") {
    throw std::runtime_error("unknown workload '" + a.workload + "'");
  }
  if (a.work.empty()) throw std::runtime_error("--work is required");
  if (a.seconds <= 0 || a.rate <= 0 || a.trace_requests < 1) {
    throw std::runtime_error("bad numeric argument");
  }
  return a;
}

// Cache capacities are the server defaults; the serve workloads run with
// --dedup, batch-search without.
soctest::BatchOptions ServingOptions(bool dedup) {
  soctest::BatchOptions o;
  o.dedup = dedup;
  return o;
}

int BatchWorkers() { return std::min(4, soctest::ResolveThreadCount(0)); }

// Virtualized hosts can run a VM's vCPUs at a fraction of their speed for
// about a second after all-core load follows an idle spell. Every core spins
// for a while before anything is timed so that ramp never lands in a
// measurement.
void WarmUpCpus(double seconds) {
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  const auto spin = [end] {
    volatile std::uint64_t x = 0;
    while (NowNs() < end) {
      for (int i = 0; i < 1000; ++i) x = x + 1;
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < soctest::ResolveThreadCount(0); ++i) threads.emplace_back(spin);
  spin();
  for (std::thread& t : threads) t.join();
}

constexpr double kWarmUpSeconds = 2.0;

// Set-up is timed this many times per run and the median reported.
constexpr int kSetupRepeats = 5;
// Serve workloads: open- and closed-loop phases alternate this many times;
// the closed loop keeps this many requests outstanding per connection.
constexpr int kRounds = 3;
constexpr int kOutstanding = 8;
// serve-variants: the first this many variants are checked byte for byte
// against an in-process ServeOne (the rest for their form).
constexpr int kVerifiedVariants = 1000;
// batch-search: passes of the traced run over the request list.
constexpr int kTracePasses = 12;

// Tail percentiles are taken per window of this many samples (at least ten
// beyond the p99) and the windows' median reported; see WindowedPercentile.
constexpr std::size_t kLatencyWindow = 1000;
// batch-search: Runs per window for its latency tail, and for its throughput
// and CPU per request.
constexpr std::size_t kRunWindow = 50;
constexpr std::size_t kRateWindow = 10;

// Default cache capacities; an admission queue deep enough that a host
// stall of a second at the open-loop rate is absorbed rather than shed.
const std::vector<std::string> kServerArgs = {
    "--dedup", "--threads", "2", "--admission-depth", "1024", "--port", "0"};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  // Printed in the table only: measured, but not a metric of BENCHMARK.json
  // (see dropped_unsteady in config.json).
  void Info(const std::string& name, double value, const std::string& unit) {
    info_.push_back({name, value, unit});
  }
  void Attempted(std::int64_t n) { attempted_ += n; }
  // Every failed check is counted in `failed` and makes the run incorrect;
  // the first few are named on stderr.
  void Fail(const std::string& what) {
    if (++failed_ <= 20) std::fprintf(stderr, "perfbench: FAIL %s\n", what.c_str());
  }
  void FailAll(const std::vector<std::string>& whats) {
    for (const std::string& w : whats) Fail(w);
  }

  // Human-readable table, then the JSON result line. Returns the exit code.
  int Print() const {
    const std::int64_t failed = failed_;
    const bool correct = failed == 0 && attempted_ > 0;
    std::printf("%-36s %16s  %s\n", "metric", "value", "unit");
    for (const auto& m : metrics_) {
      std::printf("%-36s %16.4f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    for (const auto& m : info_) {
      std::printf("%-36s %16.4f  %s  (not gated)\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-36s %16.6f  %s  (not gated)\n", "failed_ratio",
                attempted_ > 0 ? static_cast<double>(failed) /
                                     static_cast<double>(attempted_)
                               : 1.0,
                "ratio");
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char value[64];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
      json += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_, info_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// "MAKESPAN req=<i> <rest>" -> "<rest>".
std::string AfterReq(const std::string& line) {
  const std::size_t tag = line.find("req=");
  const std::size_t space = tag == std::string::npos ? tag : line.find(' ', tag);
  return space == std::string::npos ? std::string() : line.substr(space + 1);
}

double CyclesOf(const std::string& line) {
  const std::size_t at = line.find("cycles=");
  return at == std::string::npos ? 0.0 : std::atof(line.c_str() + at + 7);
}

// Expected answer text (after "req=<i> ") per request id, from a reference
// replay of the first requests of the stream; "" where unknown.
std::vector<std::string> ExpectedAnswers(const WorkloadInputs& in,
                                         const ReplayResult& reference) {
  std::vector<std::string> expected;
  for (std::size_t k = 0; k < reference.outputs.size(); ++k) {
    const auto id = static_cast<std::size_t>(in.Id(static_cast<std::int64_t>(k)));
    if (id >= expected.size()) expected.resize(id + 1);
    expected[id] = AfterReq(reference.outputs[k]);
  }
  return expected;
}

// Every answer must be a MAKESPAN line equal to the in-process ServeOne
// bytes where those are known, and well-formed elsewhere.
void CheckAnswers(const PhaseResult& phase,
                  const std::vector<std::string>& expected, Report& report) {
  for (const auto& [line, text] : phase.answers) {
    static const std::string kUnknown;
    const std::string& want = static_cast<std::size_t>(line) < expected.size()
                                  ? expected[static_cast<std::size_t>(line)]
                                  : kUnknown;
    if (!want.empty() ? text != want
                      : text.find(" mode=schedule cycles=") == std::string::npos) {
      report.Fail("answer differs from in-process ServeOne: " + text +
                  " (expected " + want + ")");
    }
  }
  for (const std::string& e : phase.errors) report.Fail(e);
  // phase.failed counts ERROR answers and missing ones; errors[] names at
  // most a few, so add the rest unnamed.
  for (std::int64_t i = static_cast<std::int64_t>(phase.errors.size()); i < phase.failed; ++i) {
    report.Fail("request failed");
  }
}

// requests = served + eval_failures + shed_*, and nothing dropped.
void CheckBalance(const std::string& stats_line, Report& report) {
  const auto s = ParseStatsLine(stats_line);
  const auto get = [&s](const char* k) {
    const auto it = s.find(k);
    return it == s.end() ? -1LL : it->second;
  };
  if (stats_line.empty() || get("requests") < 0) {
    report.Fail("server printed no final STATS line");
    return;
  }
  const long long rhs = get("served") + get("eval_failures") + get("shed_overload") +
                        get("shed_deadline") + get("shed_drain");
  if (get("requests") != rhs) {
    report.Fail("server counters do not balance: " + stats_line);
  }
  if (get("responses_dropped") != 0) report.Fail("server dropped responses");
}

double StatDelta(const std::map<std::string, long long>& after,
                 const std::map<std::string, long long>& before, const char* key) {
  const auto a = after.find(key), b = before.find(key);
  if (a == after.end() || b == before.end()) return -1;
  return static_cast<double>(a->second - b->second);
}

std::string StatsNow(int port) {
  std::string line;
  StatsRoundTrips(port, 1, &line);
  return line;
}

// Spawns and warms a server: the set-up being timed.
bool StartWarm(const Args& args, const WorkloadInputs& in, ServerProcess& server,
               Report& report) {
  std::string error;
  if (!server.Start(args.cli, kServerArgs, &error)) {
    report.Fail("server start: " + error);
    return false;
  }
  const std::vector<std::string> answers = SendAndWait(server.port(), in.warm(), &error);
  for (const std::string& a : answers) {
    if (a.rfind("MAKESPAN ", 0) != 0) {
      report.Fail("warm-up answer: " + (a.empty() ? error : a));
      return false;
    }
  }
  return true;
}

int RunServeTimed(const Args& args) {
  Report report;
  const bool variants = args.workload == "serve-variants";
  const double open_s = args.seconds * 0.5, closed_s = args.seconds * 0.5;
  const WorkloadInputs in = variants ? WorkloadInputs::ServeVariants(args.seed, args.work)
                                     : WorkloadInputs::ServeRepeat(args.seed, args.work);

  // Reference answers from an in-process ServeOne (input preparation, not
  // timed): the 16 distinct lines, or the first `verify` variants. Their
  // makespans are the workload's quality figure.
  ReplayOptions ref;
  ref.batch = ServingOptions(true);
  ref.workers = BatchWorkers();
  const std::vector<std::string> ref_stream = variants ? in.Stream(kVerifiedVariants) : in.lines();
  const ReplayResult reference = Replay(ref, in.warm(), ref_stream);
  report.FailAll(reference.failures);
  std::vector<std::string> expected;
  std::vector<double> makespans;
  for (const std::string& out : reference.outputs) {
    expected.push_back(AfterReq(out));  // ids 0, 1, 2, ... in both streams
    makespans.push_back(CyclesOf(out));
  }

  WarmUpCpus(kWarmUpSeconds);

  // Set-up, timed several times; the last server stays up.
  std::vector<double> setup_s;
  ServerProcess server;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) CheckBalance(server.Stop(), report);
    const std::int64_t t0 = NowNs();
    if (!StartWarm(args, in, server, report)) return report.Print();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  const auto stats_before = ParseStatsLine(StatsNow(server.port()));
  // The phases alternate in rounds, so one run samples several stretches of
  // host time rather than one.
  std::atomic<std::int64_t> next{0};
  PhaseResult open;
  std::vector<PhaseResult> closed;
  for (int round = 0; round < kRounds; ++round) {
    PhaseResult part = RunOpenLoop(server.port(), in, next, args.rate, open_s / kRounds);
    open.sent += part.sent;
    open.succeeded += part.succeeded;
    open.failed += part.failed;
    open.latency_us.insert(open.latency_us.end(), part.latency_us.begin(), part.latency_us.end());
    open.lateness_us.insert(open.lateness_us.end(), part.lateness_us.begin(),
                            part.lateness_us.end());
    open.answers.insert(open.answers.end(), std::make_move_iterator(part.answers.begin()),
                        std::make_move_iterator(part.answers.end()));
    open.errors.insert(open.errors.end(), part.errors.begin(), part.errors.end());
    closed.push_back(RunClosedLoop(server.port(), server.pid(), in, next, kOutstanding,
                                   closed_s / kRounds));
  }
  const auto stats_after = ParseStatsLine(StatsNow(server.port()));
  const double rss = ProcessPeakRssMb(server.pid());
  CheckBalance(server.Stop(), report);

  CheckAnswers(open, expected, report);
  std::int64_t closed_sent = 0, closed_succeeded = 0, closed_failed = 0;
  // Saturated throughput and CPU per request, per closed-loop bin.
  std::vector<double> bin_rps, bin_cpu_us;
  for (const PhaseResult& phase : closed) {
    CheckAnswers(phase, expected, report);
    closed_sent += phase.sent;
    closed_succeeded += phase.succeeded;
    closed_failed += phase.failed;
    for (std::size_t b = 0; b < phase.completed_per_bin.size(); ++b) {
      const auto n = static_cast<double>(phase.completed_per_bin[b]);
      bin_rps.push_back(n / PhaseResult::kBinSeconds);
      if (b + 1 < phase.cpu_us_at_bin.size() && n > 0) {
        bin_cpu_us.push_back((phase.cpu_us_at_bin[b + 1] - phase.cpu_us_at_bin[b]) / n);
      }
    }
  }
  report.Attempted(open.sent + closed_sent);
  std::printf("phase open-loop:   rate=%.0f/s sent=%lld succeeded=%lld failed=%lld samples=%zu\n",
              args.rate, static_cast<long long>(open.sent),
              static_cast<long long>(open.succeeded), static_cast<long long>(open.failed),
              open.latency_us.size());
  std::printf("phase closed-loop: outstanding=2x%d sent=%lld succeeded=%lld failed=%lld bins=%zu\n",
              kOutstanding, static_cast<long long>(closed_sent),
              static_cast<long long>(closed_succeeded),
              static_cast<long long>(closed_failed), bin_rps.size());

  // Workload self-checks: the timed phases measured what they claim.
  const double requests = StatDelta(stats_after, stats_before, "requests");
  const auto delta = [&](const char* k) { return StatDelta(stats_after, stats_before, k); };
  if (requests != static_cast<double>(open.sent + closed_sent)) {
    report.Fail("server saw " + std::to_string(requests) + " requests, sent " +
                std::to_string(open.sent + closed_sent));
  }
  if (!variants) {
    if (delta("compiles") != 0 || delta("core_compiles") != 0) {
      report.Fail("self-check: serve-repeat compiled during the timed phase");
    }
    if (delta("dedup_hits") + delta("dedup_joins") != requests) {
      report.Fail("self-check: serve-repeat missed the result cache");
    }
  } else {
    if (delta("dedup_hits") != 0 || delta("dedup_joins") != 0 || delta("cache_hits") != 0) {
      report.Fail("self-check: serve-variants hit the result or problem cache");
    }
    if (delta("core_compiles") != requests || delta("core_hits") != 63 * requests) {
      report.Fail("self-check: serve-variants core cache did not do 1 compile + 63 hits per request");
    }
  }

  // Generator honesty: a generator that cannot keep its schedule is late on
  // a typical send, not only in the tail (which host stalls share with the
  // server). The run is invalid when the median send left later than the
  // bound's share of the median latency it reports.
  const double latency_p50 = WindowedPercentile(open.latency_us, kLatencyWindow, 0.5);
  const double latency_p99 = WindowedPercentile(open.latency_us, kLatencyWindow, 0.99);
  const double lateness_p50 = Percentile(open.lateness_us, 0.5);
  std::printf("loadgen: lateness_us_p50=%.1f lateness_us_p99=%.1f (limit on p50: %.1f)\n",
              lateness_p50, Percentile(open.lateness_us, 0.99),
              args.lateness_bound * latency_p50);
  if (lateness_p50 > args.lateness_bound * latency_p50) {
    report.Fail("invalid run: the open-loop generator fell behind its schedule");
  }

  report.Metric("latency_p50_us", latency_p50, "us");
  report.Info("latency_p99_us", latency_p99, "us");
  report.Metric("throughput_rps", Median(bin_rps), "1/s");
  report.Metric("cpu_us_per_request", Median(bin_cpu_us), "us");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", rss, "MB");
  report.Metric("makespan_geomean_cycles", GeoMean(makespans), "cycles");
  return report.Print();
}

int RunBatchTimed(const Args& args) {
  Report report;
  const WorkloadInputs in = WorkloadInputs::BatchSearch(args.seed, args.work);
  std::string text;
  for (const std::string& line : in.lines()) text += line + "\n";

  // Set-up: parse the list, build the scheduler, one untimed Run that fills
  // the compile caches. Timed several times; the last scheduler is kept.
  soctest::BatchOptions options = ServingOptions(false);
  options.threads = BatchWorkers();
  WarmUpCpus(kWarmUpSeconds);
  std::vector<double> setup_s;
  std::vector<soctest::BatchRequest> requests;
  std::unique_ptr<soctest::BatchScheduler> scheduler;
  std::vector<std::string> reference;
  for (int r = 0; r < kSetupRepeats; ++r) {
    scheduler.reset();
    const std::int64_t t0 = NowNs();
    soctest::RequestFileResult parsed = soctest::ParseRequestText(text, "batch-search");
    if (auto* err = std::get_if<soctest::RequestParseError>(&parsed)) {
      report.Fail(err->ToString());
      return report.Print();
    }
    requests = std::move(std::get<std::vector<soctest::BatchRequest>>(parsed));
    scheduler = std::make_unique<soctest::BatchScheduler>(options);
    const soctest::BatchOutcome warm = scheduler->Run(requests);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    reference.clear();
    for (const auto& item : warm.results) reference.push_back(soctest::FormatMakespanLine(item));
  }

  // The reference answers pass the validator and the lower bound, and match
  // the traced-replay path's bytes (checked in the --trace 1 run).
  std::vector<double> makespans;
  {
    const soctest::BatchOutcome check = scheduler->Run(requests);
    soctest::CompiledProblemCache problems(soctest::CompiledProblemCache::Options{
        options.shards, options.cache_entries, options.core_cache_entries});
    std::vector<std::string> failures;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      CheckResult(*problems.GetOrCompile(requests[i].soc, options.w_max), requests[i],
                  check.results[i], &failures);
      makespans.push_back(static_cast<double>(check.results[i].makespan));
    }
    report.FailAll(failures);
  }

  const soctest::CacheStats problems0 = scheduler->cache().stats();
  const soctest::CoreCacheStats cores0 = scheduler->cache().core_stats();
  std::vector<double> run_us, cpu_us_at_run = {ProcessCpuUs(0)};
  std::int64_t served = 0;
  const std::int64_t start = NowNs();
  const auto end = start + static_cast<std::int64_t>(args.seconds * 1e9);
  std::int64_t timed_ns = 0;
  while (NowNs() < end) {
    const std::int64_t t0 = NowNs();
    const soctest::BatchOutcome outcome = scheduler->Run(requests);
    const std::int64_t dt = NowNs() - t0;
    cpu_us_at_run.push_back(ProcessCpuUs(0));
    timed_ns += dt;
    run_us.push_back(NsToUs(dt));
    served += outcome.served;
    report.Attempted(static_cast<std::int64_t>(requests.size()));
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (soctest::FormatMakespanLine(outcome.results[i]) != reference[i]) {
        report.Fail("timed Run answered differently: " +
                    soctest::FormatMakespanLine(outcome.results[i]));
      }
    }
  }
  const std::int64_t total = static_cast<std::int64_t>(run_us.size() * requests.size());

  // Self-checks: no compiles, one problem-cache hit (= one evaluation) per
  // request, and no dedup.
  const soctest::CacheStats problems1 = scheduler->cache().stats();
  const soctest::CoreCacheStats cores1 = scheduler->cache().core_stats();
  if (problems1.compiles != problems0.compiles || cores1.compiles != cores0.compiles) {
    report.Fail("self-check: batch-search compiled during timed Runs");
  }
  if (problems1.hits - problems0.hits != total || served != total ||
      scheduler->results().stats().misses != 0) {
    report.Fail("self-check: batch-search evaluations != requests");
  }
  std::printf("phase timed-runs: runs=%zu requests/run=%zu requests=%lld served=%lld\n",
              run_us.size(), requests.size(), static_cast<long long>(total),
              static_cast<long long>(served));

  // Throughput and CPU per request per window of kRateWindow Runs, median
  // over windows.
  std::vector<double> window_rps, window_cpu_us;
  const auto per_window = static_cast<double>(kRateWindow * requests.size());
  for (std::size_t at = 0; at + kRateWindow <= run_us.size(); at += kRateWindow) {
    double wall_us = 0;
    for (std::size_t i = at; i < at + kRateWindow; ++i) wall_us += run_us[i];
    window_rps.push_back(per_window * 1e6 / wall_us);
    window_cpu_us.push_back((cpu_us_at_run[at + kRateWindow] - cpu_us_at_run[at]) / per_window);
  }
  if (window_rps.empty()) {
    window_rps.push_back(static_cast<double>(total) / (static_cast<double>(timed_ns) / 1e9));
    window_cpu_us.push_back((cpu_us_at_run.back() - cpu_us_at_run.front()) /
                            static_cast<double>(std::max<std::int64_t>(total, 1)));
  }
  report.Metric("latency_p50_us", Percentile(run_us, 0.5), "us");
  report.Info("latency_p99_us", WindowedPercentile(run_us, kRunWindow, 0.99), "us");
  report.Metric("throughput_rps", Median(window_rps), "1/s");
  report.Metric("cpu_us_per_request", Median(window_cpu_us), "us");
  report.Metric("setup_s", Median(setup_s), "s");
  report.Metric("peak_rss_mb", ProcessPeakRssMb(0), "MB");
  report.Metric("makespan_geomean_cycles", GeoMean(makespans), "cycles");
  return report.Print();
}

// ---- Traced run -------------------------------------------------------------

const LayerStats* Find(const std::vector<LayerStats>& layers, const std::string& name) {
  for (const LayerStats& l : layers) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

double LayerP(const std::vector<LayerStats>& layers, const std::string& name, double q) {
  const LayerStats* l = Find(layers, name);
  return l ? Percentile(l->self_us, q) : 0.0;
}

double LayerTotal(const std::vector<LayerStats>& layers, const std::string& name) {
  const LayerStats* l = Find(layers, name);
  return l ? l->total_us : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int RunTraced(const Args& args) {
  Report report;
  const bool batch = args.workload == "batch-search";
  const bool variants = args.workload == "serve-variants";
  const double server_s = std::max(2.0, args.seconds * 0.5);
  const WorkloadInputs in = batch      ? WorkloadInputs::BatchSearch(args.seed, args.work)
                            : variants ? WorkloadInputs::ServeVariants(args.seed, args.work)
                                       : WorkloadInputs::ServeRepeat(args.seed, args.work);

  ReplayOptions options;
  options.batch = ServingOptions(!batch);
  options.workers = batch ? BatchWorkers() : 1;
  options.passes = batch ? kTracePasses : 1;
  const std::vector<std::string> stream = batch ? in.lines() : in.Stream(args.trace_requests);
  options.traced = true;
  WarmUpCpus(kWarmUpSeconds);
  const ReplayResult replay = Replay(options, in.warm(), stream);
  report.FailAll(replay.failures);
  report.Attempted(static_cast<std::int64_t>(stream.size()) * options.passes);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (replay.traced_outputs[i] != replay.outputs[i] ||
        replay.outputs[i].rfind("MAKESPAN ", 0) != 0) {
      report.Fail("traced replay answered differently from ServeOne: " +
                  replay.traced_outputs[i]);
    }
  }
  const ReplayResult& traced = replay;

  const std::vector<LayerStats> layers = SummarizeLayers(traced.spans);
  double traced_serve_one = 0;
  for (const Span& s : traced.spans) {
    if (s.layer == Layer::kServeOne) traced_serve_one += NsToUs(s.end_ns - s.start_ns);
  }
  const double bare_serve_one =
      std::accumulate(replay.serve_one_us.begin(), replay.serve_one_us.end(), 0.0);
  const double inside_serve_one = traced_serve_one - LayerTotal(layers, "serve_one");
  const double eval_total = LayerTotal(layers, "eval.schedule") + LayerTotal(layers, "eval.search") +
                            LayerTotal(layers, "eval.improve") + LayerTotal(layers, "eval.sweep");

  // Serve workloads: a short open-loop phase against the real server for the
  // network-side numbers.
  double e2e_p50 = 0, e2e_p99 = 0, rtt_p50 = 0, lateness_p99 = 0;
  std::map<std::string, long long> server_stats;
  if (!batch) {
    ServerProcess server;
    if (StartWarm(args, in, server, report)) {
      std::atomic<std::int64_t> next{0};
      const PhaseResult open = RunOpenLoop(server.port(), in, next, args.rate, server_s);
      std::string last;
      const std::vector<double> rtts = StatsRoundTrips(server.port(), 200, &last);
      server_stats = ParseStatsLine(last);
      CheckBalance(server.Stop(), report);
      report.Attempted(open.sent);
      CheckAnswers(open, ExpectedAnswers(in, replay), report);
      e2e_p50 = WindowedPercentile(open.latency_us, kLatencyWindow, 0.5);
      e2e_p99 = WindowedPercentile(open.latency_us, kLatencyWindow, 0.99);
      lateness_p99 = Percentile(open.lateness_us, 0.99);
      rtt_p50 = Percentile(rtts, 0.5);
    }
  }

  // The per-layer table.
  std::printf("%-22s %8s %12s %12s %12s %8s\n", "layer", "calls", "self_p50_us",
              "self_p99_us", "total_ms", "share");
  for (const LayerStats& l : layers) {
    std::printf("%-22s %8lld %12.2f %12.2f %12.3f %8.3f\n", l.name.c_str(),
                static_cast<long long>(l.calls), Percentile(l.self_us, 0.5),
                Percentile(l.self_us, 0.99), l.total_us / 1e3,
                Ratio(l.total_us, traced_serve_one));
  }
  std::printf("(share = layer self time over the traced serve_one time)\n");
  if (!args.trace_out.empty()) {
    std::filesystem::create_directories(std::filesystem::path(args.trace_out).parent_path());
    if (WriteChromeTrace(args.trace_out, traced.spans)) {
      std::printf("trace: %zu spans written to %s\n", traced.spans.size(), args.trace_out.c_str());
    } else {
      report.Fail("cannot write " + args.trace_out);
    }
  }

  const double serve_one_p50 = Percentile(replay.serve_one_us, 0.5);
  const double request_p50 = LayerP(layers, "request", 0.5);
  const double format_p50 = LayerP(layers, "format", 0.5);
  const soctest::ResultCacheStats& rc = traced.result_delta;
  const soctest::CacheStats& pc = traced.problem_delta;
  const soctest::CoreCacheStats& cc = traced.core_delta;
  double busy = 0, busy_max = 0;
  for (double b : traced.worker_busy_us) {
    busy += b;
    busy_max = std::max(busy_max, b);
  }
  const double walls = std::accumulate(traced.pass_wall_us.begin(), traced.pass_wall_us.end(), 0.0);
  const double workers = static_cast<double>(traced.worker_busy_us.size());

  report.Metric("request.self_us_p50", request_p50, "us");
  report.Metric("request.self_us_p99", LayerP(layers, "request", 0.99), "us");
  report.Metric("key.self_us_p50", LayerP(layers, "key", 0.5), "us");
  report.Metric("key.share", Ratio(LayerTotal(layers, "key"), traced_serve_one), "ratio");
  report.Metric("result_cache.lookup_us_p50", LayerP(layers, "result_cache.lookup", 0.5), "us");
  report.Metric("result_cache.commit_us_p50", LayerP(layers, "result_cache.commit", 0.5), "us");
  report.Metric("result_cache.hit_ratio",
                Ratio(static_cast<double>(rc.hits), static_cast<double>(rc.hits + rc.joins + rc.misses)),
                "ratio");
  report.Metric("result_cache.evictions", static_cast<double>(rc.evictions), "count");
  report.Metric("problem_cache.get_us_p50", LayerP(layers, "problem_cache.get", 0.5), "us");
  report.Metric("problem_cache.get_us_p99", LayerP(layers, "problem_cache.get", 0.99), "us");
  report.Metric("problem_cache.share", Ratio(LayerTotal(layers, "problem_cache.get"), traced_serve_one),
                "ratio");
  report.Metric("problem_cache.hit_ratio",
                Ratio(static_cast<double>(pc.hits), static_cast<double>(pc.hits + pc.misses)), "ratio");
  report.Metric("problem_cache.compiles", static_cast<double>(pc.compiles), "count");
  report.Metric("problem_cache.evictions", static_cast<double>(pc.evictions), "count");
  report.Metric("core_cache.hit_ratio",
                Ratio(static_cast<double>(cc.hits), static_cast<double>(cc.hits + cc.misses)), "ratio");
  report.Metric("core_cache.compiles", static_cast<double>(cc.compiles), "count");
  report.Metric("eval.schedule_us_p50", LayerP(layers, "eval.schedule", 0.5), "us");
  report.Metric("eval.search_us_p50", LayerP(layers, "eval.search", 0.5), "us");
  report.Metric("eval.improve_us_p50", LayerP(layers, "eval.improve", 0.5), "us");
  report.Metric("eval.sweep_us_p50", LayerP(layers, "eval.sweep", 0.5), "us");
  report.Metric("eval.share", Ratio(eval_total, traced_serve_one), "ratio");
  report.Metric("eval.search_configs", static_cast<double>(traced.counts.search_configs), "count");
  report.Metric("eval.improve_evaluated", static_cast<double>(traced.counts.improve_evaluated), "count");
  report.Metric("eval.improve_bound_aborts", static_cast<double>(traced.counts.improve_bound_aborts),
                "count");
  report.Metric("eval.candidates_examined", static_cast<double>(traced.counts.candidates_examined),
                "count");
  report.Metric("format.self_us_p50", format_p50, "us");
  report.Metric("serve_one.us_p50", serve_one_p50, "us");
  report.Metric("trace.coverage", Ratio(inside_serve_one, bare_serve_one), "ratio");
  report.Metric("trace.overhead_pct", 100.0 * (Ratio(replay.traced_us, replay.bare_us) - 1.0),
                "pct");
  const auto stat = [&server_stats](const char* k) {
    const auto it = server_stats.find(k);
    return it == server_stats.end() ? 0.0 : static_cast<double>(it->second);
  };
  report.Metric("net.latency_us_p99", e2e_p99, "us");
  report.Metric("net.stats_rtt_us_p50", rtt_p50, "us");
  report.Metric("net.queue_depth_peak", stat("queue_depth_peak"), "count");
  report.Metric("net.server_service_us_p50", stat("p50_service_us"), "us");
  report.Metric("net.server_service_us_p99", stat("p99_service_us"), "us");
  report.Metric("net.unaccounted_us_p50",
                batch ? 0.0 : e2e_p50 - (request_p50 + serve_one_p50 + format_p50), "us");
  report.Metric("runtime.busy_ratio", batch ? Ratio(busy, workers * walls) : 0.0, "ratio");
  report.Metric("runtime.worker_imbalance", batch ? Ratio(busy_max, busy / workers) : 0.0, "ratio");
  report.Metric("loadgen.lateness_us_p99", lateness_p99, "us");

  // The profile this benchmark was built to expose, stated for the reader
  // (informational: later optimizations are expected to change it).
  if (args.workload == "serve-repeat") {
    std::printf("profile: key.self_us_p50 / serve_one.us_p50 = %.2f\n",
                Ratio(LayerP(layers, "key", 0.5), serve_one_p50));
  } else if (variants) {
    std::printf("profile: problem_cache.get_us_p50 / serve_one.us_p50 = %.2f\n",
                Ratio(LayerP(layers, "problem_cache.get", 0.5), serve_one_p50));
  } else {
    std::printf("profile: eval share of serve_one = %.3f\n", Ratio(eval_total, traced_serve_one));
  }
  return report.Print();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::ParseArgs(argc, argv);
    std::filesystem::create_directories(args.work);
    int rc = 1;
    if (args.trace) {
      rc = perfbench::RunTraced(args);
    } else if (args.workload == "batch-search") {
      rc = perfbench::RunBatchTimed(args);
    } else {
      rc = perfbench::RunServeTimed(args);
    }
    std::filesystem::remove_all(args.work);
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
