// In-process replays of a workload's request stream, side by side: a bare
// one through BatchScheduler::ServeOne, and a traced one that makes
// ServeOne's calls itself, in ServeOne's order, with a span around each:
//
//   replay                          one request, root span
//   ├─ request.parse                ParseNetLine (service/request + soc/ parser)
//   ├─ serve_one                    what BatchScheduler::ServeOne does:
//   │  ├─ key.soc                   CompiledProblemCache::CanonicalKey
//   │  ├─ key.result                ResultCache::CanonicalKey      (dedup only)
//   │  ├─ result_cache.lookup       ResultCache::Begin             (dedup only)
//   │  ├─ problem_cache.get         GetOrCompile, incl. assembly   (on a miss)
//   │  ├─ eval.{schedule,search,improve,sweep}
//   │  └─ result_cache.commit       ResultCache::Commit            (on a miss)
//   └─ format                       FormatMakespanLine
//
// The spans come from this file only — src/ carries no instrumentation — so
// the traced replay is a re-enactment: trace.coverage compares its layer
// time with the real ServeOne's to show when the two drift apart.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "service/batch_scheduler.h"
#include "workloads.h"

namespace perfbench {

enum class Layer {
  kReplay,
  kParse,
  kServeOne,
  kKeySoc,
  kKeyResult,
  kResultLookup,
  kProblemGet,
  kEvalSchedule,
  kEvalSearch,
  kEvalImprove,
  kEvalSweep,
  kResultCommit,
  kFormat,
};
const char* LayerName(Layer layer);

struct Span {
  Layer layer = Layer::kReplay;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   // -1 for a root
  std::int64_t request = 0;   // position in the replayed stream
  int worker = 0;
};

// Deterministic work counts of the evaluations a replay ran.
struct EvalCounts {
  std::int64_t search_configs = 0;      // restart-grid configurations run
  std::int64_t improve_evaluated = 0;   // improver scheduler runs
  std::int64_t improve_bound_aborts = 0;
  std::int64_t candidates_examined = 0; // admission candidates, final runs
};

struct ReplayOptions {
  soctest::BatchOptions batch;  // cache capacities, dedup, w_max
  int workers = 1;              // 1 = serial; > 1 replays on a ThreadPool
  int passes = 1;               // passes over the stream
  bool traced = false;          // also run the traced side, interleaved
};

struct ReplayResult {
  // Answer bytes of the first pass, per request in stream order: through
  // the real ServeOne, and through the traced re-enactment.
  std::vector<std::string> outputs;
  std::vector<std::string> traced_outputs;
  std::vector<double> serve_one_us;  // each real ServeOne call
  double bare_us = 0;                // summed request time, parse to format
  double traced_us = 0;
  std::vector<Span> spans;
  EvalCounts counts;                 // traced side, warm-up included
  soctest::CacheStats problem_delta;  // traced side, after warm-up
  soctest::CoreCacheStats core_delta;
  soctest::ResultCacheStats result_delta;
  // Traced side: per-worker busy time and each pass's wall time.
  std::vector<double> worker_busy_us;
  std::vector<double> pass_wall_us;
  // Validator / lower-bound / byte failures.
  std::vector<std::string> failures;
};

// The validator and lower-bound gate on one evaluated result: a schedule
// IsValidSchedule rejects, or a makespan (sweep: any point's test time) below
// the lower bound, appends a failure.
void CheckResult(const soctest::CompiledProblem& compiled,
                 const soctest::BatchRequest& request,
                 const soctest::BatchItemResult& item,
                 std::vector<std::string>* failures);

// Replays `warm` untimed, then `stream` (lines, in order) `passes` times
// through the real ServeOne and, when options.traced, through the traced
// re-enactment on caches of its own.
ReplayResult Replay(const ReplayOptions& options,
                    const std::vector<std::string>& warm,
                    const std::vector<std::string>& stream);

// Per-layer self times and the Chrome trace-event export.
struct LayerStats {
  std::string name;
  std::int64_t calls = 0;
  std::vector<double> self_us;  // per request: the layer's summed self time
  double total_us = 0;
};
std::vector<LayerStats> SummarizeLayers(const std::vector<Span>& spans);

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
