#include "replay.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "baseline/lower_bound.h"
#include "bench_util.h"
#include "core/improver.h"
#include "core/validator.h"
#include "runtime/thread_pool.h"
#include "runtime/workspace_pool.h"
#include "search/driver.h"
#include "search/grid.h"
#include "service/net/protocol.h"

namespace perfbench {

using soctest::BatchItemResult;
using soctest::BatchMode;
using soctest::BatchRequest;
using soctest::CompiledProblem;
using soctest::ScheduleWorkspace;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kReplay: return "replay";
    case Layer::kParse: return "request.parse";
    case Layer::kServeOne: return "serve_one";
    case Layer::kKeySoc: return "key.soc";
    case Layer::kKeyResult: return "key.result";
    case Layer::kResultLookup: return "result_cache.lookup";
    case Layer::kProblemGet: return "problem_cache.get";
    case Layer::kEvalSchedule: return "eval.schedule";
    case Layer::kEvalSearch: return "eval.search";
    case Layer::kEvalImprove: return "eval.improve";
    case Layer::kEvalSweep: return "eval.sweep";
    case Layer::kResultCommit: return "result_cache.commit";
    case Layer::kFormat: return "format";
  }
  return "?";
}

namespace {

// The layer a span's self time is reported under: both keys are one layer.
const char* GroupName(Layer layer) {
  if (layer == Layer::kKeySoc || layer == Layer::kKeyResult) return "key";
  if (layer == Layer::kParse) return "request";
  return LayerName(layer);
}

// One worker's spans. Ids are unique across workers: (worker << 40) | index.
class SpanBuffer {
 public:
  // A span that is a no-op unless the buffer records.
  class Scope {
   public:
    Scope(SpanBuffer* buffer, Layer layer, std::int64_t parent)
        : buffer_(buffer) {
      if (buffer_) index_ = buffer_->Open(layer, parent);
    }
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void Close() {
      if (buffer_ && index_ >= 0) buffer_->spans[static_cast<std::size_t>(index_)].end_ns = NowNs();
      index_ = -1;
    }
    std::int64_t id() const {
      return buffer_ ? (static_cast<std::int64_t>(buffer_->worker) << 40) | index_ : -1;
    }

   private:
    SpanBuffer* buffer_;
    std::int64_t index_ = -1;
  };

  std::int64_t Open(Layer layer, std::int64_t parent) {
    Span span;
    span.layer = layer;
    span.id = (static_cast<std::int64_t>(worker) << 40) |
              static_cast<std::int64_t>(spans.size());
    span.parent = parent;
    span.request = request;
    span.worker = worker;
    span.start_ns = NowNs();
    spans.push_back(span);
    return static_cast<std::int64_t>(spans.size()) - 1;
  }

  int worker = 0;
  std::int64_t request = 0;
  std::vector<Span> spans;
};

// The caches a traced replay drives directly, built exactly as
// BatchScheduler builds its own.
struct TracedStack {
  explicit TracedStack(const soctest::BatchOptions& o)
      : options(o),
        problems(soctest::CompiledProblemCache::Options{
            o.shards, o.cache_entries, o.core_cache_entries}),
        results(soctest::ResultCache::Options{o.shards, o.result_entries}) {}
  soctest::BatchOptions options;
  soctest::CompiledProblemCache problems;
  soctest::ResultCache results;
};

}  // namespace

void CheckResult(const CompiledProblem& compiled, const BatchRequest& request,
                 const BatchItemResult& item, std::vector<std::string>* failures) {
  if (!item.ok()) {
    failures->push_back("evaluation failed: " + *item.error);
    return;
  }
  if (request.mode == BatchMode::kSweep) {
    for (const soctest::SweepPoint& p : item.sweep) {
      if (p.test_time < compiled.Bounds(p.tam_width).LowerBound(p.tam_width)) {
        failures->push_back("sweep point below the lower bound");
      }
    }
    return;
  }
  soctest::ValidationOptions validation;
  validation.w_max = compiled.w_max();
  if (!soctest::IsValidSchedule(compiled.problem(), item.result.schedule,
                                validation)) {
    failures->push_back("validator rejected a schedule of " + item.soc_name);
  }
  const soctest::Time bound =
      soctest::ComputeLowerBound(compiled.RectsFor(request.tam_width),
                                 request.tam_width)
          .value();
  if (item.makespan < bound) {
    failures->push_back("makespan below ComputeLowerBound for " + item.soc_name);
  }
}

namespace {

// BatchScheduler::Evaluate, call for call, with spans. `compiled_out`
// receives the problem so the caller can validate after the timing.
BatchItemResult TracedEvaluate(TracedStack& stack, const BatchRequest& request,
                               int index, std::string canonical,
                               ScheduleWorkspace& ws, SpanBuffer* buf,
                               std::int64_t parent, EvalCounts& counts,
                               std::shared_ptr<const CompiledProblem>* compiled_out) {
  BatchItemResult item;
  item.index = index;
  item.soc_name = request.soc.soc.name();
  item.mode = request.mode;
  item.tam_width = request.tam_width;

  std::shared_ptr<const CompiledProblem> compiled;
  {
    SpanBuffer::Scope span(buf, Layer::kProblemGet, parent);
    compiled = stack.problems.GetOrCompile(request.soc, std::move(canonical),
                                           stack.options.w_max);
  }
  *compiled_out = compiled;
  if (!compiled->ok()) {
    item.error = *compiled->error();
    return item;
  }

  soctest::OptimizerParams params;
  params.tam_width = request.tam_width;
  params.w_max = stack.options.w_max;
  params.s_percent = request.s_percent;
  params.delta = request.delta;
  params.allow_preemption = request.preempt;
  params.power_budget_override = request.budget;
  params.honor_priority = request.use_priority;
  const soctest::GridExtent extent =
      request.wide ? soctest::GridExtent::kWide : soctest::GridExtent::kCanonical;

  switch (request.mode) {
    case BatchMode::kSchedule:
      if (request.search) {
        SpanBuffer::Scope span(buf, Layer::kEvalSearch, parent);
        const soctest::SearchOutcome outcome = soctest::RunRestartSearch(
            *compiled, soctest::BuildRestartGrid(params, extent), ws);
        span.Close();
        item.result = outcome.best;
        counts.search_configs += outcome.evaluated;
      } else {
        SpanBuffer::Scope span(buf, Layer::kEvalSchedule, parent);
        item.result = soctest::Optimize(*compiled, params, ws);
      }
      counts.candidates_examined += item.result.candidates_examined;
      break;
    case BatchMode::kImprove: {
      soctest::ImproverParams improver;
      improver.optimizer = params;
      improver.grid = extent;
      improver.iterations = request.iterations;
      improver.batch = request.batch;
      improver.seed = request.seed;
      improver.threads = 1;
      SpanBuffer::Scope span(buf, Layer::kEvalImprove, parent);
      soctest::ImproverResult improved = soctest::ImproveSchedule(*compiled, improver);
      span.Close();
      item.result = std::move(improved.best);
      counts.improve_evaluated += improved.evaluated;
      counts.improve_bound_aborts += improved.bound_aborts;
      counts.candidates_examined += item.result.candidates_examined;
      break;
    }
    case BatchMode::kSweep: {
      soctest::SweepOptions sweep;
      sweep.min_width = request.sweep_min;
      sweep.max_width = request.sweep_max > 0 ? request.sweep_max : request.tam_width;
      sweep.optimizer = params;
      sweep.threads = 1;
      SpanBuffer::Scope span(buf, Layer::kEvalSweep, parent);
      item.sweep = soctest::SweepWidths(*compiled, sweep);
      span.Close();
      if (item.sweep.empty()) {
        item.error = "sweep produced no feasible points";
      } else {
        item.makespan = soctest::MinTimePoint(item.sweep).test_time;
      }
      return item;
    }
  }
  if (!item.result.ok()) {
    item.error = *item.result.error;
  } else {
    item.makespan = item.result.makespan;
  }
  return item;
}

std::string FormatItem(const BatchItemResult& item) {
  return item.ok() ? soctest::FormatMakespanLine(item)
                   : soctest::FormatErrorLine(item.index, "eval", *item.error);
}

// One request through the traced pipeline; returns the response bytes and
// sets *request_us to its time from parse to format (the checks that follow
// are not timed).
std::string TracedRequest(TracedStack& stack, const std::string& line,
                          int index, ScheduleWorkspace& ws, SpanBuffer* buf,
                          EvalCounts& counts, std::vector<std::string>* failures,
                          double* request_us) {
  const std::int64_t t0 = NowNs();
  SpanBuffer::Scope root(buf, Layer::kReplay, -1);
  SpanBuffer::Scope parse_span(buf, Layer::kParse, root.id());
  soctest::NetLine net = soctest::ParseNetLine(line);
  parse_span.Close();
  if (net.kind != soctest::NetLine::Kind::kRequest) {
    failures->push_back("request did not parse: " + line);
    return "";
  }
  const BatchRequest& request = net.request;

  SpanBuffer::Scope serve(buf, Layer::kServeOne, root.id());
  std::shared_ptr<const CompiledProblem> compiled;
  BatchItemResult item;
  SpanBuffer::Scope key_span(buf, Layer::kKeySoc, serve.id());
  std::string canonical = soctest::CompiledProblemCache::CanonicalKey(request.soc);
  key_span.Close();
  if (!stack.options.dedup) {
    item = TracedEvaluate(stack, request, index, std::move(canonical), ws, buf,
                          serve.id(), counts, &compiled);
  } else {
    SpanBuffer::Scope result_key(buf, Layer::kKeyResult, serve.id());
    const std::string key = soctest::ResultCache::CanonicalKey(
        request, stack.options.w_max, canonical);
    result_key.Close();
    SpanBuffer::Scope lookup(buf, Layer::kResultLookup, serve.id());
    const soctest::ResultCache::Lookup found = stack.results.Begin(key);
    lookup.Close();
    std::shared_ptr<const BatchItemResult> resident = found.result;
    if (found.leader) {
      BatchItemResult evaluated =
          TracedEvaluate(stack, request, -1, std::move(canonical), ws, buf,
                         serve.id(), counts, &compiled);
      SpanBuffer::Scope commit(buf, Layer::kResultCommit, serve.id());
      resident = stack.results.Commit(key, std::move(evaluated));
    }
    item = *resident;
    item.index = index;
  }
  serve.Close();

  SpanBuffer::Scope format(buf, Layer::kFormat, root.id());
  std::string out = FormatItem(item);
  format.Close();
  root.Close();
  *request_us = NsToUs(NowNs() - t0);
  if (compiled && compiled->ok()) CheckResult(*compiled, request, item, failures);
  return out;
}

// One request through the real ServeOne; returns the response bytes and
// sets *serve_one_us and *request_us (parse to format).
std::string BareRequest(soctest::BatchScheduler& scheduler,
                        const std::string& line, int index,
                        ScheduleWorkspace& ws, double* serve_one_us,
                        std::vector<std::string>* failures, double* request_us) {
  const std::int64_t start = NowNs();
  soctest::NetLine net = soctest::ParseNetLine(line);
  if (net.kind != soctest::NetLine::Kind::kRequest) {
    failures->push_back("request did not parse: " + line);
    return "";
  }
  const std::int64_t t0 = NowNs();
  const BatchItemResult item = scheduler.ServeOne(net.request, index, ws);
  *serve_one_us = NsToUs(NowNs() - t0);
  std::string out = FormatItem(item);
  *request_us = NsToUs(NowNs() - start);
  return out;
}

// Counter deltas over the timed part of a replay.
soctest::CacheStats Delta(soctest::CacheStats a, const soctest::CacheStats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.collisions -= b.collisions;
  a.compiles -= b.compiles;
  return a;
}

soctest::CoreCacheStats Delta(soctest::CoreCacheStats a,
                              const soctest::CoreCacheStats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.collisions -= b.collisions;
  a.compiles -= b.compiles;
  return a;
}

soctest::ResultCacheStats Delta(soctest::ResultCacheStats a,
                                const soctest::ResultCacheStats& b) {
  a.hits -= b.hits;
  a.joins -= b.joins;
  a.misses -= b.misses;
  a.evictions -= b.evictions;
  a.collisions -= b.collisions;
  return a;
}

}  // namespace

ReplayResult Replay(const ReplayOptions& options,
                    const std::vector<std::string>& warm,
                    const std::vector<std::string>& stream) {
  ReplayResult out;
  soctest::BatchOptions batch = options.batch;
  batch.threads = 1;  // the replay owns the parallelism
  soctest::BatchScheduler scheduler(batch);
  std::optional<TracedStack> stack;
  if (options.traced) stack.emplace(batch);
  soctest::ThreadPool pool(options.workers);
  soctest::WorkspacePool workspaces(pool);
  const auto workers = static_cast<std::size_t>(pool.size());
  std::vector<SpanBuffer> buffers(workers);
  std::vector<std::vector<std::string>> failures(workers);
  std::vector<EvalCounts> counts(workers);
  for (std::size_t w = 0; w < workers; ++w) buffers[w].worker = static_cast<int>(w);
  out.worker_busy_us.assign(workers, 0.0);

  // Warm-up: untimed, no spans; the traced side's counts include it.
  std::vector<std::string> ignored(warm.size());
  pool.ParallelForWorker(warm.size(), [&](std::size_t w, std::size_t i) {
    double unused = 0;
    ignored[i] = BareRequest(scheduler, warm[i], static_cast<int>(i),
                             workspaces.slot(w), &unused, &failures[w], &unused);
    if (stack) {
      ignored[i] = TracedRequest(*stack, warm[i], static_cast<int>(i),
                                 workspaces.slot(w), nullptr, counts[w],
                                 &failures[w], &unused);
    }
  });
  soctest::CacheStats problem0;
  soctest::CoreCacheStats core0;
  soctest::ResultCacheStats result0;
  if (stack) {
    problem0 = stack->problems.stats();
    core0 = stack->problems.core_stats();
    result0 = stack->results.stats();
  }

  // The bare and traced sides alternate — per request on a serial replay,
  // per pass on a pool — so both see the same stretch of host time and
  // their difference is the tracing cost, not drift.
  const std::size_t n = stream.size();
  const std::size_t chunk = workers == 1 ? 1 : std::max<std::size_t>(n, 1);
  std::vector<std::string> bare(n), traced(n);
  std::vector<double> serve_one(n), bare_us(n), traced_us(n);
  for (int pass = 0; pass < options.passes; ++pass) {
    double traced_wall = 0;
    for (std::size_t at = 0; at < n; at += chunk) {
      const std::size_t len = std::min(chunk, n - at);
      pool.ParallelForWorker(len, [&](std::size_t w, std::size_t j) {
        const std::size_t i = at + j;
        bare[i] = BareRequest(scheduler, stream[i], static_cast<int>(i),
                              workspaces.slot(w), &serve_one[i], &failures[w],
                              &bare_us[i]);
      });
      if (!stack) continue;
      const std::int64_t wall0 = NowNs();
      pool.ParallelForWorker(len, [&](std::size_t w, std::size_t j) {
        const std::size_t i = at + j;
        buffers[w].request = static_cast<std::int64_t>(pass) *
                                 static_cast<std::int64_t>(n) +
                             static_cast<std::int64_t>(i);
        traced[i] = TracedRequest(*stack, stream[i], static_cast<int>(i),
                                  workspaces.slot(w), &buffers[w], counts[w],
                                  &failures[w], &traced_us[i]);
        out.worker_busy_us[w] += traced_us[i];
      });
      traced_wall += NsToUs(NowNs() - wall0);
    }
    if (stack) out.pass_wall_us.push_back(traced_wall);
    if (pass == 0) {
      out.outputs = bare;
      out.traced_outputs = traced;
    } else if (bare != out.outputs || (stack && traced != out.traced_outputs)) {
      out.failures.push_back("pass " + std::to_string(pass) +
                             " answered differently from pass 0");
    }
    for (std::size_t i = 0; i < n; ++i) {
      out.serve_one_us.push_back(serve_one[i]);
      out.bare_us += bare_us[i];
      out.traced_us += traced_us[i];
    }
  }

  for (std::size_t w = 0; w < workers; ++w) {
    out.spans.insert(out.spans.end(), buffers[w].spans.begin(),
                     buffers[w].spans.end());
    out.failures.insert(out.failures.end(), failures[w].begin(), failures[w].end());
    out.counts.search_configs += counts[w].search_configs;
    out.counts.improve_evaluated += counts[w].improve_evaluated;
    out.counts.improve_bound_aborts += counts[w].improve_bound_aborts;
    out.counts.candidates_examined += counts[w].candidates_examined;
  }
  if (stack) {
    out.problem_delta = Delta(stack->problems.stats(), problem0);
    out.core_delta = Delta(stack->problems.core_stats(), core0);
    out.result_delta = Delta(stack->results.stats(), result0);
  }
  return out;
}

std::vector<LayerStats> SummarizeLayers(const std::vector<Span>& spans) {
  // Child time per parent id, then self = duration - children.
  std::map<std::int64_t, std::int64_t> child_ns;
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  // (group, request) -> summed self time.
  std::map<std::string, std::map<std::int64_t, double>> per_request;
  std::map<std::string, std::int64_t> calls;
  for (const Span& s : spans) {
    const auto it = child_ns.find(s.id);
    const std::int64_t self =
        s.end_ns - s.start_ns - (it == child_ns.end() ? 0 : it->second);
    const std::string group = GroupName(s.layer);
    per_request[group][s.request] += NsToUs(self);
    ++calls[group];
  }
  std::vector<LayerStats> out;
  for (auto& [name, by_request] : per_request) {
    LayerStats stats;
    stats.name = name;
    stats.calls = calls[name];
    for (const auto& [request, us] : by_request) {
      stats.self_us.push_back(us);
      stats.total_us += us;
    }
    out.push_back(std::move(stats));
  }
  return out;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  char line[320];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%lld}}%s\n",
                  LayerName(s.layer), s.worker, NsToUs(s.start_ns - origin),
                  NsToUs(s.end_ns - s.start_ns), static_cast<long long>(s.id),
                  static_cast<long long>(s.parent),
                  static_cast<long long>(s.request),
                  i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
