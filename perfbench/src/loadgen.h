// The load generator of the serve workloads: two loopback connections, at
// most two threads, in two phases.
//
//  * Open loop: requests leave on a fixed schedule (rate r: request k is due
//    at start + k/r, alternating connections) whatever the server does, and
//    each request's latency runs from its DUE time — a stall delays every
//    request behind it and the metric sees it. One thread sends, one thread
//    receives on both connections. How late the sender itself ran is kept
//    apart (lateness) so a generator that fell behind can be told from a slow
//    server.
//  * Closed loop: each connection keeps a fixed number of requests
//    outstanding (within the server's admission depth), one thread per
//    connection; the phase measures saturated throughput.
//
// Every answer is kept as (line id, response text after "req=<i> ") for the
// caller's byte-for-byte checks; ERROR lines and missing answers are failures.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct PhaseResult {
  std::int64_t sent = 0;
  std::int64_t succeeded = 0;  // MAKESPAN answers
  std::int64_t failed = 0;     // ERROR answers + requests never answered
  std::vector<double> latency_us;   // open loop: due time -> answer
  std::vector<double> lateness_us;  // open loop: due time -> actually sent
  // Closed loop: answers completed in each consecutive kBinSeconds of the
  // phase (answers after the phase ends are not counted), and the server's
  // CPU time (ProcessCpuUs) at each bin boundary.
  static constexpr double kBinSeconds = 0.5;
  std::vector<std::int64_t> completed_per_bin;
  std::vector<double> cpu_us_at_bin;
  std::vector<std::pair<int, std::string>> answers;  // (inputs.Id, text)
  std::vector<std::string> errors;  // first few failure descriptions
};

// Request k of the stream is inputs.Line(k) for k = next++, shared across
// phases so serve-variants never repeats a SOC.
PhaseResult RunOpenLoop(int port, const WorkloadInputs& inputs,
                        std::atomic<std::int64_t>& next, double rate_rps,
                        double seconds);

PhaseResult RunClosedLoop(int port, int server_pid,
                          const WorkloadInputs& inputs,
                          std::atomic<std::int64_t>& next, int outstanding,
                          double seconds);

// Sends `lines` pipelined on one fresh connection and waits for every answer;
// returns the answers by line position, "" for a missing one.
std::vector<std::string> SendAndWait(int port,
                                     const std::vector<std::string>& lines,
                                     std::string* error);

// Round-trip times of `count` STATS verbs on one connection, and the last
// STATS line received.
std::vector<double> StatsRoundTrips(int port, int count, std::string* last);

}  // namespace perfbench
