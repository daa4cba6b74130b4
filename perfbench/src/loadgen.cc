#include "loadgen.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <thread>

#include "bench_util.h"
#include "service/net/socket.h"

namespace perfbench {
namespace {

constexpr std::int64_t kDrainNs = 10'000'000'000;  // answers may lag the phase

// A client connection with its own line buffer.
class Conn {
 public:
  bool Connect(int port, std::string* error) {
    socket_ = soctest::ConnectToLoopback(port, error);
    if (!socket_.valid()) return false;
    int one = 1;
    setsockopt(socket_.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return true;
  }
  int fd() const { return socket_.fd(); }

  bool Send(const std::string& line) {
    out_.assign(line);
    out_ += '\n';
    return soctest::WriteAll(socket_.fd(), out_);
  }

  // One read; appends every completed line. False on EOF or error. Every
  // read is acknowledged at once (TCP_QUICKACK): a delayed ACK would hold
  // the server's next response in its Nagle buffer (the server does not
  // set TCP_NODELAY) until this client's next request carries the ACK,
  // pinning latency to the request inter-arrival time instead of the
  // server's work.
  bool ReadOnce(std::vector<std::string>* lines) {
    char buf[16384];
    const ssize_t n = soctest::ReadSome(socket_.fd(), buf, sizeof buf);
    if (n <= 0) return false;
    int one = 1;
    setsockopt(socket_.fd(), IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    in_.append(buf, static_cast<std::size_t>(n));
    std::size_t begin = 0;
    for (std::size_t nl = in_.find('\n'); nl != std::string::npos;
         nl = in_.find('\n', begin)) {
      lines->emplace_back(in_, begin, nl - begin);
      begin = nl + 1;
    }
    in_.erase(0, begin);
    return true;
  }

 private:
  soctest::Socket socket_;
  std::string in_, out_;
};

// "MAKESPAN req=<i> <rest>" / "ERROR req=<i> <rest>": the request index and
// the rest; index -1 when the line has neither shape.
struct Answer {
  long long seq = -1;
  bool ok = false;
  std::string rest;
};

Answer ParseAnswer(const std::string& line) {
  Answer a;
  std::size_t at = 0;
  if (line.rfind("MAKESPAN req=", 0) == 0) {
    a.ok = true;
    at = 13;
  } else if (line.rfind("ERROR req=", 0) == 0) {
    at = 10;
  } else {
    return a;
  }
  char* end = nullptr;
  a.seq = std::strtoll(line.c_str() + at, &end, 10);
  if (end == line.c_str() + at || *end != ' ') {
    a.seq = -1;
    return a;
  }
  a.rest.assign(end + 1);
  return a;
}

void NoteError(PhaseResult& r, const std::string& what) {
  ++r.failed;
  if (r.errors.size() < 5) r.errors.push_back(what);
}

// The default 50 us timer slack would make every scheduled send late by
// about that much; the generator asks for 1 us.
void PreciseTimers() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void SleepUntilNs(std::int64_t ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::nanoseconds(ns)));
}

}  // namespace

PhaseResult RunOpenLoop(int port, const WorkloadInputs& inputs,
                        std::atomic<std::int64_t>& next, double rate_rps,
                        double seconds) {
  PhaseResult r;
  Conn conns[2];
  std::string error;
  for (Conn& c : conns) {
    if (!c.Connect(port, &error)) {
      NoteError(r, "connect: " + error);
      return r;
    }
  }
  struct Record {
    std::int64_t due_ns = 0;
    int line = -1;
    bool answered = false;
  };
  const auto capacity =
      static_cast<std::size_t>(rate_rps * seconds) + 2;
  std::vector<Record> records[2] = {std::vector<Record>(capacity),
                                    std::vector<Record>(capacity)};
  std::atomic<std::int64_t> sent[2] = {0, 0};
  std::atomic<bool> done_sending{false};
  const std::int64_t start = NowNs() + 2'000'000;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  const double period_ns = 1e9 / rate_rps;

  std::thread sender([&] {
    PreciseTimers();
    for (std::int64_t k = 0;; ++k) {
      const std::int64_t due =
          start + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
      if (due >= end) break;
      const std::int64_t request = next.fetch_add(1);
      const std::string line = inputs.Line(request);  // before the due time
      SleepUntilNs(due);
      const int c = static_cast<int>(k & 1);
      const std::int64_t slot = sent[c].load(std::memory_order_relaxed);
      records[c][static_cast<std::size_t>(slot)] =
          Record{due, inputs.Id(request), false};
      sent[c].store(slot + 1, std::memory_order_release);
      r.lateness_us.push_back(NsToUs(NowNs() - due));
      if (!conns[c].Send(line)) break;
    }
    done_sending.store(true, std::memory_order_release);
  });

  // The receiver owns every other PhaseResult field until the join.
  std::thread receiver([&] {
    std::int64_t answered = 0;
    std::vector<std::string> lines;
    pollfd fds[2] = {{conns[0].fd(), POLLIN, 0}, {conns[1].fd(), POLLIN, 0}};
    while (NowNs() < end + kDrainNs) {
      if (done_sending.load(std::memory_order_acquire) &&
          answered == sent[0].load() + sent[1].load()) {
        break;
      }
      fds[0].revents = fds[1].revents = 0;
      if (poll(fds, 2, 20) <= 0) continue;
      for (int c = 0; c < 2; ++c) {
        if (fds[c].revents == 0) continue;
        lines.clear();
        if (!conns[c].ReadOnce(&lines)) {
          NoteError(r, "connection closed by server");
          fds[c].fd = -1;
          continue;
        }
        const std::int64_t now = NowNs();
        const std::int64_t count = sent[c].load(std::memory_order_acquire);
        for (const std::string& text : lines) {
          const Answer a = ParseAnswer(text);
          if (a.seq < 0 || a.seq >= count ||
              records[c][static_cast<std::size_t>(a.seq)].answered) {
            NoteError(r, "unexpected answer: " + text);
            continue;
          }
          Record& rec = records[c][static_cast<std::size_t>(a.seq)];
          rec.answered = true;
          ++answered;
          if (!a.ok) {
            NoteError(r, text);
            continue;
          }
          ++r.succeeded;
          r.latency_us.push_back(NsToUs(now - rec.due_ns));
          r.answers.emplace_back(rec.line, a.rest);
        }
      }
    }
    const std::int64_t total = sent[0].load() + sent[1].load();
    if (answered < total) {
      r.failed += total - answered;
      r.errors.push_back(std::to_string(total - answered) + " unanswered");
    }
  });
  sender.join();
  receiver.join();
  r.sent = sent[0].load() + sent[1].load();
  return r;
}

PhaseResult RunClosedLoop(int port, int server_pid,
                          const WorkloadInputs& inputs,
                          std::atomic<std::int64_t>& next, int outstanding,
                          double seconds) {
  PhaseResult parts[2];
  Conn conns[2];
  std::string error;
  for (Conn& c : conns) {
    if (!c.Connect(port, &error)) {
      NoteError(parts[0], "connect: " + error);
      return parts[0];
    }
  }
  const std::int64_t start = NowNs() + 2'000'000;
  const auto end = start + static_cast<std::int64_t>(seconds * 1e9);
  const auto bins = static_cast<std::size_t>(seconds / PhaseResult::kBinSeconds);

  const auto run = [&](int c) {
    Conn& conn = conns[c];
    PhaseResult& p = parts[c];
    std::vector<int> seq_line;
    std::vector<char> answered;
    std::int64_t inflight = 0;
    bool sending = true;
    const auto send_one = [&] {
      const std::int64_t request = next.fetch_add(1);
      seq_line.push_back(inputs.Id(request));
      answered.push_back(0);
      ++p.sent;
      ++inflight;
      return conn.Send(inputs.Line(request));
    };
    PreciseTimers();
    SleepUntilNs(start);
    for (int i = 0; i < outstanding && sending; ++i) sending = send_one();
    p.completed_per_bin.assign(bins, 0);
    const auto bin_ns = static_cast<std::int64_t>(PhaseResult::kBinSeconds * 1e9);
    std::vector<std::string> lines;
    while (inflight > 0 && NowNs() < end + kDrainNs) {
      // Connection 0's thread samples the server's CPU at bin boundaries.
      while (c == 0 && p.cpu_us_at_bin.size() <= bins &&
             NowNs() >= start + static_cast<std::int64_t>(p.cpu_us_at_bin.size()) * bin_ns) {
        p.cpu_us_at_bin.push_back(ProcessCpuUs(server_pid));
      }
      if (soctest::PollReadable(conn.fd(), 10) <= 0) continue;
      lines.clear();
      if (!conn.ReadOnce(&lines)) {
        NoteError(p, "connection closed by server");
        break;
      }
      for (const std::string& text : lines) {
        const Answer a = ParseAnswer(text);
        if (a.seq < 0 || a.seq >= static_cast<long long>(seq_line.size()) ||
            answered[static_cast<std::size_t>(a.seq)]) {
          NoteError(p, "unexpected answer: " + text);
          continue;
        }
        answered[static_cast<std::size_t>(a.seq)] = 1;
        --inflight;
        const std::int64_t now = NowNs();
        if (!a.ok) {
          NoteError(p, text);
        } else {
          ++p.succeeded;
          const auto bin = static_cast<std::size_t>(
              static_cast<double>(now - start) / 1e9 / PhaseResult::kBinSeconds);
          if (now >= start && bin < bins) ++p.completed_per_bin[bin];
          p.answers.emplace_back(seq_line[static_cast<std::size_t>(a.seq)],
                                 a.rest);
        }
        if (sending && now < end) sending = send_one();
      }
    }
    if (inflight > 0) {
      p.failed += inflight;
      p.errors.push_back(std::to_string(inflight) + " unanswered");
    }
  };
  std::thread other(run, 1);
  run(0);
  other.join();

  PhaseResult r = std::move(parts[0]);
  r.sent += parts[1].sent;
  r.succeeded += parts[1].succeeded;
  r.failed += parts[1].failed;
  for (std::size_t b = 0; b < r.completed_per_bin.size(); ++b) {
    r.completed_per_bin[b] += parts[1].completed_per_bin[b];
  }
  r.answers.insert(r.answers.end(),
                   std::make_move_iterator(parts[1].answers.begin()),
                   std::make_move_iterator(parts[1].answers.end()));
  r.errors.insert(r.errors.end(), parts[1].errors.begin(),
                  parts[1].errors.end());
  return r;
}

std::vector<std::string> SendAndWait(int port,
                                     const std::vector<std::string>& lines,
                                     std::string* error) {
  std::vector<std::string> out(lines.size());
  Conn conn;
  if (!conn.Connect(port, error)) return out;
  for (const std::string& line : lines) {
    if (!conn.Send(line)) {
      *error = "send failed";
      return out;
    }
  }
  std::size_t got = 0;
  std::vector<std::string> read;
  const std::int64_t deadline = NowNs() + 60 * 1'000'000'000LL;
  while (got < lines.size() && NowNs() < deadline) {
    if (soctest::PollReadable(conn.fd(), 100) <= 0) continue;
    read.clear();
    if (!conn.ReadOnce(&read)) break;
    for (std::string& text : read) {
      const Answer a = ParseAnswer(text);
      if (a.seq >= 0 && a.seq < static_cast<long long>(out.size()) &&
          out[static_cast<std::size_t>(a.seq)].empty()) {
        out[static_cast<std::size_t>(a.seq)] = std::move(text);
        ++got;
      }
    }
  }
  if (got < lines.size()) *error = "missing answers";
  return out;
}

std::vector<double> StatsRoundTrips(int port, int count, std::string* last) {
  std::vector<double> rtts;
  Conn conn;
  std::string error;
  if (!conn.Connect(port, &error)) return rtts;
  std::vector<std::string> read;
  for (int i = 0; i < count; ++i) {
    const std::int64_t t0 = NowNs();
    if (!conn.Send("STATS")) break;
    read.clear();
    while (read.empty() && soctest::PollReadable(conn.fd(), 5000) > 0 &&
           conn.ReadOnce(&read)) {
    }
    if (read.empty()) break;
    rtts.push_back(NsToUs(NowNs() - t0));
    *last = read.back();
  }
  return rtts;
}

}  // namespace perfbench
