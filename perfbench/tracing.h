// Measurement plumbing for the fleet-tick benchmark: clocks, process CPU and
// memory readings, an in-memory span log, and the forwarding JobEvaluator
// that times the simulator from outside the library.
//
// Everything here observes; nothing feeds back into a tuning decision. The
// benchmark proves that by comparing trajectory digests of traced and
// untraced episodes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tuner/evaluator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds since a fixed process-wide origin.
double NowS();

// CPU seconds (user + system) of this process, and of its reaped children
// (RUSAGE_CHILDREN: the shard workers once they have been waited for).
double SelfCpuS();
double ChildrenCpuS();
// CPU nanoseconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
long long ThreadCpuNs();
// Peak resident set (VmHWM) of this process or of a live process; 0 if it
// cannot be read.
double SelfPeakRssMb();
double PeakRssMb(long long pid);

// One timed interval around a call into a layer. `parent` is the index of
// the enclosing span in the same log, or -1.
struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;  // process CPU consumed between start and end
  int parent = -1;
  double ms() const { return (end_s - start_s) * 1e3; }
};

// Spans of one traced episode, kept in memory and summarized at the end.
// Used only from the thread that fires the ticks.
class SpanLog {
 public:
  int Begin(const std::string& name, int parent = -1);
  void End(int index);
  const std::vector<Span>& spans() const { return spans_; }
  // Durations (ms) of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  double TotalMs(const std::string& name) const;
  double TotalCpuMs(const std::string& name) const;

 private:
  std::vector<Span> spans_;
};

// RAII span; a null log makes it a no-op, so untraced code paths share the
// same call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent = -1)
      : log_(log), index_(log != nullptr ? log->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  int index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

// Thread-safe call counter plus the thread CPU time spent inside the calls
// of one evaluator entry point. CPU time, not wall time, so that it can be
// subtracted from the execute spans' process CPU: a stolen or descheduled
// stretch counts in neither.
struct CallCounter {
  std::atomic<long long> calls{0};
  std::atomic<long long> busy_ns{0};
  double busy_ms() const { return static_cast<double>(busy_ns.load()) / 1e6; }
};

struct EvaluatorCounters {
  CallCounter run;
  CallCounter resource_rate;
};

// Forwarding JobEvaluator: every call goes to `inner` unchanged. Run and
// ResourceRate are counted and timed on the calling thread's CPU clock;
// the other entry points are forwarded untimed. Tasks of one service step on several threads, so the
// counters are atomics shared by all tasks.
class TimingEvaluator final : public sparktune::JobEvaluator {
 public:
  TimingEvaluator(std::unique_ptr<sparktune::JobEvaluator> inner,
                  EvaluatorCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  Outcome Run(const sparktune::Configuration& config) override;
  double ResourceRate(const sparktune::Configuration& config) const override;
  double NextDataSizeHintGb() const override {
    return inner_->NextDataSizeHintGb();
  }
  double NextHours() const override { return inner_->NextHours(); }
  void SkipExecutions(int n) override { inner_->SkipExecutions(n); }

 private:
  std::unique_ptr<sparktune::JobEvaluator> inner_;
  EvaluatorCounters* counters_;
};

// FNV-1a over raw bytes; the trajectory digest of an episode.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void Add(double v) { Add(&v, sizeof(v)); }
  void Add(long long v) { Add(&v, sizeof(v)); }
  void Add(const std::vector<double>& v) {
    for (double x : v) Add(x);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

}  // namespace perfbench
