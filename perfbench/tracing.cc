#include "tracing.h"

#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

namespace {

const Clock::time_point kOrigin = Clock::now();

double CpuS(int who) {
  rusage usage{};
  getrusage(who, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double VmHwmMb(const std::string& status_path) {
  std::ifstream in(status_path);
  std::string line;
  while (std::getline(in, line)) {
    long long kb = 0;
    if (line.compare(0, 6, "VmHWM:") == 0 &&
        std::sscanf(line.c_str() + 6, "%lld", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double NowS() {
  return std::chrono::duration<double>(Clock::now() - kOrigin).count();
}

double SelfCpuS() { return CpuS(RUSAGE_SELF); }
double ChildrenCpuS() { return CpuS(RUSAGE_CHILDREN); }

long long ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<long long>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double SelfPeakRssMb() { return VmHwmMb("/proc/self/status"); }

double PeakRssMb(long long pid) {
  return VmHwmMb("/proc/" + std::to_string(pid) + "/status");
}

int SpanLog::Begin(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.cpu_s = SelfCpuS();
  span.start_s = NowS();
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int index) {
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_s = NowS();
  span.cpu_s = SelfCpuS() - span.cpu_s;
}

std::vector<double> SpanLog::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back(span.ms());
  }
  return out;
}

double SpanLog::TotalMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.ms();
  }
  return total;
}

double SpanLog::TotalCpuMs(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.cpu_s * 1e3;
  }
  return total;
}

sparktune::JobEvaluator::Outcome TimingEvaluator::Run(
    const sparktune::Configuration& config) {
  const long long start = ThreadCpuNs();
  Outcome outcome = inner_->Run(config);
  counters_->run.busy_ns += ThreadCpuNs() - start;
  ++counters_->run.calls;
  return outcome;
}

double TimingEvaluator::ResourceRate(
    const sparktune::Configuration& config) const {
  const long long start = ThreadCpuNs();
  const double rate = inner_->ResourceRate(config);
  counters_->resource_rate.busy_ns += ThreadCpuNs() - start;
  ++counters_->resource_rate.calls;
  return rate;
}

void Digest::Add(const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= bytes[i];
    h_ *= 1099511628211ULL;
  }
}

}  // namespace perfbench
