#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace perfbench {

namespace {

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--workload") {
      const char* v = value("--workload");
      if (!v) return false;
      out->workload = v;
    } else if (a == "--seed") {
      const char* v = value("--seed");
      if (!v) return false;
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      const char* v = value("--seconds");
      if (!v) return false;
      out->seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      const char* v = value("--trace");
      if (!v) return false;
      out->trace = std::strcmp(v, "0") != 0;
    } else if (a == "--trace-out") {
      const char* v = value("--trace-out");
      if (!v) return false;
      out->trace_out = v;
    } else if (a == "--tiny") {
      out->tiny = true;
    } else if (a == "--corrupt") {
      const char* v = value("--corrupt");
      if (!v) return false;
      out->corrupt = v;
      if (out->corrupt != "served" && out->corrupt != "state") {
        std::fprintf(stderr, "perfbench: --corrupt takes served or state\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  if (out->workload.empty() || !(out->seconds > 0)) {
    std::fprintf(stderr, "perfbench: need --workload and --seconds > 0\n");
    return false;
  }
  if (out->trace && out->trace_out.empty()) {
    std::fprintf(stderr, "perfbench: --trace 1 needs --trace-out\n");
    return false;
  }
  return true;
}

void ServedRss::Pause() {
  double hwm_kib = 0;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      hwm_kib = std::strtod(line.c_str() + 6, nullptr);
      break;
    }
  }
  if (!(hwm_kib > 0)) {
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    hwm_kib = static_cast<double>(ru.ru_maxrss);  // KiB on Linux
    scoped_ = false;
  }
  peak_kib_ = std::max(peak_kib_, hwm_kib);
}

void ServedRss::Resume() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) scoped_ = false;
}

Rng::Rng(uint64_t seed) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  state_ = (z ^ (z >> 31)) | 1;
}

uint64_t Rng::Next() {
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  return state_ * 0x2545f4914f6cdd1dULL;
}

int Tracer::Open(const char* name, Clock::time_point t0, uint64_t id,
                 int flag) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  const int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_)
          .count();
  spans_.push_back(Span{name, ns, ns, parent, id, flag});
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::Close(int handle, Clock::time_point t1) {
  if (handle < 0) return;
  spans_[handle].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - origin_)
          .count();
  // Spans close in LIFO order; tolerate a span opened while disabled.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == handle) break;
  }
}

bool Tracer::Write(const std::string& path,
                   const std::string& other_data) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const char* dot = std::strchr(s.name, '.');
    const std::string layer =
        dot ? std::string(s.name, dot - s.name) : std::string(s.name);
    out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << layer << "\", \"ph\": \"X\", \"ts\": "
        << Num(static_cast<double>(s.begin_ns) / 1e3)
        << ", \"dur\": " << Num(static_cast<double>(s.end_ns - s.begin_ns) / 1e3)
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"span\": " << i
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id
        << ", \"flag\": " << s.flag << "}}";
  }
  out << "\n], \"otherData\": " << other_data << "}\n";
  return static_cast<bool>(out);
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void Report::Check(bool ok, const std::string& what) {
  ++checks_;
  if (ok) return;
  if (mismatches_++ == 0) first_mismatch_ = what;
  std::fprintf(stderr, "perfbench: referee mismatch: %s\n", what.c_str());
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, size_t samples) {
  metrics_.push_back(Entry{name, value, unit, samples});
}

void Report::Info(const std::string& key, double value) {
  info_[key] = Num(value);
}

std::string Report::OtherDataJson() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [k, v] : counters_) {
    out += (first ? "" : ", ") + ("\"" + k + "\": ") + Num(v);
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info_) {
    out += (first ? "" : ", ") + ("\"" + k + "\": ") + v;
    first = false;
  }
  return out + "}}";
}

std::string Report::ResultJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"referee\": {\"checks\": " + std::to_string(checks_) +
         ", \"mismatches\": " + std::to_string(mismatches_) +
         ", \"first_mismatch\": \"";
  for (char c : first_mismatch_) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  out += "\"}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& e = metrics_[i];
    out += (i ? ", " : "") + ("\"" + e.name + "\": {\"value\": ") +
           Num(e.value) + ", \"unit\": \"" + e.unit +
           "\", \"samples\": " + std::to_string(e.samples) + "}";
  }
  return out + "}, \"data\": " + OtherDataJson() + "}";
}

std::vector<std::string> Sorted(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(3);
}

}  // namespace perfbench
