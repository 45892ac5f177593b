// Shared plumbing of the pipeline benchmark: argument parsing, the
// in-memory span recorder, sample statistics, the referee ledger and
// the result report pipeline_bench prints for run.py.
//
// Everything here sits outside the engine: spans are placed by the
// benchmark around calls into the engine's public API (Session,
// MutationBatch, serve::Snapshot / SnapshotRegistry / QueryServer), and
// layer counters are read from the engine's public stats structs.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The clock every metric and span is timed with: the CPU time of the
/// whole process (CLOCK_PROCESS_CPUTIME_ID). Every engine call runs on
/// one lane, so on an idle core this reads the same as wall time; on a
/// shared host it leaves out the time the process waits for a core
/// that other tenants hold, which wall time would count.
struct CpuClock {
  using duration = std::chrono::nanoseconds;
  using rep = duration::rep;
  using period = duration::period;
  using time_point = std::chrono::time_point<CpuClock>;
  static constexpr bool is_steady = true;
  static time_point now() noexcept {
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return time_point(duration(static_cast<rep>(ts.tv_sec) * 1000000000 +
                               ts.tv_nsec));
  }
};

using Clock = CpuClock;
/// Wall time, used only for the run's --seconds budget.
using WallClock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace-event JSON (trace runs only)
  bool tiny = false;      // self-check sizes
  // "served" or "state": corrupt the first served answer or the first
  // whole-state result a referee compares, which must fail the run.
  std::string corrupt;
};

/// Parses pipeline_bench's command line; returns false (after printing the
/// reason) on malformed input.
bool ParseArgs(int argc, char** argv, Args* out);

/// Peak resident set of the served path, in MiB. The whole-state
/// referee checks and the thrown-away setup rounds build copies of the
/// state beside the served one; the pipeline brackets them with
/// Pause()/Resume(), so their memory is left out of the peak.
class ServedRss {
 public:
  /// Folds the resident high-water mark since the last Resume() (or
  /// since the process started) into the peak.
  void Pause();
  /// Returns freed memory to the kernel (malloc_trim) and resets the
  /// kernel's high-water mark to the current resident set (writing 5
  /// to /proc/self/clear_refs).
  void Resume();
  double PeakMb() const { return peak_kib_ / 1024.0; }
  /// False once a reset failed: the peak is then the process's own
  /// (getrusage), referee and setup copies included.
  bool scoped() const { return scoped_; }

 private:
  double peak_kib_ = 0;
  bool scoped_ = true;
};

/// Deterministic generator for workload inputs (splitmix64 seeding,
/// xorshift64* steps): the same seed gives the same inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed);
  uint64_t Next();
  /// Uniform in [0, bound); bound must be > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// In-memory span recorder. Spans carry a layer-qualified name (for
/// example "api.Commit" or "serve.FreezeIncremental"), start and end,
/// the enclosing span and a request or commit id. Nothing is written
/// until Write() at the end of the run. Disabled, Open/Close cost a
/// branch, so untraced and traced passes run the same code.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span at `t0` under the innermost open span; returns its
  /// handle (-1 when disabled). `flag` is a free per-span tag (for
  /// example record_answers on a batch).
  int Open(const char* name, Clock::time_point t0, uint64_t id = 0,
           int flag = 0);
  void Close(int handle, Clock::time_point t1);
  size_t size() const { return spans_.size(); }

  /// Writes every span as a Chrome trace-event "X" event; `other_data`
  /// is a ready-made JSON object stored under "otherData".
  bool Write(const std::string& path, const std::string& other_data) const;

 private:
  struct Span {
    const char* name;
    int64_t begin_ns;
    int64_t end_ns;
    int parent;
    uint64_t id;
    int flag;
  };
  bool enabled_ = false;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Calls `f` inside span `name` and returns its time in micros (Clock).
/// The span and the returned latency share the same two clock reads.
template <class F>
double Timed(Tracer* tracer, const char* name, uint64_t id, F&& f,
             int flag = 0) {
  const Clock::time_point t0 = Clock::now();
  const int h = tracer->Open(name, t0, id, flag);
  f();
  const Clock::time_point t1 = Clock::now();
  tracer->Close(h, t1);
  return MicrosBetween(t0, t1);
}

/// A bench-layer span held open for a scope (setup round, measure
/// round, referee check): its children are the layer calls inside.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t id = 0)
      : tracer_(tracer), handle_(tracer->Open(name, Clock::now(), id)) {}
  ~Scope() { tracer_->Close(handle_, Clock::now()); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Linear-interpolated percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }

 private:
  std::vector<double> values_;
};

/// The run's result: correctness, attempted/failed operation counts,
/// end-to-end metrics with units and sample counts, raw layer counters
/// (written into the trace for trace_report.py) and run information
/// (machine and input/output sizes).
class Report {
 public:
  bool correct() const { return mismatches_ == 0; }

  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  /// Records one referee comparison; a mismatch fails the run.
  void Check(bool ok, const std::string& what);

  void Metric(const std::string& name, double value, const std::string& unit,
              size_t samples);
  void Counter(const std::string& name, double value) {
    counters_[name] = value;
  }
  void Info(const std::string& key, const std::string& value) {
    info_[key] = "\"" + value + "\"";
  }
  void Info(const std::string& key, double value);

  /// {"counters": {...}, "info": {...}} for the trace's otherData.
  std::string OtherDataJson() const;
  /// The last stdout line of pipeline_bench, read by run.py.
  std::string ResultJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    size_t samples;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_ = 0;
  uint64_t mismatches_ = 0;
  std::string first_mismatch_;
  std::vector<Entry> metrics_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::string> info_;
};

/// What a workload needs from the pipeline.
struct Context {
  Args args;
  /// The lane count every lane-taking call uses. One lane keeps the
  /// process on one core, so its CPU time (Clock) is its latency; more
  /// lanes on a shared host of a few cores would measure the scheduler.
  size_t lanes = 1;
  Tracer tracer;
  Report report;
  bool corruption_pending = false;

  /// True once for the first referee comparison of `kind` ("served" or
  /// "state") when --corrupt asked for it: the caller corrupts the
  /// engine's side of that comparison, and the referee must catch it.
  bool TakeCorruption(const char* kind) {
    if (!corruption_pending || args.corrupt != kind) return false;
    corruption_pending = false;
    return true;
  }
};

/// Number of setup rounds per run: setup_s is their median.
inline constexpr int kSetupRounds = 5;

/// Sorted copy.
std::vector<std::string> Sorted(std::vector<std::string> rows);

/// Aborts the run with a message on stderr (engine call failed where
/// the workload guarantees success).
[[noreturn]] void Die(const std::string& what);

void RunSocialServe(Context* ctx);
void RunSetForall(Context* ctx);
void RunChurnServe(Context* ctx);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
