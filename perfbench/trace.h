// Span recorder for the repository benchmark.
//
// A span is one call the benchmark makes into a layer's public function:
// name, layer, start, end, the span that was open on the same thread when
// it started (its parent), and the run id (one id per benchmark round).
// Spans stay in memory while the benchmark runs and are written out once,
// when it ends. A disabled recorder records nothing and costs one branch per
// call, so untraced runs measure the program, not the recorder.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  const char* layer = "";
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::int64_t parent = -1;  // index into the span list, -1 = root
  std::uint32_t run = 0;
  std::uint32_t thread = 0;

  double Micros() const { return static_cast<double>(end_ns - start_ns) / 1e3; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_run(std::uint32_t run) { run_.store(run); }

  /// RAII span: opened by Tracer::Open, closed when it goes out of scope.
  class Scope {
   public:
    Scope(Tracer* tracer, std::int64_t index) : tracer_(tracer), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }

   private:
    Tracer* tracer_;
    std::int64_t index_;
  };

  /// Opens a span on the calling thread when the recorder is enabled and
  /// `on` is true; `layer` and `name` must be string literals (they are
  /// stored by pointer).
  Scope Open(const char* layer, const char* name, bool on = true) {
    if (!enabled_ || !on) return Scope(nullptr, -1);
    ThreadState& ts = Local();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.layer = layer;
    s.name = name;
    s.start_ns = NowNs();
    s.parent = ts.open.empty() ? -1 : ts.open.back();
    s.run = run_.load();
    s.thread = ts.id;
    spans_.push_back(s);
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    ts.open.push_back(index);
    return Scope(this, index);
  }

  /// Durations in microseconds of the closed spans called `name` (call
  /// after every recording thread has joined).
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.end_ns >= 0 && name == s.name) out.push_back(s.Micros());
    }
    return out;
  }

  /// Self time per layer in seconds: each span's duration minus the part
  /// its child spans cover.
  std::map<std::string, double> SelfSeconds() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.end_ns >= 0 && s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      out[s.layer] +=
          (static_cast<double>(s.end_ns - s.start_ns) - child_ns[i]) / 1e9;
    }
    return out;
  }

  /// Writes every closed span as one tab-separated line.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\trun\tthread\tlayer\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      std::fprintf(f, "%zu\t%lld\t%u\t%u\t%s\t%s\t%lld\t%lld\n", i,
                   static_cast<long long>(s.parent), s.run, s.thread, s.layer,
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct ThreadState {
    std::uint32_t id = 0;
    std::vector<std::int64_t> open;
  };

  ThreadState& Local() {
    thread_local ThreadState ts;
    thread_local bool registered = false;
    if (!registered) {
      ts.id = next_thread_.fetch_add(1);
      registered = true;
    }
    return ts;
  }

  void Close(std::int64_t index) {
    ThreadState& ts = Local();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
    if (!ts.open.empty() && ts.open.back() == index) ts.open.pop_back();
  }

  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                t0_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point t0_;
  std::atomic<std::uint32_t> run_{0};
  inline static std::atomic<std::uint32_t> next_thread_{0};
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
