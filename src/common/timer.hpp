// Wall-clock stopwatch and the phase names of the paper's runtime
// breakdowns (Fig. 6, Table 3). Phase time itself is recorded into the
// registry's `pipeline.phase_us{phase=...}` histograms
// (storage/fetch_pipeline.hpp), the one phase clock.
#pragma once

#include <chrono>

namespace ppr {

/// Simple wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }
  double millis() const { return seconds() * 1e3; }
  double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Phases every SSPPR driver times, matching the paper's breakdown.
enum class Phase : int {
  kPop = 0,
  kLocalFetch = 1,
  kRemoteFetch = 2,
  kPush = 3,
};
inline constexpr int kNumPhases = 4;

inline const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kPop:
      return "pop";
    case Phase::kLocalFetch:
      return "local_fetch";
    case Phase::kRemoteFetch:
      return "remote_fetch";
    case Phase::kPush:
      return "push";
  }
  return "?";
}

}  // namespace ppr
