#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "livenet/scenario.h"
#include "livenet/system.h"
#include "quantile.h"

// The four fixed-input workloads and one "round" of each: build a
// CdnSystem, drive ScenarioRunner::run() to the end, tear it down, and
// reduce the raw QoE records and the layers' counters to numbers.
namespace perfbench {

struct Workload {
  std::string name;
  bool hier = false;
  livenet::SystemConfig system;
  livenet::ScenarioConfig scenario;
  /// Compare the first installed PIB against an independent Dijkstra.
  bool check_first_pib = false;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Independent output checks: each failure is one line of text.
struct CheckLog {
  std::vector<std::string> failures;
  std::size_t checked = 0;
  void expect(bool ok, const std::string& what) {
    ++checked;
    if (!ok && failures.size() < 50) failures.push_back(what);
  }
};

/// Viewer-facing results of one round (virtual time; exact per input).
struct Qoe {
  std::size_t views_attempted = 0;  ///< views that could reach 2 s of watch
  std::size_t views_failed = 0;     ///< refused, or no frame shown
  std::size_t views_refused = 0;    ///< subset of failed: ViewAck refused
  std::size_t views_cut_off = 0;    ///< started < 2 s before the run end
  Summary startup_delay_ms;
  Summary streaming_delay_ms;
  Summary cdn_path_delay_ms;
  Summary delivered_kbps;
  double zero_stall_pct = 0.0;
  double fast_startup_pct = 0.0;
  std::uint64_t frames_displayed = 0;
  std::vector<std::string> failed_views;  ///< one line per failed view
};

/// Exact per-layer counts of one round.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t link_packets = 0;
  std::uint64_t link_drops_queue = 0;
  std::uint64_t link_drops_wire = 0;
  std::uint64_t link_drops_down = 0;
  std::uint64_t fast_forwards = 0;
  std::uint64_t client_forwards = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rtx_sent = 0;
  std::uint64_t holes_filled = 0;
  std::uint64_t layer_filtered = 0;
  std::uint64_t frame_drops = 0;
  std::uint64_t svc_mask_flips = 0;
  std::uint64_t svc_nack_voids = 0;
  std::uint64_t deep_copies = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t pairs_solved = 0;
  std::uint64_t pairs_skipped = 0;
  std::uint64_t path_requests = 0;
};

/// One round: everything above plus its wall-clock timing.
struct Round {
  Qoe qoe;
  Counts counts;
  std::uint64_t digest = 0;  ///< hash of every simulated statistic
  double virtual_s = 0.0;    ///< simulated after set-up, incl. teardown
  double wall_s = 0.0;       ///< wall time of the same span
  double total_wall_s = 0.0; ///< construction to destruction
  double speedup = 0.0;      ///< virtual_s / wall_s
  std::uint64_t allocs = 0;  ///< operator new calls, whole round
  // The Brain's own wall-clock timers (sums over the round's cycles).
  double recompute_s = 0.0;
  double graph_build_s = 0.0;
  double solve_s = 0.0;
  double install_s = 0.0;
};

/// Hooks bracketing the part of a round the sampler should see.
struct RoundHooks {
  void (*begin)() = nullptr;
  void (*end)() = nullptr;
};

/// Runs one round. Output checks are appended to `log`.
Round run_round(const Workload& w, CheckLog* log, RoundHooks hooks = {});

/// Times one set-up (see README: construction through the first
/// installed PIB for LiveNet, the built tree for Hier). When
/// `check_pib` is set, also checks the first PIB against Dijkstra.
double time_setup(const Workload& w, bool check_pib, CheckLog* log);

}  // namespace perfbench
