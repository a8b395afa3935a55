// System benchmark: the perfbench binary.
//
//   perfbench run --workload NAME --seed N --seconds S --trace 0|1
//   perfbench selftest
//
// `run` runs whole rounds of the workload (a full ScenarioRunner::run()
// each) for about S seconds, timing batches of set-ups between them,
// checks every round's outputs, and prints one metric per line followed
// by a JSON summary as the last line. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and sampled rounds
// and reports the per-layer metrics. --seed sets the process hash seed
// (the order-neutral maps' bucket layout); the simulated inputs of a
// workload are fixed, so every round of every run is the same work.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "layer_map.h"
#include "quantile.h"
#include "sampler.h"
#include "util/hash_seed.h"
#include "workloads.h"

namespace perfbench {

int selftest();  // selftest.cpp

namespace {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

bool parse(int argc, char** argv, Options* o) {
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      o->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
    } else if (k == "--trace") {
      o->trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else {
      return false;
    }
  }
  return argc % 2 == 0 && !o->workload.empty() && have_seed &&
         o->seconds > 0 && o->trace >= 0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double median_of(const std::vector<Round>& rounds, double Round::*field) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(r.*field);
  return median(v);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Set-ups are timed in batches before every round and after the last,
/// so their median spans the whole run rather than one moment of a
/// shared host. A batch runs until it has used kSetupBatchS (at least
/// one set-up, at most kSetupBatchMax); a run ends with at least three.
constexpr double kSetupBatchS = 0.2;
constexpr std::size_t kSetupBatchMax = 300;
constexpr std::size_t kMinSetups = 3;

void setup_batch(const Workload& w, std::vector<double>* setups,
                 CheckLog* log) {
  double spent = 0.0;
  for (std::size_t n = 0; n < kSetupBatchMax && spent < kSetupBatchS; ++n) {
    const bool first = setups->empty();
    setups->push_back(time_setup(w, first && w.check_first_pib, log));
    spent += setups->back();
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_summary(const Summary& s, const char* name, const char* unit) {
  std::printf("qoe %s_p50 %.4f %s (n=%zu)\n", name, s.p50, unit, s.count);
  if (s.tail_pct > 0.0) {
    std::printf("qoe %s_tail %.4f %s (p%g, n=%zu)\n", name, s.tail, unit,
                s.tail_pct, s.count);
  } else {
    std::printf("qoe %s_tail - (fewer than 40 samples)\n", name);
  }
}

void print_round(const Round& r) {
  const Qoe& q = r.qoe;
  std::printf("views attempted=%zu failed=%zu (refused=%zu) cut_off=%zu\n",
              q.views_attempted, q.views_failed, q.views_refused,
              q.views_cut_off);
  print_summary(q.startup_delay_ms, "startup_delay", "ms");
  print_summary(q.streaming_delay_ms, "streaming_delay", "ms");
  print_summary(q.cdn_path_delay_ms, "cdn_path_delay", "ms");
  print_summary(q.delivered_kbps, "delivered_kbps", "kbps");
  std::printf("qoe zero_stall_pct %.4f %%\nqoe fast_startup_pct %.4f %%\n",
              q.zero_stall_pct, q.fast_startup_pct);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(r.digest));
}

// Sampler hooks (plain functions: RoundHooks holds function pointers).
void sampler_on() { sampler::arm(); }
void sampler_off() { sampler::disarm(); }

int run(const Options& opt) {
  const Workload* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", opt.workload.c_str());
    return 2;
  }
  livenet::set_hash_seed(static_cast<std::size_t>(opt.seed));

  CheckLog log;
  std::vector<double> setups;

  SymbolMap symbols;
  if (opt.trace == 1) {
    if (!symbols.load() || !sampler::install(1000, std::size_t{1} << 22)) {
      std::fprintf(stderr, "sampler set-up failed\n");
      return 1;
    }
  }

  // Whole rounds (each after a set-up batch) while the next one,
  // estimated by the last, still ends within the measuring time, and at
  // least one; a traced run alternates untraced and sampled rounds (at
  // least one of each).
  std::vector<Round> plain, traced;
  std::vector<std::uint64_t> pcs;
  const auto t0 = Clock::now();
  while (true) {
    const auto t_round = Clock::now();
    setup_batch(*w, &setups, &log);
    const bool sample = opt.trace == 1 && plain.size() > traced.size();
    Round r = sample ? run_round(*w, &log, {sampler_on, sampler_off})
                     : run_round(*w, &log);
    if (sample) {
      const auto taken = sampler::take();
      pcs.insert(pcs.end(), taken.begin(), taken.end());
      traced.push_back(r);
    } else {
      plain.push_back(r);
    }
    const bool pair_done = opt.trace == 0 || plain.size() == traced.size();
    const double next = elapsed_s(t_round) * (opt.trace == 1 ? 2.0 : 1.0);
    if (pair_done && elapsed_s(t0) + next > opt.seconds) break;
  }
  setup_batch(*w, &setups, &log);
  while (setups.size() < kMinSetups) setups.push_back(time_setup(*w, false, &log));

  std::vector<Round> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  std::size_t attempted = 0, failed = 0;
  for (const Round& r : all) {
    attempted += r.qoe.views_attempted;
    failed += r.qoe.views_failed;
    log.expect(r.digest == all.front().digest,
               "simulated statistics differ between rounds");
  }
  const Round& first = all.front();
  std::vector<double> speedups;
  for (const Round& r : plain) speedups.push_back(r.speedup);

  std::printf("workload %s seed %llu: %zu set-ups, %zu rounds (+%zu sampled)\n",
              w->name.c_str(), static_cast<unsigned long long>(opt.seed),
              setups.size(), plain.size(), traced.size());
  {
    std::vector<double> sorted = setups;
    std::sort(sorted.begin(), sorted.end());
    std::printf("set-up s: min %.6g p50 %.6g max %.6g\n", sorted.front(),
                rank_quantile(sorted, 0.5), sorted.back());
  }
  for (const Round& r : all) {
    std::printf("round speedup %.4f x (wall %.3f s for %.3f virtual s)%s\n",
                r.speedup, r.wall_s, r.virtual_s,
                &r >= all.data() + plain.size() ? " sampled" : "");
  }
  print_round(first);
  for (const std::string& f : first.qoe.failed_views) {
    std::printf("failed view: %s\n", f.c_str());
  }

  std::vector<Metric> metrics;
  const Counts& c = first.counts;
  if (opt.trace == 0) {
    metrics.push_back({"setup_s", median(setups), "s"});
    metrics.push_back({"sim_speedup", median(speedups), "x"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    metrics.push_back(
        {"delivered_kbps_p50", first.qoe.delivered_kbps.p50, "kbps"});
  } else {
    std::map<std::string, std::uint64_t> per;
    std::uint64_t unattributed = 0;
    for (const std::uint64_t pc : pcs) {
      const Attribution& a = symbols.attribute(pc);
      if (a.layer.empty()) {
        ++unattributed;
        continue;
      }
      ++per[a.layer];
      if (!a.sub.empty()) ++per[a.sub];
    }
    // The hottest functions, for reading the attribution by eye.
    std::map<std::uint64_t, std::uint64_t> by_fn;
    for (const std::uint64_t pc : pcs) ++by_fn[symbols.function_of(pc)];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> hot;
    for (const auto& [fn, n] : by_fn) hot.emplace_back(n, fn);
    std::sort(hot.rbegin(), hot.rend());
    for (std::size_t i = 0; i < hot.size() && i < 25; ++i) {
      const std::uint64_t pc = hot[i].second;
      const Attribution& a = symbols.attribute(pc);
      std::string name = symbols.name_of(pc);
      if (name.size() > 110) name = name.substr(0, 107) + "...";
      std::printf("hot %5.1f%% %-24s %s\n",
                  100.0 * static_cast<double>(hot[i].first) /
                      static_cast<double>(pcs.size()),
                  (a.sub.empty() ? a.layer : a.sub).c_str(), name.c_str());
    }
    double traced_wall = 0.0;
    for (const Round& r : traced) traced_wall += r.total_wall_s;
    traced_wall /= static_cast<double>(traced.size());
    const double total = std::max<double>(1.0, static_cast<double>(pcs.size()));
    auto busy = [&](const std::string& key) {
      return static_cast<double>(per[key]) / total * traced_wall;
    };
    for (const char* layer :
         {"sim", "sim.event_loop", "sim.network", "transport",
          "transport.send_history", "transport.pacer", "transport.gcc",
          "transport.receive_buffer", "overlay", "overlay.forwarding",
          "overlay.recovery", "overlay.session", "overlay.control", "media",
          "client", "brain", "hier", "workload", "telemetry", "livenet",
          "util", "runtime", "runtime.alloc", "runtime.rtti"}) {
      metrics.push_back({std::string(layer) + ".busy_s", busy(layer), "s"});
    }
    metrics.push_back({"unattributed.busy_s",
                       static_cast<double>(unattributed) / total * traced_wall,
                       "s"});
    const double attributed =
        100.0 * (1.0 - static_cast<double>(unattributed) / total);
    log.expect(attributed >= 95.0, "sampler attributed under 95% of samples");
    std::vector<double> traced_speedups;
    for (const Round& r : traced) traced_speedups.push_back(r.speedup);
    const auto packets = static_cast<double>(std::max<std::uint64_t>(1, c.link_packets));
    std::vector<double> ns_per_event;
    for (const Round& r : plain) {
      ns_per_event.push_back(r.wall_s * 1e9 /
                             static_cast<double>(std::max<std::uint64_t>(1, c.events)));
    }
    const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
    const Round& last = all.back();
    metrics.insert(metrics.end(), {
        {"sim.events", n(c.events), "count"},
        {"sim.ns_per_event", median(ns_per_event), "ns"},
        {"sim.peak_pending", n(c.peak_pending), "count"},
        {"sim.link_packets", n(c.link_packets), "count"},
        {"sim.link_drops_queue", n(c.link_drops_queue), "count"},
        {"sim.link_drops_wire", n(c.link_drops_wire), "count"},
        {"sim.link_drops_down", n(c.link_drops_down), "count"},
        {"transport.send_history.ns_per_packet",
         busy("transport.send_history") * 1e9 / packets, "ns"},
        {"overlay.fast_forwards", n(c.fast_forwards), "count"},
        {"overlay.client_forwards", n(c.client_forwards), "count"},
        {"overlay.cache_hits", n(c.cache_hits), "count"},
        {"overlay.rtx_sent", n(c.rtx_sent), "count"},
        {"overlay.holes_filled", n(c.holes_filled), "count"},
        {"overlay.layer_filtered", n(c.layer_filtered), "count"},
        {"overlay.frame_drops", n(c.frame_drops), "count"},
        {"overlay.svc_mask_flips", n(c.svc_mask_flips), "count"},
        {"overlay.svc_nack_voids", n(c.svc_nack_voids), "count"},
        {"media.deep_copies", n(c.deep_copies), "count"},
        {"client.frames_displayed", n(first.qoe.frames_displayed), "count"},
        {"client.zero_stall_pct", first.qoe.zero_stall_pct, "%"},
        {"client.fast_startup_pct", first.qoe.fast_startup_pct, "%"},
        {"brain.recomputes", n(c.recomputes), "count"},
        {"brain.recompute_s", median_of(all, &Round::recompute_s), "s"},
        {"brain.graph_build_s", median_of(all, &Round::graph_build_s), "s"},
        {"brain.solve_s", median_of(all, &Round::solve_s), "s"},
        {"brain.install_s", median_of(all, &Round::install_s), "s"},
        {"brain.pairs_solved", n(c.pairs_solved), "count"},
        {"brain.pairs_skipped", n(c.pairs_skipped), "count"},
        {"brain.path_requests", n(c.path_requests), "count"},
        {"runtime.allocs", n(last.allocs), "count"},
        {"runtime.allocs_per_packet", n(last.allocs) / packets, "count"},
        {"trace.samples", static_cast<double>(pcs.size()), "count"},
        {"trace.attributed_pct", attributed, "%"},
        {"trace.overhead_pct",
         100.0 * (median(speedups) / median(traced_speedups) - 1.0), "%"},
    });
  }

  for (const Metric& m : metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("checks %zu run, %zu failed\n", log.checked, log.failures.size());
  for (const std::string& f : log.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = log.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "selftest") return perfbench::selftest();
  perfbench::Options opt;
  if (mode != "run" || !perfbench::parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: %s run --workload NAME --seed N --seconds S "
                 "--trace 0|1\n       %s selftest\n",
                 argv[0], argv[0]);
    return 2;
  }
  return perfbench::run(opt);
}
