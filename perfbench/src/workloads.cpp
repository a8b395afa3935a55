#include "workloads.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <unordered_set>

#include "alloc_counter.h"
#include "checks.h"
#include "livenet/defaults.h"
#include "media/rtp.h"
#include "telemetry/metrics.h"

namespace perfbench {

using livenet::kNever;
using livenet::kSec;
using livenet::Time;
using Clock = std::chrono::steady_clock;

namespace {

double since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// The seeds livenet_run uses: footprint 42, viewers 42 ^ 0x5C3A.
constexpr std::uint64_t kFootprintSeed = 42;
constexpr std::uint64_t kWorkloadSeed = 42 ^ 0x5C3A;

livenet::ScenarioConfig one_day() {
  livenet::ScenarioConfig scn = livenet::paper_scenario_config(kWorkloadSeed);
  scn.duration = scn.day_length;
  return scn;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;
  {
    Workload w;
    w.name = "paper_steady";
    w.system = livenet::paper_system_config(kFootprintSeed);
    w.scenario = one_day();
    out.push_back(w);
  }
  {
    // livenet_run --chaos --svc-mode L3T3 with its default fault seed.
    Workload w;
    w.name = "chaos_svc";
    w.system = livenet::paper_system_config(kFootprintSeed);
    w.scenario = one_day();
    livenet::apply_svc_mode(w.scenario, "L3T3");
    w.scenario.faults.seed = 1;
    w.scenario.faults.link_flaps_per_min = 0.5;
    w.scenario.faults.degrades_per_min = 0.5;
    w.scenario.faults.node_crashes_per_min = 0.2;
    w.scenario.faults.control_outages_per_min = 0.05;
    out.push_back(w);
  }
  {
    // 20 countries x 30 nodes. One day spans the routing cycles at
    // 0.3 s (set-up), 30.3 s and 60.3 s (the teardown window).
    Workload w;
    w.name = "brain_600";
    w.system = livenet::paper_system_config(kFootprintSeed);
    w.system.countries = 20;
    w.system.nodes_per_country = 30;
    w.system.geo.countries = 20;
    w.system.brain.routing.threads = 2;
    w.scenario = one_day();
    w.check_first_pib = true;
    out.push_back(w);
  }
  {
    Workload w;
    w.name = "hier_steady";
    w.hier = true;
    w.system = livenet::paper_system_config(kFootprintSeed);
    w.scenario = one_day();
    out.push_back(w);
  }
  return out;
}

std::unique_ptr<livenet::CdnSystem> make_system(const Workload& w) {
  if (w.hier) return std::make_unique<livenet::HierSystem>(w.system);
  return std::make_unique<livenet::LiveNetSystem>(w.system);
}

// FNV-1a over the raw bytes of every simulated statistic.
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  template <class T>
  void add(const T& v) {
    unsigned char b[sizeof(T)];
    std::memcpy(b, &v, sizeof(T));
    for (const unsigned char c : b) {
      h ^= c;
      h *= 1099511628211ull;
    }
  }
  void add(const livenet::OnlineStats& s) {
    add(s.count());
    add(s.mean());
    add(s.min());
    add(s.max());
  }
};

std::uint64_t digest_of(const livenet::ScenarioResult& r, const Counts& c) {
  Digest d;
  for (const auto& v : r.clients.records()) {
    d.add(v.stream);
    d.add(v.viewer);
    d.add(v.consumer);
    d.add(v.view_start);
    d.add(v.first_display);
    d.add(v.stalls);
    d.add(v.dead_air_stalls);
    d.add(v.total_stall_time);
    d.add(v.streaming_delay_ms);
    d.add(v.header_ext_delay_ms);
    d.add(v.frames_displayed);
    d.add(v.frames_skipped);
    d.add(v.bytes_displayed);
    d.add(v.view_failed);
    d.add(v.completed);
  }
  for (const auto& s : r.overlay.sessions()) {
    d.add(s.stream);
    d.add(s.consumer);
    d.add(s.client);
    d.add(s.request_time);
    d.add(s.local_hit);
    d.add(s.last_resort);
    d.add(s.first_packet_time);
    d.add(s.path_length);
    d.add(s.cdn_delay_ms);
    d.add(s.path_response_rtt);
    d.add(s.path_switches);
    d.add(s.bitrate_downgrades);
    d.add(s.costream_switches);
    d.add(s.failed);
    d.add(s.end_time);
  }
  for (const auto& p : r.brain.path_requests) {
    d.add(p.arrival);
    d.add(p.response_time);
    d.add(p.last_resort);
    d.add(p.stream_known);
  }
  for (const auto& f : r.faults) {
    d.add(f.injected_at);
    d.add(f.repaired_at);
    d.add(f.recovered_at);
  }
  d.add(c);
  return d.h;
}

Qoe reduce(const livenet::ScenarioResult& r,
           const livenet::ScenarioConfig& scn) {
  Qoe q;
  std::unordered_set<livenet::sim::NodeId> counted;
  std::vector<double> startup, streaming, kbps, cdn;
  std::size_t zero_stall = 0, fast = 0;
  for (const auto& v : r.clients.records()) {
    // A view that started less than the 2 s minimum watch time before
    // the run ended was cut off by the run, not by the program.
    if (v.view_start + 2 * kSec > scn.duration) {
      ++q.views_cut_off;
      continue;
    }
    counted.insert(v.viewer);
    ++q.views_attempted;
    if (v.view_failed || v.first_display == kNever ||
        v.frames_displayed == 0) {
      ++q.views_failed;
      if (v.view_failed) ++q.views_refused;
      char line[160];
      std::snprintf(line, sizeof(line),
                    "stream %llu at consumer %lld requested t=%.3f s, %s",
                    static_cast<unsigned long long>(v.stream),
                    static_cast<long long>(v.consumer),
                    livenet::to_sec(v.view_start),
                    v.view_failed ? "refused" : "no frame displayed");
      q.failed_views.push_back(line);
      continue;
    }
    startup.push_back(livenet::to_ms(v.startup_delay()));
    streaming.push_back(v.streaming_delay_ms.mean());
    zero_stall += v.stalls == 0 ? 1 : 0;
    fast += v.fast_startup() ? 1 : 0;
    q.frames_displayed += v.frames_displayed;
  }
  for (const auto& s : r.overlay.sessions()) {
    if (counted.count(s.client) == 0) continue;
    if (s.cdn_delay_ms.count() > 0) cdn.push_back(s.cdn_delay_ms.mean());
  }
  // Delivered bitrate over the view's watch time, as the consumer saw
  // it: from the view request to the view stop.
  std::unordered_map<livenet::sim::NodeId, const livenet::overlay::ViewSession*>
      session_of;
  for (const auto& s : r.overlay.sessions()) session_of.emplace(s.client, &s);
  for (const auto& v : r.clients.records()) {
    if (counted.count(v.viewer) == 0 || v.first_display == kNever ||
        v.view_failed || v.frames_displayed == 0) {
      continue;
    }
    const auto it = session_of.find(v.viewer);
    if (it == session_of.end() || it->second->end_time == kNever) continue;
    const double watch_s =
        livenet::to_sec(it->second->end_time - it->second->request_time);
    if (watch_s > 0.0) {
      kbps.push_back(static_cast<double>(v.bytes_displayed) * 8.0 / watch_s /
                     1000.0);
    }
  }
  const std::size_t shown = startup.size();
  q.startup_delay_ms = summarize(std::move(startup));
  q.streaming_delay_ms = summarize(std::move(streaming));
  q.cdn_path_delay_ms = summarize(std::move(cdn));
  q.delivered_kbps = summarize(std::move(kbps));
  if (shown > 0) {
    q.zero_stall_pct = 100.0 * static_cast<double>(zero_stall) /
                       static_cast<double>(shown);
    q.fast_startup_pct =
        100.0 * static_cast<double>(fast) / static_cast<double>(shown);
  }
  return q;
}

Counts count_layers(livenet::CdnSystem& sys,
                    const livenet::ScenarioResult& r,
                    std::uint64_t deep_copies) {
  Counts c;
  c.events = sys.loop().dispatched();
  c.peak_pending = sys.loop().peak_pending();
  for_each_link(sys.network(), [&](const livenet::sim::Link& l) {
    c.link_packets += l.stats().packets_sent;
  });
  const auto& t = livenet::telemetry::handles();
  c.link_drops_queue = t.link_drops_queue->value();
  c.link_drops_wire = t.link_drops_wire->value();
  c.link_drops_down = t.link_drops_down->value();
  c.fast_forwards = t.fast_forwards->value();
  c.client_forwards = t.client_forwards->value();
  c.cache_hits = t.cache_hits->value();
  c.rtx_sent = t.rtx_sent->value();
  c.holes_filled = t.recovery_ms->stats().count();
  c.layer_filtered = t.layer_filtered->value();
  c.frame_drops = t.drops_b->value() + t.drops_p->value() +
                  t.drops_gop->value() + t.drops_layer->value();
  c.svc_mask_flips = t.svc_mask_flips->value();
  c.svc_nack_voids = t.svc_nack_voids->value();
  c.deep_copies = deep_copies;
  c.recomputes = r.brain.recomputes;
  c.pairs_solved = t.brain_pairs_solved->value();
  c.pairs_skipped = t.brain_pairs_skipped->value();
  c.path_requests = r.brain.path_requests.size();
  return c;
}

/// Virtual time of the Brain's first routing cycle (LiveNet set-up end).
Time g_first_cycle_at = kNever;

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = make_workloads();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

double time_setup(const Workload& w, bool check_pib, CheckLog* log) {
  const auto t0 = Clock::now();
  if (w.hier) {
    livenet::HierSystem sys(w.system);
    sys.build_once();
    return since(t0, Clock::now());
  }
  livenet::LiveNetSystem sys(w.system);
  sys.build_once();
  sys.start();
  // The first report round, then the Brain's first installed PIB.
  while (sys.brain().metrics().recomputes == 0 && sys.loop().step()) {
  }
  const double wall = since(t0, Clock::now());
  log->expect(sys.brain().metrics().recomputes == 1,
              "set-up ended without exactly one routing cycle");
  g_first_cycle_at = sys.loop().now();
  if (check_pib) check_first_pib(sys, log);
  return wall;
}

Round run_round(const Workload& w, CheckLog* log, RoundHooks hooks) {
  Round out;
  livenet::telemetry::MetricsRegistry::instance().reset();
  const std::uint64_t copies0 = livenet::media::RtpBody::deep_copy_count();
  const std::uint64_t allocs0 = alloc_count();
  if (hooks.begin != nullptr) hooks.begin();
  const auto t_construct = Clock::now();

  auto sys = make_system(w);
  auto runner = std::make_unique<livenet::ScenarioRunner>(*sys, w.scenario);
  // Set-up ends at the first routing cycle (LiveNet) or once the tree
  // is built (Hier): a no-op event just after that instant stamps the
  // wall clock. It only shifts later event sequence numbers uniformly.
  Clock::time_point t_setup_done = t_construct;
  Time v_setup_done = 0;
  log->expect(w.hier || g_first_cycle_at != kNever,
              "round before a set-up measurement");
  const Time probe_at = w.hier ? 0 : g_first_cycle_at + 1;
  auto* ln = dynamic_cast<livenet::LiveNetSystem*>(sys.get());
  sys->loop().schedule_at(probe_at, [&] {
    t_setup_done = Clock::now();
    v_setup_done = sys->loop().now();
    if (ln != nullptr) {
      log->expect(ln->brain().metrics().recomputes == 1,
                  "probe missed the first routing cycle");
    }
  });
  const livenet::ScenarioResult result = runner->run();
  const auto t_run_end = Clock::now();
  if (hooks.end != nullptr) hooks.end();
  const std::uint64_t allocs_run = alloc_count() - allocs0;
  const Time v_end = sys->loop().now();

  // Outside the timed span: counts, reductions and checks.
  const std::uint64_t copies = livenet::media::RtpBody::deep_copy_count() -
                               copies0;
  out.counts = count_layers(*sys, result, copies);
  out.qoe = reduce(result, w.scenario);
  out.digest = digest_of(result, out.counts);
  check_round(*sys, w.scenario, result, log);
  if (!w.hier) {
    log->expect(copies == 0, "RtpBody deep copies on the LiveNet fast path");
  }
  const auto& t = livenet::telemetry::handles();
  out.recompute_s = t.brain_recompute_ms->stats().sum() / 1000.0;
  out.graph_build_s = t.brain_graph_build_ms->stats().sum() / 1000.0;
  out.solve_s = t.brain_solve_ms->stats().sum() / 1000.0;
  out.install_s = t.brain_install_ms->stats().sum() / 1000.0;

  if (hooks.begin != nullptr) hooks.begin();
  const std::uint64_t allocs_teardown0 = alloc_count();
  const auto t_teardown = Clock::now();
  runner.reset();
  sys.reset();
  const auto t_gone = Clock::now();
  out.allocs = allocs_run + (alloc_count() - allocs_teardown0);
  if (hooks.end != nullptr) hooks.end();

  out.virtual_s = livenet::to_sec(v_end - v_setup_done);
  out.wall_s = since(t_setup_done, t_run_end) + since(t_teardown, t_gone);
  out.total_wall_s = since(t_construct, t_run_end) + since(t_teardown, t_gone);
  out.speedup = out.wall_s > 0.0 ? out.virtual_s / out.wall_s : 0.0;
  return out;
}

}  // namespace perfbench
