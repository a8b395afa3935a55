#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <unordered_map>

#include "brain/global_routing.h"
#include "client/broadcaster.h"

namespace perfbench {

using livenet::Duration;
using livenet::kNever;
using livenet::sim::NodeId;

namespace {

using Adjacency = std::vector<std::vector<std::pair<NodeId, Duration>>>;

Adjacency propagation_graph(livenet::sim::Network& net) {
  Adjacency adj(net.node_count());
  for_each_link(net, [&](const livenet::sim::Link& l) {
    adj[static_cast<std::size_t>(l.src())].emplace_back(
        l.dst(), l.propagation_delay());
  });
  return adj;
}

std::vector<Duration> dijkstra(const Adjacency& adj, NodeId src) {
  std::vector<Duration> dist(adj.size(), kNever);
  using Item = std::pair<Duration, NodeId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    for (const auto& [v, w] : adj[static_cast<std::size_t>(u)]) {
      Duration& dv = dist[static_cast<std::size_t>(v)];
      if (dv == kNever || d + w < dv) {
        dv = d + w;
        pq.emplace(dv, v);
      }
    }
  }
  return dist;
}

std::string fmt(const char* f, double a, double b, long long c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), f, a, b, c);
  return buf;
}

}  // namespace

void for_each_link(livenet::sim::Network& net,
                   const std::function<void(const livenet::sim::Link&)>& fn) {
  const auto n = static_cast<NodeId>(net.node_count());
  for (NodeId src = 0; src < n; ++src) {
    for (const NodeId dst : net.neighbors(src)) {
      if (const livenet::sim::Link* l = net.link(src, dst)) fn(*l);
    }
  }
}

void check_round(livenet::CdnSystem& sys, const livenet::ScenarioConfig& scn,
                 const livenet::ScenarioResult& result, CheckLog* log) {
  auto& net = sys.network();
  const Adjacency adj = propagation_graph(net);

  // stream -> (broadcaster node, producer edge), read off the live
  // clients: a broadcaster's only link is its access link.
  struct Origin {
    NodeId broadcaster = livenet::sim::kNoNode;
    NodeId producer = livenet::sim::kNoNode;
  };
  std::map<livenet::media::StreamId, Origin> origin;
  for (NodeId id = 0; id < static_cast<NodeId>(net.node_count()); ++id) {
    auto* b = dynamic_cast<livenet::client::Broadcaster*>(net.node(id));
    if (b == nullptr) continue;
    const auto nb = net.neighbors(id);
    log->expect(nb.size() == 1, "broadcaster with other than one link");
    if (nb.empty()) continue;
    for (const auto s : b->stream_ids()) origin[s] = Origin{id, nb.front()};
  }
  std::map<NodeId, std::vector<Duration>> dist;
  auto dist_from = [&](NodeId src) -> const std::vector<Duration>& {
    auto it = dist.find(src);
    if (it == dist.end()) it = dist.emplace(src, dijkstra(adj, src)).first;
    return it->second;
  };

  std::unordered_map<NodeId, const livenet::overlay::ViewSession*> session_of;
  for (const auto& s : result.overlay.sessions()) {
    session_of.emplace(s.client, &s);  // first session of each client
    if (s.cdn_delay_ms.count() == 0) continue;
    const auto o = origin.find(s.stream);
    log->expect(o != origin.end(), "session on a stream without broadcaster");
    if (o == origin.end()) continue;
    const Duration bound = dist_from(o->second.producer)
        [static_cast<std::size_t>(s.consumer)];
    log->expect(bound != kNever &&
                    s.cdn_delay_ms.min() + 1e-6 >= livenet::to_ms(bound),
                fmt("cdn path delay %.3f ms below propagation bound %.3f ms "
                    "(consumer %lld)",
                    s.cdn_delay_ms.min(), livenet::to_ms(bound), s.consumer));
  }

  const double gop_s = static_cast<double>(scn.gop_frames) / scn.fps;
  for (const auto& v : result.clients.records()) {
    if (v.first_display == kNever || v.frames_displayed == 0) continue;
    const auto o = origin.find(v.stream);
    log->expect(o != origin.end(), "view of a stream without broadcaster");
    if (o == origin.end()) continue;
    // Every displayed frame left the encoder encode_delay after capture
    // and crossed at least the shortest propagation path to the viewer.
    const Duration path = dist_from(o->second.broadcaster)
        [static_cast<std::size_t>(v.viewer)];
    const double bound_ms = livenet::to_ms(kEncodeDelay + path);
    log->expect(path != kNever &&
                    v.streaming_delay_ms.min() + 1e-6 >= bound_ms,
                fmt("streaming delay %.3f ms below bound %.3f ms (viewer %lld)",
                    v.streaming_delay_ms.min(), bound_ms, v.viewer));

    // Frames shown were captured between the start of the GoP the view
    // joined (the consumer's cache holds at most two GoP boundaries,
    // so that start lies within two GoPs of the request, and every
    // simulcast switch may join one more cached GoP) and the end of
    // the view, at the configured frame rate.
    const auto it = session_of.find(v.viewer);
    const auto* s = it != session_of.end() ? it->second : nullptr;
    const livenet::Time end =
        s != nullptr && s->end_time != kNever ? s->end_time
                                              : net.loop()->now();
    const int switches =
        s != nullptr ? s->bitrate_downgrades + s->costream_switches : 0;
    const double span_s = livenet::to_sec(end - v.view_start) +
                          2.0 * gop_s * (1 + switches);
    // An SVC tick encodes one frame per spatial layer.
    const double per_tick = std::max<double>(1.0, scn.svc_spatial_layers);
    const double max_frames = (std::floor(span_s * scn.fps) + 1.0) * per_tick;
    log->expect(static_cast<double>(v.frames_displayed) <= max_frames,
                fmt("view displayed %.0f frames, more than %.0f encoded "
                    "(viewer %lld)",
                    static_cast<double>(v.frames_displayed), max_frames,
                    v.viewer));
  }
}

void check_first_pib(livenet::LiveNetSystem& sys, CheckLog* log) {
  auto& brain = sys.brain();
  const auto& nodes = sys.overlay_node_ids();
  const auto& rcfg = sys.config().brain.routing;
  const livenet::brain::RoutingGraph g =
      livenet::brain::GlobalRouting(rcfg).build_graph(brain.discovery(),
                                                      nodes);
  const std::size_t n = nodes.size();
  std::unordered_map<NodeId, std::size_t> idx;
  for (std::size_t i = 0; i < n; ++i) idx[nodes[i]] = i;
  const double inf = std::numeric_limits<double>::infinity();

  std::size_t exact = 0, bounded = 0;
  // 16 sources x 16 destinations, spread deterministically.
  for (std::size_t si = 0; si < 16 && n > 1; ++si) {
    const std::size_t a = (si * 7919) % n;
    // Dense Dijkstra over the Brain's weights, keeping hop counts.
    std::vector<double> d(n, inf);
    std::vector<std::size_t> prev(n, n);
    std::vector<bool> done(n, false);
    d[a] = 0.0;
    for (std::size_t it = 0; it < n; ++it) {
      std::size_t u = n;
      for (std::size_t x = 0; x < n; ++x) {
        if (!done[x] && d[x] < inf && (u == n || d[x] < d[u])) u = x;
      }
      if (u == n) break;
      done[u] = true;
      for (std::size_t x = 0; x < n; ++x) {
        if (!g.has_edge(u, x)) continue;
        const double alt = d[u] + g.weight(u, x);
        if (alt < d[x]) {
          d[x] = alt;
          prev[x] = u;
        }
      }
    }
    for (std::size_t di = 0; di < 16; ++di) {
      const std::size_t b = (a + 1 + di * 104729) % n;
      if (b == a) continue;
      const auto* paths = brain.pib().find(nodes[a], nodes[b]);
      if (paths == nullptr || paths->empty()) {
        // No regular path: only legal when the pair got a fallback.
        log->expect(brain.pib().find_last_resort(nodes[a], nodes[b]) !=
                        nullptr,
                    "pair with neither a path nor a last-resort fallback");
        continue;
      }
      const livenet::overlay::Path& p = paths->front();
      std::set<NodeId> seen(p.begin(), p.end());
      log->expect(seen.size() == p.size(), "installed path has a loop");
      log->expect(p.front() == nodes[a] && p.back() == nodes[b],
                  "installed path has wrong endpoints");
      double cost = 0.0;
      bool links_ok = true;
      for (std::size_t h = 0; h + 1 < p.size(); ++h) {
        const auto ia = idx.find(p[h]);
        const auto ib = idx.find(p[h + 1]);
        if (ia == idx.end() || ib == idx.end() ||
            sys.network().link(p[h], p[h + 1]) == nullptr ||
            !g.has_edge(ia->second, ib->second)) {
          links_ok = false;
          break;
        }
        cost += g.weight(ia->second, ib->second);
      }
      log->expect(links_ok, "installed path uses a missing link");
      if (!links_ok) continue;
      // The shortest path is installable when it respects the hop limit
      // and crosses nothing the PIB marks overloaded; then the first
      // candidate must cost exactly as much. Otherwise it is a bound.
      livenet::overlay::Path sp;
      for (std::size_t x = b; x != n; x = prev[x]) sp.insert(sp.begin(), nodes[x]);
      const bool installable =
          static_cast<int>(sp.size()) - 1 <= rcfg.max_hops &&
          !brain.pib().is_invalid(sp);
      const double tol = 1e-9 * std::max(1.0, d[b]);
      if (installable) {
        ++exact;
        log->expect(std::fabs(cost - d[b]) <= tol,
                    fmt("first PIB path costs %.6f, Dijkstra %.6f (pair %lld)",
                        cost, d[b], static_cast<long long>(a * n + b)));
      } else {
        ++bounded;
        log->expect(cost + tol >= d[b],
                    fmt("first PIB path costs %.6f below Dijkstra %.6f "
                        "(pair %lld)",
                        cost, d[b], static_cast<long long>(a * n + b)));
      }
    }
  }
  log->expect(exact > 0, "no sampled pair had an installable shortest path");
  std::printf("check first_pib: %zu pairs exact, %zu bounded\n", exact,
              bounded);
}

}  // namespace perfbench
