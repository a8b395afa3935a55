// Failover & mobility: a relay on the active path degrades (loss
// spike); the client quality reports trigger the consumer to switch to
// a backup path (§4.4/§7.1). Then a viewer migrates to a different
// consumer node mid-view (mobility, §7.1) and playback continues.
//
//   ./build/examples/failover
#include <cstdio>

#include "client/broadcaster.h"
#include "client/viewer.h"
#include "livenet/defaults.h"

using namespace livenet;

int main() {
  SystemConfig cfg = paper_system_config();
  cfg.countries = 3;
  cfg.nodes_per_country = 4;
  cfg.brain.routing_interval = 8 * kSec;
  cfg.overlay_node.report_interval = 3 * kSec;
  LiveNetSystem system(cfg);
  system.build_once();
  system.start();

  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.bitrate_bps = 1.0e6;
  bc.versions = {vc};
  client::Broadcaster broadcaster(&system.network(), 5, bc);
  const auto bsite = system.geo().sample_site(0);
  const auto producer = system.attach_client(&broadcaster, bsite);
  broadcaster.start(producer, {7});
  system.loop().run_until(10 * kSec);

  client::ClientMetrics qoe;
  client::Viewer viewer(&system.network(), &qoe);
  const auto vsite = system.geo().sample_site(1);
  const auto consumer = system.attach_client(&viewer, vsite);
  viewer.start_view(consumer, 7);
  system.loop().run_until(20 * kSec);

  const auto& session = system.sessions().sessions().front();
  std::printf("established: path length %d, CDN delay %.0f ms\n",
              session.path_length, session.cdn_delay_ms.mean());

  // Degrade the current upstream hop: find the consumer's upstream via
  // the FIB and spike loss on that link pair heavily. The upstream is
  // captured now: the path switch below rewrites the FIB entry.
  const auto* entry = system.node(consumer).fib().find(7);
  const sim::NodeId upstream =
      entry != nullptr ? entry->upstream : sim::kNoNode;
  if (upstream != sim::kNoNode) {
    std::printf("degrading link %d -> %d (90%% loss)...\n", upstream,
                consumer);
    system.network().link(upstream, consumer)->set_loss_rate(0.90);
  }
  system.loop().run_until(35 * kSec);
  if (upstream != sim::kNoNode) {
    const auto* l = system.network().link(upstream, consumer);
    std::printf("  degraded link stats: sent=%llu lost=%llu\n",
      (unsigned long long)l->stats().packets_sent,
      (unsigned long long)l->stats().packets_lost);
    const auto* now_entry = system.node(consumer).fib().find(7);
    std::printf("  consumer upstream now: %d (was %d)\n",
      now_entry ? now_entry->upstream : -99, upstream);
  }
  std::printf("after degradation: path switches=%d, viewer stalls=%u skips=%llu\n",
              session.path_switches, qoe.records().front().stalls,
              (unsigned long long)qoe.records().front().frames_skipped);

  // Mobility: the viewer moves; DNS maps it to a different consumer.
  sim::NodeId new_consumer = consumer;
  for (const auto n : system.edge_nodes()) {
    if (n != consumer && system.country_of_node(n) == 1) {
      new_consumer = n;
      break;
    }
  }
  // Wire an access link at the new location and resubscribe through it.
  sim::LinkConfig access;
  access.propagation_delay = 20 * kMs;
  access.bandwidth_bps = 20e6;
  system.network().add_bidi_link(viewer.node_id(), new_consumer, access);
  std::printf("viewer migrates: consumer %d -> %d\n", consumer, new_consumer);
  viewer.migrate(new_consumer);

  system.loop().run_until(50 * kSec);
  viewer.stop_view();
  broadcaster.stop();
  system.loop().run_until(51 * kSec);

  const auto& v = qoe.records().front();
  std::printf("final: %llu frames displayed, %u stalls total, mean "
              "streaming delay %.0f ms\n",
              static_cast<unsigned long long>(v.frames_displayed), v.stalls,
              v.streaming_delay_ms.mean());
  std::printf("sessions logged at consumers: %zu (original + post-"
              "migration)\n", system.sessions().sessions().size());
  return 0;
}
