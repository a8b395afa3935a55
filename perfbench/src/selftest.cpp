// Unit checks of the benchmark's own arithmetic: the exact-rank
// quantile against hand-computed samples, and the symbol -> layer map
// against representative names. Run by `perfbench selftest`.
#include <cstdio>
#include <string>
#include <vector>

#include "layer_map.h"
#include "quantile.h"

namespace perfbench {

namespace {

int g_failures = 0;

void expect_eq(double got, double want, const char* what) {
  if (got != want) {
    std::printf("selftest FAILED: %s: got %g, want %g\n", what, got, want);
    ++g_failures;
  }
}

void expect_layer(const std::string& name, const std::string& layer,
                  const std::string& sub) {
  const Attribution a = classify(name);
  if (a.layer != layer || a.sub != sub) {
    std::printf("selftest FAILED: %s -> %s/%s, want %s/%s\n", name.c_str(),
                a.layer.c_str(), a.sub.c_str(), layer.c_str(), sub.c_str());
    ++g_failures;
  }
}

}  // namespace

int selftest() {
  // Nearest rank on {15, 20, 35, 40, 50}: rank ceil(q * 5).
  const std::vector<double> s = {15, 20, 35, 40, 50};
  expect_eq(rank_quantile(s, 0.0), 15, "p0");
  expect_eq(rank_quantile(s, 0.3), 20, "p30");
  expect_eq(rank_quantile(s, 0.4), 20, "p40");
  expect_eq(rank_quantile(s, 0.5), 35, "p50");
  expect_eq(rank_quantile(s, 1.0), 50, "p100");

  // 1..100: the median is the 50th value; p99.9, p99 and p95 leave
  // fewer than ten samples above them, so the tail is p90 = 90.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted input
  const Summary h = summarize(hundred);
  expect_eq(static_cast<double>(h.count), 100, "count");
  expect_eq(h.p50, 50, "p50 of 1..100");
  expect_eq(h.tail, 90, "tail of 1..100");
  expect_eq(h.tail_pct, 90, "tail percentile of 1..100");

  // 400 samples: p99 leaves 4, p95 leaves 20 -> tail is p95 = 380.
  std::vector<double> four;
  for (int i = 1; i <= 400; ++i) four.push_back(i);
  const Summary f = summarize(four);
  expect_eq(f.tail, 380, "tail of 1..400");
  expect_eq(f.tail_pct, 95, "tail percentile of 1..400");

  // Under 40 samples there is no tail; duplicates keep exact ranks.
  const Summary small = summarize({3, 1, 2, 2});
  expect_eq(small.p50, 2, "p50 of {3,1,2,2}");
  expect_eq(small.tail_pct, 0, "no tail under 40 samples");

  expect_layer("livenet::transport::SendHistory::prune(long)", "transport",
               "transport.send_history");
  expect_layer(
      "std::_Hashtable<livenet::transport::SendHistory::Key, std::pair<"
      "livenet::transport::SendHistory::Key const, unsigned long>>::_M_erase("
      "unsigned long)",
      "transport", "transport.send_history");
  expect_layer(
      "void livenet::util::InlineFunction::invoke<livenet::overlay::"
      "ControlAgent::report_state()::{lambda()#1}>(void*)",
      "overlay", "overlay.control");
  expect_layer(
      "livenet::overlay::ForwardingEngine::on_rtp(livenet::sim::IntrusivePtr<"
      "livenet::media::RtpPacket const> const&)",
      "overlay", "overlay.forwarding");
  expect_layer("livenet::sim::EventLoop::run_until(long)", "sim",
               "sim.event_loop");
  expect_layer("livenet::ScenarioRunner::spawn_viewer()", "livenet", "");
  expect_layer("livenet::Rng::uniform()", "util", "");
  expect_layer("__dynamic_cast", "runtime", "runtime.rtti");
  expect_layer("_int_free", "runtime", "runtime.alloc");
  expect_layer("operator new(unsigned long)", "runtime", "runtime.alloc");
  expect_layer("__memmove_avx_unaligned_erms", "runtime", "");
  expect_layer("bool livenet::brain::KspSolver::operator<(int) const", "brain",
               "");

  std::printf("selftest %s (%d failures)\n", g_failures == 0 ? "ok" : "FAILED",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
