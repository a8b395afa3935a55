#pragma once

#include <functional>
#include <vector>

#include "livenet/scenario.h"
#include "livenet/system.h"
#include "workloads.h"

// Output checks that do not trust the program's own bookkeeping: they
// recompute lower bounds from the topology (Dijkstra over link
// propagation delays, or over the Brain's link weights) and hold the
// measured records against them.
namespace perfbench {

/// Calls fn(link) for every directed link of the network.
void for_each_link(livenet::sim::Network& net,
                   const std::function<void(const livenet::sim::Link&)>& fn);

/// Holds every displayed view and every CDN session of a finished
/// round against the propagation lower bounds and the frame-count
/// bound. Must run while the runner (and so every client) is alive.
void check_round(livenet::CdnSystem& sys,
                 const livenet::ScenarioConfig& scn,
                 const livenet::ScenarioResult& result, CheckLog* log);

/// Right after the Brain's first routing cycle: for sampled pairs, the
/// first installed path is loop-free, runs over existing links and
/// costs what an independent Dijkstra over the same weights finds.
void check_first_pib(livenet::LiveNetSystem& sys, CheckLog* log);

/// Encode delay the scenario runner configures for every broadcaster.
inline constexpr livenet::Duration kEncodeDelay = 60 * livenet::kMs;

}  // namespace perfbench
