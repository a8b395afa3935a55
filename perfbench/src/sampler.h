#pragma once

#include <cstdint>
#include <vector>

// A SIGPROF program-counter sampler on this process: ITIMER_PROF fires
// every `interval_us` of CPU time (any thread), and the handler stores
// the interrupted instruction pointer in a preallocated buffer. Nothing
// in the program under test is instrumented.
namespace perfbench::sampler {

/// Installs the handler and sizes the buffer. The timer starts disarmed.
bool install(long interval_us, std::size_t capacity);

/// Starts / stops the CPU-time timer.
void arm();
void disarm();

/// Returns the samples taken so far and empties the buffer. Samples
/// beyond the capacity are not stored.
std::vector<std::uint64_t> take();

}  // namespace perfbench::sampler
