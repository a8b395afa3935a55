#pragma once

#include <cstdint>

// Allocation counter: the benchmark binary replaces the global
// operator new, so every heap allocation the program makes through
// new/make_shared/containers is counted.
namespace perfbench {

/// Calls to any global operator new since process start (all threads).
std::uint64_t alloc_count();

}  // namespace perfbench
