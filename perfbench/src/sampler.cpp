#include "sampler.h"

#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstring>
#include <sys/time.h>
#include <ucontext.h>

namespace perfbench::sampler {

namespace {

std::uint64_t* g_buf = nullptr;
std::size_t g_cap = 0;
std::atomic<std::size_t> g_next{0};
long g_interval_us = 1000;

void on_sigprof(int, siginfo_t*, void* ctx) {
  const auto* uc = static_cast<const ucontext_t*>(ctx);
  const auto pc = static_cast<std::uint64_t>(uc->uc_mcontext.gregs[REG_RIP]);
  const std::size_t i = g_next.fetch_add(1, std::memory_order_relaxed);
  if (i < g_cap) g_buf[i] = pc;
}

void set_timer(long us) {
  itimerval t{};
  t.it_interval.tv_usec = us;
  t.it_value.tv_usec = us;
  setitimer(ITIMER_PROF, &t, nullptr);
}

}  // namespace

bool install(long interval_us, std::size_t capacity) {
  g_buf = new std::uint64_t[capacity];
  g_cap = capacity;
  g_interval_us = interval_us;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  return sigaction(SIGPROF, &sa, nullptr) == 0;
}

void arm() { set_timer(g_interval_us); }
void disarm() { set_timer(0); }

std::vector<std::uint64_t> take() {
  const std::size_t n = std::min(g_next.load(), g_cap);
  std::vector<std::uint64_t> out(g_buf, g_buf + n);
  g_next.store(0);
  return out;
}

}  // namespace perfbench::sampler
