// Fixture: seeded randomness and monotonic time; must produce no findings.
#include <chrono>
#include <cstdint>

std::uint64_t seeded_draw(std::uint64_t seed) {
  // SplitMix64 step — pure function of the seed, reproducible by design.
  seed += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = seed;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return z ^ (z >> 31);
}

long monotonic_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

long justified_wall_clock() {
  // lint: allow(entropy-source): report header timestamp only; never feeds
  // back into scheduling decisions.
  return std::chrono::system_clock::now().time_since_epoch().count();
}
