#include "util/fault.hpp"

#include <cmath>
#include <cstddef>
#include <cstdlib>

#include "util/sync.hpp"

namespace subspar {
namespace {

// SplitMix64 finalizer: the schedule is a pure hash of (seed, site,
// invocation), where inside a FaultStreamScope the invocation is identified
// by (batch, chunk, number within the stream), so it replays bit-identically
// and is independent of call interleaving across sites and streams.
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t hash3(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed;
  z = mix(z + 0x9e3779b97f4a7c15ULL + a);
  z = mix(z + 0x9e3779b97f4a7c15ULL + b);
  return z;
}

struct Config {
  bool enabled = false;
  std::uint64_t seed = 0;
  double rate = 0.02;
  std::uint64_t cooldown = 500;
  bool site_on[kFaultSiteCount] = {true, true, true, true, true, true};
};

Config parse_env() {
  Config cfg;
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read under State::mutex only
  const char* env = std::getenv("SUBSPAR_FAULT");
  if (env == nullptr || *env == '\0') return cfg;
  // "<seed>[:<rate>[:<cooldown>[:<sites>]]]"; malformed fields keep their
  // defaults rather than aborting the host process.
  char* end = nullptr;
  cfg.seed = std::strtoull(env, &end, 10);
  if (end == env) return cfg;  // no leading seed: stay disarmed
  cfg.enabled = true;
  if (*end == ':') {
    const char* p = end + 1;
    const double rate = std::strtod(p, &end);
    if (end != p && rate >= 0.0 && rate <= 1.0) cfg.rate = rate;
  }
  if (*end == ':') {
    const char* p = end + 1;
    const std::uint64_t cd = std::strtoull(p, &end, 10);
    if (end != p) cfg.cooldown = cd;
  }
  if (*end == ':') {
    for (int i = 0; i < kFaultSiteCount; ++i) cfg.site_on[i] = false;
    for (const char* p = end + 1; *p != '\0'; ++p) {
      switch (*p) {
        case 'a': cfg.site_on[static_cast<int>(FaultSite::kSolverApply)] = true; break;
        case 's': cfg.site_on[static_cast<int>(FaultSite::kSolverSolve)] = true; break;
        case 'r': cfg.site_on[static_cast<int>(FaultSite::kCacheRead)] = true; break;
        case 'w': cfg.site_on[static_cast<int>(FaultSite::kCacheWrite)] = true; break;
        case 'i': cfg.site_on[static_cast<int>(FaultSite::kIo)] = true; break;
        case 'q': cfg.site_on[static_cast<int>(FaultSite::kQueue)] = true; break;
        default: break;  // ignore separators/unknown letters
      }
    }
  }
  return cfg;
}

struct State {
  Mutex mutex;
  bool loaded SUBSPAR_GUARDED_BY(mutex) = false;
  Config config SUBSPAR_GUARDED_BY(mutex);
  FaultCounts counts SUBSPAR_GUARDED_BY(mutex);
  // Cooldown horizon per site.
  std::uint64_t quiet_until[kFaultSiteCount] SUBSPAR_GUARDED_BY(mutex) = {};
  std::uint64_t batches SUBSPAR_GUARDED_BY(mutex) = 0;

  void ensure_loaded() SUBSPAR_REQUIRES(mutex) {
    if (!loaded) {
      config = parse_env();
      loaded = true;
    }
  }
};

State& state() {
  static State st;
  return st;
}

thread_local FaultStreamScope* g_stream = nullptr;

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kSolverApply: return "solver-apply";
    case FaultSite::kSolverSolve: return "solver-solve";
    case FaultSite::kCacheRead: return "cache-read";
    case FaultSite::kCacheWrite: return "cache-write";
    case FaultSite::kIo: return "io";
    case FaultSite::kQueue: return "queue";
  }
  return "unknown";
}

bool fault_injection_enabled() {
  State& st = state();
  const MutexLock lock(st.mutex);
  st.ensure_loaded();
  return st.config.enabled;
}

bool fault_fire(FaultSite site, std::uint64_t* shot) {
  State& st = state();
  const MutexLock lock(st.mutex);
  st.ensure_loaded();
  const auto i = static_cast<std::size_t>(site);
  const std::uint64_t global_n = ++st.counts.invocations[i];
  // Inside a stream the invocation is numbered, and cooled down, by the
  // stream's own counters, and identified by (batch, chunk, number).
  FaultStreamScope* const stream = g_stream;
  const std::uint64_t n = stream != nullptr ? ++stream->invocations_[i] : global_n;
  std::uint64_t& quiet_until = stream != nullptr ? stream->quiet_until_[i] : st.quiet_until[i];
  if (!st.config.enabled || !st.config.site_on[i]) return false;
  if (n <= quiet_until) return false;
  const std::uint64_t id = stream != nullptr ? hash3(stream->batch_, stream->chunk_, n) : n;
  const std::uint64_t z = hash3(st.config.seed, i, id);
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  if (u >= st.config.rate) return false;
  ++st.counts.fired[i];
  quiet_until = n + st.config.cooldown;
  if (shot != nullptr) *shot = stream != nullptr ? id : st.counts.fired[i];
  return true;
}

double fault_corrupt_value(std::uint64_t shot) {
  return shot % 2 == 0 ? std::nan("") : 0x1.0p100;
}

std::uint64_t fault_corrupt_index(FaultSite site, std::uint64_t shot, std::uint64_t extent) {
  if (extent == 0) return 0;
  return hash3(0x5eedULL + static_cast<std::uint64_t>(site), shot, extent) % extent;
}

std::uint64_t fault_next_batch() {
  State& st = state();
  const MutexLock lock(st.mutex);
  return st.batches++;
}

FaultStreamScope::FaultStreamScope(std::uint64_t batch, std::uint64_t chunk)
    : batch_(batch), chunk_(chunk), previous_(g_stream) {
  g_stream = this;
}

FaultStreamScope::~FaultStreamScope() { g_stream = previous_; }

FaultCounts fault_counts() {
  State& st = state();
  const MutexLock lock(st.mutex);
  return st.counts;
}

std::uint64_t fault_fired(FaultSite site) {
  State& st = state();
  const MutexLock lock(st.mutex);
  return st.counts.fired[static_cast<int>(site)];
}

void fault_reset() {
  State& st = state();
  const MutexLock lock(st.mutex);
  st.config = parse_env();
  st.loaded = true;
  st.counts = FaultCounts{};
  for (auto& q : st.quiet_until) q = 0;
  st.batches = 0;
}

}  // namespace subspar
