// Deterministic fault injection for the extraction stack.
//
// The fault-tolerance layer (linalg/robust.hpp, the solver fallback chains,
// the checksummed ModelCache) has recovery paths that never run in a healthy
// build. This harness makes them testable: setting
//
//   SUBSPAR_FAULT="<seed>[:<rate>[:<cooldown>[:<sites>]]]"
//
// arms a deterministic, seeded schedule that fires faults at instrumented
// sites — corrupted operator applies / solve results inside the solvers,
// failing reads/writes in the cache and model-IO layers. The schedule is a
// pure function of (seed, site, per-site invocation count), so a run replays
// bit-identically for a fixed seed and the CI fault matrix pins three of
// them. `rate` is the per-invocation fire probability (default 0.02);
// `cooldown` suppresses a site for that many invocations after it fires
// (default 500) so a recovery attempt is not re-poisoned before it can
// verify; `sites` restricts firing to a subset (letters a/s/r/w/i/q per the
// FaultSite enum, default all).
//
// Invocations are counted per stream. Outside any FaultStreamScope a site
// draws from one global counter. The solvers run the chunks of a solve batch
// concurrently and key each chunk's draws to its own stream — (batch number,
// chunk index), with its own counters and cooldown — so which invocation of
// which chunk fires does not depend on how the chunks are scheduled.
//
// With SUBSPAR_FAULT unset the harness is inert: fault_fire() returns false
// and instrumented code paths are bit-identical to an uninstrumented build.
#pragma once

#include <cstdint>
#include <string>

namespace subspar {

/// Instrumented injection points.
enum class FaultSite : int {
  kSolverApply = 0,  ///< operator application inside an iterative solve ('a')
  kSolverSolve,      ///< candidate solution block before verification ('s')
  kCacheRead,        ///< ModelCache persisted-file read ('r')
  kCacheWrite,       ///< model-file write, before the atomic rename ('w')
  kIo,               ///< low-level model-file parse ('i')
  kQueue,            ///< service queue path, before a job attempt starts ('q')
};
inline constexpr int kFaultSiteCount = 6;

/// Human-readable site name ("solver-apply", ...).
const char* fault_site_name(FaultSite site);

/// True when SUBSPAR_FAULT armed the harness (parsed once, lazily; see
/// fault_reset()).
bool fault_injection_enabled();

/// Advances the site's invocation counter in the calling thread's stream and
/// reports whether the schedule fires a fault at this invocation. When it
/// fires and `shot` is given, *shot receives the fault's deterministic
/// identity: the site's global fire count outside a stream, the hash of
/// (batch, chunk, invocation number) inside one. Deterministic for a fixed
/// seed; thread-safe; always false when the harness is disarmed.
bool fault_fire(FaultSite site, std::uint64_t* shot = nullptr);

/// Deterministic corruption value for the fault identified by `shot`:
/// alternates a quiet NaN with a huge finite value on its parity so both
/// garbage kinds (non-finite and wildly wrong) exercise the guards.
double fault_corrupt_value(std::uint64_t shot);

/// Deterministic entry index in [0, extent) for the fault identified by
/// `shot`.
std::uint64_t fault_corrupt_index(FaultSite site, std::uint64_t shot, std::uint64_t extent);

/// Number of the next solve batch, the first half of a stream key. Counts
/// from 0 since arm/reset.
std::uint64_t fault_next_batch();

/// RAII: the calling thread draws from stream (batch, chunk) until the scope
/// ends — one chunk of a solve batch, with fresh per-site invocation
/// counters and cooldowns. The global FaultCounts still count its
/// invocations and fires. Scopes nest; the previous stream is restored.
class FaultStreamScope {
 public:
  FaultStreamScope(std::uint64_t batch, std::uint64_t chunk);
  ~FaultStreamScope();
  FaultStreamScope(const FaultStreamScope&) = delete;
  FaultStreamScope& operator=(const FaultStreamScope&) = delete;

 private:
  friend bool fault_fire(FaultSite site, std::uint64_t* shot);
  std::uint64_t batch_, chunk_;
  std::uint64_t invocations_[kFaultSiteCount] = {};
  std::uint64_t quiet_until_[kFaultSiteCount] = {};
  FaultStreamScope* previous_;
};

struct FaultCounts {
  std::uint64_t invocations[kFaultSiteCount] = {};
  std::uint64_t fired[kFaultSiteCount] = {};
};
/// Snapshot of the per-site counters since arm/reset.
FaultCounts fault_counts();

/// Number of faults fired at `site` so far (convenience over fault_counts).
std::uint64_t fault_fired(FaultSite site);

/// Re-reads SUBSPAR_FAULT and zeroes every counter. Tests call this after
/// setenv/unsetenv; production code never needs it.
void fault_reset();

}  // namespace subspar
