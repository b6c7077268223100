// Failpoint registry: named fault-injection points that tests (and CI
// sweeps) can arm to make otherwise-unreachable error paths fire
// deterministically. Production code declares a point by name and asks it
// whether to fire; tests arm the point with a trigger (fire once at the
// n-th hit, every n-th hit, or with a seeded probability) and an effect
// (return an IoError / InvalidArgument Status, corrupt the row buffer, or
// SIGKILL the process the way a crash kills it).
//
// The fast path is a single relaxed atomic load of a global "any armed"
// flag: when no failpoint is armed — the production state — a hit costs one
// predictable branch and never takes a lock.
//
// Points wired in this repo:
//   streaming.open       StreamingCounter / ReadDatabaseFromFile / sharder open
//   streaming.read       StreamingCounter and sharder, per line read
//   streaming.parse_row  StreamingCounter and sharder row (corruption target)
//   database.read        ReadDatabase per line read
//   database.read_row    ReadDatabase row (corruption target)
// The four read and row points fire inside the basket reader
// (data/basket_reader.h), which takes their names from its callers.
//   checkpoint.write     checkpoint file write
//   socket.accept        AcceptConnection, once per call
//   socket.read          LineReader::ReadLine, once per line
//   socket.write         WriteLine, once per line
//
// Thread-safety: Arm/Disarm/Hit are mutex-guarded; the disabled fast path
// is lock-free. Arming while a mining run is in flight is supported (the
// run observes the point at its next hit).

#ifndef PINCER_UTIL_FAILPOINT_H_
#define PINCER_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace pincer {
namespace failpoint {

/// What an armed failpoint does when it fires.
enum class Effect {
  kIoError,          // return Status::IoError (transient-read flavor)
  kInvalidArgument,  // return Status::InvalidArgument
  kCorruptRow,       // append a non-numeric token to the row buffer
  kKill,             // raise SIGKILL at the firing hit: no cleanup, no return
};

/// When an armed failpoint fires.
struct Trigger {
  enum class Kind {
    kOnce,         // fire exactly once, at the n-th hit (1-based)
    kEveryNth,     // fire at every n-th hit
    kProbability,  // fire with probability p per hit (seeded PRNG)
  };
  Kind kind = Kind::kOnce;
  uint64_t n = 1;      // for kOnce / kEveryNth
  double p = 0.0;      // for kProbability
  uint64_t seed = 0;   // for kProbability

  static Trigger Once(uint64_t nth_hit = 1) {
    return Trigger{Kind::kOnce, nth_hit, 0.0, 0};
  }
  static Trigger EveryNth(uint64_t n) {
    return Trigger{Kind::kEveryNth, n, 0.0, 0};
  }
  static Trigger Probability(double p, uint64_t seed) {
    return Trigger{Kind::kProbability, 1, p, seed};
  }
};

/// Full arming configuration for one named point.
struct Config {
  Trigger trigger;
  Effect effect = Effect::kIoError;
};

/// Arms `name` with `config`, replacing any previous arming (and resetting
/// its hit/fire counters).
void Arm(std::string_view name, const Config& config);

/// Disarms `name`. No-op if it was not armed.
void Disarm(std::string_view name);

/// Disarms every failpoint and resets all counters. Tests call this in
/// teardown so armed points never leak across tests.
void DisarmAll();

/// True if any failpoint is currently armed. This is the fast-path check;
/// a relaxed atomic load.
inline bool AnyArmed();

/// Number of times `name` has actually fired (not merely been hit) since it
/// was last armed. 0 if not armed.
uint64_t FireCount(std::string_view name);

/// Number of times `name` has been hit (evaluated) since it was last armed.
/// 0 if not armed.
uint64_t HitCount(std::string_view name);

/// Result of evaluating a hit on a named point.
struct HitResult {
  bool fired = false;
  Effect effect = Effect::kIoError;
};

/// Records a hit on `name` and reports whether it fires. Callers should
/// gate on AnyArmed() first (the macros below do). A firing kKill point
/// never returns: the process dies by SIGKILL inside the call, so what the
/// crash-recovery paths see is exactly a crash at that point (e.g.
/// `checkpoint.write=once@3:kill` dies with two checkpoints on disk).
HitResult Hit(std::string_view name);

/// The Status a fired point of the given effect produces. kCorruptRow maps
/// to an IoError (callers that cannot corrupt anything still need a
/// status); a fired kKill never gets here.
Status ErrorFor(std::string_view name, Effect effect);

/// Applies the kCorruptRow effect: appends a non-numeric token to `row`,
/// which the strict policy rejects and the skip-and-count policy tallies.
void CorruptRow(std::string& row);

/// Arms failpoints from a spec string:
///   name=trigger[:effect][,name=trigger[:effect]...]
/// where trigger is `once`, `once@N`, `every@N`, or `prob@P@SEED`, and
/// effect is `io` (default), `invalid`, `corrupt`, or `kill`. Example:
///   streaming.read=once@3:io,checkpoint.write=every@2:io
/// Returns InvalidArgument on a malformed spec (nothing is armed then).
Status ArmFromSpec(std::string_view spec);

/// Arms failpoints from the PINCER_FAILPOINTS environment variable if it is
/// set and nonempty. Returns OK when unset.
Status ArmFromEnv();

namespace internal {
extern std::atomic<uint64_t> g_armed_count;
}  // namespace internal

inline bool AnyArmed() {
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

}  // namespace failpoint
}  // namespace pincer

/// Evaluates failpoint `name`; if it fires with a Status effect, returns
/// that Status (converted by the enclosing function's return type). Usable
/// in functions returning Status or StatusOr<T>.
#define PINCER_FAILPOINT(name)                                              \
  do {                                                                      \
    if (::pincer::failpoint::AnyArmed()) {                                  \
      const ::pincer::failpoint::HitResult _fp =                            \
          ::pincer::failpoint::Hit(name);                                   \
      if (_fp.fired) return ::pincer::failpoint::ErrorFor(name, _fp.effect); \
    }                                                                       \
  } while (false)

#endif  // PINCER_UTIL_FAILPOINT_H_
