#include "util/failpoint.h"

#include <csignal>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "util/prng.h"
#include "util/sync.h"

namespace pincer {
namespace failpoint {

namespace internal {
std::atomic<uint64_t> g_armed_count{0};
}  // namespace internal

namespace {

struct Point {
  Config config;
  uint64_t hits = 0;
  uint64_t fires = 0;
  Prng prng{0};
};

// Registry state behind one mutex, bundled so the points map can carry a
// PINCER_GUARDED_BY referring to its sibling lock. Hit() only reaches here
// when at least one point is armed, so the lock is never taken in
// production runs.
struct RegistryState {
  Mutex mu;
  std::map<std::string, Point, std::less<>> points PINCER_GUARDED_BY(mu);
};

RegistryState& Registry() {
  static auto* state = new RegistryState;
  return *state;
}

}  // namespace

void Arm(std::string_view name, const Config& config) {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  auto it = state.points.find(name);
  if (it == state.points.end()) {
    it = state.points.emplace(std::string(name), Point{}).first;
    internal::g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
  it->second = Point{config, 0, 0, Prng(config.trigger.seed)};
}

void Disarm(std::string_view name) {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  auto it = state.points.find(name);
  if (it == state.points.end()) return;
  state.points.erase(it);
  internal::g_armed_count.fetch_sub(1, std::memory_order_relaxed);
}

void DisarmAll() {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  internal::g_armed_count.fetch_sub(state.points.size(),
                                    std::memory_order_relaxed);
  state.points.clear();
}

uint64_t FireCount(std::string_view name) {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  const auto it = state.points.find(name);
  return it == state.points.end() ? 0 : it->second.fires;
}

uint64_t HitCount(std::string_view name) {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  const auto it = state.points.find(name);
  return it == state.points.end() ? 0 : it->second.hits;
}

HitResult Hit(std::string_view name) {
  RegistryState& state = Registry();
  MutexLock lock(state.mu);
  const auto it = state.points.find(name);
  if (it == state.points.end()) return HitResult{};
  Point& point = it->second;
  ++point.hits;
  bool fire = false;
  const Trigger& trigger = point.config.trigger;
  switch (trigger.kind) {
    case Trigger::Kind::kOnce:
      fire = point.fires == 0 && point.hits == trigger.n;
      break;
    case Trigger::Kind::kEveryNth:
      fire = trigger.n > 0 && point.hits % trigger.n == 0;
      break;
    case Trigger::Kind::kProbability:
      fire = point.prng.Bernoulli(trigger.p);
      break;
  }
  if (fire) ++point.fires;
  // Dies here, the registry lock held: nothing runs after a crash.
  if (fire && point.config.effect == Effect::kKill) (void)std::raise(SIGKILL);
  return HitResult{fire, point.config.effect};
}

Status ErrorFor(std::string_view name, Effect effect) {
  const std::string message =
      "injected fault at failpoint '" + std::string(name) + "'";
  switch (effect) {
    case Effect::kInvalidArgument:
      return Status::InvalidArgument(message);
    case Effect::kIoError:
    case Effect::kCorruptRow:
    case Effect::kKill:
      return Status::IoError(message);
  }
  return Status::Internal(message);
}

void CorruptRow(std::string& row) {
  // A lone non-numeric token: strict parsers report it at this row's
  // position, skip-and-count parsers drop the row and tally it.
  row += " \x7f" "corrupt";
}

namespace {

Status MalformedSpec(std::string_view spec, std::string_view detail) {
  return Status::InvalidArgument("bad failpoint spec '" + std::string(spec) +
                                 "': " + std::string(detail));
}

// Parses one `name=trigger[:effect]` clause into (name, config).
Status ParseClause(std::string_view spec, std::string_view clause,
                   std::string& name, Config& config) {
  const size_t eq = clause.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return MalformedSpec(spec, "expected name=trigger");
  }
  name = std::string(clause.substr(0, eq));
  std::string_view rest = clause.substr(eq + 1);

  std::string_view effect_text;
  const size_t colon = rest.find(':');
  if (colon != std::string_view::npos) {
    effect_text = rest.substr(colon + 1);
    rest = rest.substr(0, colon);
  }

  // Trigger: once | once@N | every@N | prob@P@SEED.
  std::vector<std::string> parts;
  {
    std::string_view remaining = rest;
    while (true) {
      const size_t at = remaining.find('@');
      if (at == std::string_view::npos) {
        parts.emplace_back(remaining);
        break;
      }
      parts.emplace_back(remaining.substr(0, at));
      remaining = remaining.substr(at + 1);
    }
  }
  if (parts.empty() || parts[0].empty()) {
    return MalformedSpec(spec, "missing trigger");
  }
  const std::string& kind = parts[0];
  char* end = nullptr;
  if (kind == "once") {
    uint64_t n = 1;
    if (parts.size() > 2) return MalformedSpec(spec, "once takes at most @N");
    if (parts.size() == 2) {
      n = std::strtoull(parts[1].c_str(), &end, 10);
      if (*end != '\0' || n == 0) return MalformedSpec(spec, "bad once@N");
    }
    config.trigger = Trigger::Once(n);
  } else if (kind == "every") {
    if (parts.size() != 2) return MalformedSpec(spec, "every requires @N");
    const uint64_t n = std::strtoull(parts[1].c_str(), &end, 10);
    if (*end != '\0' || n == 0) return MalformedSpec(spec, "bad every@N");
    config.trigger = Trigger::EveryNth(n);
  } else if (kind == "prob") {
    if (parts.size() != 3) return MalformedSpec(spec, "prob requires @P@SEED");
    const double p = std::strtod(parts[1].c_str(), &end);
    if (*end != '\0' || p < 0.0 || p > 1.0) {
      return MalformedSpec(spec, "bad prob@P");
    }
    const uint64_t seed = std::strtoull(parts[2].c_str(), &end, 10);
    if (*end != '\0') return MalformedSpec(spec, "bad prob seed");
    config.trigger = Trigger::Probability(p, seed);
  } else {
    return MalformedSpec(spec, "unknown trigger '" + kind + "'");
  }

  if (effect_text.empty() || effect_text == "io") {
    config.effect = Effect::kIoError;
  } else if (effect_text == "invalid") {
    config.effect = Effect::kInvalidArgument;
  } else if (effect_text == "corrupt") {
    config.effect = Effect::kCorruptRow;
  } else if (effect_text == "kill") {
    config.effect = Effect::kKill;
  } else {
    return MalformedSpec(spec,
                         "unknown effect '" + std::string(effect_text) + "'");
  }
  return Status::OK();
}

}  // namespace

Status ArmFromSpec(std::string_view spec) {
  // Parse everything first so a malformed spec arms nothing.
  std::vector<std::pair<std::string, Config>> parsed;
  std::string_view remaining = spec;
  while (!remaining.empty()) {
    const size_t comma = remaining.find(',');
    const std::string_view clause = comma == std::string_view::npos
                                        ? remaining
                                        : remaining.substr(0, comma);
    remaining = comma == std::string_view::npos
                    ? std::string_view()
                    : remaining.substr(comma + 1);
    if (clause.empty()) continue;
    std::string name;
    Config config;
    PINCER_RETURN_IF_ERROR(ParseClause(spec, clause, name, config));
    parsed.emplace_back(std::move(name), config);
  }
  for (const auto& [name, config] : parsed) Arm(name, config);
  return Status::OK();
}

Status ArmFromEnv() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read once at process startup
  // (test main / daemon init) before any worker thread exists.
  const char* spec = std::getenv("PINCER_FAILPOINTS");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return ArmFromSpec(spec);
}

}  // namespace failpoint
}  // namespace pincer
