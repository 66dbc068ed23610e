#include "fault/fault.h"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "obs/log.h"
#include "util/env.h"
#include "util/sync.h"

namespace cs::fault {
namespace {

/// Per-kind salts so the six decision families draw from unrelated
/// ShardedRng roots even under one spec seed.
constexpr std::uint64_t kKindSalt[kKindCount] = {
    0x10551055F001F001ULL,  // loss
    0x71ED0071ED00DEADULL,  // timeout
    0x7255CA7E7255CA7EULL,  // truncate
    0x5EF41150BADC0DE5ULL,  // servfail
    0xC0442070C0442070ULL,  // corrupt
    0xD20902D20902FA11ULL,  // vantage drop
};

constexpr std::size_t index(Kind kind) noexcept {
  return static_cast<std::size_t>(kind);
}

/// Strict double in [0,1]: the full token must parse and be finite.
std::optional<double> parse_rate(std::string_view text) noexcept {
  double value = 0.0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  if (!std::isfinite(value) || value < 0.0 || value > 1.0)
    return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_seed(std::string_view text) noexcept {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kLoss: return "loss";
    case Kind::kTimeout: return "timeout";
    case Kind::kTruncate: return "truncate";
    case Kind::kServFail: return "servfail";
    case Kind::kCorrupt: return "corrupt";
    case Kind::kVantageDrop: return "vantage_drop";
  }
  return "unknown";
}

double Spec::rate(Kind kind) const noexcept {
  switch (kind) {
    case Kind::kLoss: return loss;
    case Kind::kTimeout: return timeout;
    case Kind::kTruncate: return truncate;
    case Kind::kServFail: return servfail;
    case Kind::kCorrupt: return corrupt;
    case Kind::kVantageDrop: return vantage_drop;
  }
  return 0.0;
}

bool Spec::any() const noexcept {
  return loss > 0.0 || timeout > 0.0 || truncate > 0.0 || servfail > 0.0 ||
         corrupt > 0.0 || vantage_drop > 0.0;
}

std::optional<Spec> Spec::parse(std::string_view text) noexcept {
  Spec spec;
  if (text.empty()) return std::nullopt;
  bool seen[kKindCount + 1] = {};
  while (!text.empty()) {
    const auto comma = text.find(',');
    const auto entry = text.substr(0, comma);
    text = comma == std::string_view::npos ? std::string_view{}
                                           : text.substr(comma + 1);
    // A comma must be followed by another entry; "loss=0.1," is malformed.
    if (comma != std::string_view::npos && text.empty()) return std::nullopt;
    const auto eq = entry.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const auto key = entry.substr(0, eq);
    const auto value = entry.substr(eq + 1);

    if (key == "seed") {
      if (seen[kKindCount]) return std::nullopt;
      seen[kKindCount] = true;
      const auto parsed = parse_seed(value);
      if (!parsed) return std::nullopt;
      spec.seed = *parsed;
      continue;
    }

    double* slot = nullptr;
    std::size_t kind = 0;
    if (key == "loss") slot = &spec.loss, kind = index(Kind::kLoss);
    else if (key == "timeout") slot = &spec.timeout, kind = index(Kind::kTimeout);
    else if (key == "truncate") slot = &spec.truncate, kind = index(Kind::kTruncate);
    else if (key == "servfail") slot = &spec.servfail, kind = index(Kind::kServFail);
    else if (key == "corrupt") slot = &spec.corrupt, kind = index(Kind::kCorrupt);
    else if (key == "vantage_drop")
      slot = &spec.vantage_drop, kind = index(Kind::kVantageDrop);
    else
      return std::nullopt;
    if (seen[kind]) return std::nullopt;
    seen[kind] = true;
    const auto parsed = parse_rate(value);
    if (!parsed) return std::nullopt;
    *slot = *parsed;
  }
  return spec;
}

Plan::Plan(Spec spec) noexcept
    : spec_(spec),
      roots_{exec::ShardedRng{spec.seed ^ kKindSalt[0]},
             exec::ShardedRng{spec.seed ^ kKindSalt[1]},
             exec::ShardedRng{spec.seed ^ kKindSalt[2]},
             exec::ShardedRng{spec.seed ^ kKindSalt[3]},
             exec::ShardedRng{spec.seed ^ kKindSalt[4]},
             exec::ShardedRng{spec.seed ^ kKindSalt[5]}} {}

bool Plan::decide(Kind kind, std::uint64_t key) const noexcept {
  const double rate = spec_.rate(kind);
  if (rate <= 0.0) return false;
  util::Rng rng{roots_[index(kind)].stream_seed(key)};
  return rng.uniform01() < rate;
}

util::Rng Plan::stream(Kind kind, std::uint64_t key) const noexcept {
  util::Rng rng{roots_[index(kind)].stream_seed(key)};
  rng();  // skip the decision draw so stream values are independent of it
  return rng;
}

std::uint64_t exchange_key(std::uint32_t client, std::uint32_t server,
                           std::span<const std::uint8_t> query) noexcept {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  const auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 1099511628211ULL;
  };
  for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(client >> (8 * i)));
  for (int i = 0; i < 4; ++i) mix(static_cast<std::uint8_t>(server >> (8 * i)));
  for (const auto byte : query) mix(byte);
  return h;
}

namespace detail {

std::atomic<int> g_state{-1};
std::atomic<const Plan*> g_plan{nullptr};

const Plan* init_plan_from_env() noexcept {
  static util::Mutex mutex;
  util::LockGuard lock{mutex};
  const int current = g_state.load(std::memory_order_acquire);
  if (current >= 0)  // another thread (or a ScopedPlan) won the race
    return current == 1 ? g_plan.load(std::memory_order_acquire) : nullptr;

  const auto env = util::env_text(util::Knob::kFault);
  if (!env) {
    g_state.store(0, std::memory_order_release);
    return nullptr;
  }
  const auto spec = Spec::parse(*env);
  if (!spec || !spec->any()) {
    if (!spec)
      obs::log_warn(
          "fault", "{}",
          util::env_malformed(
              util::Knob::kFault, *env,
              "loss=P,timeout=P,truncate=P,servfail=P[,corrupt=P]"
              "[,vantage_drop=P][,seed=N] with P in [0,1]"));
    g_state.store(0, std::memory_order_release);
    return nullptr;
  }
  // Intentionally leaked: the env-derived plan lives for the process,
  // like the metrics registry.
  const Plan* plan = new Plan{*spec};
  g_plan.store(plan, std::memory_order_release);
  g_state.store(1, std::memory_order_release);
  return plan;
}

}  // namespace detail

void set_plan(const Plan* plan) noexcept {
  detail::g_plan.store(plan, std::memory_order_release);
  detail::g_state.store(plan ? 1 : 0, std::memory_order_release);
}

ScopedPlan::ScopedPlan(const Spec& spec) : plan_(std::make_unique<Plan>(spec)) {
  previous_state_ = detail::g_state.load(std::memory_order_acquire);
  previous_ = detail::g_plan.load(std::memory_order_acquire);
  set_plan(plan_.get());
}

ScopedPlan::ScopedPlan(std::string_view spec_text) {
  const auto spec = Spec::parse(spec_text);
  if (!spec)
    throw std::invalid_argument{"ScopedPlan: malformed fault spec '" +
                                std::string{spec_text} + "'"};
  plan_ = std::make_unique<Plan>(*spec);
  previous_state_ = detail::g_state.load(std::memory_order_acquire);
  previous_ = detail::g_plan.load(std::memory_order_acquire);
  set_plan(plan_.get());
}

ScopedPlan::~ScopedPlan() {
  detail::g_plan.store(previous_, std::memory_order_release);
  detail::g_state.store(previous_state_, std::memory_order_release);
}

}  // namespace cs::fault
