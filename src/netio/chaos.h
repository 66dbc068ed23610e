#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "exec/sharded_rng.h"
#include "util/sync.h"

/// Deterministic wire-level impairment for the loopback UDP path.
///
/// ChaosLink sits on both directions of the netio socket backend and
/// decides, per datagram, whether to drop, duplicate, reorder (a bounded
/// holdback delay on the reactor's timer wheel), delay/jitter, or
/// byte-corrupt it. It extends the `fault` seeding discipline to the
/// wire: every decision is a pure function of (profile seed, direction,
/// ID-stripped frame key, attempt) — never of thread identity or call
/// order — so a chaos run is reproducible and, for survivable profiles,
/// byte-identical to a chaos-off run at any CS_THREADS.
///
/// Survivability by construction: the only state ChaosLink keeps is a
/// per-key attempt counter per direction plus a per-key drop budget of
/// max_attempts-1 shared by both directions. Once the budget is spent,
/// further would-be drops are force-delivered (and counted). Every round
/// of an exchange that fails consumes at least one unit of budget, and
/// the client sends up to max_attempts rounds, so a profile without
/// `corrupt` can never kill an exchange outright — the client's
/// retransmit schedule absorbs every impairment and never reaches an
/// expiry, which is exactly what keeps the dataset artifact invariant.
/// `corrupt` bypasses the clamp by design: a flipped byte can
/// change answer bytes or kill the frame, so corrupting profiles are
/// declared unsurvivable and must degrade with exact accounting instead.
///
/// Configured by CS_CHAOS
/// (`drop=P,dup=P,reorder=P,delay_us=N,jitter_us=N,corrupt=P,seed=N`),
/// parsed with the same strictness as CS_FAULT. With no profile the
/// transport never constructs a ChaosLink and pays one null-pointer
/// branch per frame.
namespace cs::netio {

/// Which way the datagram is travelling; part of every decision's key so
/// the two directions draw from unrelated streams.
enum class ChaosDirection : std::uint8_t {
  kClientToServer = 0,
  kServerToClient = 1,
};

/// Impairment rates and shaping parameters plus the decision-stream seed.
struct ChaosProfile {
  double drop = 0.0;     ///< datagram silently discarded (budgeted)
  double dup = 0.0;      ///< a second, later copy of the datagram
  double reorder = 0.0;  ///< held back past its successors
  double corrupt = 0.0;  ///< one byte XOR-flipped (unsurvivable)
  std::uint64_t delay_us = 0;   ///< fixed one-way delay
  std::uint64_t jitter_us = 0;  ///< uniform extra delay in [0, jitter_us]
  std::uint64_t seed = 0xC4A05BADC0DEULL;

  bool any() const noexcept;
  /// True when the drop clamp guarantees every exchange still completes
  /// with unchanged bytes; only `corrupt` breaks the guarantee.
  bool survivable() const noexcept { return corrupt <= 0.0; }

  /// Strictly parses the CS_CHAOS syntax. Unknown keys, out-of-range
  /// rates, duplicate keys, or trailing garbage reject the whole profile
  /// — a half-read chaos spec would silently change what a CI run proves.
  static std::optional<ChaosProfile> parse(std::string_view text) noexcept;
};

/// CS_CHAOS with the uniform strict-knob behaviour: unset or empty is an
/// inactive profile; a malformed value warns once and stays inactive.
ChaosProfile chaos_profile_from_env();

class ChaosLink {
 public:
  /// What to do with one datagram. The caller owns execution: skip the
  /// send on !deliver, schedule delayed copies on its own timer wheel,
  /// and XOR datagram[corrupt_offset] with corrupt_mask when nonzero
  /// (on a copy — retransmits must resend pristine bytes so the next
  /// attempt's decision is independent).
  struct Verdict {
    bool deliver = true;
    bool duplicate = false;
    std::uint64_t delay_us = 0;            ///< holdback for the datagram
    std::uint64_t duplicate_delay_us = 0;  ///< holdback for the extra copy
    std::size_t corrupt_offset = 0;
    std::uint8_t corrupt_mask = 0;  ///< nonzero: flip one byte
  };

  /// `max_attempts` is the client's retransmit schedule length; the
  /// per-key drop budget is max_attempts-1 (see the clamp contract above).
  ChaosLink(const ChaosProfile& profile, unsigned max_attempts);

  ChaosLink(const ChaosLink&) = delete;
  ChaosLink& operator=(const ChaosLink&) = delete;

  /// The verdict for one datagram. `exchange_key` must be the
  /// fault::exchange_key of the exchange with the DNS ID bytes stripped,
  /// so retransmits and responses share one key regardless of mux-ID
  /// rewriting. Thread-safe.
  Verdict decide(ChaosDirection direction, std::uint64_t exchange_key,
                 std::size_t frame_size);

  const ChaosProfile& profile() const noexcept { return profile_; }

  /// Worst-case injected one-way latency for the primary copy:
  /// delay + jitter + the reorder holdback. Survivable profiles must keep
  /// this under the client's minimum RTO or delay starts looking like
  /// loss (still correct, just noisier).
  std::uint64_t max_latency_us() const noexcept;

 private:
  /// Per-exchange-key impairment state; never garbage-collected. This is
  /// a test/CI facility sized for bounded suites, not a resident proxy.
  struct KeyState {
    std::uint32_t attempts[2] = {0, 0};  ///< per direction
    std::uint32_t drops = 0;             ///< budget spent, both directions
  };

  std::uint64_t holdback_us() const noexcept;

  ChaosProfile profile_;
  std::uint32_t drop_budget_;
  exec::ShardedRng drop_root_;
  exec::ShardedRng dup_root_;
  exec::ShardedRng reorder_root_;
  exec::ShardedRng corrupt_root_;
  exec::ShardedRng delay_root_;
  util::Mutex mutex_;
  std::unordered_map<std::uint64_t, KeyState> keys_ CS_GUARDED_BY(mutex_);
};

}  // namespace cs::netio
