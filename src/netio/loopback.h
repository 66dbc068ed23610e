#pragma once

#include <cstdint>
#include <memory>

#include "dns/transport.h"
#include "netio/chaos.h"
#include "netio/server.h"
#include "netio/transport.h"

/// One-call harness pairing a DnsSocketServer with its client transport,
/// plus the CS_* knobs that select and size the live-socket backend:
///
///   CS_TRANSPORT                sim (default) | socket
///   CS_NETIO_THREADS            server reactor threads (default 2)
///   CS_NETIO_INFLIGHT           client in-flight cap (default 256)
///   CS_NETIO_RTO_US             initial retransmit timeout (default 100000)
///   CS_NETIO_MAX_ATTEMPTS       sends before an exchange expires (default 3)
///   CS_CHAOS                    wire impairment profile (chaos.h)
///
/// core::Study consults transport_mode_from_env() and, in socket mode,
/// stands up a LoopbackDns over the world's SimulatedDnsNetwork and
/// points every resolver at it — the enumerator, resolver, and dataset
/// builder run unchanged over real localhost UDP. When the chaos profile
/// is active, one ChaosLink is shared by both directions of the wire so
/// its per-exchange drop budget spans the whole round trip.
namespace cs::netio {

enum class TransportMode { kSim, kSocket };

/// CS_TRANSPORT, strictly parsed: unset/empty or "sim" -> kSim, "socket"
/// -> kSocket, anything else warns (the uniform util::env message) and
/// falls back to kSim.
TransportMode transport_mode_from_env();

class LoopbackDns {
 public:
  struct Options {
    unsigned server_threads = 2;  ///< CS_NETIO_THREADS
    /// start() fills in server_port, chaos, and client_sockets (one per
    /// server reactor thread).
    SocketDnsTransport::Options client;
    ChaosProfile chaos;  ///< inactive by default; CS_CHAOS via env
  };

  /// Options with the CS_NETIO_* knobs and CS_CHAOS applied (strict
  /// parses; malformed values warn and keep the defaults).
  static Options options_from_env();

  /// `network` must outlive this harness; its routing table must be fully
  /// built before start().
  explicit LoopbackDns(const dns::SimulatedDnsNetwork& network,
                       Options options);
  ~LoopbackDns();

  /// Brings up server then client; false (logged) leaves both stopped so
  /// the caller can fall back to the in-process transport.
  bool start();
  void stop();

  bool running() const noexcept { return transport_ && transport_->running(); }

  /// The DnsTransport resolvers should use; valid while running().
  SocketDnsTransport& transport() noexcept { return *transport_; }
  DnsSocketServer& server() noexcept { return server_; }
  const Options& options() const noexcept { return options_; }
  /// The shared impairment layer, or nullptr when the profile is inactive.
  ChaosLink* chaos() noexcept { return chaos_.get(); }

 private:
  Options options_;
  /// Shared by server and client; must outlive both (declared first).
  std::unique_ptr<ChaosLink> chaos_;
  DnsSocketServer server_;
  /// Built in start(), once the server's bound port is known.
  std::unique_ptr<SocketDnsTransport> transport_;
};

}  // namespace cs::netio
