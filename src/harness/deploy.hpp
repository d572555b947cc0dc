// Deployment: instantiate a ClosBlueprint as a running network under one of
// the paper's three protocol stacks — MR-MTP, BGP/ECMP, or BGP/ECMP/BFD —
// with identical topology, link parameters, and hosts (paper §VI: identical
// slices per protocol).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <utility>

#include "bgp/router.hpp"
#include "mtp/router.hpp"
#include "net/network.hpp"
#include "net/switch_buffer.hpp"
#include "topo/clos.hpp"
#include "traffic/vxlan.hpp"

namespace mrmtp::sim {
/// No effect: another name for Scheduler, kept only because
/// perfbench/fabric_bench.cpp spells it.
using ShardedEngine = Scheduler;
}  // namespace mrmtp::sim

namespace mrmtp::harness {

/// No effect: a holder of a blueprint and one SimContext, kept only
/// because perfbench/fabric_bench.cpp spells it. Every run is one
/// SimContext driven by its one Scheduler; engine() is that scheduler.
class ShardedFabric {
 public:
  /// `threads` has no effect.
  ShardedFabric(const topo::ClosBlueprint& blueprint,
                std::uint32_t /*threads*/, std::uint64_t seed)
      : blueprint_(&blueprint), ctx_(seed) {}

  [[nodiscard]] const topo::ClosBlueprint& blueprint() const {
    return *blueprint_;
  }
  /// Always 1.
  [[nodiscard]] std::uint32_t shard_count() const { return 1; }
  /// The one context; the argument has no effect.
  [[nodiscard]] net::SimContext& ctx(std::uint32_t /*shard*/ = 0) {
    return ctx_;
  }
  [[nodiscard]] sim::ShardedEngine& engine() { return ctx_.sched; }

 private:
  const topo::ClosBlueprint* blueprint_;
  net::SimContext ctx_;
};

enum class Proto : std::uint8_t { kMtp, kBgp, kBgpBfd };

[[nodiscard]] std::string_view to_string(Proto p);
inline constexpr Proto kAllProtos[] = {Proto::kMtp, Proto::kBgp, Proto::kBgpBfd};

struct DeployOptions {
  mtp::MtpTimers mtp_timers;            // paper: hello 50 ms / dead 100 ms
  /// Instantiate servers as VXLAN tunnel endpoints (traffic::VtepHost)
  /// instead of plain hosts — the paper's assumed VM deployment (§III.A).
  bool vtep_hosts = false;
  bgp::BgpTimers bgp_timers;            // paper: keepalive 1 s / hold 3 s
  bfd::BfdSession::Config bfd;          // paper: tx 100 ms, mult 3
  net::Link::Params link;               // fabric links
  net::Link::Params host_link;          // server-to-ToR links

  /// Global pod numbers (1-based, (cluster-1)*pods + pod) wired dark for a
  /// later live expansion: their links exist but start admin-down on both
  /// ends and their routers/hosts are not started. activate_pod() powers
  /// them into the running fabric.
  std::set<std::uint32_t> deferred_pods;
  /// Misconfiguration: the first leaf (victim, blueprint device index) is
  /// deployed with the second leaf's server subnet — the classic wrong-VID-
  /// byte copy-paste error. MR-MTP only; the victim announces a duplicate
  /// root that the fabric must reject without disturbing other trees.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> duplicate_subnet_of;
  /// Finite shared-buffer switches: every router gets a SwitchBuffer with
  /// these parameters (per-port egress accounting against a shared pool,
  /// ECN marking, PFC backpressure). Unset = today's infinite time-bounded
  /// output queues — the A/B ablation switch for the congestion study.
  std::optional<net::SwitchBufferParams> switch_buffer;
  /// Multipath path selection on every router (MTP DATA and BGP/ECMP
  /// alike): kHrw keeps the PR 2 equal-share default bit-for-bit; kWcmp
  /// weights next hops by link capacity; kWcmpFlowlet adds flowlet
  /// switching with congestion feedback. The WCMP/flowlet A/B knob.
  util::PathSelect path_select = util::PathSelect::kHrw;
  /// Idle gap that closes a flowlet (kWcmpFlowlet). Zero = derive ~8x the
  /// propagation RTT of the longest host-to-host path from `link.delay`,
  /// floored at 500 µs.
  sim::Duration flowlet_gap{};

  /// The flowlet gap actually deployed (explicit value or RTT derivation).
  [[nodiscard]] sim::Duration effective_flowlet_gap() const {
    if (flowlet_gap.ns() > 0) return flowlet_gap;
    // Longest 3-tier host-to-host path is 6 hops each way = 12 traversals.
    const std::int64_t derived = 8 * 12 * link.delay.ns();
    return sim::Duration::nanos(derived > 500'000 ? derived : 500'000);
  }
};

/// A deployed network; indices mirror the blueprint's device/host vectors.
class Deployment {
 public:
  /// Every device lives on `ctx`; the run is driven through ctx.sched.
  Deployment(net::SimContext& ctx, const topo::ClosBlueprint& blueprint,
             Proto proto, DeployOptions options = {});

  /// No effect beyond the constructor above on the fabric's one context;
  /// kept only because perfbench/fabric_bench.cpp spells it.
  Deployment(ShardedFabric& fabric, Proto proto, DeployOptions options = {})
      : Deployment(fabric.ctx(), fabric.blueprint(), proto,
                   std::move(options)) {}

  [[nodiscard]] Proto proto() const { return proto_; }
  [[nodiscard]] const topo::ClosBlueprint& blueprint() const { return *blueprint_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] net::SimContext& ctx() { return ctx_; }

  [[nodiscard]] net::Node& router(std::uint32_t device_index) {
    return *routers_[device_index];
  }
  /// Typed access; throws std::logic_error under the wrong protocol.
  [[nodiscard]] mtp::MtpRouter& mtp(std::uint32_t device_index);
  [[nodiscard]] bgp::BgpRouter& bgp(std::uint32_t device_index);

  [[nodiscard]] traffic::Host& host(std::uint32_t host_index) {
    return *hosts_[host_index];
  }
  /// Typed access when deployed with DeployOptions::vtep_hosts.
  [[nodiscard]] traffic::VtepHost& vtep(std::uint32_t host_index);
  [[nodiscard]] std::size_t router_count() const { return routers_.size(); }
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  /// Calls start() on every active node (deferred pods stay dark).
  void start();

  /// True once every active router reached its converged steady state: MTP
  /// routers joined all trees in their scope; BGP routers established all
  /// sessions over active links and hold full routing tables. Scope is
  /// derived per device by walking the wired topology, so asymmetric
  /// fabrics, deferred pods, and drained/offline routers are all handled.
  [[nodiscard]] bool converged() const;

  // --- lifecycle primitives (harness::LifecycleEngine drives these) ---
  /// Whether `device_index` is powered and part of the running fabric.
  [[nodiscard]] bool router_active(std::uint32_t device_index) const {
    return active_[device_index];
  }
  /// Graceful cost-out: the router withdraws everything it advertises but
  /// keeps forwarding in-flight traffic (protocol-dispatched).
  void drain_router(std::uint32_t device_index);
  /// Power-off: wipes the router's control-plane state (RSTs BGP sessions
  /// first, while ports still carry frames), then admin-downs every
  /// interface so neighbors see link-down.
  void stop_router(std::uint32_t device_index);
  /// Cold rejoin: interfaces come back up, then start() rebuilds state from
  /// scratch — a reboot, not a resume.
  void restart_router(std::uint32_t device_index);
  /// Powers a deferred pod into the running fabric: every link touching it
  /// comes admin-up, then its routers and hosts start cold.
  void activate_pod(std::uint32_t global_pod);
  /// Operator-intended interface shutdown (maintenance or seeded
  /// misconfiguration). Unlike a raw set_interface_down, the intent is
  /// recorded so converged() stops expecting state across the dead link;
  /// an injected fault leaves no record and keeps reading as unconverged.
  void admin_down_port(std::uint32_t device_index, std::uint32_t port);

  /// All ToR VIDs in the fabric.
  [[nodiscard]] std::vector<std::uint16_t> all_vids() const;

 private:
  void deploy_mtp(const DeployOptions& options);
  void deploy_bgp(const DeployOptions& options);
  void add_hosts(const DeployOptions& options);
  void wire(const DeployOptions& options);
  /// Fills active_ / host_active_ from options.deferred_pods and computes
  /// each device's leaf scope by walking up the wired hierarchy.
  void init_lifecycle(const DeployOptions& options);

  net::SimContext& ctx_;
  const topo::ClosBlueprint* blueprint_;
  Proto proto_;
  net::Network network_;
  std::vector<net::Node*> routers_;
  std::vector<traffic::Host*> hosts_;
  DeployOptions options_;
  /// Per blueprint device / host: powered and participating.
  std::vector<bool> active_;
  std::vector<bool> host_active_;
  /// Interfaces admin-downed at wiring time, per deferred global pod.
  std::map<std::uint32_t, std::vector<std::pair<net::Node*, std::uint32_t>>>
      deferred_ifaces_;
  /// Ports stop_router() took down, restored verbatim by restart_router()
  /// (ports already down — deferred or failed — are left alone).
  std::map<std::uint32_t, std::vector<std::uint32_t>> rebooting_ports_;
  /// Ports the operator shut down on purpose via admin_down_port().
  std::map<std::uint32_t, std::set<std::uint32_t>> operator_down_;
};

}  // namespace mrmtp::harness
