// Folded-Clos topology blueprint.
//
// A ClosBlueprint is pure data: device descriptors, link descriptors (in
// wiring order), addressing, ASN and VID plans. Protocol-specific factories
// (mtp::build_network, bgp::build_network) instantiate nodes from it, so the
// same topology runs MR-MTP or BGP/ECMP(/BFD) — the paper's experimental
// setup of identical slices per protocol.
//
// Wiring order is semantic, not cosmetic: a node's port numbers are assigned
// in link-creation order, and MR-MTP derives VIDs by appending the arrival
// port number (paper Fig. 2: ToR 11's port 1 -> S1_1 gets 11.1; S1_1's port 1
// -> S2_1 gets 11.1.1). Links are therefore created tier-down: pod-spine
// uplinks first, then ToR uplinks, then host links, giving every device its
// upstream ports at the lowest numbers exactly as in the paper's figures.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ip/addr.hpp"
#include "util/json.hpp"

namespace mrmtp::topo {

struct ClosParams {
  std::uint32_t pods = 2;
  std::uint32_t tors_per_pod = 2;
  std::uint32_t spines_per_pod = 2;
  std::uint32_t top_spines = 4;
  std::uint32_t hosts_per_tor = 1;

  // --- optional fourth tier (paper §III.B "the scheme can easily scale to
  // any number of spine tiers"; §IX future work). When clusters > 1 the
  // 3-tier structure above repeats per cluster, and `super_spines` tier-4
  // devices mesh the clusters; super spine q wires to top spine t of every
  // cluster when (q-1) % top_spines == t-1. ---
  std::uint32_t clusters = 1;
  std::uint32_t super_spines = 0;

  /// Uplinks per pod spine; top_spines must be divisible by spines_per_pod.
  [[nodiscard]] std::uint32_t uplinks_per_spine() const {
    return top_spines / spines_per_pod;
  }
  /// Uplinks per top spine (4-tier fabrics only).
  [[nodiscard]] std::uint32_t uplinks_per_top() const {
    return top_spines == 0 ? 0 : super_spines / top_spines;
  }
  [[nodiscard]] bool four_tier() const { return super_spines > 0; }

  // --- asymmetric mode (heterogeneous fat-trees per Solnushkin; FatPaths-
  // style asymmetry). Real fabrics grow unevenly: PoDs differ in rack count
  // and uplink speed, and expansions leave cabling mistakes behind. ---
  /// Per-global-PoD ToR counts, cluster-major PoD order. Empty = uniform
  /// `tors_per_pod` everywhere. Only rack counts vary; `spines_per_pod`
  /// stays uniform because the top-spine stripe wiring rule constrains it.
  std::vector<std::uint32_t> pod_tors = {};
  /// Per-global-PoD relative bandwidth of the PoD's ToR uplinks (1.0 = the
  /// deployment's base link rate; < 1 oversubscribes the PoD). Empty =
  /// uniform. Latency is untouched, so the parallel engine's link-delay
  /// lookahead is unaffected by mixed speeds.
  std::vector<double> pod_uplink_rate = {};
  /// Per-stripe relative bandwidth of uplinks: a device's k-th uplink (ToR
  /// -> spine s, pod spine -> its k-th top spine) runs at
  /// stripe_rate[k % size]. Empty = uniform. {1.0, 0.5} models a 2:1
  /// oversubscribed tier where every second stripe was cabled at half rate —
  /// unlike pod_uplink_rate (uniform within a PoD), this puts *mixed* speeds
  /// inside every ECMP/VID candidate set, the case WCMP exists for.
  std::vector<double> stripe_rate = {};
  /// Build-time cabling errors: this many seeded swaps of the top-spine
  /// endpoints of two uplinks from *different* spines of the *same* PoD.
  /// Reachability is preserved (both cables stay inside the PoD) but the
  /// stripe rule is violated; ClosBlueprint::miswired_links() finds them.
  std::uint32_t miswires = 0;
  std::uint64_t miswire_seed = 1;

  [[nodiscard]] bool asymmetric() const { return !pod_tors.empty(); }
  /// ToR count of 0-based global PoD `g` ((cluster-1)*pods + pod-1).
  [[nodiscard]] std::uint32_t tors_in_global_pod(std::uint32_t g) const {
    return g < pod_tors.size() ? pod_tors[g] : tors_per_pod;
  }
  [[nodiscard]] std::uint32_t total_tors() const {
    std::uint32_t n = 0;
    for (std::uint32_t g = 0; g < clusters * pods; ++g) n += tors_in_global_pod(g);
    return n;
  }
  [[nodiscard]] double uplink_rate_of(std::uint32_t g) const {
    return g < pod_uplink_rate.size() ? pod_uplink_rate[g] : 1.0;
  }
  /// Rate multiplier of a device's 0-based `ordinal`-th uplink stripe.
  [[nodiscard]] double stripe_rate_of(std::uint32_t ordinal) const {
    return stripe_rate.empty() ? 1.0
                               : stripe_rate[ordinal % stripe_rate.size()];
  }

  /// The paper's 2-PoD topology (Figs 2/3): 4 ToRs, 4 pod spines, 4 tops.
  static ClosParams paper_2pod() { return ClosParams{2, 2, 2, 4, 1}; }
  /// The paper's 4-PoD topology: 8 ToRs, 8 pod spines, 4 tops.
  static ClosParams paper_4pod() { return ClosParams{4, 2, 2, 4, 1}; }
  /// An 8-PoD fabric with non-uniform rack counts and oversubscribed PoDs:
  /// the lifecycle bench's asymmetric topology.
  static ClosParams asymmetric_8pod() {
    ClosParams p{8, 2, 2, 4, 1};
    p.pod_tors = {2, 3, 1, 2, 3, 1, 2, 2};
    p.pod_uplink_rate = {1.0, 0.5, 1.0, 0.25, 1.0, 0.5, 1.0, 1.0};
    return p;
  }
  /// The WCMP A/B topology: non-uniform rack counts plus a 2:1
  /// oversubscribed uplink tier — every device's FIRST uplink stripe runs at
  /// half rate, so every ECMP/VID candidate set mixes speeds (and the TC1
  /// failure lands on a half-rate uplink). pod_uplink_rate is deliberately
  /// left uniform: it scales a whole PoD's candidate set together, which
  /// weighted per-member selection cannot act on — it would only add
  /// capacity noise to the A/B.
  static ClosParams asymmetric_8pod_oversub() {
    ClosParams p{8, 2, 2, 4, 1};
    p.pod_tors = {2, 3, 1, 2, 3, 1, 2, 2};
    p.stripe_rate = {0.5, 1.0};
    return p;
  }
  /// A 4-tier fabric: `clusters` copies of the 4-PoD design joined by
  /// `supers` super spines.
  static ClosParams four_tier_clusters(std::uint32_t clusters,
                                       std::uint32_t supers) {
    ClosParams p = paper_4pod();
    p.clusters = clusters;
    p.super_spines = supers;
    return p;
  }

  [[nodiscard]] std::uint32_t router_count() const {
    return total_tors() + clusters * (pods * spines_per_pod + top_spines) +
           super_spines;
  }
};

enum class Role : std::uint8_t { kHost, kLeaf, kPodSpine, kTopSpine, kSuperSpine };

struct DeviceSpec {
  std::string name;    // "L-1-1", "S-1-2", "T-3" ("C2-L-1-1" in 4-tier, "U-1")
  Role role;
  std::uint32_t tier;     // 1 = leaf, 2 = pod spine, 3 = top, 4 = super
  std::uint32_t cluster;  // 1-based; 0 for super spines
  std::uint32_t pod;      // 1-based; 0 for top/super spines
  std::uint32_t index;    // 1-based within (cluster, pod, role)
  std::uint32_t asn;   // BGP AS number (RFC 7938-style plan)
  /// Leaves only: the server subnet whose third octet is the MR-MTP VID.
  std::optional<ip::Ipv4Prefix> server_subnet;
  std::uint16_t vid = 0;  // leaves only
};

struct LinkSpec {
  std::uint32_t upper;  // device index (higher tier end)
  std::uint32_t lower;  // device index (lower tier end)
  /// /31 point-to-point addresses for the BGP deployment.
  ip::Ipv4Addr upper_addr;
  ip::Ipv4Addr lower_addr;
  /// Relative bandwidth (1.0 = deployment base rate); the asymmetric
  /// generator's mixed-speed / oversubscription knob.
  double rate = 1.0;
};

struct HostSpec {
  std::string name;       // "H-1-1" (pod-tor; single server per rack in paper)
  std::uint32_t leaf;     // device index of the ToR
  ip::Ipv4Addr addr;      // e.g. 192.168.11.1
  ip::Ipv4Addr gateway;   // the ToR's address in the rack subnet
};

/// TC1..TC4: the paper's four interface-failure points (Fig. 3).
enum class TestCase : std::uint8_t { kTC1, kTC2, kTC3, kTC4 };

[[nodiscard]] std::string_view to_string(TestCase tc);
inline constexpr TestCase kAllTestCases[] = {TestCase::kTC1, TestCase::kTC2,
                                             TestCase::kTC3, TestCase::kTC4};

/// The interface to fail: bring down `port` on `device` (one-sided).
struct FailurePoint {
  std::string device;
  std::uint32_t port;
  std::string peer;  // informational: the device on the other end
};

class ClosBlueprint;

/// Device-to-shard assignment for the parallel fabric engine. PoD-affine:
/// every leaf and pod spine of a PoD (plus its hosts, which follow their
/// ToR) lands on one shard, so rack-local traffic never crosses threads;
/// top and super spines — whose links all cross PoDs anyway — round-robin
/// across shards to balance the interconnect load.
struct ShardPlan {
  std::uint32_t shards = 1;
  /// Shard of each blueprint device, indexed like ClosBlueprint::devices().
  std::vector<std::uint32_t> device_shard;

  [[nodiscard]] std::uint32_t shard_of(std::uint32_t device) const {
    return device_shard[device];
  }
};

/// Builds the PoD-affine plan; `shards` is clamped to [1, pod count] so no
/// shard is left without a PoD (an idle shard only adds barrier latency).
/// PoDs are placed on the currently lightest shard by router+host weight —
/// for uniform fabrics this reduces to round-robin (global_pod % shards),
/// for asymmetric fabrics it balances shard load by actual device count.
[[nodiscard]] ShardPlan make_shard_plan(const ClosBlueprint& blueprint,
                                        std::uint32_t shards);

class ClosBlueprint {
 public:
  explicit ClosBlueprint(ClosParams params);

  [[nodiscard]] const ClosParams& params() const { return params_; }
  [[nodiscard]] const std::vector<DeviceSpec>& devices() const { return devices_; }
  [[nodiscard]] const std::vector<LinkSpec>& links() const { return links_; }
  [[nodiscard]] const std::vector<HostSpec>& hosts() const { return hosts_; }

  [[nodiscard]] const DeviceSpec& device(std::uint32_t index) const {
    return devices_[index];
  }
  [[nodiscard]] std::uint32_t device_index(std::string_view name) const;

  /// Leaf device index for (pod, tor), both 1-based; 4-tier overloads take
  /// the cluster first.
  [[nodiscard]] std::uint32_t leaf(std::uint32_t pod, std::uint32_t tor) const;
  [[nodiscard]] std::uint32_t pod_spine(std::uint32_t pod, std::uint32_t s) const;
  [[nodiscard]] std::uint32_t top_spine(std::uint32_t t) const;
  [[nodiscard]] std::uint32_t leaf_in(std::uint32_t cluster, std::uint32_t pod,
                                      std::uint32_t tor) const;
  [[nodiscard]] std::uint32_t pod_spine_in(std::uint32_t cluster,
                                           std::uint32_t pod,
                                           std::uint32_t s) const;
  [[nodiscard]] std::uint32_t top_spine_in(std::uint32_t cluster,
                                           std::uint32_t t) const;
  [[nodiscard]] std::uint32_t super_spine(std::uint32_t q) const;

  /// The ToR VID for (pod, tor): sequential from 11 as in the paper.
  [[nodiscard]] std::uint16_t tor_vid(std::uint32_t pod, std::uint32_t tor) const;
  [[nodiscard]] std::uint16_t tor_vid_in(std::uint32_t cluster, std::uint32_t pod,
                                         std::uint32_t tor) const;

  /// ToR count of (cluster, pod) — per-PoD in asymmetric mode.
  [[nodiscard]] std::uint32_t tors_in(std::uint32_t cluster,
                                      std::uint32_t pod) const;

  /// Link indices whose cabling violates the stripe rule (top spine t must
  /// serve pod spine s iff (t-1) % spines_per_pod == s-1) — i.e. the cables
  /// crossed by ClosParams::miswires. Empty on a correctly built fabric.
  [[nodiscard]] std::vector<std::uint32_t> miswired_links() const;

  /// Maps a test case to the interface to fail. All four are anchored on the
  /// first traffic path (L-1-1 / S-1-1 / T-1), matching Fig. 3:
  ///   TC1: ToR-side interface of link L-1-1 <-> S-1-1
  ///   TC2: spine-side interface of the same link
  ///   TC3: pod-spine-side interface of link S-1-1 <-> T-1
  ///   TC4: top-side interface of the same link
  [[nodiscard]] FailurePoint failure_point(TestCase tc) const;

  /// Port number of `device`'s end of blueprint link `link_index`, derived
  /// from wiring order (identical to the instantiated Network's numbering).
  [[nodiscard]] std::uint32_t port_on(std::uint32_t device,
                                      std::uint32_t link_index) const;

  /// Link indices of `device`'s fabric ports in port-number order: port p
  /// rides link port_order(device)[p - 1]. Host ports follow, unlisted.
  [[nodiscard]] const std::vector<std::uint32_t>& port_order(
      std::uint32_t device) const {
    return port_order_[device];
  }

  /// Port number of the leaf-side interface that faces the servers (used by
  /// the MR-MTP config's leavesNetworkPortDict).
  [[nodiscard]] std::uint32_t leaf_host_port(std::uint32_t leaf_index) const;

  /// The MR-MTP JSON configuration of paper Listing 2.
  [[nodiscard]] util::Json mtp_config() const;

 private:
  void build();

  ClosParams params_;
  /// leaf_base_[g] = leaves in global PoDs before g (prefix sums); the
  /// uniform closed-form indexing generalized to non-uniform PoD sizes.
  std::vector<std::uint32_t> leaf_base_;
  std::uint32_t total_tors_ = 0;
  std::vector<DeviceSpec> devices_;
  std::vector<LinkSpec> links_;
  std::vector<HostSpec> hosts_;
  /// port_order_[d] = list of link indices in creation order for device d
  /// (host links excluded; they follow after).
  std::vector<std::vector<std::uint32_t>> port_order_;
};

}  // namespace mrmtp::topo
