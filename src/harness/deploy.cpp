#include "harness/deploy.hpp"

#include <bit>
#include <stdexcept>

#include "util/hash.hpp"

namespace mrmtp::harness {

std::string_view to_string(Proto p) {
  switch (p) {
    case Proto::kMtp: return "MR-MTP";
    case Proto::kBgp: return "BGP/ECMP";
    case Proto::kBgpBfd: return "BGP/ECMP/BFD";
  }
  return "?";
}

Deployment::Deployment(net::SimContext& ctx,
                       const topo::ClosBlueprint& blueprint, Proto proto,
                       DeployOptions options)
    : ctx_(ctx), blueprint_(&blueprint), proto_(proto), network_(ctx) {
  init_lifecycle(options);
  if (proto_ == Proto::kMtp) {
    deploy_mtp(options);
  } else {
    deploy_bgp(options);
  }
}

void Deployment::deploy_mtp(const DeployOptions& options) {
  const auto& bp = *blueprint_;

  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    mtp::MtpConfig cfg;
    cfg.tier = spec.tier;
    cfg.timers = options.mtp_timers;
    cfg.path_select = options.path_select;
    cfg.flowlet_gap = options.effective_flowlet_gap();
    if (spec.role == topo::Role::kLeaf) {
      cfg.server_subnet = spec.server_subnet;
      if (options.duplicate_subnet_of.has_value() &&
          options.duplicate_subnet_of->first == d) {
        // The operator pasted another rack's subnet into this ToR's config:
        // it now announces a root VID that already exists elsewhere.
        cfg.server_subnet =
            bp.device(options.duplicate_subnet_of->second).server_subnet;
      }
      std::uint32_t base_port = bp.leaf_host_port(d);
      std::uint32_t offset = 0;
      for (const auto& hs : bp.hosts()) {
        if (hs.leaf == d) cfg.rack_hosts[hs.addr] = base_port + offset++;
      }
    }
    routers_.push_back(&network_.add_node<mtp::MtpRouter>(spec.name, cfg));
  }

  add_hosts(options);
  wire(options);
}

void Deployment::deploy_bgp(const DeployOptions& options) {
  const auto& bp = *blueprint_;
  if (options.duplicate_subnet_of.has_value()) {
    throw std::invalid_argument(
        "Deployment: duplicate_subnet_of models an MR-MTP VID collision; "
        "deploy it under Proto::kMtp");
  }

  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    bgp::BgpConfig cfg;
    cfg.asn = spec.asn;
    cfg.router_id = d + 1;
    cfg.timers = options.bgp_timers;
    cfg.ecmp = true;
    cfg.enable_bfd = proto_ == Proto::kBgpBfd;
    cfg.bfd = options.bfd;
    // Per-peer and per-BFD-session jitter streams, seeded by device index —
    // a pure blueprint property.
    cfg.rng_seed = util::mix64(ctx_.seed ^ 0x626770ull) ^
                   util::mix64(static_cast<std::uint64_t>(d));
    for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
      const auto& link = bp.links()[li];
      if (link.upper == d) {
        cfg.neighbors.push_back({link.upper_addr, link.lower_addr,
                                 bp.device(link.lower).asn});
      } else if (link.lower == d) {
        cfg.neighbors.push_back({link.lower_addr, link.upper_addr,
                                 bp.device(link.upper).asn});
      }
    }
    if (spec.role == topo::Role::kLeaf) {
      cfg.originate.push_back(*spec.server_subnet);
    }
    auto& router =
        network_.add_node<bgp::BgpRouter>(spec.name, spec.tier, cfg);
    if (options.path_select != util::PathSelect::kHrw) {
      // Must precede start(): install() reads the mode to stamp next-hop
      // weights as sessions come up. Hosts keep plain HRW — their single
      // default route has nothing to weight.
      router.enable_path_select(options.path_select,
                                options.effective_flowlet_gap());
    }
    routers_.push_back(&router);
  }

  add_hosts(options);
  wire(options);

  // Interface addressing: /31 per fabric link, /24 gateway on rack ports.
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const auto& link = bp.links()[li];
    auto& upper = dynamic_cast<bgp::BgpRouter&>(*routers_[link.upper]);
    auto& lower = dynamic_cast<bgp::BgpRouter&>(*routers_[link.lower]);
    upper.configure_port(bp.port_on(link.upper, li), link.upper_addr, 31);
    lower.configure_port(bp.port_on(link.lower, li), link.lower_addr, 31);
  }
  std::vector<std::uint32_t> next_rack_port(bp.devices().size(), 0);
  for (const auto& hs : bp.hosts()) {
    auto& leaf = dynamic_cast<bgp::BgpRouter&>(*routers_[hs.leaf]);
    std::uint32_t port_number =
        bp.leaf_host_port(hs.leaf) + next_rack_port[hs.leaf]++;
    leaf.configure_port(port_number, hs.gateway, 24);
  }
}

void Deployment::add_hosts(const DeployOptions& options) {
  for (const auto& hs : blueprint_->hosts()) {
    if (options.vtep_hosts) {
      hosts_.push_back(&network_.add_node<traffic::VtepHost>(
          hs.name, hs.addr, 24, hs.gateway));
    } else {
      hosts_.push_back(&network_.add_node<traffic::Host>(hs.name, hs.addr, 24,
                                                         hs.gateway));
    }
  }
}

traffic::VtepHost& Deployment::vtep(std::uint32_t host_index) {
  auto* v = dynamic_cast<traffic::VtepHost*>(hosts_[host_index]);
  if (v == nullptr) throw std::logic_error("Deployment: not a VTEP host");
  return *v;
}

void Deployment::wire(const DeployOptions& options) {
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  auto deferred_pod_of = [&](std::uint32_t d) -> std::uint32_t {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      return 0;
    }
    std::uint32_t g = (spec.cluster - 1) * params.pods + spec.pod;
    return options.deferred_pods.count(g) != 0 ? g : 0;
  };
  auto defer = [&](std::uint32_t g, net::Node& node, std::uint32_t port) {
    node.set_interface_down(port);
    deferred_ifaces_[g].emplace_back(&node, port);
  };
  for (std::uint32_t li = 0; li < bp.links().size(); ++li) {
    const auto& link = bp.links()[li];
    net::Link::Params lp = options.link;
    // Mixed-speed fabric: the blueprint scales individual links (asymmetric
    // oversubscription); delay is untouched.
    lp.bandwidth_bps = static_cast<std::uint64_t>(
        static_cast<double>(lp.bandwidth_bps) * link.rate);
    network_.connect(*routers_[link.upper], *routers_[link.lower], lp);
    // Links into a deferred pod are wired dark: admin-down on both ends
    // until activate_pod() powers the expansion in.
    std::uint32_t g = deferred_pod_of(link.upper);
    if (g == 0) g = deferred_pod_of(link.lower);
    if (g != 0) {
      defer(g, *routers_[link.upper], bp.port_on(link.upper, li));
      defer(g, *routers_[link.lower], bp.port_on(link.lower, li));
    }
  }
  std::vector<std::uint32_t> next_rack_port(bp.devices().size(), 0);
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    std::uint32_t leaf = bp.hosts()[h].leaf;
    network_.connect(*routers_[leaf], *hosts_[h], options.host_link);
    std::uint32_t leaf_port = bp.leaf_host_port(leaf) + next_rack_port[leaf]++;
    std::uint32_t g = deferred_pod_of(leaf);
    if (g != 0) {
      defer(g, *routers_[leaf], leaf_port);
      defer(g, *hosts_[h], 1);  // a host's only port
    }
  }
  if (options.switch_buffer.has_value()) {
    // Switches only — hosts model NICs, which obey PAUSE at the generator
    // (traffic::Host pacing) rather than owning a shared pool.
    for (net::Node* r : routers_) r->enable_switch_buffer(*options.switch_buffer);
  }
}

void Deployment::init_lifecycle(const DeployOptions& options) {
  options_ = options;
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  active_.assign(bp.devices().size(), true);
  host_active_.assign(bp.hosts().size(), true);
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      continue;
    }
    std::uint32_t g = (spec.cluster - 1) * params.pods + spec.pod;
    if (options.deferred_pods.count(g) != 0) active_[d] = false;
  }
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    if (!active_[bp.hosts()[h].leaf]) host_active_[h] = false;
  }
}

void Deployment::start() {
  for (std::uint32_t d = 0; d < routers_.size(); ++d) {
    if (active_[d]) routers_[d]->start();
  }
  for (std::uint32_t h = 0; h < hosts_.size(); ++h) {
    if (host_active_[h]) hosts_[h]->start();
  }
}

void Deployment::drain_router(std::uint32_t device_index) {
  if (proto_ == Proto::kMtp) {
    mtp(device_index).drain();
  } else {
    bgp(device_index).drain();
  }
}

void Deployment::stop_router(std::uint32_t device_index) {
  net::Node& r = *routers_[device_index];
  // Protocol teardown first: BGP's RSTs must ride the still-up ports so
  // established and half-open peers learn of the death immediately.
  r.stop();
  std::vector<std::uint32_t>& downed = rebooting_ports_[device_index];
  downed.clear();
  for (std::uint32_t p = 1; p <= r.port_count(); ++p) {
    if (!r.port(p).admin_up()) continue;  // deferred/failed ports stay down
    r.set_interface_down(p);
    downed.push_back(p);
  }
  active_[device_index] = false;
}

void Deployment::restart_router(std::uint32_t device_index) {
  net::Node& r = *routers_[device_index];
  auto it = rebooting_ports_.find(device_index);
  if (it != rebooting_ports_.end()) {
    // Interfaces first: start() advertises / opens sessions on them.
    for (std::uint32_t p : it->second) r.set_interface_up(p);
    rebooting_ports_.erase(it);
  }
  active_[device_index] = true;
  r.start();
}

void Deployment::activate_pod(std::uint32_t global_pod) {
  auto it = deferred_ifaces_.find(global_pod);
  if (it == deferred_ifaces_.end()) {
    throw std::logic_error("Deployment: pod was not deferred");
  }
  for (auto& [node, port] : it->second) node->set_interface_up(port);
  deferred_ifaces_.erase(it);
  const auto& bp = *blueprint_;
  const auto& params = bp.params();
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      continue;
    }
    if ((spec.cluster - 1) * params.pods + spec.pod != global_pod) continue;
    active_[d] = true;
    routers_[d]->start();
  }
  for (std::uint32_t h = 0; h < bp.hosts().size(); ++h) {
    if (host_active_[h]) continue;
    const auto& spec = bp.device(bp.hosts()[h].leaf);
    if ((spec.cluster - 1) * params.pods + spec.pod != global_pod) continue;
    host_active_[h] = true;
    hosts_[h]->start();
  }
}

void Deployment::admin_down_port(std::uint32_t device_index,
                                 std::uint32_t port) {
  operator_down_[device_index].insert(port);
  routers_[device_index]->set_interface_down(port);
}

mtp::MtpRouter& Deployment::mtp(std::uint32_t device_index) {
  auto* r = dynamic_cast<mtp::MtpRouter*>(routers_[device_index]);
  if (r == nullptr) throw std::logic_error("Deployment: not an MTP router");
  return *r;
}

bgp::BgpRouter& Deployment::bgp(std::uint32_t device_index) {
  auto* r = dynamic_cast<bgp::BgpRouter*>(routers_[device_index]);
  if (r == nullptr) throw std::logic_error("Deployment: not a BGP router");
  return *r;
}

std::vector<std::uint16_t> Deployment::all_vids() const {
  std::vector<std::uint16_t> vids;
  for (const auto& spec : blueprint_->devices()) {
    if (spec.role == topo::Role::kLeaf) vids.push_back(spec.vid);
  }
  return vids;
}

bool Deployment::converged() const {
  const auto& bp = *blueprint_;
  const auto& links = bp.links();
  const std::uint32_t n = static_cast<std::uint32_t>(bp.devices().size());

  // Expected state is derived from the links the *operator* still intends
  // to carry traffic: both endpoint routers powered and neither interface
  // deliberately shut down via admin_down_port(). Dark deferred pods,
  // reboots in flight, and one-sided maintenance downs all shrink the
  // expectation; an injected fault records no intent, so the fabric keeps
  // reading as unconverged until the wiring is whole again.
  std::vector<std::uint8_t> usable(links.size());
  for (std::uint32_t li = 0; li < links.size(); ++li) {
    usable[li] = active_[links[li].upper] && active_[links[li].lower];
  }
  for (const auto& [d, ports] : operator_down_) {
    const auto& order = bp.port_order(d);
    for (std::uint32_t p : ports) {
      if (p >= 1 && p <= order.size()) usable[order[p - 1]] = 0;  // else host
    }
  }
  std::vector<std::uint8_t> draining(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    draining[d] =
        proto_ == Proto::kMtp
            ? dynamic_cast<const mtp::MtpRouter&>(*routers_[d]).draining()
            : dynamic_cast<const bgp::BgpRouter&>(*routers_[d]).draining();
  }

  // Leaf sets are flat bitsets over leaf ordinals, `words` per device.
  std::vector<std::uint32_t> leaves;
  std::vector<std::uint32_t> ordinal(n);
  for (std::uint32_t d = 0; d < n; ++d) {
    if (bp.device(d).role != topo::Role::kLeaf) continue;
    ordinal[d] = static_cast<std::uint32_t>(leaves.size());
    leaves.push_back(d);
  }
  const std::size_t words = (leaves.size() + 63) / 64;
  std::vector<std::uint64_t> sets(std::size_t{n} * words);
  auto row = [&](std::uint32_t d) {
    return sets.data() + std::size_t{d} * words;
  };
  auto merge = [&](std::uint32_t into, std::uint32_t from) {
    for (std::size_t w = 0; w < words; ++w) row(into)[w] |= row(from)[w];
  };
  // fn(leaf) for each leaf in d's set, in ordinal order; false as soon as
  // fn returns false.
  auto all_leaves = [&](std::uint32_t d, auto&& fn) {
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t m = row(d)[w]; m != 0; m &= m - 1) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(m));
        if (!fn(leaves[w * 64 + bit])) return false;
      }
    }
    return true;
  };
  // Upward pass: the leaves advertised up to each device over usable links
  // from non-draining children. Children always carry smaller device
  // indices than their parents (leaves < pod spines < tops < supers), so
  // one pass in index order sees every child's set before its parents.
  auto climb = [&](std::uint32_t skip_leaf) {
    for (std::uint32_t d = 0; d < n; ++d) {
      if (bp.device(d).role == topo::Role::kLeaf) {
        if (d != skip_leaf) {
          row(d)[ordinal[d] / 64] |= std::uint64_t{1} << (ordinal[d] % 64);
        }
        continue;
      }
      for (std::uint32_t li : bp.port_order(d)) {
        if (!usable[li] || links[li].upper != d) continue;
        if (draining[links[li].lower]) continue;
        merge(d, links[li].lower);
      }
    }
  };

  if (proto_ == Proto::kMtp) {
    // A router's convergence scope is the set of leaf VIDs it can still
    // reach downward over usable links. A draining child has withdrawn its
    // subtree on purpose — in a striped fabric a top spine may reach a pod
    // through exactly one pod spine, so costing that spine out legitimately
    // removes the pod's trees from the top; that must not read as
    // "unconverged". The duplicate-subnet victim is excluded too: its
    // blueprint VID has no advertiser.
    climb(options_.duplicate_subnet_of.has_value()
              ? options_.duplicate_subnet_of->first
              : n);
    std::vector<std::uint16_t> want;
    for (std::uint32_t d = 0; d < n; ++d) {
      if (!active_[d] || bp.device(d).role == topo::Role::kLeaf) continue;
      want.clear();
      all_leaves(d, [&](std::uint32_t leaf) {
        want.push_back(bp.device(leaf).vid);
        return true;
      });
      const auto& router = dynamic_cast<const mtp::MtpRouter&>(*routers_[d]);
      if (!router.joined_all(want)) return false;
    }
    return true;
  }

  // BGP: every session riding a usable link is Established, and every
  // powered router holds a route (or origination) for each powered,
  // non-draining leaf subnet that BGP's valley-free flood can actually
  // deliver to it: advertisements climb from the leaf through non-draining
  // routers, then descend the same way. A draining router stops exporting
  // but keeps receiving, so a drained spine still carries a full RIB.
  std::vector<std::size_t> expected(n, 0);
  for (std::uint32_t li = 0; li < links.size(); ++li) {
    if (!usable[li]) continue;
    ++expected[links[li].upper];
    ++expected[links[li].lower];
  }
  climb(n);
  // Downward pass, parents before children (descending index order).
  for (std::uint32_t d = n; d-- > 0;) {
    for (std::uint32_t li : bp.port_order(d)) {
      if (!usable[li] || links[li].lower != d) continue;
      if (draining[links[li].upper]) continue;
      merge(d, links[li].upper);
    }
  }
  for (std::uint32_t d = 0; d < n; ++d) {
    if (!active_[d]) continue;
    const auto& router = dynamic_cast<const bgp::BgpRouter&>(*routers_[d]);
    if (router.established_sessions() != expected[d]) return false;
    const bool routed = all_leaves(d, [&](std::uint32_t leaf) {
      // A draining leaf withdrew its prefix on purpose.
      return draining[leaf] != 0 ||
             router.routes().exact(*bp.device(leaf).server_subnet) != nullptr;
    });
    if (!routed) return false;
  }
  return true;
}

}  // namespace mrmtp::harness
