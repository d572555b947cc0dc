#include "harness/auditor.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <stdexcept>

#include "net/link.hpp"

namespace mrmtp::harness {

namespace {

/// Why a forwarding entry egressing `port` is stale, or empty if it is not.
std::string_view stale_port(const net::Node& node, std::uint32_t port) {
  if (port == 0 || port > node.port_count() || !node.port(port).connected()) {
    return "unwired port";
  }
  if (!node.port(port).admin_up()) return "admin-down port";
  return {};
}

/// Ascending, duplicate-free: the order the data plane's candidates are
/// probed in.
void sort_unique(std::vector<std::uint32_t>& ports) {
  std::sort(ports.begin(), ports.end());
  ports.erase(std::unique(ports.begin(), ports.end()), ports.end());
}

}  // namespace

std::string_view to_string(InvariantKind kind) {
  switch (kind) {
    case InvariantKind::kStaleVidEntry: return "stale-vid-entry";
    case InvariantKind::kStaleNextHop: return "stale-next-hop";
    case InvariantKind::kForwardingLoop: return "forwarding-loop";
    case InvariantKind::kForwardingBlackhole: return "forwarding-blackhole";
    case InvariantKind::kExclusionBlackhole: return "exclusion-blackhole";
    case InvariantKind::kFalseDeadNeighbor: return "false-dead-neighbor";
    case InvariantKind::kPfcDeadlock: return "pfc-deadlock";
    case InvariantKind::kPauseStorm: return "pause-storm";
    case InvariantKind::kControlStarved: return "control-starved";
  }
  return "?";
}

std::string Violation::str() const {
  return "[" + at.str() + "] " + device + " " + std::string(to_string(kind)) +
         ": " + detail;
}

FabricAuditor::FabricAuditor(Deployment& dep) : dep_(dep) {
  const auto n = static_cast<std::uint32_t>(dep_.router_count());
  for (std::uint32_t d = 0; d < n; ++d) {
    router_index_[&dep_.router(d)] = d;
    if (dep_.proto() == Proto::kMtp) {
      mtp_.push_back(&dep_.mtp(d));
    } else {
      bgp_.push_back(&dep_.bgp(d));
    }
  }
  hop_base_.reserve(n + 1);
  for (std::uint32_t d = 0; d < n; ++d) {
    hop_base_.push_back(static_cast<std::uint32_t>(hops_.size()));
    const net::Node& node = dep_.router(d);
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      Hop hop;
      hop.port = &node.port(p);
      const net::Port* peer = hop.port->peer();
      auto it = peer == nullptr ? router_index_.end()
                                : router_index_.find(&peer->owner());
      if (it != router_index_.end()) {
        hop.peer = it->second;
        hop.peer_port = peer->number();
      }
      hops_.push_back(hop);
    }
  }
  hop_base_.push_back(static_cast<std::uint32_t>(hops_.size()));
  probeable_.resize(n);
  reach_to_.resize(n);
  memo_.resize(2 * std::size_t{n});
  on_path_.resize(2 * std::size_t{n});
  nh_clean_epoch_.resize(n);
  nh_clean_state_.resize(hops_.size());
  const auto& devices = dep_.blueprint().devices();
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    if (devices[d].vid == 0) continue;
    if (dep_.proto() == Proto::kMtp) {
      // Deployed truth, not blueprint intent: under the duplicate-subnet
      // misconfig a ToR announces another rack's VID, so the blueprint VID
      // has no advertiser and the collided VID must map to its legitimate
      // owner (the leaf whose blueprint and deployed VIDs agree).
      std::uint16_t vid = mtp_[d]->own_vid();
      if (!leaf_of_root_.contains(vid) || devices[d].vid == vid) {
        leaf_of_root_[vid] = d;
      }
    } else {
      leaf_of_root_[devices[d].vid] = d;
    }
  }
}

std::vector<Violation> FabricAuditor::violations_outside_windows() const {
  std::vector<Violation> out;
  for (const Violation& v : log_) {
    bool inside = false;
    for (const auto& [from, until] : windows_) {
      if (v.at >= from && v.at <= until) {
        inside = true;
        break;
      }
    }
    if (!inside) out.push_back(v);
  }
  return out;
}

bool FabricAuditor::leaf_probeable(std::uint32_t leaf) const {
  if (!dep_.router_active(leaf)) return false;
  return mtp_.empty() ? !bgp_[leaf]->draining() : !mtp_[leaf]->draining();
}

void FabricAuditor::refresh() {
  for (Hop& hop : hops_) {
    const net::Port& port = *hop.port;
    hop.state = static_cast<std::uint8_t>((port.connected() ? 1 : 0) |
                                          (port.admin_up() ? 2 : 0));
    const net::Port* peer = port.peer();
    hop.usable = hop.state == 3 && peer != nullptr && peer->admin_up() &&
                 port.link()->deliverable(port.link()->direction_from(port));
  }
  for (std::uint32_t d = 0; d < probeable_.size(); ++d) {
    probeable_[d] = leaf_probeable(d) ? 1 : 0;
  }
  sources_.clear();
  for (const auto& [root, leaf] : leaf_of_root_) {
    if (probeable_[leaf] != 0) sources_.push_back(leaf);
  }
  for (auto& reach : reach_to_) reach.clear();
}

std::size_t FabricAuditor::sweep() {
  seen_this_sweep_.clear();
  refresh();
  std::vector<Violation> out;
  if (dep_.proto() == Proto::kMtp) {
    audit_mtp(out);
  } else {
    audit_bgp(out);
  }
  audit_buffers(out);
  ++sweeps_;
  last_ = out.size();
  if (last_ > 0) ++dirty_sweeps_;
  log_.insert(log_.end(), out.begin(), out.end());
  return last_;
}

void FabricAuditor::start(sim::Duration period) {
  if (!timer_) {
    timer_ = std::make_unique<sim::Timer>(dep_.ctx().sched, [this] { sweep(); });
  }
  timer_->start_periodic(period);
}

void FabricAuditor::stop() {
  if (timer_) timer_->stop();
}

void FabricAuditor::audit_buffers(std::vector<Violation>& out) {
  bool any_buffered = false;
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    if (dep_.router(d).switch_buffer() != nullptr) {
      any_buffered = true;
      break;
    }
  }
  if (!any_buffered) return;

  const sim::Time now = dep_.ctx().now();
  const auto& links = dep_.network().links();

  // Pause-wait graph: X -> Y when some X->Y direction is PAUSEd (Y told X to
  // stop) while X still has data queued behind the pause. Valley-free Clos
  // routing should keep this a DAG; a cycle is a PFC deadlock — every switch
  // on it waits on the next forever.
  std::map<std::uint32_t, std::vector<std::uint32_t>> wait_edges;
  for (const auto& lp : links) {
    const net::Link& l = *lp;
    for (int d = 0; d < 2; ++d) {
      const auto dir = static_cast<net::Link::Dir>(d);
      if (!l.data_paused(dir) || l.queued_data_bytes(dir) == 0) continue;
      const net::Node& snd = (d == 0 ? l.a() : l.b()).owner();
      const net::Node& rcv = (d == 0 ? l.b() : l.a()).owner();
      auto si = router_index_.find(&snd);
      auto ri = router_index_.find(&rcv);
      if (si == router_index_.end() || ri == router_index_.end()) continue;
      wait_edges[si->second].push_back(ri->second);
    }
  }
  // Coloring DFS over the wait graph; each back edge is one reported cycle.
  std::map<std::uint32_t, int> color;  // 0 = new, 1 = on stack, 2 = done
  std::function<void(std::uint32_t)> dfs = [&](std::uint32_t u) {
    color[u] = 1;
    auto it = wait_edges.find(u);
    if (it != wait_edges.end()) {
      for (std::uint32_t v : it->second) {
        if (color[v] == 1) {
          ++pfc_deadlocks_;
          flag(out, u, InvariantKind::kPfcDeadlock,
               "pause-wait cycle through " +
                   dep_.blueprint().device(v).name);
        } else if (color[v] == 0) {
          dfs(v);
        }
      }
    }
    color[u] = 2;
  };
  for (const auto& [u, _] : wait_edges) {
    if (color[u] == 0) dfs(u);
  }

  // Pause storms and control starvation, scored as deltas since the last
  // sweep (first sweep: since time zero).
  const auto interval_ns =
      static_cast<std::uint64_t>((now - last_buffer_sweep_).ns());
  for (const auto& lp : links) {
    const net::Link& l = *lp;
    auto& psnap = pause_snap_[&l];
    auto& csnap = ctrl_drop_snap_[&l];
    for (int d = 0; d < 2; ++d) {
      const auto dir = static_cast<net::Link::Dir>(d);
      const net::Node& snd = (d == 0 ? l.a() : l.b()).owner();
      const std::uint64_t pause_now = l.pause_ns_total(dir);
      const net::Link::DirStats& ds = d == 0 ? l.stats().ab : l.stats().ba;
      const std::uint64_t cdrop_now = ds.dropped_queue_control;
      auto si = router_index_.find(&snd);
      if (si != router_index_.end()) {
        if (interval_ns > 0 && pause_now - psnap[d] > interval_ns / 10 * 9) {
          flag(out, si->second, InvariantKind::kPauseStorm,
               "direction paused " + std::to_string(pause_now - psnap[d]) +
                   " ns of a " + std::to_string(interval_ns) + " ns interval");
        }
        if (cdrop_now > csnap[d] &&
            dep_.router(si->second).switch_buffer() != nullptr) {
          flag(out, si->second, InvariantKind::kControlStarved,
               std::to_string(cdrop_now - csnap[d]) +
                   " control-band drops on a finite-buffer switch");
        }
      }
      psnap[d] = pause_now;
      csnap[d] = cdrop_now;
    }
  }
  last_buffer_sweep_ = now;
}

// --- liveness watcher: false-dead declarations + cascade depth ---

void FabricAuditor::watch_liveness(sim::Duration cascade_window) {
  if (watching_) return;
  watching_ = true;
  cascade_window_ = cascade_window;

  // Adjacency from the wiring itself (covers every proto identically).
  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    for (std::uint32_t p = 1; p <= port_count(d); ++p) {
      const std::uint32_t peer = hops_[hop_index(d, p)].peer;
      if (peer == kNotRouter) continue;
      adjacent_.insert({std::min(d, peer), std::max(d, peer)});
    }
  }

  for (std::uint32_t d = 0; d < dep_.router_count(); ++d) {
    if (dep_.proto() == Proto::kMtp) {
      mtp::MtpRouter& r = dep_.mtp(d);
      auto prev = std::move(r.on_neighbor_down);
      r.on_neighbor_down = [this, d, prev = std::move(prev)](
                               sim::Time at, std::uint32_t port,
                               bool local_detect) {
        if (local_detect) note_down_declaration(d, port, at);
        if (prev) prev(at, port, local_detect);
      };
    } else {
      bgp::BgpRouter& r = dep_.bgp(d);
      // Session peers are keyed by address; resolve each to the local port
      // carrying that /31 so the link can be inspected at declaration time.
      std::map<std::uint32_t, std::uint32_t> port_of_peer;  // addr -> port
      for (const bgp::NeighborConfig& n : r.config().neighbors) {
        for (std::uint32_t p = 1; p <= r.port_count(); ++p) {
          if (r.port_addr(p) == n.local_addr) {
            port_of_peer[n.peer_addr.value()] = p;
            break;
          }
        }
      }
      auto prev = std::move(r.on_session_down);
      r.on_session_down = [this, d, port_of_peer = std::move(port_of_peer),
                           prev = std::move(prev)](sim::Time at,
                                                   ip::Ipv4Addr peer,
                                                   std::string_view reason) {
        auto it = port_of_peer.find(peer.value());
        note_down_declaration(d, it == port_of_peer.end() ? 0 : it->second,
                              at);
        if (prev) prev(at, peer, reason);
      };
    }
  }
}

bool FabricAuditor::link_unimpaired(std::uint32_t device,
                                    std::uint32_t p) const {
  const net::Node& node = dep_.router(device);
  if (p == 0 || p > node.port_count()) return false;
  const net::Port& port = node.port(p);
  if (!port.connected() || !port.admin_up()) return false;
  const net::Port* peer = port.peer();
  if (peer == nullptr || !peer->admin_up()) return false;
  const net::Link* link = port.link();
  for (net::Link::Dir dir : {net::Link::Dir::kAToB, net::Link::Dir::kBToA}) {
    if (link->blackholed(dir) || link->effective_loss(dir) > 0.0) return false;
  }
  return true;
}

void FabricAuditor::note_down_declaration(std::uint32_t device,
                                          std::uint32_t port, sim::Time at) {
  ++downs_;
  int depth = 1;
  for (auto it = down_events_.rbegin(); it != down_events_.rend(); ++it) {
    if (at - it->at > cascade_window_) break;
    if (it->device == device) continue;
    auto pair = std::make_pair(std::min(device, it->device),
                               std::max(device, it->device));
    if (adjacent_.contains(pair)) depth = std::max(depth, it->depth + 1);
  }
  down_events_.push_back(DownEvent{at, device, depth});
  max_cascade_depth_ = std::max(max_cascade_depth_, depth);

  if (link_unimpaired(device, port)) {
    ++false_dead_;
    log_.push_back(Violation{
        at, dep_.router(device).name(), InvariantKind::kFalseDeadNeighbor,
        "neighbor on port " + std::to_string(port) +
            " declared dead while the link is up and unimpaired"});
  }
}

void FabricAuditor::flag(std::vector<Violation>& out, std::uint32_t device,
                         InvariantKind kind, std::string detail) {
  const std::string& name = dep_.router(device).name();
  std::string key = name + "|" + std::string(to_string(kind)) + "|" + detail;
  if (!seen_this_sweep_.insert(std::move(key)).second) return;
  out.push_back(Violation{dep_.ctx().now(), name, kind, std::move(detail)});
}

void FabricAuditor::flag_dead_end(std::vector<Violation>& out,
                                  std::uint32_t device, InvariantKind kind,
                                  std::string detail) {
  // Routing cannot beat physics: a probe dying with no live path left is
  // expected, not a violation.
  if (!physically_reachable(device)) return;
  flag(out, device, kind, std::move(detail));
}

bool FabricAuditor::physically_reachable(std::uint32_t from) {
  std::vector<std::uint8_t>& reach = reach_to_[probe_->dst_leaf];
  if (reach.empty()) {
    // Reverse BFS: y can reach x when y's hop toward x is usable.
    reach.assign(reach_to_.size(), 0);
    reach[probe_->dst_leaf] = 1;
    std::deque<std::uint32_t> queue{probe_->dst_leaf};
    while (!queue.empty()) {
      const std::uint32_t x = queue.front();
      queue.pop_front();
      for (std::uint32_t p = 1; p <= port_count(x); ++p) {
        const Hop& hop = hops_[hop_index(x, p)];
        if (hop.peer == kNotRouter || reach[hop.peer] != 0) continue;
        if (!hops_[hop_index(hop.peer, hop.peer_port)].usable) continue;
        reach[hop.peer] = 1;
        queue.push_back(hop.peer);
      }
    }
  }
  return reach[from] != 0;
}

// --- probe walk, shared by both stacks ---

void FabricAuditor::probe_from_sources(const Probe& probe,
                                       std::vector<Violation>& out) {
  probe_ = &probe;
  std::fill(memo_.begin(), memo_.end(), std::int8_t{-1});
  for (std::uint32_t src : sources_) {
    if (src != probe.dst_leaf) walk(src, false, 0, out);
  }
  probe_ = nullptr;
}

void FabricAuditor::walk(std::uint32_t device, bool came_down, int depth,
                         std::vector<Violation>& out) {
  if (!mtp_.empty() && mtp_[device]->is_leaf() &&
      mtp_[device]->own_vid() == probe_->root) {
    return;  // delivered
  }
  // A state whose walk already finished loop-free at this depth or deeper
  // has an acyclic forwarding sub-graph toward this destination that fits
  // the remaining TTL: walking it again could only re-raise flags that are
  // already in seen_this_sweep_.
  const std::size_t state = 2 * std::size_t{device} + (came_down ? 1 : 0);
  if (memo_[state] >= depth) return;
  ++probe_visits_;
  if (depth >= kMaxProbeDepth) {
    ++loop_hits_;
    flag(out, device, InvariantKind::kForwardingLoop,
         "probe toward " + probe_->label + " exhausted TTL (likely loop)");
    return;
  }
  if (on_path_[state] != 0) {
    ++loop_hits_;
    flag(out, device, InvariantKind::kForwardingLoop,
         "probe toward " + probe_->label + " revisited this hop");
    return;
  }

  auto& ports = port_buf_[static_cast<std::size_t>(depth)];
  bool going_down = false;
  const bool forward =
      mtp_.empty() ? bgp_next_ports(device, ports, out)
                   : mtp_next_ports(device, came_down, ports, going_down, out);
  if (forward) {
    const std::uint64_t loops_before = loop_hits_;
    on_path_[state] = 1;
    for (std::uint32_t p : ports) {
      const Hop* hop = p == 0 || p > port_count(device)
                           ? nullptr
                           : &hops_[hop_index(device, p)];
      if (hop == nullptr || !hop->usable) {
        flag_dead_end(out, device, InvariantKind::kForwardingBlackhole,
                      "probe toward " + probe_->label +
                          " died on the wire at port " + std::to_string(p));
        continue;
      }
      if (hop->peer == kNotRouter) continue;
      walk(hop->peer, going_down, depth + 1, out);
    }
    on_path_[state] = 0;
    if (loop_hits_ != loops_before) return;
  }
  memo_[state] = static_cast<std::int8_t>(depth);
}

// --- MTP ---

void FabricAuditor::audit_mtp(std::vector<Violation>& out) {
  // Invariant 1: every VID-table entry points at a usable, accepted port.
  // Powered-off routers hold no state worth auditing.
  for (std::uint32_t d = 0; d < mtp_.size(); ++d) {
    if (!dep_.router_active(d)) continue;
    const mtp::MtpRouter& r = *mtp_[d];
    for (const mtp::VidEntry& e : r.vid_table().entries()) {
      if (e.port == 0) continue;  // a ToR's own root VID
      std::string_view why = stale_port(r, e.port);
      if (why.empty()) {
        if (r.neighbor_alive(e.port)) continue;
        why = "dead neighbor";
      }
      flag(out, d, InvariantKind::kStaleVidEntry,
           "vid " + e.vid.str() + " -> port " + std::to_string(e.port) + " (" +
               std::string(why) + ")");
    }
  }

  // Invariants 2+3: probes from every leaf toward every other ToR tree must
  // neither loop nor die while a live path exists.
  for (const auto& [root, dst_leaf] : leaf_of_root_) {
    if (probeable_[dst_leaf] == 0) continue;
    const Probe probe{dst_leaf, root, {}, "root " + std::to_string(root)};
    probe_from_sources(probe, out);
  }
}

bool FabricAuditor::mtp_next_ports(std::uint32_t device, bool came_down,
                                   std::vector<std::uint32_t>& ports,
                                   bool& going_down,
                                   std::vector<Violation>& out) {
  // The data plane's decision: VID table down if it knows the tree, else
  // hash-load-balance up — and never bounce back up after turning down.
  const mtp::MtpRouter& r = *mtp_[device];
  ports.clear();
  for (const mtp::VidEntry& e : r.vid_table().entries_for_root(probe_->root)) {
    if (e.port != 0) ports.push_back(e.port);
  }
  if (!ports.empty()) {
    sort_unique(ports);
    going_down = true;
    return true;
  }
  if (came_down) {
    flag_dead_end(out, device, InvariantKind::kForwardingBlackhole,
                  "downward probe toward " + probe_->label +
                      " found no VID entry");
    return false;
  }
  const auto& ups = r.eligible_up_ports(probe_->root);
  ports.assign(ups.begin(), ups.end());
  if (!ports.empty()) {
    sort_unique(ports);
    return true;
  }
  // Live uplinks ruled out only by exclusions is its own invariant class.
  bool live_uplink = false;
  const auto& bp = dep_.blueprint();
  for (std::uint32_t p = 1; p <= port_count(device); ++p) {
    const Hop& hop = hops_[hop_index(device, p)];
    if (hop.peer == kNotRouter) continue;
    if (bp.device(hop.peer).tier <= bp.device(device).tier) continue;
    if (hop.port->admin_up() && r.neighbor_alive(p)) {
      live_uplink = true;
      break;
    }
  }
  flag_dead_end(out, device,
                live_uplink ? InvariantKind::kExclusionBlackhole
                            : InvariantKind::kForwardingBlackhole,
                "no eligible uplink toward " + probe_->label +
                    (live_uplink ? " (live uplinks excluded)" : ""));
  return false;
}

// --- BGP ---

void FabricAuditor::audit_bgp(std::vector<Violation>& out) {
  // Invariant 1: every installed BGP next-hop egresses a usable port.
  // Powered-off routers hold no state worth auditing. A router whose table
  // and port states are unchanged since a clean check is clean again; a
  // cheap unsorted scan clears the rest, and only a router with a stale
  // entry pays for the sorted pass that fixes the report order.
  for (std::uint32_t d = 0; d < bgp_.size(); ++d) {
    if (!dep_.router_active(d)) continue;
    const bgp::BgpRouter& r = *bgp_[d];
    const ip::RouteTable& table = r.routes();
    const auto first = hops_.begin() + hop_base_[d];
    const auto last = hops_.begin() + hop_base_[d + 1];
    const auto snap = nh_clean_state_.begin() + hop_base_[d];
    if (nh_clean_epoch_[d] == table.epoch() &&
        std::equal(first, last, snap,
                   [](const Hop& h, std::uint8_t s) { return h.state == s; })) {
      continue;
    }
    bool stale = false;
    table.for_each_route([&](const ip::Route& route) {
      if (stale || route.proto != ip::RouteProto::kBgp) return;
      for (const ip::NextHop& nh : route.nexthops) {
        if (!stale_port(r, nh.port).empty()) stale = true;
      }
    });
    if (!stale) {
      nh_clean_epoch_[d] = table.epoch();
      std::transform(first, last, snap, [](const Hop& h) { return h.state; });
      continue;
    }
    nh_clean_epoch_[d] = 0;
    for (const ip::Route* route : table.sorted_routes()) {
      if (route->proto != ip::RouteProto::kBgp) continue;
      for (const ip::NextHop& nh : route->nexthops) {
        std::string_view why = stale_port(r, nh.port);
        if (why.empty()) continue;
        flag(out, d, InvariantKind::kStaleNextHop,
             route->prefix.str() + " via port " + std::to_string(nh.port) +
                 " (" + std::string(why) + ")");
      }
    }
  }

  // Invariants 2+3: probe every host address from every other leaf.
  for (const topo::HostSpec& hs : dep_.blueprint().hosts()) {
    if (probeable_[hs.leaf] == 0) continue;
    const Probe probe{hs.leaf, 0, hs.addr, hs.addr.str()};
    probe_from_sources(probe, out);
  }
}

bool FabricAuditor::bgp_next_ports(std::uint32_t device,
                                   std::vector<std::uint32_t>& ports,
                                   std::vector<Violation>& out) {
  const ip::Route* route = bgp_[device]->routes().lookup(probe_->addr);
  if (route == nullptr || route->nexthops.empty()) {
    flag_dead_end(out, device, InvariantKind::kForwardingBlackhole,
                  "no route toward " + probe_->label);
    return false;
  }
  // The rack subnet's gateway: delivered (host links are out of scope).
  if (route->proto == ip::RouteProto::kConnected) return false;
  ports.clear();
  for (const ip::NextHop& nh : route->nexthops) ports.push_back(nh.port);
  return true;
}

}  // namespace mrmtp::harness
