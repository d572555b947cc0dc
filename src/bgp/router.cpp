#include "bgp/router.hpp"

#include <algorithm>
#include <cmath>

#include "net/link.hpp"

namespace mrmtp::bgp {

namespace {
constexpr std::uint16_t kEphemeralBase = 20000;
}

BgpRouter::BgpRouter(net::SimContext& ctx, std::string name, std::uint32_t tier,
                     BgpConfig config)
    : transport::L3Node(ctx, std::move(name), tier), config_(std::move(config)) {}

void BgpRouter::start() {
  draining_ = false;
  // Passive side of every session: accept on port 179 and bind the incoming
  // connection to the neighbor configured with that source address.
  tcp().listen(kBgpPort, [this](transport::TcpConnection& conn) {
    for (auto& p : peers_) {
      if (p->cfg.peer_addr == conn.remote_addr() &&
          p->state != SessionState::kEstablished) {
        // A stale half-open attempt is superseded by the new inbound one.
        if (p->conn != nullptr && p->conn != &conn) {
          auto* old = p->conn;
          p->conn = nullptr;
          tcp().destroy(*old);
        }
        attach_connection(*p, conn);
        return;
      }
    }
    // Unknown source: leave callbacks empty; connection idles until reset.
  });

  if (config_.enable_bfd) bfd_ = std::make_unique<bfd::BfdManager>(*this);

  std::size_t index = 0;
  for (const auto& n : config_.neighbors) {
    auto peer = std::make_unique<Peer>();
    peer->cfg = n;
    peer->index = index++;
    // Stream per (router seed, peer slot); the SplitMix64 expansion inside
    // Rng decorrelates adjacent seeds.
    peer->rng = sim::Rng(config_.rng_seed + peer->index);
    Peer& ref = *peer;
    peer->hold_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, &ref] { drop_session(ref, "hold timer expired"); });
    peer->keepalive_timer =
        std::make_unique<sim::Timer>(ctx_.sched, [this, &ref] {
          if (ref.state == SessionState::kEstablished) {
            send_message(ref, KeepaliveMessage{});
            ++stats_.keepalives_sent;
            // RFC 4271 section 10: jitter each interval by 0.75..1.0 so
            // keep-alives across the fabric do not phase-lock.
            ref.keepalive_timer->start(jittered(ref, config_.timers.keepalive));
          }
        });
    peer->retry_timer = std::make_unique<sim::Timer>(
        ctx_.sched, [this, &ref] { start_peer(ref); });
    peer->mrai_timer = std::make_unique<sim::Timer>(ctx_.sched, [this, &ref] {
      if (!ref.pending.empty()) flush_peer(ref);
    });
    peers_.push_back(std::move(peer));

    if (config_.enable_bfd) {
      bfd_->create_session(
              n.local_addr, n.peer_addr, config_.bfd,
              [this, &ref](bool up) {
                if (!up) drop_session(ref, "BFD down");
              },
              ~config_.rng_seed + ref.index)
          .start();
    }
  }

  // Seed the Loc-RIB with locally originated prefixes.
  for (const auto& prefix : config_.originate) run_decision(prefix);

  for (auto& p : peers_) start_peer(*p);
}

void BgpRouter::stop() {
  draining_ = false;
  // Detach connections from peers first so nothing re-enters session logic
  // while the stack resets, then let peers_.clear() cancel every timer.
  for (auto& peer : peers_) {
    if (peer->conn != nullptr) {
      peer->conn->set_callbacks({});
      peer->conn = nullptr;
    }
  }
  peers_.clear();
  bfd_.reset();
  // The BFD demux handler captured the manager just destroyed; park a sink
  // in its place so a late BFD frame from a still-transmitting peer cannot
  // reach it (the next start() binds a fresh manager).
  if (config_.enable_bfd) {
    bind_udp(bfd::kBfdPort,
             [](ip::Ipv4Addr, ip::Ipv4Addr, const transport::UdpHeader&,
                std::span<const std::uint8_t>) {});
  }
  adj_rib_in_.clear();
  loc_rib_.clear();
  tcp().shutdown();
  // Learned routes die with the control plane; connected routes are
  // interface configuration and survive the reboot.
  std::vector<ip::Ipv4Prefix> learned;
  for (const ip::Route* r : routes().sorted_routes()) {
    if (r->proto == ip::RouteProto::kBgp) learned.push_back(r->prefix);
  }
  for (const auto& prefix : learned) routes().remove(prefix);
}

void BgpRouter::drain() {
  if (draining_) return;
  draining_ = true;
  log(sim::LogLevel::kInfo, "draining for maintenance");
  // Withdraw the world: advertisement_for() now returns nothing, so marking
  // every advertised prefix pending makes flush_peer() emit pure withdrawals.
  // Neighbors drop this router from their ECMP sets and re-route; our own
  // RIB is untouched so in-flight traffic keeps forwarding until the reboot.
  for (auto& peer : peers_) {
    if (peer->state != SessionState::kEstablished) continue;
    for (const auto& [prefix, path] : peer->advertised) {
      peer->pending.insert(prefix);
    }
    flush_peer(*peer);
  }
}

void BgpRouter::start_peer(Peer& peer) {
  if (peer.state != SessionState::kIdle) return;
  // Deterministic tie-break: the numerically lower address actively opens.
  if (peer.cfg.local_addr < peer.cfg.peer_addr) {
    peer.state = SessionState::kConnect;
    transport::TcpConnection& conn = tcp().connect(
        peer.cfg.local_addr,
        static_cast<std::uint16_t>(kEphemeralBase + peer.index),
        peer.cfg.peer_addr, kBgpPort, transport::TcpConnection::Callbacks{},
        transport::TcpTuning{.rto = sim::Duration::millis(250),
                             .max_retransmits = 3});
    attach_connection(peer, conn);
  }
  // Passive side stays Idle until the listener hands us a connection.
}

void BgpRouter::attach_connection(Peer& peer, transport::TcpConnection& conn) {
  peer.conn = &conn;
  if (peer.state == SessionState::kIdle) peer.state = SessionState::kConnect;
  conn.set_callbacks(transport::TcpConnection::Callbacks{
      .on_established =
          [this, &peer] {
            send_message(peer,
                         OpenMessage{config_.asn,
                                     static_cast<std::uint16_t>(
                                         config_.timers.hold.to_seconds()),
                                     config_.router_id});
            peer.state = SessionState::kOpenSent;
            peer.hold_timer->start(config_.timers.hold);
          },
      .on_data =
          [this, &peer](std::span<const std::uint8_t> data) {
            handle_stream(peer, data);
          },
      .on_closed = [this, &peer] { drop_session(peer, "transport closed"); },
  });
}

sim::Duration BgpRouter::jittered(Peer& peer, sim::Duration base) {
  // Uniform in [0.75, 1.0) of the base interval.
  std::uint64_t span = static_cast<std::uint64_t>(base.ns() / 4);
  return base - sim::Duration::nanos(static_cast<std::int64_t>(
                    span == 0 ? 0 : peer.rng.below(span)));
}

void BgpRouter::session_established(Peer& peer) {
  peer.state = SessionState::kEstablished;
  log(sim::LogLevel::kInfo, "BGP session with " + peer.cfg.peer_addr.str() +
                                " established");
  peer.keepalive_timer->start(jittered(peer, config_.timers.keepalive));
  peer.hold_timer->start(config_.timers.hold);
  // Initial full-table advertisement.
  for (const auto& [prefix, paths] : loc_rib_) peer.pending.insert(prefix);
  for (const auto& prefix : config_.originate) peer.pending.insert(prefix);
  flush_peer(peer);
}

void BgpRouter::drop_session(Peer& peer, std::string_view reason) {
  if (peer.state == SessionState::kIdle && peer.conn == nullptr) return;
  bool was_established = peer.state == SessionState::kEstablished;
  log(sim::LogLevel::kInfo, "BGP session with " + peer.cfg.peer_addr.str() +
                                " down (" + std::string(reason) + ")");
  peer.state = SessionState::kIdle;
  peer.hold_timer->stop();
  peer.keepalive_timer->stop();
  peer.mrai_timer->stop();
  peer.reader = MessageReader{};
  peer.advertised.clear();
  peer.pending.clear();
  if (peer.conn != nullptr) {
    auto* conn = peer.conn;
    peer.conn = nullptr;
    if (was_established && conn->established()) {
      conn->send(encode(NotificationMessage{}), net::TrafficClass::kBgpKeepalive);
    }
    tcp().destroy(*conn);
  }

  if (was_established) {
    ++stats_.sessions_flapped;
    if (config_.timers.damping_penalty > 0) {
      peer.damp_penalty = decayed_penalty(peer) + config_.timers.damping_penalty;
      peer.damp_updated = ctx_.now();
    }
  }
  if (was_established && on_session_down) {
    on_session_down(ctx_.now(), peer.cfg.peer_addr, reason);
  }
  if (was_established) {
    // Flush everything learned from this peer and reconverge.
    std::vector<ip::Ipv4Prefix> affected;
    for (auto& [prefix, paths] : adj_rib_in_) {
      if (paths.erase(peer.index) > 0) affected.push_back(prefix);
    }
    for (const auto& prefix : affected) {
      if (run_decision(prefix)) schedule_advertisements(prefix);
    }
  }
  schedule_retry(peer);
}

void BgpRouter::schedule_retry(Peer& peer) {
  auto jitter = sim::Duration::nanos(
      static_cast<std::int64_t>(peer.rng.below(100'000'000ull)));
  sim::Duration wait = config_.timers.connect_retry + jitter;
  if (config_.timers.damping_penalty > 0) {
    double pen = decayed_penalty(peer);
    if (pen >= config_.timers.damping_suppress) {
      // Defer the reconnect until the penalty would decay to the reuse
      // threshold: half_life * log2(penalty / reuse).
      double halves = std::log2(pen / config_.timers.damping_reuse);
      auto suppress = sim::Duration::nanos(static_cast<std::int64_t>(
          halves *
          static_cast<double>(config_.timers.damping_half_life.ns())));
      if (suppress > wait) {
        wait = suppress;
        ++stats_.retries_damped;
        log(sim::LogLevel::kInfo,
            "BGP session with " + peer.cfg.peer_addr.str() +
                " flap-damped; retry in " + wait.str());
      }
    }
  }
  peer.retry_timer->start(wait);
}

double BgpRouter::decayed_penalty(const Peer& peer) const {
  if (peer.damp_penalty <= 0.0) return 0.0;
  sim::Duration dt = ctx_.now() - peer.damp_updated;
  if (dt <= sim::Duration{}) return peer.damp_penalty;
  return peer.damp_penalty *
         std::exp2(-static_cast<double>(dt.ns()) /
                   static_cast<double>(config_.timers.damping_half_life.ns()));
}

double BgpRouter::peer_damping_penalty(ip::Ipv4Addr peer_addr) const {
  for (const auto& peer : peers_) {
    if (peer->cfg.peer_addr == peer_addr) return decayed_penalty(*peer);
  }
  return 0.0;
}

void BgpRouter::handle_stream(Peer& peer, std::span<const std::uint8_t> data) {
  peer.reader.append(data);
  try {
    while (auto msg = peer.reader.next()) {
      handle_message(peer, *msg);
      if (peer.state == SessionState::kIdle) return;  // dropped mid-stream
    }
  } catch (const util::CodecError&) {
    drop_session(peer, "malformed message");
  }
}

void BgpRouter::handle_message(Peer& peer, const BgpMessage& msg) {
  if (peer.state == SessionState::kEstablished) {
    peer.hold_timer->restart();
  }

  if (const auto* open = std::get_if<OpenMessage>(&msg)) {
    if (peer.cfg.peer_asn <= 65535 && open->asn != peer.cfg.peer_asn) {
      send_message(peer, NotificationMessage{2, 2});  // Bad Peer AS
      drop_session(peer, "ASN mismatch");
      return;
    }
    if (peer.state == SessionState::kOpenSent) {
      send_message(peer, KeepaliveMessage{});
      peer.state = SessionState::kOpenConfirm;
      peer.hold_timer->start(config_.timers.hold);
    }
    return;
  }

  if (std::holds_alternative<KeepaliveMessage>(msg)) {
    if (peer.state == SessionState::kOpenConfirm) session_established(peer);
    return;
  }

  if (std::holds_alternative<NotificationMessage>(msg)) {
    drop_session(peer, "notification received");
    return;
  }

  if (const auto* update = std::get_if<UpdateMessage>(&msg)) {
    if (peer.state != SessionState::kEstablished) return;
    ++stats_.updates_received;
    if (on_update_activity) on_update_activity(ctx_.now());
    process_update(peer, *update);
  }
}

void BgpRouter::send_message(Peer& peer, const BgpMessage& msg) {
  if (peer.conn == nullptr) return;
  net::TrafficClass tc = std::holds_alternative<UpdateMessage>(msg)
                             ? net::TrafficClass::kBgpUpdate
                             : net::TrafficClass::kBgpKeepalive;
  if (std::holds_alternative<UpdateMessage>(msg)) {
    ++stats_.updates_sent;
    if (on_update_activity) on_update_activity(ctx_.now());
  }
  peer.conn->send(encode(msg), tc);
}

void BgpRouter::process_update(Peer& peer, const UpdateMessage& update) {
  std::vector<ip::Ipv4Prefix> affected;

  for (const auto& prefix : update.withdrawn) {
    auto it = adj_rib_in_.find(prefix);
    if (it != adj_rib_in_.end() && it->second.erase(peer.index) > 0) {
      affected.push_back(prefix);
    }
  }

  if (update.has_nlri()) {
    // Receiver-side loop check: discard paths containing our own ASN.
    bool loop = std::find(update.as_path.begin(), update.as_path.end(),
                          config_.asn) != update.as_path.end();
    if (!loop) {
      for (const auto& prefix : update.nlri) {
        adj_rib_in_[prefix][peer.index] =
            PathInfo{update.as_path, update.next_hop, peer.index};
        affected.push_back(prefix);
      }
    }
  }

  for (const auto& prefix : affected) {
    if (run_decision(prefix)) schedule_advertisements(prefix);
  }
}

bool BgpRouter::run_decision(ip::Ipv4Prefix prefix) {
  std::vector<PathInfo> chosen;

  if (originates(prefix)) {
    chosen.push_back(PathInfo{{}, ip::Ipv4Addr(), SIZE_MAX});
  } else {
    auto it = adj_rib_in_.find(prefix);
    if (it != adj_rib_in_.end()) {
      std::size_t best_len = SIZE_MAX;
      for (const auto& [peer_index, path] : it->second) {
        if (peers_[peer_index]->state != SessionState::kEstablished) continue;
        best_len = std::min(best_len, path.as_path.size());
      }
      for (const auto& [peer_index, path] : it->second) {
        if (peers_[peer_index]->state != SessionState::kEstablished) continue;
        if (path.as_path.size() == best_len &&
            (config_.ecmp || chosen.empty())) {
          chosen.push_back(path);
        }
      }
    }
  }

  auto same = [](const std::vector<PathInfo>& a, const std::vector<PathInfo>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].peer_index != b[i].peer_index ||
          a[i].next_hop != b[i].next_hop || a[i].as_path != b[i].as_path) {
        return false;
      }
    }
    return true;
  };

  auto it = loc_rib_.find(prefix);
  if (it != loc_rib_.end() && same(it->second, chosen)) return false;
  if (it == loc_rib_.end() && chosen.empty()) return false;

  if (chosen.empty()) {
    loc_rib_.erase(prefix);
  } else {
    loc_rib_[prefix] = chosen;
  }

  // Install into the forwarding table (originated prefixes are connected).
  if (!originates(prefix)) {
    // Static WCMP: when weighted path selection is enabled, each next hop
    // carries the configured capacity of its egress link (Mb/s) so the
    // weighted rendezvous pick splits flows capacity-proportionally across
    // a mixed-speed ECMP group.
    const bool wcmp = path_select() != util::PathSelect::kHrw;
    std::vector<ip::NextHop> nexthops;
    for (const auto& path : (chosen.empty() ? std::vector<PathInfo>{} : chosen)) {
      std::uint32_t port_number = egress_port_for(path.next_hop);
      if (port_number == 0) continue;
      ip::NextHop nh{path.next_hop, port_number};
      if (wcmp) {
        if (const net::Link* l = port(port_number).link(); l != nullptr) {
          nh.weight = static_cast<std::uint32_t>(std::max<std::uint64_t>(
              1, l->params().bandwidth_bps / 1'000'000));
        }
      }
      nexthops.push_back(nh);
    }
    const ip::Route* before = routes().exact(prefix);
    bool had = before != nullptr && before->proto == ip::RouteProto::kBgp;
    if (nexthops.empty()) {
      if (had) {
        routes().remove(prefix);
        note_rib_change();
      }
    } else {
      if (!had || before->nexthops != [&] {
            auto sorted = nexthops;
            std::sort(sorted.begin(), sorted.end());
            return sorted;
          }()) {
        if (wcmp) {
          for (const ip::NextHop& nh : nexthops) {
            const net::Port& eg = port(nh.port);
            if (eg.connected()) eg.link()->note_weight_update(eg);
          }
        }
        routes().set(prefix, ip::RouteProto::kBgp, nexthops);
        note_rib_change();
      }
    }
  }
  return true;
}

void BgpRouter::schedule_advertisements(ip::Ipv4Prefix prefix) {
  for (auto& peer : peers_) {
    peer->pending.insert(prefix);
    flush_peer(*peer);
  }
}

void BgpRouter::flush_peer(Peer& peer) {
  if (peer.state != SessionState::kEstablished) return;
  if (peer.mrai_timer->running()) return;  // batched until MRAI fires

  UpdateMessage withdraw_msg;
  // Group NLRI by identical (AS path, next hop).
  std::map<std::pair<std::vector<std::uint32_t>, std::uint32_t>,
           std::vector<ip::Ipv4Prefix>>
      groups;

  for (const auto& prefix : peer.pending) {
    auto want = advertisement_for(peer, prefix);
    auto have = peer.advertised.find(prefix);
    if (want.has_value()) {
      if (have == peer.advertised.end() || have->second != want->as_path) {
        groups[{want->as_path, want->next_hop.value()}].push_back(prefix);
        peer.advertised[prefix] = want->as_path;
      }
    } else if (have != peer.advertised.end()) {
      withdraw_msg.withdrawn.push_back(prefix);
      peer.advertised.erase(have);
    }
  }
  peer.pending.clear();

  bool sent = false;
  if (!withdraw_msg.withdrawn.empty()) {
    send_message(peer, withdraw_msg);
    sent = true;
  }
  for (auto& [key, nlri] : groups) {
    UpdateMessage m;
    m.as_path = key.first;
    m.next_hop = ip::Ipv4Addr(key.second);
    m.nlri = std::move(nlri);
    send_message(peer, m);
    sent = true;
  }

  if (sent && config_.timers.mrai > sim::Duration{}) {
    peer.mrai_timer->start(config_.timers.mrai);
  }
}

std::optional<BgpRouter::PathInfo> BgpRouter::advertisement_for(
    const Peer& peer, ip::Ipv4Prefix prefix) const {
  if (draining_) return std::nullopt;  // cost-out: withdraw everything
  PathInfo out;
  if (originates(prefix)) {
    out.as_path = {config_.asn};
    out.next_hop = peer.cfg.local_addr;
    return out;
  }
  const PathInfo* best = best_path(prefix);
  if (best == nullptr) return std::nullopt;
  if (best->peer_index == peer.index) return std::nullopt;  // no echo
  // Sender-side loop suppression: with the RFC 7938 ASN plan this prevents
  // valley advertisements (e.g. re-advertising a spine-learned path upward).
  if (std::find(best->as_path.begin(), best->as_path.end(),
                peer.cfg.peer_asn) != best->as_path.end()) {
    return std::nullopt;
  }
  out.as_path.reserve(best->as_path.size() + 1);
  out.as_path.push_back(config_.asn);
  out.as_path.insert(out.as_path.end(), best->as_path.begin(),
                     best->as_path.end());
  out.next_hop = peer.cfg.local_addr;
  return out;
}

const BgpRouter::PathInfo* BgpRouter::best_path(ip::Ipv4Prefix prefix) const {
  auto it = loc_rib_.find(prefix);
  if (it == loc_rib_.end() || it->second.empty()) return nullptr;
  return &it->second.front();
}

void BgpRouter::note_rib_change() {
  ++stats_.rib_changes;
  if (on_rib_change) on_rib_change(ctx_.now());
}

bool BgpRouter::originates(ip::Ipv4Prefix prefix) const {
  return std::find(config_.originate.begin(), config_.originate.end(),
                   prefix) != config_.originate.end();
}

std::uint32_t BgpRouter::egress_port_for(ip::Ipv4Addr next_hop) const {
  const ip::Route* r = routes().lookup(next_hop);
  if (r == nullptr || r->proto != ip::RouteProto::kConnected) return 0;
  return r->nexthops.front().port;
}

void BgpRouter::on_port_down(net::Port& port) {
  // Fast external fallover: sessions whose local address lives on the downed
  // interface go down immediately (the millisecond-scale local detection the
  // paper describes in Section IV.A).
  auto addr = port_addr(port.number());
  if (!addr.has_value()) return;
  for (auto& peer : peers_) {
    if (peer->cfg.local_addr == *addr) {
      if (config_.enable_bfd && bfd_ != nullptr) {
        if (auto* s = bfd_->find(peer->cfg.peer_addr)) s->stop();
      }
      drop_session(*peer, "interface down");
      peer->retry_timer->stop();  // pointless to retry into a dead port
    }
  }
}

void BgpRouter::on_port_up(net::Port& port) {
  auto addr = port_addr(port.number());
  if (!addr.has_value()) return;
  for (auto& peer : peers_) {
    if (peer->cfg.local_addr == *addr) {
      if (config_.enable_bfd && bfd_ != nullptr) {
        if (auto* s = bfd_->find(peer->cfg.peer_addr)) s->start();
      }
      schedule_retry(*peer);
    }
  }
}

BgpRouter::SessionState BgpRouter::session_state(ip::Ipv4Addr peer) const {
  for (const auto& p : peers_) {
    if (p->cfg.peer_addr == peer) return p->state;
  }
  return SessionState::kIdle;
}

std::size_t BgpRouter::established_sessions() const {
  std::size_t n = 0;
  for (const auto& p : peers_) {
    if (p->state == SessionState::kEstablished) ++n;
  }
  return n;
}

namespace {
std::string_view state_name(BgpRouter::SessionState s) {
  switch (s) {
    case BgpRouter::SessionState::kIdle: return "Idle";
    case BgpRouter::SessionState::kConnect: return "Connect";
    case BgpRouter::SessionState::kOpenSent: return "OpenSent";
    case BgpRouter::SessionState::kOpenConfirm: return "OpenConfirm";
    case BgpRouter::SessionState::kEstablished: return "Established";
  }
  return "?";
}
}  // namespace

std::string BgpRouter::summary_text() const {
  std::string out = "BGP router identifier " + std::to_string(config_.router_id) +
                    ", local AS number " + std::to_string(config_.asn) + "\n";
  out += "Neighbor         AS      State        PfxRcvd\n";
  for (const auto& p : peers_) {
    std::size_t prefixes = 0;
    for (const auto& [prefix, paths] : adj_rib_in_) {
      prefixes += paths.contains(p->index) ? 1 : 0;
    }
    char line[96];
    std::snprintf(line, sizeof(line), "%-16s %-7u %-12s %zu\n",
                  p->cfg.peer_addr.str().c_str(), p->cfg.peer_asn,
                  std::string(state_name(p->state)).c_str(), prefixes);
    out += line;
  }
  return out;
}

std::string BgpRouter::config_text() const {
  std::string out;
  out += "frr version 10.0\n";
  out += "frr defaults datacenter\n";
  out += "hostname " + name() + "\n";
  out += "log file /var/log/frr/bgpd.log\n";
  out += "log timestamp precision 3\n";
  out += "no ipv6 forwarding\n";
  out += "router bgp " + std::to_string(config_.asn) + "\n";
  out += " timers bgp " +
         std::to_string(static_cast<long long>(config_.timers.keepalive.to_seconds())) +
         " " +
         std::to_string(static_cast<long long>(config_.timers.hold.to_seconds())) +
         "\n";
  for (const auto& n : config_.neighbors) {
    out += " neighbor " + n.peer_addr.str() + " remote-as " +
           std::to_string(n.peer_asn) + "\n";
    if (config_.enable_bfd) {
      out += " neighbor " + n.peer_addr.str() + " bfd\n";
    }
  }
  out += " address-family ipv4 unicast\n";
  for (const auto& p : config_.originate) {
    out += "  network " + p.str() + "\n";
  }
  if (config_.ecmp) out += "  maximum-paths 64\n";
  out += " exit-address-family\n";
  if (config_.enable_bfd) {
    out += "bfd\n profile lowerIntervals\n  transmit-interval " +
           std::to_string(static_cast<long long>(config_.bfd.tx_interval.to_millis())) +
           "\n";
    for (const auto& n : config_.neighbors) {
      out += " peer " + n.peer_addr.str() + "\n  profile lowerIntervals\n";
    }
  }
  return out;
}

}  // namespace mrmtp::bgp
