#include "bfd/bfd.hpp"

namespace mrmtp::bfd {

std::string_view to_string(BfdState s) {
  switch (s) {
    case BfdState::kAdminDown: return "AdminDown";
    case BfdState::kDown: return "Down";
    case BfdState::kInit: return "Init";
    case BfdState::kUp: return "Up";
  }
  return "?";
}

std::vector<std::uint8_t> BfdPacket::serialize() const {
  util::BufWriter w(kSize);
  w.u8(0x20);  // version 1, diag 0
  w.u8(static_cast<std::uint8_t>(static_cast<std::uint8_t>(state) << 6));
  w.u8(detect_mult);
  w.u8(kSize);
  w.u32(my_discriminator);
  w.u32(your_discriminator);
  w.u32(desired_min_tx_us);
  w.u32(required_min_rx_us);
  w.u32(0);  // required min echo rx: echo mode unused
  return w.take();
}

BfdPacket BfdPacket::parse(std::span<const std::uint8_t> data) {
  util::BufReader r(data);
  BfdPacket p;
  std::uint8_t vers_diag = r.u8();
  if ((vers_diag >> 5) != 1) throw util::CodecError("BFD: bad version");
  p.state = static_cast<BfdState>(r.u8() >> 6);
  p.detect_mult = r.u8();
  std::uint8_t length = r.u8();
  if (length != kSize) throw util::CodecError("BFD: bad length");
  p.my_discriminator = r.u32();
  p.your_discriminator = r.u32();
  p.desired_min_tx_us = r.u32();
  p.required_min_rx_us = r.u32();
  r.u32();  // echo rx
  return p;
}

BfdSession::BfdSession(transport::L3Node& node, ip::Ipv4Addr local,
                       ip::Ipv4Addr peer, Config config,
                       StateCallback on_state_change,
                       std::uint32_t discriminator, std::uint64_t rng_seed)
    : node_(node),
      local_(local),
      peer_(peer),
      config_(config),
      on_state_change_(std::move(on_state_change)),
      discriminator_(discriminator),
      rng_(rng_seed),
      tx_timer_(node.sim().sched, [this] {
        arm_tx();
        send_control();
      }),
      detect_timer_(node.sim().sched, [this] {
        // Detection time expired without a control packet: neighbor dead.
        if (state_ == BfdState::kUp || state_ == BfdState::kInit) {
          set_state(BfdState::kDown);
        }
      }) {}

void BfdSession::start() {
  state_ = BfdState::kDown;
  arm_tx();
  send_control();
}

void BfdSession::arm_tx() {
  // RFC 5880 section 6.8.7: apply 75..100% jitter to the transmit interval
  // so control packets never self-synchronize.
  std::uint64_t span = static_cast<std::uint64_t>(config_.tx_interval.ns() / 4);
  sim::Duration interval =
      config_.tx_interval -
      sim::Duration::nanos(static_cast<std::int64_t>(
          span == 0 ? 0 : rng_.below(span)));
  tx_timer_.start(interval);
}

void BfdSession::stop() {
  tx_timer_.stop();
  detect_timer_.stop();
  state_ = BfdState::kAdminDown;
}

void BfdSession::handle_packet(const BfdPacket& pkt) {
  if (state_ == BfdState::kAdminDown) return;
  remote_discriminator_ = pkt.my_discriminator;

  switch (state_) {
    case BfdState::kDown:
      if (pkt.state == BfdState::kDown) {
        set_state(BfdState::kInit);
      } else if (pkt.state == BfdState::kInit) {
        set_state(BfdState::kUp);
      }
      break;
    case BfdState::kInit:
      if (pkt.state == BfdState::kInit || pkt.state == BfdState::kUp) {
        set_state(BfdState::kUp);
      }
      break;
    case BfdState::kUp:
      if (pkt.state == BfdState::kDown || pkt.state == BfdState::kAdminDown) {
        set_state(BfdState::kDown);
      }
      break;
    case BfdState::kAdminDown:
      break;
  }
  if (state_ == BfdState::kUp || state_ == BfdState::kInit) arm_detect();
}

void BfdSession::send_control() {
  BfdPacket pkt;
  pkt.state = state_;
  pkt.detect_mult = static_cast<std::uint8_t>(config_.detect_mult);
  pkt.my_discriminator = discriminator_;
  pkt.your_discriminator = remote_discriminator_;
  pkt.desired_min_tx_us =
      static_cast<std::uint32_t>(config_.tx_interval.to_micros());
  pkt.required_min_rx_us = pkt.desired_min_tx_us;
  node_.send_udp(local_, peer_, kBfdPort, kBfdPort, pkt.serialize(),
                 net::TrafficClass::kBfd);
}

void BfdSession::set_state(BfdState s) {
  if (s == state_) return;
  bool was_up = state_ == BfdState::kUp;
  state_ = s;
  if (s == BfdState::kUp) {
    arm_detect();
    if (on_state_change_) on_state_change_(true);
  } else if (was_up) {
    detect_timer_.stop();
    if (on_state_change_) on_state_change_(false);
  }
}

void BfdSession::arm_detect() {
  detect_timer_.start(config_.tx_interval * config_.detect_mult);
}

BfdManager::BfdManager(transport::L3Node& node) : node_(node) {
  node_.bind_udp(kBfdPort, [this](ip::Ipv4Addr src, ip::Ipv4Addr dst,
                                  const transport::UdpHeader& hdr,
                                  std::span<const std::uint8_t> payload) {
    (void)dst;
    (void)hdr;
    BfdSession* session = find(src);
    if (session == nullptr) return;
    try {
      session->handle_packet(BfdPacket::parse(payload));
    } catch (const util::CodecError&) {
      // Malformed control packets are dropped per RFC 5880 section 6.8.6.
    }
  });
}

BfdSession& BfdManager::create_session(ip::Ipv4Addr local, ip::Ipv4Addr peer,
                                       BfdSession::Config config,
                                       BfdSession::StateCallback on_change,
                                       std::uint64_t rng_seed) {
  sessions_.push_back(std::make_unique<BfdSession>(
      node_, local, peer, config, std::move(on_change), next_discriminator_++,
      rng_seed));
  return *sessions_.back();
}

BfdSession* BfdManager::find(ip::Ipv4Addr peer) {
  for (auto& s : sessions_) {
    if (s->peer() == peer) return s.get();
  }
  return nullptr;
}

}  // namespace mrmtp::bfd
