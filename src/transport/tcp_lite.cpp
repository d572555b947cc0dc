#include "transport/tcp_lite.hpp"

#include <algorithm>
#include <cassert>

namespace mrmtp::transport {

namespace {

constexpr std::uint8_t kFlagFin = 0x01;
constexpr std::uint8_t kFlagSyn = 0x02;
constexpr std::uint8_t kFlagRst = 0x04;
constexpr std::uint8_t kFlagAck = 0x10;
constexpr std::uint8_t kFlagEce = 0x40;
constexpr std::uint8_t kFlagCwr = 0x80;

constexpr std::uint32_t kInitialSeq = 1000;

/// Signed sequence-space comparison (a - b).
std::int32_t seq_diff(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b);
}

/// Per-connection jitter seed from the 4-tuple.
std::uint64_t tuple_seed(ip::Ipv4Addr local, std::uint16_t lport,
                         ip::Ipv4Addr remote, std::uint16_t rport) {
  std::uint64_t s = (static_cast<std::uint64_t>(local.value()) << 32) |
                    remote.value();
  return s ^ ((static_cast<std::uint64_t>(lport) << 16) | rport) * 0x9e3779b9ull;
}

}  // namespace

net::Buffer TcpSegment::serialize() const {
  net::BufferWriter w(kHeaderSize + payload.size());
  w.u16(src_port);
  w.u16(dst_port);
  w.u32(seq);
  w.u32(ack);
  std::uint8_t flag_bits = 0;
  if (flags.fin) flag_bits |= kFlagFin;
  if (flags.syn) flag_bits |= kFlagSyn;
  if (flags.rst) flag_bits |= kFlagRst;
  if (flags.ack) flag_bits |= kFlagAck;
  if (flags.ece) flag_bits |= kFlagEce;
  if (flags.cwr) flag_bits |= kFlagCwr;
  w.u8(0x80);  // data offset = 8 32-bit words (32 bytes)
  w.u8(flag_bits);
  w.u16(0xffff);  // window (flow control not modeled)
  w.u16(0);       // checksum (links are reliable unless impaired)
  w.u16(0);       // urgent
  // Timestamp option as real stacks send on every segment: NOP NOP TS(10).
  w.u8(1);
  w.u8(1);
  w.u8(8);
  w.u8(10);
  w.u32(0);  // TSval (not used by the simulation)
  w.u32(0);  // TSecr
  w.bytes(payload);
  return w.take();
}

TcpSegment TcpSegment::parse(std::span<const std::uint8_t> data) {
  util::BufReader r(data);
  TcpSegment s;
  s.src_port = r.u16();
  s.dst_port = r.u16();
  s.seq = r.u32();
  s.ack = r.u32();
  std::uint8_t offset = r.u8();
  std::uint8_t flag_bits = r.u8();
  r.u16();  // window
  r.u16();  // checksum
  r.u16();  // urgent
  std::size_t header_len = static_cast<std::size_t>(offset >> 4) * 4;
  if (header_len < 20 || header_len > data.size()) {
    throw util::CodecError("TCP: bad data offset");
  }
  r.skip(header_len - 20);  // options
  s.flags.fin = (flag_bits & kFlagFin) != 0;
  s.flags.syn = (flag_bits & kFlagSyn) != 0;
  s.flags.rst = (flag_bits & kFlagRst) != 0;
  s.flags.ack = (flag_bits & kFlagAck) != 0;
  s.flags.ece = (flag_bits & kFlagEce) != 0;
  s.flags.cwr = (flag_bits & kFlagCwr) != 0;
  auto rest = r.rest();
  s.payload.assign(rest.begin(), rest.end());
  return s;
}

TcpConnection::TcpConnection(IpSender& ip, ip::Ipv4Addr local,
                             std::uint16_t local_port, ip::Ipv4Addr remote,
                             std::uint16_t remote_port, Callbacks callbacks,
                             TcpTuning tuning)
    : ip_(ip),
      local_(local),
      local_port_(local_port),
      remote_(remote),
      remote_port_(remote_port),
      callbacks_(std::move(callbacks)),
      tuning_(tuning),
      rto_timer_(ip.sim().sched, [this] { retransmit(); }),
      ack_timer_(ip.sim().sched, [this] {
        if (ack_pending_ && state_ == State::kEstablished) {
          ack_pending_ = false;
          emit({.ack = true}, snd_nxt_, {}, net::TrafficClass::kTcpAck);
        }
      }),
      jitter_rng_(tuple_seed(local, local_port, remote, remote_port)),
      cwnd_(static_cast<std::uint64_t>(tuning.init_cwnd_segments) *
            tuning.mss),
      ssthresh_(cwnd_) {}

TcpConnection::~TcpConnection() = default;

void TcpConnection::connect() {
  state_ = State::kSynSent;
  snd_una_ = kInitialSeq;
  snd_nxt_ = kInitialSeq + 1;
  emit({.syn = true}, kInitialSeq, {}, net::TrafficClass::kTcpAck);
  arm_rto();
}

void TcpConnection::listen() { state_ = State::kListen; }

void TcpConnection::send(std::vector<std::uint8_t> data,
                         net::TrafficClass traffic_class) {
  if (data.empty() || state_ == State::kClosed) return;
  send_queue_.push_back(SendChunk{std::move(data), traffic_class, 0});
  if (state_ == State::kEstablished) try_send_data();
}

void TcpConnection::reset() {
  if (state_ == State::kClosed) return;
  emit({.ack = true, .rst = true}, snd_nxt_, {}, net::TrafficClass::kTcpAck);
  rto_timer_.stop();
  ack_timer_.stop();
  state_ = State::kClosed;
}

void TcpConnection::handle_segment(const TcpSegment& seg, bool ce) {
  if (seg.flags.rst) {
    if (state_ != State::kClosed) fail_connection();
    return;
  }

  switch (state_) {
    case State::kClosed:
      return;

    case State::kListen:
      if (seg.flags.syn && !seg.flags.ack) {
        rcv_nxt_ = seg.seq + 1;
        snd_una_ = kInitialSeq;
        snd_nxt_ = kInitialSeq + 1;
        state_ = State::kSynReceived;
        emit({.syn = true, .ack = true}, kInitialSeq, {},
             net::TrafficClass::kTcpAck);
        arm_rto();
      }
      return;

    case State::kSynSent:
      if (seg.flags.syn && seg.flags.ack && seg.ack == snd_nxt_) {
        rcv_nxt_ = seg.seq + 1;
        snd_una_ = seg.ack;
        state_ = State::kEstablished;
        retransmit_count_ = 0;
        rto_timer_.stop();
        emit({.ack = true}, snd_nxt_, {}, net::TrafficClass::kTcpAck);
        if (callbacks_.on_established) callbacks_.on_established();
        try_send_data();
      }
      return;

    case State::kSynReceived:
      if (seg.flags.ack && seg.ack == snd_nxt_) {
        snd_una_ = seg.ack;
        state_ = State::kEstablished;
        retransmit_count_ = 0;
        rto_timer_.stop();
        if (callbacks_.on_established) callbacks_.on_established();
        try_send_data();
      }
      return;

    case State::kEstablished:
      break;
  }

  // --- Established ---
  if (seg.flags.ack && seg.ack == snd_una_ && snd_una_ != snd_nxt_ &&
      seg.payload.empty()) {
    // Duplicate ACK while data is in flight: the receiver is missing the
    // head segment. Three of them trigger fast retransmit (RFC 5681-style)
    // without waiting for the RTO.
    if (++dup_acks_ == 3) {
      dup_acks_ = 0;
      in_recovery_ = true;
      recover_point_ = snd_nxt_;
      // Classic multiplicative decrease on the loss signal.
      ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * tuning_.mss);
      cwnd_ = ssthresh_;
      resend_head();
      arm_rto();
    }
  }
  if (seg.flags.ack && seq_diff(seg.ack, snd_una_) > 0 &&
      seq_diff(seg.ack, snd_nxt_) <= 0) {
    std::uint32_t acked = seg.ack - snd_una_;
    snd_una_ = seg.ack;
    retransmit_count_ = 0;
    dup_acks_ = 0;
    // Congestion-window growth plus the DCTCP observation window: track the
    // ECE-acked byte fraction, and once per ~RTT (when the window end is
    // acked) fold it into alpha and apply the fractional reduction.
    total_acked_ += acked;
    if (seg.flags.ece && tuning_.ecn_enabled) ce_acked_ += acked;
    if (cwnd_ < ssthresh_) {
      cwnd_ += std::min<std::uint64_t>(acked, tuning_.mss);
    } else {
      cwnd_ += std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(tuning_.mss) * tuning_.mss / cwnd_);
    }
    if (seq_diff(seg.ack, dctcp_window_end_) >= 0) {
      if (tuning_.ecn_enabled && total_acked_ > 0) {
        double f = static_cast<double>(ce_acked_) /
                   static_cast<double>(total_acked_);
        dctcp_alpha_ =
            (1.0 - tuning_.dctcp_g) * dctcp_alpha_ + tuning_.dctcp_g * f;
        if (ce_acked_ > 0) {
          auto cut = static_cast<std::uint64_t>(
              static_cast<double>(cwnd_) * (1.0 - dctcp_alpha_ / 2.0));
          cwnd_ = std::max<std::uint64_t>(tuning_.mss, cut);
          ssthresh_ = cwnd_;
          cwr_pending_ = true;
        }
      }
      ce_acked_ = 0;
      total_acked_ = 0;
      dctcp_window_end_ = snd_nxt_;
    }
    // Release acknowledged bytes from the front of the send queue.
    std::uint32_t to_drop = acked;
    while (to_drop > 0 && !send_queue_.empty()) {
      SendChunk& front = send_queue_.front();
      std::uint32_t avail = static_cast<std::uint32_t>(front.data.size());
      if (avail <= to_drop) {
        to_drop -= avail;
        send_queue_.pop_front();
      } else {
        front.data.erase(front.data.begin(),
                         front.data.begin() + static_cast<long>(to_drop));
        front.consumed = front.consumed > to_drop ? front.consumed - to_drop : 0;
        to_drop = 0;
      }
    }
    if (in_recovery_) {
      if (seq_diff(snd_una_, recover_point_) < 0) {
        // Partial ACK: the next head segment was also lost; resend it (the
        // acked bytes are already popped, so the queue front is the head).
        resend_head();
      } else {
        in_recovery_ = false;
      }
    }
    if (snd_una_ == snd_nxt_) {
      rto_timer_.stop();
    } else {
      arm_rto();
    }
  }

  if (!seg.payload.empty()) {
    // DCTCP echo: every ACK from here on reports the CE state of the most
    // recent data segment until it changes.
    if (tuning_.ecn_enabled) ce_to_echo_ = ce;
    if (seg.seq == rcv_nxt_) {
      rcv_nxt_ += static_cast<std::uint32_t>(seg.payload.size());
      schedule_ack();
      if (callbacks_.on_data) {
        callbacks_.on_data(std::span<const std::uint8_t>(seg.payload));
      }
      if (state_ == State::kClosed) return;  // callback tore us down
    } else {
      // Duplicate or out-of-order: drop and ACK immediately so the sender's
      // go-back-N recovers.
      ack_pending_ = false;
      ack_timer_.stop();
      emit({.ack = true}, snd_nxt_, {}, net::TrafficClass::kTcpAck);
    }
  }

  if (seg.flags.fin) {
    rcv_nxt_ = seg.seq + 1;
    emit({.ack = true}, snd_nxt_, {}, net::TrafficClass::kTcpAck);
    fail_connection();
    return;
  }

  try_send_data();
}

void TcpConnection::emit(TcpFlags flags, std::uint32_t seq,
                         std::vector<std::uint8_t> payload,
                         net::TrafficClass tc) {
  if (flags.ack && ce_to_echo_) flags.ece = true;
  if (!payload.empty() && cwr_pending_) {
    flags.cwr = true;
    cwr_pending_ = false;
  }
  TcpSegment seg;
  seg.src_port = local_port_;
  seg.dst_port = remote_port_;
  seg.seq = seq;
  seg.ack = flags.ack ? rcv_nxt_ : 0;
  seg.flags = flags;
  seg.payload = std::move(payload);
  ip_.send_ip(local_, remote_, ip::IpProto::kTcp, seg.serialize(), tc);
}

void TcpConnection::try_send_data() {
  if (state_ != State::kEstablished) return;
  // Bytes of the queue already in flight (sent but unacked).
  std::uint32_t in_flight = snd_nxt_ - snd_una_;

  while (in_flight < cwnd_) {
    // Locate the first unsent byte: position `in_flight` within the queue.
    std::uint32_t offset = in_flight;
    std::vector<std::uint8_t> segment_data;
    net::TrafficClass tc = net::TrafficClass::kOther;
    bool first = true;
    for (const SendChunk& chunk : send_queue_) {
      std::uint32_t sz = static_cast<std::uint32_t>(chunk.data.size());
      if (offset >= sz) {
        offset -= sz;
        continue;
      }
      if (first) {
        tc = chunk.traffic_class;
        first = false;
      }
      std::size_t take = std::min<std::size_t>(sz - offset,
                                               tuning_.mss - segment_data.size());
      segment_data.insert(segment_data.end(),
                          chunk.data.begin() + static_cast<long>(offset),
                          chunk.data.begin() + static_cast<long>(offset + take));
      offset = 0;
      if (segment_data.size() >= tuning_.mss) break;
    }
    if (segment_data.empty()) break;

    // Piggyback any pending ACK.
    ack_pending_ = false;
    ack_timer_.stop();
    std::uint32_t seg_len = static_cast<std::uint32_t>(segment_data.size());
    emit({.ack = true}, snd_nxt_, std::move(segment_data), tc);
    snd_nxt_ += seg_len;
    in_flight += seg_len;
  }

  if (snd_una_ != snd_nxt_ && !rto_timer_.running()) arm_rto();
}

void TcpConnection::retransmit() {
  if (state_ == State::kClosed) return;
  if (retransmit_count_ >= tuning_.max_retransmits) {
    fail_connection();
    return;
  }
  ++retransmit_count_;

  if (state_ == State::kSynSent) {
    emit({.syn = true}, snd_una_, {}, net::TrafficClass::kTcpAck);
  } else if (state_ == State::kSynReceived) {
    emit({.syn = true, .ack = true}, snd_una_, {}, net::TrafficClass::kTcpAck);
  } else {
    // RTO = heavy congestion signal: collapse to one segment.
    ssthresh_ = std::max<std::uint64_t>(cwnd_ / 2, 2 * tuning_.mss);
    cwnd_ = tuning_.mss;
    resend_head();
  }
  arm_rto();
}

void TcpConnection::resend_head() {
  // Resend one MSS starting at snd_una_ (go-back-N head).
  std::vector<std::uint8_t> segment_data;
  net::TrafficClass tc = net::TrafficClass::kOther;
  bool first = true;
  for (const SendChunk& chunk : send_queue_) {
    if (first) {
      tc = chunk.traffic_class;
      first = false;
    }
    std::size_t take =
        std::min<std::size_t>(chunk.data.size(), tuning_.mss - segment_data.size());
    segment_data.insert(segment_data.end(), chunk.data.begin(),
                        chunk.data.begin() + static_cast<long>(take));
    if (segment_data.size() >= tuning_.mss) break;
  }
  std::uint32_t max_resend = snd_nxt_ - snd_una_;
  if (segment_data.size() > max_resend) segment_data.resize(max_resend);
  if (!segment_data.empty()) {
    emit({.ack = true}, snd_una_, std::move(segment_data), tc);
  }
}

sim::Duration TcpConnection::backoff_rto(const TcpTuning& tuning,
                                         int retransmits, sim::Rng& rng) {
  // Exponential backoff on consecutive retransmissions, clamped at rto_max.
  sim::Duration rto = tuning.rto;
  for (int i = 0; i < retransmits && rto < tuning.rto_max; ++i) rto = rto * 2;
  if (rto > tuning.rto_max) rto = tuning.rto_max;
  if (tuning.rto_jitter > 0) {
    // Uniform factor in [1 - j, 1 + j], quantized to ppm.
    double u =
        static_cast<double>(rng.below(2'000'001)) / 1'000'000.0 - 1.0;
    double factor = 1.0 + tuning.rto_jitter * u;
    rto = sim::Duration::nanos(static_cast<std::int64_t>(
        static_cast<double>(rto.ns()) * factor));
  }
  return rto;
}

void TcpConnection::arm_rto() {
  rto_timer_.start(backoff_rto(tuning_, retransmit_count_, jitter_rng_));
}

void TcpConnection::schedule_ack() {
  ack_pending_ = true;
  if (!ack_timer_.running()) ack_timer_.start(tuning_.delayed_ack);
}

void TcpConnection::fail_connection() {
  if (state_ == State::kClosed) return;
  rto_timer_.stop();
  ack_timer_.stop();
  state_ = State::kClosed;
  if (callbacks_.on_closed) callbacks_.on_closed();
}

void TcpStack::listen(std::uint16_t port, Acceptor on_accept) {
  listeners_.push_back(Listener{port, std::move(on_accept)});
}

TcpConnection& TcpStack::connect(ip::Ipv4Addr local, std::uint16_t local_port,
                                 ip::Ipv4Addr remote, std::uint16_t remote_port,
                                 TcpConnection::Callbacks callbacks,
                                 TcpTuning tuning) {
  conns_.push_back(std::make_unique<TcpConnection>(
      ip_, local, local_port, remote, remote_port, std::move(callbacks),
      tuning));
  conns_.back()->connect();
  return *conns_.back();
}

void TcpStack::handle_packet(ip::Ipv4Addr src, ip::Ipv4Addr dst,
                             std::span<const std::uint8_t> payload, bool ce) {
  TcpSegment seg = TcpSegment::parse(payload);
  TcpConnection* conn = find(dst, seg.dst_port, src, seg.src_port);
  if (conn == nullptr && seg.flags.syn && !seg.flags.ack) {
    for (const Listener& l : listeners_) {
      if (l.port == seg.dst_port) {
        conns_.push_back(std::make_unique<TcpConnection>(
            ip_, dst, seg.dst_port, src, seg.src_port,
            TcpConnection::Callbacks{}));
        conn = conns_.back().get();
        conn->listen();
        l.acceptor(*conn);
        break;
      }
    }
  }
  if (conn != nullptr) conn->handle_segment(seg, ce);
}

void TcpStack::destroy(TcpConnection& conn) {
  // Deferred so callers may destroy from within the connection's own
  // callback; the connection is silenced immediately.
  conn.reset();
  TcpConnection* target = &conn;
  ip_.sim().sched.schedule_after(sim::Duration::nanos(0), [this, target] {
    std::erase_if(conns_, [target](const std::unique_ptr<TcpConnection>& c) {
      return c.get() == target;
    });
  });
}

void TcpStack::shutdown() {
  // Silence callbacks first: resetting must not re-enter protocol code on a
  // node that is mid-poweroff.
  for (auto& c : conns_) {
    c->set_callbacks({});
    c->reset();
  }
  conns_.clear();
  listeners_.clear();
}

TcpConnection* TcpStack::find(ip::Ipv4Addr local, std::uint16_t local_port,
                              ip::Ipv4Addr remote, std::uint16_t remote_port) {
  for (auto& c : conns_) {
    if (c->local_addr() == local && c->local_port() == local_port &&
        c->remote_addr() == remote && c->remote_port() == remote_port) {
      return c.get();
    }
  }
  return nullptr;
}

}  // namespace mrmtp::transport
