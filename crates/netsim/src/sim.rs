//! The discrete-event simulator and hub broadcast domain.
//!
//! All nodes hang off one shared segment (the paper's Fig-4 hub). When a
//! node transmits, the hub offers a copy of the frame to every *other*
//! attachment: the receiving link's loss model may drop it, its delay
//! model schedules the delivery time, and the receiving NIC filters by
//! destination address unless promiscuous. Execution is strictly ordered
//! by `(time, sequence)` so runs are exactly reproducible from the seed.

use crate::frag::fragment;
use crate::link::LinkParams;
use crate::node::{Action, Node, NodeCtx, NodeId, TimerToken};
use crate::packet::IpPacket;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceRecord};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Configuration for one node attachment.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Human-readable name used in traces and ladder diagrams.
    pub name: String,
    /// The node's IP address on the segment.
    pub ip: Ipv4Addr,
    /// Link delay/loss used for deliveries *to* this node.
    pub link: LinkParams,
    /// Whether the NIC accepts frames addressed to other hosts
    /// (IDS taps and sniffing attackers set this).
    pub promiscuous: bool,
}

impl NodeConfig {
    /// A non-promiscuous attachment with the given name/IP and a LAN link.
    pub fn new(name: impl Into<String>, ip: Ipv4Addr) -> NodeConfig {
        NodeConfig {
            name: name.into(),
            ip,
            link: LinkParams::default(),
            promiscuous: false,
        }
    }

    /// Sets the link parameters (builder-style).
    pub fn with_link(mut self, link: LinkParams) -> NodeConfig {
        self.link = link;
        self
    }

    /// Marks the NIC promiscuous (builder-style).
    pub fn promiscuous(mut self) -> NodeConfig {
        self.promiscuous = true;
        self
    }
}

#[derive(Debug)]
enum Queued {
    Deliver { dst: NodeId, pkt: IpPacket },
    Timer { node: NodeId, token: TimerToken },
    Start { node: NodeId },
}

struct HeapEntry {
    at: SimTime,
    seq: u64,
    event: Queued,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

struct Attachment {
    config: NodeConfig,
    node: Option<Box<dyn Node>>,
    rng: SimRng,
    started: bool,
}

/// The discrete-event network simulator.
///
/// # Examples
///
/// ```
/// use scidive_netsim::prelude::*;
/// use std::any::Any;
/// use std::net::Ipv4Addr;
///
/// struct Echo;
/// impl Node for Echo {
///     fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: IpPacket) {
///         let udp = pkt.decode_udp().unwrap();
///         ctx.send_udp(udp.dst_port, pkt.src, udp.src_port, udp.payload);
///     }
///     fn as_any(&self) -> &dyn Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn Any { self }
/// }
///
/// let mut sim = Simulator::new(7);
/// let a = Ipv4Addr::new(10, 0, 0, 1);
/// let b = Ipv4Addr::new(10, 0, 0, 2);
/// sim.add_node(NodeConfig::new("echo", b), Box::new(Echo));
/// let collector = Collector::new();
/// let frames = collector.handle();
/// sim.add_node(NodeConfig::new("tap", Ipv4Addr::new(10, 0, 0, 250)).promiscuous(),
///              Box::new(collector));
/// sim.inject(SimTime::ZERO, IpPacket::udp(a, 9, b, 9, b"ping".as_ref()));
/// sim.run_for(SimDuration::from_secs(1));
/// assert_eq!(frames.borrow().len(), 2); // request + echo reply
/// ```
pub struct Simulator {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<HeapEntry>>,
    attachments: Vec<Attachment>,
    rng: SimRng,
    trace: Trace,
    mtu: usize,
    delivered: u64,
    dropped: u64,
}

impl Simulator {
    /// Creates a simulator whose randomness derives from `seed`.
    pub fn new(seed: u64) -> Simulator {
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            attachments: Vec::new(),
            rng: SimRng::seed_from(seed),
            trace: Trace::new(),
            mtu: 1500,
            delivered: 0,
            dropped: 0,
        }
    }

    /// Sets the segment MTU; UDP datagrams larger than this are sent as
    /// IP fragments. Rounded down to a multiple of 8, minimum 8.
    pub fn set_mtu(&mut self, mtu: usize) {
        self.mtu = (mtu / 8).max(1) * 8;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Attaches a node to the segment and schedules its `on_start`.
    ///
    /// The node's RNG — the loss and delay draws of every delivery to it,
    /// and [`NodeCtx::rng`] for the node itself — is forked from the
    /// simulator's seed by the label `node:<name>` and the attach index.
    /// So a node's delivery times depend on its name and position, not
    /// on what kind of node it is: a passive tap attached under the same
    /// name at the same index sees the same frames at the same times
    /// whatever it does with them, and renaming it shifts them.
    pub fn add_node(&mut self, config: NodeConfig, node: Box<dyn Node>) -> NodeId {
        let id = NodeId(self.attachments.len());
        let rng = self
            .rng
            .fork_indexed(&format!("node:{}", config.name), id.0 as u64);
        self.attachments.push(Attachment {
            config,
            node: Some(node),
            rng,
            started: false,
        });
        self.push(self.now, Queued::Start { node: id });
        id
    }

    /// The name a node was attached with.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.attachments[id.0].config.name
    }

    /// The IP a node was attached with.
    pub fn node_ip(&self, id: NodeId) -> Ipv4Addr {
        self.attachments[id.0].config.ip
    }

    /// Looks up a node id by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.attachments
            .iter()
            .position(|a| a.config.name == name)
            .map(NodeId)
    }

    /// Downcasts a node to its concrete type for inspection.
    ///
    /// Returns `None` if the node is of a different type.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> Option<&T> {
        self.attachments[id.0]
            .node
            .as_ref()
            .and_then(|n| n.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`Simulator::node_as`].
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> Option<&mut T> {
        self.attachments[id.0]
            .node
            .as_mut()
            .and_then(|n| n.as_any_mut().downcast_mut::<T>())
    }

    /// Injects a packet onto the segment at the given time, as if sent by
    /// an unmodelled host (the packet's `src` field names the claimed
    /// sender).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn inject(&mut self, at: SimTime, pkt: IpPacket) {
        assert!(at >= self.now, "cannot inject into the past");
        self.transmit_at(at, None, pkt);
    }

    /// Runs until the event queue is exhausted or `deadline` is reached.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.at > deadline {
                break;
            }
            let Reverse(entry) = self.queue.pop().expect("peeked");
            self.now = entry.at;
            self.dispatch(entry.event);
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for a span of virtual time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now + d;
        self.run_until(deadline);
    }

    /// The full transmission trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total packet deliveries performed.
    pub fn delivered_count(&self) -> u64 {
        self.delivered
    }

    /// Total deliveries suppressed by link loss.
    pub fn dropped_count(&self) -> u64 {
        self.dropped
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, at: SimTime, event: Queued) {
        let seq = self.next_seq();
        self.queue.push(Reverse(HeapEntry { at, seq, event }));
    }

    /// Fans a transmitted packet out to all attachments other than the
    /// sender, applying fragmentation, loss and delay.
    fn transmit_at(&mut self, at: SimTime, sender: Option<NodeId>, pkt: IpPacket) {
        for piece in fragment(&pkt, self.mtu) {
            self.trace.push(TraceRecord {
                time: at,
                from: sender,
                from_name: sender
                    .map(|id| self.attachments[id.0].config.name.clone())
                    .unwrap_or_else(|| "<injected>".to_string()),
                packet: piece.clone(),
            });
            for idx in 0..self.attachments.len() {
                if Some(NodeId(idx)) == sender {
                    continue;
                }
                let accepts = {
                    let cfg = &self.attachments[idx].config;
                    cfg.promiscuous
                        || piece.dst == cfg.ip
                        || piece.dst == Ipv4Addr::BROADCAST
                };
                if !accepts {
                    continue;
                }
                let (lost, delay) = {
                    let att = &mut self.attachments[idx];
                    let lost = att.rng.chance(att.config.link.loss);
                    let delay = att.config.link.delay.sample(&mut att.rng);
                    (lost, delay)
                };
                if lost {
                    self.dropped += 1;
                    continue;
                }
                self.push(
                    at + delay,
                    Queued::Deliver {
                        dst: NodeId(idx),
                        pkt: piece.clone(),
                    },
                );
            }
        }
    }

    fn dispatch(&mut self, event: Queued) {
        match event {
            Queued::Start { node } => {
                if self.attachments[node.0].started {
                    return;
                }
                self.attachments[node.0].started = true;
                self.with_node(node, |node_impl, ctx| node_impl.on_start(ctx));
            }
            Queued::Deliver { dst, pkt } => {
                self.delivered += 1;
                self.with_node(dst, |node_impl, ctx| node_impl.on_packet(ctx, pkt));
            }
            Queued::Timer { node, token } => {
                self.with_node(node, |node_impl, ctx| node_impl.on_timer(ctx, token));
            }
        }
    }

    /// Runs a node callback with a fresh context, then applies the actions
    /// it buffered.
    fn with_node<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut NodeCtx<'_>),
    {
        let Some(mut node) = self.attachments[id.0].node.take() else {
            return;
        };
        let mut actions = Vec::new();
        {
            let att = &mut self.attachments[id.0];
            let mut ctx = NodeCtx {
                now: self.now,
                id,
                ip: att.config.ip,
                rng: &mut att.rng,
                actions: &mut actions,
            };
            f(node.as_mut(), &mut ctx);
        }
        self.attachments[id.0].node = Some(node);
        for action in actions {
            match action {
                Action::Send(pkt) => self.transmit_at(self.now, Some(id), pkt),
                Action::Timer(delay, token) => {
                    self.push(self.now + delay, Queued::Timer { node: id, token })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Collector;
    use std::any::Any;

    struct Echo {
        seen: usize,
    }
    impl Node for Echo {
        fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, pkt: IpPacket) {
            self.seen += 1;
            if let Ok(udp) = pkt.decode_udp() {
                ctx.send_udp(udp.dst_port, pkt.src, udp.src_port, udp.payload);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    struct Ticker {
        fired: Vec<(SimTime, TimerToken)>,
    }
    impl Node for Ticker {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10), 1);
            ctx.set_timer(SimDuration::from_millis(5), 2);
        }
        fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, _pkt: IpPacket) {}
        fn on_timer(&mut self, ctx: &mut NodeCtx<'_>, token: TimerToken) {
            self.fired.push((ctx.now(), token));
            if self.fired.len() < 4 {
                ctx.set_timer(SimDuration::from_millis(10), token + 10);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn ip(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, last)
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulator::new(1);
        let id = sim.add_node(
            NodeConfig::new("ticker", ip(1)),
            Box::new(Ticker { fired: vec![] }),
        );
        sim.run_for(SimDuration::from_secs(1));
        let ticker = sim.node_as::<Ticker>(id).unwrap();
        assert_eq!(ticker.fired.len(), 5);
        assert_eq!(ticker.fired[0], (SimTime::from_millis(5), 2));
        assert_eq!(ticker.fired[1], (SimTime::from_millis(10), 1));
        // chained timers: tokens 12 and 11 re-arm (fired while len < 4),
        // 12's handler schedules 22 before the len-4 cutoff is reached
        assert_eq!(ticker.fired[2], (SimTime::from_millis(15), 12));
        assert_eq!(ticker.fired[3], (SimTime::from_millis(20), 11));
        assert_eq!(ticker.fired[4], (SimTime::from_millis(25), 22));
    }

    #[test]
    fn unicast_reaches_only_destination() {
        let mut sim = Simulator::new(2);
        let e1 = sim.add_node(
            NodeConfig::new("b", ip(2)).with_link(LinkParams::ideal()),
            Box::new(Echo { seen: 0 }),
        );
        let e2 = sim.add_node(
            NodeConfig::new("c", ip(3)).with_link(LinkParams::ideal()),
            Box::new(Echo { seen: 0 }),
        );
        sim.inject(
            SimTime::ZERO,
            IpPacket::udp(ip(1), 9, ip(2), 9, b"x".as_ref()),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_as::<Echo>(e1).unwrap().seen, 1);
        assert_eq!(sim.node_as::<Echo>(e2).unwrap().seen, 0);
    }

    #[test]
    fn promiscuous_tap_sees_everything() {
        let mut sim = Simulator::new(3);
        sim.add_node(
            NodeConfig::new("b", ip(2)).with_link(LinkParams::ideal()),
            Box::new(Echo { seen: 0 }),
        );
        let collector = Collector::new();
        let frames = collector.handle();
        sim.add_node(
            NodeConfig::new("tap", ip(250))
                .with_link(LinkParams::ideal())
                .promiscuous(),
            Box::new(collector),
        );
        sim.inject(
            SimTime::ZERO,
            IpPacket::udp(ip(1), 9, ip(2), 9, b"ping".as_ref()),
        );
        sim.run_for(SimDuration::from_secs(1));
        // tap sees inject + echo reply
        assert_eq!(frames.borrow().len(), 2);
    }

    #[test]
    fn lossy_link_drops_packets() {
        let mut sim = Simulator::new(4);
        let id = sim.add_node(
            NodeConfig::new("b", ip(2)).with_link(LinkParams::ideal().with_loss(1.0)),
            Box::new(Echo { seen: 0 }),
        );
        sim.inject(
            SimTime::ZERO,
            IpPacket::udp(ip(1), 9, ip(2), 9, b"x".as_ref()),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.node_as::<Echo>(id).unwrap().seen, 0);
        assert_eq!(sim.dropped_count(), 1);
    }

    #[test]
    fn delay_is_applied() {
        let mut sim = Simulator::new(5);
        struct Stamp {
            at: Option<SimTime>,
        }
        impl Node for Stamp {
            fn on_packet(&mut self, ctx: &mut NodeCtx<'_>, _pkt: IpPacket) {
                self.at = Some(ctx.now());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let id = sim.add_node(
            NodeConfig::new("b", ip(2))
                .with_link(LinkParams::new(crate::dist::DelayDist::constant_ms(7.5))),
            Box::new(Stamp { at: None }),
        );
        sim.inject(
            SimTime::from_millis(1),
            IpPacket::udp(ip(1), 9, ip(2), 9, b"x".as_ref()),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(
            sim.node_as::<Stamp>(id).unwrap().at,
            Some(SimTime::from_micros(8_500))
        );
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let run = |seed: u64| {
            let mut sim = Simulator::new(seed);
            sim.add_node(
                NodeConfig::new("b", ip(2)),
                Box::new(Echo { seen: 0 }),
            );
            for i in 0..20u64 {
                sim.inject(
                    SimTime::from_millis(i * 3),
                    IpPacket::udp(ip(1), 9, ip(2), 9, vec![i as u8; 10]),
                );
            }
            sim.run_for(SimDuration::from_secs(2));
            sim.trace()
                .records()
                .iter()
                .map(|r| (r.time, r.packet.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // delays differ
    }

    #[test]
    fn large_datagram_fragments_and_reaches_node_whole_pieces() {
        let mut sim = Simulator::new(6);
        sim.set_mtu(256);
        struct FragCount {
            frags: usize,
        }
        impl Node for FragCount {
            fn on_packet(&mut self, _ctx: &mut NodeCtx<'_>, pkt: IpPacket) {
                if pkt.frag.is_fragment() {
                    self.frags += 1;
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let id = sim.add_node(
            NodeConfig::new("b", ip(2)).with_link(LinkParams::ideal()),
            Box::new(FragCount { frags: 0 }),
        );
        sim.inject(
            SimTime::ZERO,
            IpPacket::udp(ip(1), 9, ip(2), 9, vec![0u8; 1000]),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.node_as::<FragCount>(id).unwrap().frags >= 4);
    }

    #[test]
    fn run_until_advances_time_even_when_idle() {
        let mut sim = Simulator::new(7);
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn find_node_and_names() {
        let mut sim = Simulator::new(8);
        let id = sim.add_node(NodeConfig::new("b", ip(2)), Box::new(Echo { seen: 0 }));
        assert_eq!(sim.find_node("b"), Some(id));
        assert_eq!(sim.find_node("zzz"), None);
        assert_eq!(sim.node_name(id), "b");
        assert_eq!(sim.node_ip(id), ip(2));
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn inject_into_past_panics() {
        let mut sim = Simulator::new(9);
        sim.run_until(SimTime::from_secs(1));
        sim.inject(
            SimTime::ZERO,
            IpPacket::udp(ip(1), 9, ip(2), 9, b"x".as_ref()),
        );
    }
}
