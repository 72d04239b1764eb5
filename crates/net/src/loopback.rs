//! In-process loopback backend: frames pass between the two endpoints
//! as values over bounded [`FrameQueue`]s — no byte serialization, no
//! sockets, fully deterministic. This is the default backend, and runs
//! over it are bit-identical to the pre-wire in-process runtime (the
//! differential suite asserts this); codec fidelity is exercised by
//! the `Tcp` backend and the codec property tests instead.

use crate::frame::Frame;
use crate::transport::{FrameQueue, NetError, NetMetrics, Transport};
use sonata_obs::TraceContext;
use std::time::Duration;

/// Default queue capacity per direction. Pumping after every send keeps
/// the live depth tiny; the headroom lets a switch run a full window
/// ahead of its collector's drain.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One end of a loopback link.
pub struct LoopbackTransport {
    tx: FrameQueue,
    rx: FrameQueue,
}

/// Build a connected pair: `(switch_end, collector_end)`. The
/// switch→collector direction carries the collector's ingest-queue
/// depth gauge from `metrics`.
pub fn loopback_pair(
    capacity: usize,
    metrics: &NetMetrics,
) -> (LoopbackTransport, LoopbackTransport) {
    let to_collector = FrameQueue::new(capacity, Some(metrics.queue_depth.clone()));
    let to_switch = FrameQueue::new(capacity, None);
    (
        LoopbackTransport {
            tx: to_collector.clone(),
            rx: to_switch.clone(),
        },
        LoopbackTransport {
            tx: to_switch,
            rx: to_collector,
        },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, ctx: TraceContext, epoch: u64, frame: Frame) -> Result<(), NetError> {
        self.tx.push(ctx, epoch, frame)
    }

    fn try_recv(&mut self) -> Result<Option<(TraceContext, u64, Frame)>, NetError> {
        self.rx.try_pop()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(TraceContext, u64, Frame), NetError> {
        self.rx.pop_timeout(timeout)
    }

    fn kind(&self) -> &'static str {
        "loopback"
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        // Wake anyone blocked on the counterpart end.
        self.tx.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_obs::ObsHandle;

    #[test]
    fn pair_delivers_frames_both_ways_in_order() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let ctx = TraceContext::root(0, 0);
        let (mut sw, mut sp) = loopback_pair(8, &metrics);
        sw.send(
            ctx,
            2,
            Frame::WindowOpen {
                window: 0,
                packets: 2,
            },
        )
        .unwrap();
        sw.send(
            ctx,
            2,
            Frame::WindowClose {
                window: 0,
                packet_loop_ns: 0,
                dump_ns: 0,
                transport_ns: 0,
            },
        )
        .unwrap();
        // The trace context and epoch cross the link with their frame.
        assert!(matches!(
            sp.try_recv().unwrap(),
            Some((c, 2, Frame::WindowOpen { window: 0, .. })) if c == ctx
        ));
        assert!(matches!(
            sp.recv_timeout(Duration::from_millis(50)).unwrap(),
            (c, 2, Frame::WindowClose { window: 0, .. }) if c == ctx
        ));
        assert!(sp.try_recv().unwrap().is_none());
        sp.send(TraceContext::NONE, 0, Frame::Credit { window: 0 })
            .unwrap();
        assert!(matches!(
            sw.recv_timeout(Duration::from_millis(50)).unwrap(),
            (c, 0, Frame::Credit { window: 0 }) if c == TraceContext::NONE
        ));
    }

    #[test]
    fn dropping_one_end_closes_the_other() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw, mut sp) = loopback_pair(8, &metrics);
        drop(sw);
        assert_eq!(
            sp.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            NetError::Closed
        );
    }
}
