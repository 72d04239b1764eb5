//! The [`Transport`] abstraction: one bidirectional frame pipe
//! between a switch endpoint and the collector, with two
//! interchangeable backends ([`crate::loopback`] and [`crate::tcp`])
//! selected by [`TransportKind`].

use crate::codec::CodecError;
use crate::frame::Frame;
use sonata_obs::{Counter, Gauge, ObsHandle, TraceContext};
use std::time::Duration;

/// Which transport backend a runtime should assemble.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process frame passing over bounded queues: deterministic,
    /// zero-copy (no byte serialization), and the default — runs are
    /// bit-identical to the pre-wire in-process runtime.
    #[default]
    Loopback,
    /// Localhost TCP sockets: frames cross a real kernel socket
    /// through the versioned binary codec, with reconnect + backoff
    /// on the client and a bounded collector queue on the server.
    Tcp,
}

impl TransportKind {
    /// Stable label for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Loopback => "loopback",
            TransportKind::Tcp => "tcp",
        }
    }
}

/// Transport failure.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A frame failed to encode/decode.
    Codec(CodecError),
    /// Socket-level failure (rendered; `std::io::Error` is not `Clone`).
    Io(String),
    /// A blocking receive timed out.
    Timeout,
    /// The peer is gone and cannot be reached (reconnect exhausted,
    /// or the endpoint was shut down).
    Closed,
    /// The peer's `Hello` carried a plan digest that does not match
    /// the locally deployed plan.
    PlanMismatch {
        /// Digest the peer announced.
        theirs: u64,
        /// Digest of the local deployment.
        ours: u64,
    },
    /// The peer sent a non-`Hello` frame stamped with a plan epoch
    /// older than the locally committed one — output of a plan the
    /// fabric has already swapped away from. Dropping these (rather
    /// than merging them) is what makes a mid-run swap torn-window
    /// free.
    StaleEpoch {
        /// Epoch the peer's frame was stamped with.
        theirs: u64,
        /// Locally committed plan epoch.
        ours: u64,
    },
    /// The peer sent a frame the protocol does not allow here.
    Protocol(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Codec(e) => write!(f, "codec: {e}"),
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Timeout => write!(f, "receive timed out"),
            NetError::Closed => write!(f, "transport closed"),
            NetError::PlanMismatch { theirs, ours } => {
                write!(f, "plan digest mismatch: peer {theirs:#x}, local {ours:#x}")
            }
            NetError::StaleEpoch { theirs, ours } => {
                write!(f, "stale plan epoch: peer {theirs}, local {ours}")
            }
            NetError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<CodecError> for NetError {
    fn from(e: CodecError) -> Self {
        NetError::Codec(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e.to_string())
    }
}

/// One end of a frame pipe. Implementations must be [`Send`] so the
/// switch half can run on its own thread.
///
/// Every frame carries the sender's [`TraceContext`] and committed
/// plan **epoch** in-band (v4 headers on `Tcp`, tupled values on
/// `Loopback`), so the receiving process parents its spans into the
/// sender's window trace and rejects output of an already-replaced
/// plan without a side channel. Untraced runs pass
/// [`TraceContext::NONE`] at zero cost; non-replanning runs pass
/// epoch 0 forever.
pub trait Transport: Send {
    /// Send one frame under `ctx`, stamped with the sender's committed
    /// plan `epoch`. Blocks under backpressure (bounded queue full,
    /// socket buffer full); errors only when the peer is unreachable.
    ///
    /// Takes the frame by value: every caller builds it for the call,
    /// and an in-process backend enqueues that very value instead of
    /// deep-cloning a whole window dump.
    fn send(&mut self, ctx: TraceContext, epoch: u64, frame: Frame) -> Result<(), NetError>;

    /// Receive the next frame with its trace context and plan epoch if
    /// one is already available.
    fn try_recv(&mut self) -> Result<Option<(TraceContext, u64, Frame)>, NetError>;

    /// Receive the next frame with its trace context and plan epoch,
    /// blocking up to `timeout`.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<(TraceContext, u64, Frame), NetError>;

    /// Encoded length of the frame the last successful receive
    /// returned: what the wire carried, so nobody re-encodes a frame to
    /// learn its size. 0 on a backend that never serializes.
    fn last_rx_len(&self) -> usize {
        0
    }

    /// Backend label (for diagnostics).
    fn kind(&self) -> &'static str;
}

/// Pre-resolved transport metric handles, shared by both endpoints of
/// a link. `frames` counts whole frames handed to / received from a
/// transport (either backend); `bytes` counts encoded wire bytes and
/// therefore only moves on `Tcp`; `queue_depth` tracks the collector's
/// bounded ingest queue; `reconnects` counts client re-dials.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    handle: ObsHandle,
    /// Frames sent (either end, either backend).
    pub frames_tx: Counter,
    /// Frames received.
    pub frames_rx: Counter,
    /// Encoded bytes written to a socket.
    pub bytes_tx: Counter,
    /// Encoded bytes read from a socket.
    pub bytes_rx: Counter,
    /// Collector ingest-queue depth (frames currently buffered).
    pub queue_depth: Gauge,
    /// Successful client reconnects.
    pub reconnects: Counter,
}

impl NetMetrics {
    /// Register the transport metric family against `handle`, labeled
    /// with the link's switch-side peer (`peer="switch-N"`). In an
    /// N-switch fabric every link gets its own series — an unlabeled
    /// gauge would be overwritten by whichever peer reported last.
    /// All series are registered eagerly so they appear (at zero) in
    /// every snapshot of an enabled handle.
    pub fn for_peer(handle: &ObsHandle, peer: &str) -> Self {
        NetMetrics {
            handle: handle.clone(),
            frames_tx: handle.counter("sonata_net_frames_total", &[("dir", "tx"), ("peer", peer)]),
            frames_rx: handle.counter("sonata_net_frames_total", &[("dir", "rx"), ("peer", peer)]),
            bytes_tx: handle.counter("sonata_net_bytes_total", &[("dir", "tx"), ("peer", peer)]),
            bytes_rx: handle.counter("sonata_net_bytes_total", &[("dir", "rx"), ("peer", peer)]),
            queue_depth: handle.gauge("sonata_net_queue_depth", &[("peer", peer)]),
            reconnects: handle.counter("sonata_net_reconnects_total", &[("peer", peer)]),
        }
    }

    /// Register the family for the single-switch peer `switch-0`.
    pub fn new(handle: &ObsHandle) -> Self {
        Self::for_peer(handle, "switch-0")
    }

    /// The observability handle the metrics were registered on.
    pub fn handle(&self) -> &ObsHandle {
        &self.handle
    }
}

/// A bounded frame queue with blocking push (high-watermark
/// backpressure) and blocking/non-blocking pop. This is the only
/// buffering the transport layer does — nothing is ever unbounded.
#[derive(Debug, Clone)]
pub struct FrameQueue {
    inner: std::sync::Arc<QueueInner>,
}

#[derive(Debug)]
struct QueueInner {
    state: std::sync::Mutex<QueueState>,
    not_empty: std::sync::Condvar,
    not_full: std::sync::Condvar,
    capacity: usize,
    depth: Option<Gauge>,
}

#[derive(Debug, Default)]
struct QueueState {
    frames: std::collections::VecDeque<(TraceContext, u64, Frame)>,
    closed: bool,
    /// Threads parked on `not_empty` / `not_full`. A notify is a
    /// `futex_wake` syscall even with nobody waiting, so `push` and the
    /// pops only signal when one of these is non-zero.
    pop_waiters: usize,
    push_waiters: usize,
}

impl FrameQueue {
    /// A queue holding at most `capacity` frames; pushes past that
    /// block until the consumer drains. An optional gauge tracks the
    /// live depth.
    pub fn new(capacity: usize, depth: Option<Gauge>) -> Self {
        FrameQueue {
            inner: std::sync::Arc::new(QueueInner {
                state: std::sync::Mutex::new(QueueState::default()),
                not_empty: std::sync::Condvar::new(),
                not_full: std::sync::Condvar::new(),
                capacity: capacity.max(1),
                depth,
            }),
        }
    }

    /// Enqueue, blocking while the queue is at capacity. Errors once
    /// the queue is closed.
    pub fn push(&self, ctx: TraceContext, epoch: u64, frame: Frame) -> Result<(), NetError> {
        let mut st = self.inner.state.lock().unwrap();
        while st.frames.len() >= self.inner.capacity && !st.closed {
            st.push_waiters += 1;
            st = self.inner.not_full.wait(st).unwrap();
            st.push_waiters -= 1;
        }
        if st.closed {
            return Err(NetError::Closed);
        }
        st.frames.push_back((ctx, epoch, frame));
        if let Some(g) = &self.inner.depth {
            g.set(st.frames.len() as u64);
        }
        if st.pop_waiters > 0 {
            self.inner.not_empty.notify_one();
        }
        Ok(())
    }

    /// Pop the front frame under the lock, waking one parked pusher.
    fn take(&self, st: &mut QueueState) -> Option<(TraceContext, u64, Frame)> {
        let f = st.frames.pop_front()?;
        if let Some(g) = &self.inner.depth {
            g.set(st.frames.len() as u64);
        }
        if st.push_waiters > 0 {
            self.inner.not_full.notify_one();
        }
        Some(f)
    }

    /// Dequeue without blocking.
    pub fn try_pop(&self) -> Result<Option<(TraceContext, u64, Frame)>, NetError> {
        let mut st = self.inner.state.lock().unwrap();
        match self.take(&mut st) {
            Some(f) => Ok(Some(f)),
            None if st.closed => Err(NetError::Closed),
            None => Ok(None),
        }
    }

    /// Dequeue, blocking up to `timeout` for a frame.
    pub fn pop_timeout(&self, timeout: Duration) -> Result<(TraceContext, u64, Frame), NetError> {
        let deadline = std::time::Instant::now() + timeout;
        let mut st = self.inner.state.lock().unwrap();
        loop {
            if let Some(f) = self.take(&mut st) {
                return Ok(f);
            }
            if st.closed {
                return Err(NetError::Closed);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            st.pop_waiters += 1;
            let (guard, res) = self
                .inner
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap();
            st = guard;
            st.pop_waiters -= 1;
            if res.timed_out() && st.frames.is_empty() {
                return Err(NetError::Timeout);
            }
        }
    }

    /// Close the queue: pending frames drain, new pushes fail, and
    /// blocked waiters wake.
    pub fn close(&self) {
        let mut st = self.inner.state.lock().unwrap();
        st.closed = true;
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
    }

    /// Frames currently buffered.
    pub fn len(&self) -> usize {
        self.inner.state.lock().unwrap().frames.len()
    }

    /// True when no frames are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_blocks_at_capacity_and_drains_in_order() {
        let ctx = TraceContext::root(0, 0);
        let q = FrameQueue::new(2, None);
        q.push(ctx, 4, Frame::Credit { window: 0 }).unwrap();
        q.push(ctx, 4, Frame::Credit { window: 1 }).unwrap();
        let q2 = q.clone();
        let pusher = std::thread::spawn(move || q2.push(ctx, 5, Frame::Credit { window: 2 }));
        // The third push must be parked until we pop.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_timeout(Duration::from_secs(1)).unwrap(),
            (ctx, 4, Frame::Credit { window: 0 })
        );
        pusher.join().unwrap().unwrap();
        assert_eq!(
            q.pop_timeout(Duration::from_secs(1)).unwrap(),
            (ctx, 4, Frame::Credit { window: 1 })
        );
        // The trace context and epoch ride the queue with their frame.
        assert_eq!(
            q.pop_timeout(Duration::from_secs(1)).unwrap(),
            (ctx, 5, Frame::Credit { window: 2 })
        );
        assert!(q.try_pop().unwrap().is_none());
    }

    /// Spin until `parked(state)` holds: the waiter counts move under
    /// the queue lock, so once one is visible the thread is inside (or
    /// about to atomically enter) its condvar wait and can only make
    /// progress through a notify.
    fn until_parked(q: &FrameQueue, parked: impl Fn(&QueueState) -> bool) {
        while !parked(&q.inner.state.lock().unwrap()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn parked_waiters_are_still_woken() {
        // Notifies are skipped when nobody waits; a thread that *is*
        // parked must still be woken, in both directions.
        let q = FrameQueue::new(1, None);
        let q2 = q.clone();
        let popper = std::thread::spawn(move || q2.pop_timeout(Duration::from_secs(30)));
        until_parked(&q, |st| st.pop_waiters == 1);
        q.push(TraceContext::NONE, 1, Frame::Credit { window: 7 })
            .unwrap();
        assert_eq!(
            popper.join().unwrap().unwrap(),
            (TraceContext::NONE, 1, Frame::Credit { window: 7 })
        );

        q.push(TraceContext::NONE, 2, Frame::Credit { window: 8 })
            .unwrap();
        let q2 = q.clone();
        let pusher =
            std::thread::spawn(move || q2.push(TraceContext::NONE, 3, Frame::Credit { window: 9 }));
        until_parked(&q, |st| st.push_waiters == 1);
        assert_eq!(q.len(), 1, "the second push is parked on the full queue");
        assert!(q.try_pop().unwrap().is_some());
        pusher.join().unwrap().unwrap();
        assert_eq!(
            q.try_pop().unwrap(),
            Some((TraceContext::NONE, 3, Frame::Credit { window: 9 }))
        );
        let st = q.inner.state.lock().unwrap();
        assert_eq!((st.pop_waiters, st.push_waiters), (0, 0));
    }

    #[test]
    fn closed_queue_fails_fast() {
        let q = FrameQueue::new(4, None);
        q.push(TraceContext::NONE, 0, Frame::Credit { window: 0 })
            .unwrap();
        q.close();
        assert!(q
            .push(TraceContext::NONE, 0, Frame::Credit { window: 1 })
            .is_err());
        // Already-buffered frames still drain.
        assert!(q.try_pop().unwrap().is_some());
        assert_eq!(q.try_pop().unwrap_err(), NetError::Closed);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(5)).unwrap_err(),
            NetError::Closed
        );
    }

    #[test]
    fn pop_timeout_expires() {
        let q = FrameQueue::new(1, None);
        let err = q.pop_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, NetError::Timeout);
    }
}
