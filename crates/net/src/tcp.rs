//! Localhost TCP backend: the switch side is a client that dials the
//! collector, writes encoded frames synchronously, and re-dials with
//! exponential backoff when the connection drops; the collector side
//! is a server accepting N switch connections, each drained by a
//! reader thread into its own queue, bounded in frames and in bytes
//! (high-watermark block — when a queue fills, the reader stops reading
//! and TCP backpressure propagates to the switch; nothing is ever
//! buffered unbounded).
//!
//! In-order delivery per task needs no extra machinery: TCP preserves
//! byte order per connection, and the per-task `(task, seq)` numbers
//! assigned at the switch deparser survive the codec, so the emitter's
//! existing sequence-based duplicate suppression works unchanged.

use crate::codec::{
    decode_frame_tagged, encode_frame_ctx, encode_frame_into, frame_len, CodecError, MAX_FRAME_LEN,
};
use crate::frame::Frame;
use crate::transport::{NetError, NetMetrics, Transport};
use sonata_obs::{EventKind, TraceContext};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Per-connection settings of the TCP backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpOptions {
    /// Fabric switch id stamped into every frame header this client
    /// sends; the collector keys per-peer routing and `Hello` replay
    /// state by it. Single-switch deployments use 0.
    pub switch_id: u16,
}

/// Bounded frames buffered per connection before the reader blocks
/// (the high watermark).
const CONN_QUEUE_FRAMES: usize = 8_192;
/// Re-dial attempts before a send reports the peer unreachable.
const MAX_RECONNECT_ATTEMPTS: u32 = 8;
/// First re-dial backoff; doubles per failed attempt, capped at 100 ms.
const BASE_BACKOFF: Duration = Duration::from_millis(1);

// ------------------------------------------------------- receive buffer

/// Free space a read is offered at least.
const READ_CHUNK: usize = 64 * 1024;

/// Encoded bytes a connection's queue may hold before its reader parks.
/// [`CONN_QUEUE_FRAMES`] bounds the queue in frames, and a
/// frame is anything up to [`MAX_FRAME_LEN`]; this bounds it in bytes.
/// An empty queue admits a frame of any size, so no frame the codec
/// accepts can wedge the reader.
const CONN_QUEUE_BYTES: usize = MAX_FRAME_LEN;

/// A frame as a socket delivered it: switch id, trace context, plan
/// epoch, the frame, and its encoded length.
type Received = (u16, TraceContext, u64, Frame, usize);

/// Bytes read from a socket and not yet decoded. `buf` is initialized
/// to its whole length, so a read lands in `buf[tail..]` with nothing
/// zeroed per read; `buf[head..tail]` is the unread data. Frames are
/// consumed by advancing `head`, and the remainder moves to the front
/// once per read, not once per frame.
#[derive(Default)]
struct RecvBuf {
    buf: Vec<u8>,
    head: usize,
    tail: usize,
}

impl RecvBuf {
    fn clear(&mut self) {
        (self.head, self.tail) = (0, 0);
    }

    /// Decode and consume the frame at the front, if it is all there.
    fn pop(&mut self) -> Result<Option<Received>, CodecError> {
        match decode_frame_tagged(&self.buf[self.head..self.tail]) {
            Ok((switch, ctx, epoch, frame, used)) => {
                self.head += used;
                Ok(Some((switch, ctx, epoch, frame, used)))
            }
            Err(CodecError::Truncated) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// One `read` into the free space behind the data. Call it when
    /// [`Self::pop`] found no whole frame: the header at the front, if
    /// complete, has then passed `pop`'s checks, and the buffer grows
    /// once to hold that frame whole ([`frame_len`] sizes nothing by a
    /// length the codec refuses).
    fn fill(&mut self, from: &mut impl Read) -> std::io::Result<usize> {
        if self.head > 0 {
            self.buf.copy_within(self.head..self.tail, 0);
            self.tail -= self.head;
            self.head = 0;
        }
        let frame = frame_len(&self.buf[..self.tail]).unwrap_or(0);
        let want = frame.max(self.tail) + READ_CHUNK;
        if self.buf.len() < want {
            self.buf.resize(want, 0);
        }
        let n = from.read(&mut self.buf[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

// ------------------------------------------------------------ client

/// Switch-side TCP client.
pub struct TcpClientTransport {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    rbuf: RecvBuf,
    /// Encoded length of the frame last received.
    last_rx_len: usize,
    /// Every outgoing frame is encoded here; the capacity stays for the
    /// life of the client, so a steady sender stops allocating once it
    /// has sent its largest frame.
    send_buf: Vec<u8>,
    /// Encoded `Hello` replayed after every reconnect so the collector
    /// can re-verify the plan digest mid-session.
    hello: Option<Vec<u8>>,
    metrics: NetMetrics,
    opts: TcpOptions,
}

impl TcpClientTransport {
    /// Dial `addr`.
    pub fn connect(
        addr: SocketAddr,
        metrics: NetMetrics,
        opts: TcpOptions,
    ) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClientTransport {
            addr,
            stream: Some(stream),
            rbuf: RecvBuf::default(),
            last_rx_len: 0,
            send_buf: Vec::new(),
            hello: None,
            metrics,
            opts,
        })
    }

    /// Re-dial with exponential backoff, replaying the session
    /// `Hello` on success.
    fn reconnect(&mut self) -> Result<(), NetError> {
        let mut backoff = BASE_BACKOFF;
        for attempt in 1..=MAX_RECONNECT_ATTEMPTS {
            std::thread::sleep(backoff);
            match TcpStream::connect(self.addr) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let mut stream = stream;
                    if let Some(hello) = &self.hello {
                        stream.write_all(hello)?;
                        self.metrics.bytes_tx.add(hello.len() as u64);
                    }
                    self.metrics.reconnects.inc();
                    self.metrics.handle().event(EventKind::Reconnect {
                        attempt: attempt as u64,
                        backoff_ms: backoff.as_millis() as u64,
                    });
                    self.rbuf.clear();
                    self.stream = Some(stream);
                    return Ok(());
                }
                Err(_) => {
                    backoff = (backoff * 2).min(Duration::from_millis(100));
                }
            }
        }
        Err(NetError::Closed)
    }

    /// Read once into `rbuf`, waiting up to `wait` for bytes (`None`:
    /// not at all). `Ok(false)` when none came in that time.
    fn fill_rbuf(&mut self, wait: Option<Duration>) -> Result<bool, NetError> {
        let Some(stream) = self.stream.as_mut() else {
            return Err(NetError::Closed);
        };
        match wait {
            Some(_) => stream.set_read_timeout(wait)?,
            None => stream.set_nonblocking(true)?,
        }
        let read = self.rbuf.fill(stream);
        if wait.is_none() {
            stream.set_nonblocking(false)?;
        }
        match read {
            Ok(0) => {
                self.stream = None;
                Err(NetError::Closed)
            }
            Ok(n) => {
                self.metrics.bytes_rx.add(n as u64);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => {
                self.stream = None;
                Err(NetError::Io(e.to_string()))
            }
        }
    }

    fn pop_decoded(&mut self) -> Result<Option<(TraceContext, u64, Frame)>, NetError> {
        let popped = self.rbuf.pop()?;
        Ok(popped.map(|(_switch, ctx, epoch, frame, used)| {
            self.last_rx_len = used;
            (ctx, epoch, frame)
        }))
    }

    /// Write one encoded frame, re-dialing on a dropped connection.
    fn send_encoded(&mut self, bytes: &[u8]) -> Result<(), NetError> {
        let mut attempts = 0u32;
        loop {
            if self.stream.is_none() {
                self.reconnect()?;
            }
            let stream = self.stream.as_mut().expect("connected");
            match stream.write_all(bytes) {
                Ok(()) => {
                    self.metrics.bytes_tx.add(bytes.len() as u64);
                    return Ok(());
                }
                Err(e) => {
                    self.stream = None;
                    attempts += 1;
                    if attempts > MAX_RECONNECT_ATTEMPTS {
                        return Err(NetError::Io(e.to_string()));
                    }
                }
            }
        }
    }
}

impl Transport for TcpClientTransport {
    fn send(&mut self, ctx: TraceContext, epoch: u64, frame: Frame) -> Result<(), NetError> {
        let mut bytes = std::mem::take(&mut self.send_buf);
        encode_frame_into(&mut bytes, self.opts.switch_id, ctx, epoch, &frame);
        if matches!(frame, Frame::Hello { .. }) {
            self.hello = Some(bytes.clone());
        }
        let sent = self.send_encoded(&bytes);
        self.send_buf = bytes;
        sent
    }

    fn try_recv(&mut self) -> Result<Option<(TraceContext, u64, Frame)>, NetError> {
        if let Some(f) = self.pop_decoded()? {
            return Ok(Some(f));
        }
        self.fill_rbuf(None)?;
        self.pop_decoded()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(TraceContext, u64, Frame), NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(f) = self.pop_decoded()? {
                return Ok(f);
            }
            let now = Instant::now();
            if now >= deadline || !self.fill_rbuf(Some(deadline - now))? {
                return Err(NetError::Timeout);
            }
        }
    }

    fn last_rx_len(&self) -> usize {
        self.last_rx_len
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

// --------------------------------------------------------- collector

#[derive(Default)]
struct ConnBuf {
    frames: VecDeque<Received>,
    /// Encoded length of `frames`, summed.
    queued_bytes: usize,
    alive: bool,
    /// Switch id this connection belongs to, learned from the first
    /// decoded frame header (the client's `Hello` tags it before any
    /// data frame). Reconnect and reply routing are keyed by this, so
    /// N switches can share one collector without stealing each
    /// other's replies.
    switch: Option<u16>,
}

#[derive(Default)]
struct CollState {
    conns: Vec<ConnBuf>,
    /// Write halves per connection, newest last; replies go to the
    /// most recent live connection *for the addressed switch* (the
    /// lockstep client re-dials before expecting any reply).
    writers: Vec<Option<TcpStream>>,
    total: usize,
}

struct CollShared {
    state: Mutex<CollState>,
    not_empty: Condvar,
    not_full: Condvar,
    open: AtomicBool,
    metrics: NetMetrics,
}

/// Stream-processor-side collector server.
pub struct TcpCollectorTransport {
    shared: Arc<CollShared>,
    addr: SocketAddr,
    /// Round-robin cursor over connection queues.
    rr: usize,
    /// Switch id of the most recently popped frame; untargeted
    /// `Transport::send` replies go to this peer (the lockstep
    /// protocol always replies to the switch it just heard from).
    last_peer: u16,
    /// Encoded length of the most recently popped frame.
    last_rx_len: usize,
}

impl TcpCollectorTransport {
    /// Bind `127.0.0.1:0` and start accepting switch connections.
    pub fn bind(metrics: NetMetrics) -> Result<Self, NetError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(CollShared {
            state: Mutex::new(CollState::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            open: AtomicBool::new(true),
            metrics,
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(TcpCollectorTransport {
            shared,
            addr,
            rr: 0,
            last_peer: 0,
            last_rx_len: 0,
        })
    }

    /// The bound address switch clients should dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sever every live switch connection (chaos hook: the client must
    /// notice on its next write and re-dial).
    pub fn drop_connections(&self) {
        let mut st = self.shared.state.lock().unwrap();
        for w in st.writers.iter_mut() {
            if let Some(s) = w.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// Send a reply to a specific switch: the newest live connection
    /// tagged with `switch` wins; not-yet-tagged connections (a fresh
    /// re-dial whose `Hello` has not been decoded yet) are the
    /// fallback, newest first.
    pub fn send_to(
        &mut self,
        switch: u16,
        ctx: TraceContext,
        epoch: u64,
        frame: &Frame,
    ) -> Result<(), NetError> {
        let bytes = encode_frame_ctx(switch, ctx, epoch, frame);
        let mut st = self.shared.state.lock().unwrap();
        for pass in 0..2 {
            for idx in (0..st.writers.len()).rev() {
                let matches = match (pass, st.conns[idx].switch) {
                    (0, Some(s)) => s == switch,
                    (1, None) => true,
                    _ => false,
                };
                if !matches {
                    continue;
                }
                let Some(stream) = st.writers[idx].as_mut() else {
                    continue;
                };
                match stream.write_all(&bytes) {
                    Ok(()) => {
                        self.shared.metrics.bytes_tx.add(bytes.len() as u64);
                        return Ok(());
                    }
                    Err(_) => {
                        st.writers[idx] = None; // dead; try an older connection
                    }
                }
            }
        }
        Err(NetError::Closed)
    }

    /// Receive the next frame (if buffered) along with the sending
    /// switch's id, trace context, and plan epoch from the header.
    pub fn try_recv_tagged(&mut self) -> Result<Option<(u16, TraceContext, u64, Frame)>, NetError> {
        let mut st = self.shared.state.lock().unwrap();
        let popped = pop_locked(&self.shared, &mut self.rr, &mut st);
        Ok(popped.map(|(switch, ctx, epoch, frame, len)| {
            (self.last_peer, self.last_rx_len) = (switch, len);
            (switch, ctx, epoch, frame)
        }))
    }

    /// Receive the next frame, its sending switch id, trace context,
    /// and plan epoch, blocking up to `timeout`.
    pub fn recv_timeout_tagged(
        &mut self,
        timeout: Duration,
    ) -> Result<(u16, TraceContext, u64, Frame), NetError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some((switch, ctx, epoch, frame, len)) =
                pop_locked(&self.shared, &mut self.rr, &mut st)
            {
                (self.last_peer, self.last_rx_len) = (switch, len);
                return Ok((switch, ctx, epoch, frame));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout);
            }
            let (guard, _) = self
                .shared
                .not_empty
                .wait_timeout(st, deadline - now)
                .unwrap();
            st = guard;
        }
    }
}

fn pop_locked(shared: &CollShared, rr: &mut usize, st: &mut CollState) -> Option<Received> {
    let n = st.conns.len();
    for i in 0..n {
        let idx = (*rr + i) % n;
        if let Some(f) = st.conns[idx].frames.pop_front() {
            *rr = (idx + 1) % n;
            st.conns[idx].queued_bytes -= f.4;
            st.total -= 1;
            shared.metrics.queue_depth.set(st.total as u64);
            shared.not_full.notify_all();
            return Some(f);
        }
    }
    None
}

impl Transport for TcpCollectorTransport {
    fn send(&mut self, ctx: TraceContext, epoch: u64, frame: Frame) -> Result<(), NetError> {
        // An untargeted send replies to the switch whose frame the
        // collector popped last — in the lockstep protocol that is
        // always the peer awaiting this reply.
        let peer = self.last_peer;
        self.send_to(peer, ctx, epoch, &frame)
    }

    fn try_recv(&mut self) -> Result<Option<(TraceContext, u64, Frame)>, NetError> {
        Ok(self
            .try_recv_tagged()?
            .map(|(_, ctx, epoch, f)| (ctx, epoch, f)))
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<(TraceContext, u64, Frame), NetError> {
        self.recv_timeout_tagged(timeout)
            .map(|(_, ctx, epoch, f)| (ctx, epoch, f))
    }

    fn last_rx_len(&self) -> usize {
        self.last_rx_len
    }

    fn kind(&self) -> &'static str {
        "tcp"
    }
}

impl Drop for TcpCollectorTransport {
    fn drop(&mut self) {
        self.shared.open.store(false, Ordering::SeqCst);
        self.shared.not_full.notify_all();
        self.shared.not_empty.notify_all();
        // Unblock the accept loop with a throwaway dial.
        let _ = TcpStream::connect(self.addr);
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<CollShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if !shared.open.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().ok();
        let id = {
            let mut st = shared.state.lock().unwrap();
            st.conns.push(ConnBuf {
                alive: true,
                ..ConnBuf::default()
            });
            st.writers.push(writer);
            st.conns.len() - 1
        };
        let reader_shared = Arc::clone(&shared);
        std::thread::spawn(move || reader_loop(stream, id, reader_shared));
    }
}

fn reader_loop(mut stream: TcpStream, id: usize, shared: Arc<CollShared>) {
    let mut buf = RecvBuf::default();
    'conn: loop {
        match buf.fill(&mut stream) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => shared.metrics.bytes_rx.add(n as u64),
        }
        // Batch-coalesced decode: drain every complete frame the read
        // delivered before touching the socket again.
        loop {
            match buf.pop() {
                Ok(Some(received)) => {
                    let mut st = shared.state.lock().unwrap();
                    let full = |c: &ConnBuf| {
                        c.frames.len() >= CONN_QUEUE_FRAMES
                            || (c.queued_bytes >= CONN_QUEUE_BYTES && !c.frames.is_empty())
                    };
                    while full(&st.conns[id]) && shared.open.load(Ordering::SeqCst) {
                        st = shared.not_full.wait(st).unwrap();
                    }
                    if !shared.open.load(Ordering::SeqCst) {
                        break 'conn;
                    }
                    st.conns[id].switch = Some(received.0);
                    st.conns[id].queued_bytes += received.4;
                    st.conns[id].frames.push_back(received);
                    st.total += 1;
                    shared.metrics.queue_depth.set(st.total as u64);
                    shared.not_empty.notify_all();
                }
                Ok(None) => break,
                // A corrupt stream cannot be resynchronized safely:
                // drop the connection and let the client re-dial.
                Err(_) => break 'conn,
            }
        }
    }
    let mut st = shared.state.lock().unwrap();
    st.conns[id].alive = false;
    shared.not_empty.notify_all();
}

/// Build a connected localhost pair: `(switch_client, collector)`.
pub fn tcp_pair(
    metrics: &NetMetrics,
    opts: TcpOptions,
) -> Result<(TcpClientTransport, TcpCollectorTransport), NetError> {
    let collector = TcpCollectorTransport::bind(metrics.clone())?;
    let client = TcpClientTransport::connect(collector.addr(), metrics.clone(), opts)?;
    Ok((client, collector))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_obs::ObsHandle;

    fn pair() -> (TcpClientTransport, TcpCollectorTransport, NetMetrics) {
        let metrics = NetMetrics::new(&ObsHandle::enabled());
        let (c, s) = tcp_pair(&metrics, TcpOptions::default()).unwrap();
        (c, s, metrics)
    }

    #[test]
    fn frames_cross_the_socket_in_order() {
        let (mut client, mut coll, metrics) = pair();
        for w in 0..5u64 {
            client
                .send(
                    TraceContext::root(w, 0),
                    w,
                    Frame::WindowOpen {
                        window: w,
                        packets: w,
                    },
                )
                .unwrap();
        }
        for w in 0..5u64 {
            let (ctx, epoch, f) = coll.recv_timeout(Duration::from_secs(5)).unwrap();
            // The trace context and epoch survive the codec round trip.
            assert_eq!(ctx, TraceContext::root(w, 0));
            assert_eq!(epoch, w);
            assert_eq!(
                f,
                Frame::WindowOpen {
                    window: w,
                    packets: w
                }
            );
        }
        // Control direction.
        coll.send(TraceContext::NONE, 0, Frame::Credit { window: 4 })
            .unwrap();
        let (ctx, epoch, f) = client.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(ctx, TraceContext::NONE);
        assert_eq!(epoch, 0);
        assert_eq!(f, Frame::Credit { window: 4 });
        let snap = metrics.handle().snapshot();
        assert!(
            snap.counter("sonata_net_bytes_total{dir=\"tx\",peer=\"switch-0\"}")
                .unwrap()
                > 0
        );
        assert!(
            snap.counter("sonata_net_bytes_total{dir=\"rx\",peer=\"switch-0\"}")
                .unwrap()
                > 0
        );
    }

    /// One block of `rows` one-column rows: `rows × 8` bytes of cells.
    fn block_frame(rows: usize) -> Frame {
        use sonata_pisa::{ReportBlock, ReportChunk, ReportKind, TaskId};
        Frame::ReportBlocks(ReportChunk {
            packets: Default::default(),
            blocks: vec![ReportBlock {
                task: TaskId {
                    query: sonata_query::QueryId(1),
                    level: 32,
                    branch: 0,
                },
                kind: ReportKind::Tuple,
                entry_op: None,
                first_seq: 0,
                names: ["v".into()].into(),
                rows,
                cells: (0..rows as u64).collect(),
                pkts: Vec::new(),
            }],
        })
    }

    #[test]
    fn the_client_encodes_every_frame_into_the_one_buffer_it_keeps() {
        let (mut client, mut coll, _) = pair();
        let hello = Frame::Hello {
            node: "sw".into(),
            plan_digest: 42,
        };
        let sends = [
            block_frame(1_024),
            hello.clone(),
            block_frame(512),
            block_frame(1_024),
        ];
        let mut buffer = None;
        for frame in &sends {
            client.send(TraceContext::NONE, 3, frame.clone()).unwrap();
            // The first send is the largest: nothing after it moves or
            // grows the buffer, and each leaves exactly its own frame.
            let now = (client.send_buf.as_ptr(), client.send_buf.capacity());
            assert_eq!(*buffer.get_or_insert(now), now);
            let fresh = encode_frame_ctx(0, TraceContext::NONE, 3, frame);
            assert_eq!(client.send_buf, fresh);
            assert_eq!(coll.recv_timeout(Duration::from_secs(5)).unwrap().2, *frame);
        }
        // The replay copy is the `Hello` as sent, not the buffer's last.
        let replay = encode_frame_ctx(0, TraceContext::NONE, 3, &hello);
        assert_eq!(client.hello.as_deref(), Some(&replay[..]));
    }

    #[test]
    fn a_4mb_block_frame_crosses_the_socket_intact() {
        let (mut client, mut coll, _) = pair();
        let frame = block_frame(512 * 1024);
        let wire_len = crate::codec::encode_frame(&frame).len();
        assert!(wire_len > 4 << 20);
        let sent = frame.clone();
        let sender = std::thread::spawn(move || {
            client.send(TraceContext::NONE, 0, sent).unwrap();
            // A small frame behind it: the cursor lands on its header.
            client
                .send(TraceContext::NONE, 0, Frame::Credit { window: 9 })
                .unwrap();
        });
        let got = coll.recv_timeout(Duration::from_secs(30)).unwrap().2;
        assert!(got == frame, "the block frame changed on the wire");
        assert_eq!(coll.last_rx_len(), wire_len);
        let next = coll.recv_timeout(Duration::from_secs(30)).unwrap().2;
        assert_eq!(next, Frame::Credit { window: 9 });
        sender.join().unwrap();
    }

    #[test]
    fn a_connection_queue_is_bounded_in_bytes_and_drains_in_order() {
        const FRAMES: u64 = 96;
        let metrics = NetMetrics::new(&ObsHandle::enabled());
        let mut coll = TcpCollectorTransport::bind(metrics).unwrap();
        let numbered = |i: u64| {
            // ~1 MiB on the wire, told apart by its first row's number.
            let Frame::ReportBlocks(mut chunk) = block_frame(128 * 1024) else {
                unreachable!()
            };
            chunk.blocks[0].first_seq = i;
            Frame::ReportBlocks(chunk)
        };
        let frame_len = crate::codec::encode_frame(&numbered(0)).len();
        assert!(frame_len > 1 << 20 && FRAMES as usize * frame_len > CONN_QUEUE_BYTES * 5 / 4);
        // A peer that just writes: no lockstep, nobody popping. Once a
        // write makes no progress for a while it says how far it got,
        // then keeps going.
        let mut peer = TcpStream::connect(coll.addr()).unwrap();
        peer.set_write_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let (stalled_tx, stalled_rx) = std::sync::mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut stalled_tx = Some(stalled_tx);
            for i in 0..FRAMES {
                let wire = crate::codec::encode_frame_from(5, &numbered(i));
                let mut at = 0;
                while at < wire.len() {
                    match peer.write(&wire[at..]) {
                        Ok(n) => at += n,
                        Err(e) => {
                            let kind = e.kind();
                            assert!(
                                matches!(
                                    kind,
                                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                                ),
                                "{e}"
                            );
                            if let Some(tx) = stalled_tx.take() {
                                tx.send(i).unwrap();
                            }
                        }
                    }
                }
            }
            peer // stays open until the frames are popped
        });
        let stalled_at = stalled_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("the peer wrote every frame at a collector nobody pops");
        assert!(stalled_at < FRAMES);
        let queued = {
            let st = coll.shared.state.lock().unwrap();
            let conn = &st.conns[0];
            assert_eq!(conn.queued_bytes, conn.frames.len() * frame_len);
            conn.queued_bytes
        };
        assert!(
            (CONN_QUEUE_BYTES..CONN_QUEUE_BYTES + frame_len).contains(&queued),
            "{queued} bytes queued"
        );
        for i in 0..FRAMES {
            let (switch, _, _, frame) = coll.recv_timeout_tagged(Duration::from_secs(60)).unwrap();
            let Frame::ReportBlocks(chunk) = frame else {
                panic!("frame {i} arrived as something else");
            };
            assert_eq!((switch, chunk.blocks[0].first_seq), (5, i));
        }
        drop(writer.join().unwrap());
    }

    /// A reader that hands out at most `step` bytes per `read`.
    struct Drip<'a>(&'a [u8], usize);

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(self.1).min(out.len());
            out[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn recv_buf_grows_once_for_a_large_frame_and_never_for_a_refused_one() {
        use crate::codec::{encode_frame, HEADER_LEN, MAX_FRAME_LEN};
        // A 1 MB frame dripping in 1 000 bytes at a time, a small frame
        // glued behind it: both decode, and once the header is in, the
        // buffer is sized for the whole frame and does not move again.
        let big = block_frame(128 * 1024);
        let mut wire = encode_frame(&big);
        let big_len = wire.len();
        wire.extend_from_slice(&encode_frame(&Frame::Credit { window: 3 }));
        let mut src = Drip(&wire, 1_000);
        let mut buf = RecvBuf::default();
        let mut got = Vec::new();
        while got.len() < 2 {
            match buf.pop().unwrap() {
                Some((_, _, _, frame, used)) => got.push((frame, used)),
                None => {
                    let header_in = buf.tail - buf.head >= HEADER_LEN;
                    assert!(buf.fill(&mut src).unwrap() > 0, "ran dry early");
                    if header_in && got.is_empty() {
                        assert_eq!(buf.buf.len(), big_len + READ_CHUNK);
                    }
                }
            }
        }
        assert!(got[0].0 == big && got[0].1 == big_len);
        assert_eq!(got[1].0, Frame::Credit { window: 3 });

        // A header claiming one byte past the limit is refused as soon
        // as it is whole, and sizes nothing even if read on regardless.
        let mut bad = encode_frame(&Frame::Credit { window: 1 });
        bad[34..38].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut buf = RecvBuf::default();
        buf.fill(&mut &bad[..]).unwrap();
        assert_eq!(
            buf.pop().unwrap_err(),
            CodecError::FrameTooLarge(MAX_FRAME_LEN + 1)
        );
        buf.fill(&mut &[0u8; 64][..]).unwrap();
        assert_eq!(buf.buf.len(), bad.len() + READ_CHUNK);
    }

    #[test]
    fn severed_connection_reconnects_with_backoff_and_replays_hello() {
        let (mut client, mut coll, metrics) = pair();
        let hello = Frame::Hello {
            node: "sw".into(),
            plan_digest: 42,
        };
        client.send(TraceContext::NONE, 0, hello.clone()).unwrap();
        assert_eq!(coll.recv_timeout(Duration::from_secs(5)).unwrap().2, hello);
        coll.drop_connections();
        // Writes into a severed socket fail after the RST lands; the
        // client then re-dials and replays its Hello.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut reconnected = false;
        let mut w = 0u64;
        while Instant::now() < deadline {
            client
                .send(TraceContext::NONE, 0, Frame::Credit { window: w })
                .unwrap();
            w += 1;
            if metrics
                .handle()
                .snapshot()
                .counter_sum("sonata_net_reconnects_total")
                == 1
            {
                reconnected = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(reconnected, "client never noticed the severed connection");
        // The replayed Hello arrives on the new connection, followed
        // by the first post-reconnect frame.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_hello = false;
        while Instant::now() < deadline {
            match coll.recv_timeout(Duration::from_secs(5)).unwrap().2 {
                Frame::Hello { plan_digest, .. } => {
                    assert_eq!(plan_digest, 42);
                    saw_hello = true;
                    break;
                }
                Frame::Credit { .. } => continue,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert!(saw_hello, "Hello was not replayed after reconnect");
    }

    #[test]
    fn two_clients_reconnecting_interleaved_keep_per_switch_state() {
        // Regression for the latent single-peer assumption: with two
        // switches on one collector, reconnect + `Hello` replay and
        // reply routing must be keyed by switch_id, not "newest
        // connection wins".
        let metrics = NetMetrics::new(&ObsHandle::enabled());
        let mut coll = TcpCollectorTransport::bind(metrics.clone()).unwrap();
        let addr = coll.addr();
        let client = |switch_id: u16| {
            TcpClientTransport::connect(addr, metrics.clone(), TcpOptions { switch_id }).unwrap()
        };
        let mut a = client(1);
        let mut b = client(2);
        let hello = |sw: u16| Frame::Hello {
            node: format!("switch-{sw}"),
            plan_digest: 40 + sw as u64,
        };
        a.send(TraceContext::NONE, 0, hello(1)).unwrap();
        b.send(TraceContext::NONE, 0, hello(2)).unwrap();
        let mut seen = std::collections::BTreeMap::new();
        while seen.len() < 2 {
            let (sw, _, _, f) = coll.recv_timeout_tagged(Duration::from_secs(5)).unwrap();
            seen.insert(sw, f);
        }
        assert_eq!(seen.get(&1), Some(&hello(1)));
        assert_eq!(seen.get(&2), Some(&hello(2)));

        // Sever both, then reconnect interleaved: B first, then A.
        coll.drop_connections();
        let reconnected = |c: &mut TcpClientTransport, base: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut w = base;
            let before = metrics
                .handle()
                .snapshot()
                .counter_sum("sonata_net_reconnects_total");
            while Instant::now() < deadline {
                c.send(TraceContext::NONE, 0, Frame::Credit { window: w })
                    .unwrap();
                w += 1;
                let now = metrics
                    .handle()
                    .snapshot()
                    .counter_sum("sonata_net_reconnects_total");
                if now > before {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("client never noticed the severed connection");
        };
        reconnected(&mut b, 200);
        reconnected(&mut a, 100);

        // Each switch's own Hello — not the other's — is replayed on
        // its new connection.
        let mut replayed = std::collections::BTreeMap::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        while replayed.len() < 2 && Instant::now() < deadline {
            match coll.recv_timeout_tagged(Duration::from_secs(5)).unwrap() {
                (sw, _, _, f @ Frame::Hello { .. }) => {
                    replayed.insert(sw, f);
                }
                (_, _, _, Frame::Credit { .. }) => continue,
                (sw, _, _, other) => panic!("unexpected frame from switch {sw}: {other:?}"),
            }
        }
        assert_eq!(replayed.get(&1), Some(&hello(1)));
        assert_eq!(replayed.get(&2), Some(&hello(2)));

        // Targeted replies land on the right peer even though the
        // connection order is now B-then-A.
        coll.send_to(1, TraceContext::NONE, 0, &Frame::Credit { window: 71 })
            .unwrap();
        coll.send_to(2, TraceContext::NONE, 0, &Frame::Credit { window: 72 })
            .unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap().2,
            Frame::Credit { window: 71 }
        );
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap().2,
            Frame::Credit { window: 72 }
        );
    }
}
