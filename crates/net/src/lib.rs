//! `sonata-net`: the wire protocol and transport layer between the
//! PISA switch and the stream-processor collector.
//!
//! The pre-wire runtime passed reports, window dumps, and control
//! operations between the switch model and the stream processor as
//! in-process function calls. This crate makes that boundary explicit:
//!
//! * [`frame`] — the boundary vocabulary as one typed [`Frame`] enum
//!   (session hello, window open/close markers, report-block chunks
//!   and single reports, the batched window dump, control batches,
//!   acks, and flow-control credits).
//! * [`codec`] — a versioned binary wire format: length-prefixed
//!   framing with a magic + version header and a per-frame CRC-32.
//!   Decoding never panics; malformed input returns a typed
//!   [`CodecError`].
//! * [`transport`] — the [`Transport`] trait plus the bounded
//!   [`FrameQueue`] and the `sonata_net_*` metric family.
//! * [`loopback`] — the default in-process backend: deterministic,
//!   no byte serialization, bit-identical to the pre-wire runtime.
//! * [`tcp`] — localhost TCP sockets: a client with reconnect +
//!   exponential backoff and a collector server with per-connection
//!   bounded queues (high-watermark backpressure).
//! * [`endpoint`] — protocol endpoints over a transport; the switch
//!   endpoint owns the egress report-fault seam, so injected report
//!   faults act on the real wire path.
//!
//! The protocol is window-lockstep: the collector grants a credit only
//! after fully draining a closed window, bounding switch run-ahead to
//! one window and keeping TCP runs bit-identical to loopback runs.
//!
//! Every frame header also carries the sender's committed **plan
//! epoch** (v4): an online re-plan swaps in an epoch-bumped plan at a
//! window boundary, and frames stamped with a replaced plan's epoch
//! are rejected with [`transport::NetError::StaleEpoch`] instead of
//! being merged — no window is ever assembled from two plans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod endpoint;
pub mod frame;
pub mod loopback;
pub mod tcp;
pub mod transport;

pub use codec::{
    crc32, decode_frame, decode_frame_tagged, encode_frame, encode_frame_ctx, encode_frame_from,
    encode_frame_into, CodecError, HEADER_LEN, MAGIC, MAX_FRAME_LEN, VERSION,
};
pub use endpoint::{CollectorEndpoint, SwitchEndpoint, DEFAULT_TIMEOUT};
pub use frame::Frame;
pub use loopback::{loopback_pair, LoopbackTransport, DEFAULT_CAPACITY};
pub use tcp::{tcp_pair, TcpClientTransport, TcpCollectorTransport, TcpOptions};
pub use transport::{FrameQueue, NetError, NetMetrics, Transport, TransportKind};
