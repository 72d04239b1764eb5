//! The boundary vocabulary: every message that crosses the wire
//! between the switch's mirror/control ports and the stream-processor
//! collector, as one typed enum.
//!
//! The protocol is window-lockstep: per window the switch sends
//! `WindowOpen`, the mirrored reports (`ReportBlocks` chunks; single
//! `Report`s when the fault seam is on), one `WindowDump`, and
//! `WindowClose`; the collector replies with one `Control` batch,
//! receives a `ControlAck`, and finally grants a `Credit` that lets
//! the switch open the next window. `Hello` opens (and, after a
//! reconnect, resumes) a session and carries the plan digest both
//! sides must agree on.

use sonata_pisa::{ControlOp, Report, ReportChunk, WindowDump};

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Session open / plan-registration sync. Sent first on every
    /// connection (including reconnects); the collector rejects a
    /// digest that does not match its deployed plan.
    Hello {
        /// Switch node name (diagnostic).
        node: String,
        /// Digest of the deployed plan's task set.
        plan_digest: u64,
    },
    /// A window started on the switch.
    WindowOpen {
        /// Window index.
        window: u64,
        /// Packets the switch will process this window.
        packets: u64,
    },
    /// One mirrored report (per-packet tuple or collision shunt): the
    /// one-row form the egress fault seam and the per-packet oracle
    /// path ship.
    Report(Report),
    /// A chunk of a batch's mirrored reports as per-task column blocks,
    /// each carried packet once, as the fields the plan reads (v8).
    ReportBlocks(ReportChunk),
    /// The end-of-window register dump, sent as a single batch frame
    /// (batch coalescing: one frame instead of one per dump tuple).
    WindowDump {
        /// Window index.
        window: u64,
        /// The dump.
        dump: WindowDump,
    },
    /// The switch finished the window's mirror stream. Carries the
    /// switch's own stage latencies in-band (INT-style): the collector
    /// attributes per-switch waterfall segments from these fields
    /// without a side channel, even when the halves run on different
    /// threads or hosts. All three are 0 when observability is off.
    WindowClose {
        /// Window index.
        window: u64,
        /// Switch-side packet-loop wall time for the window.
        packet_loop_ns: u64,
        /// Switch-side register-dump (encode) wall time.
        dump_ns: u64,
        /// Switch-side wire egress (dump send) wall time.
        transport_ns: u64,
    },
    /// Control-plane batch from the collector: dynamic-filter boundary
    /// writes and register resets.
    Control {
        /// Window index the batch closes.
        window: u64,
        /// The operations, applied in order.
        ops: Vec<ControlOp>,
    },
    /// The switch applied a control batch.
    ControlAck {
        /// Window index.
        window: u64,
        /// Dynamic-filter entries written.
        entries_written: u64,
        /// Simulated control-plane latency.
        latency_ns: u64,
    },
    /// Flow-control credit: the switch may open the next window. The
    /// collector grants it only after fully draining the closed
    /// window, which bounds switch-side run-ahead to one window.
    Credit {
        /// The window being credited (the one just completed).
        window: u64,
    },
}

impl Frame {
    /// Wire type tag.
    pub fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 1,
            Frame::WindowOpen { .. } => 2,
            Frame::Report(_) => 3,
            Frame::WindowDump { .. } => 4,
            Frame::WindowClose { .. } => 5,
            Frame::Control { .. } => 6,
            Frame::ControlAck { .. } => 7,
            Frame::Credit { .. } => 8,
            Frame::ReportBlocks(_) => 9,
        }
    }

    /// Short label for events and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "hello",
            Frame::WindowOpen { .. } => "window_open",
            Frame::Report(_) => "report",
            Frame::ReportBlocks(_) => "report_blocks",
            Frame::WindowDump { .. } => "window_dump",
            Frame::WindowClose { .. } => "window_close",
            Frame::Control { .. } => "control",
            Frame::ControlAck { .. } => "control_ack",
            Frame::Credit { .. } => "credit",
        }
    }
}
