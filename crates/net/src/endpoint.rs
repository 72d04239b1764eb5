//! Protocol endpoints: [`SwitchEndpoint`] wraps a [`Transport`] on the
//! switch side and owns the egress report-fault seam; the
//! [`CollectorEndpoint`] wraps the stream-processor side, verifying
//! session `Hello`s against the deployed plan digest.
//!
//! Re-homing the report faults here (instead of inside the switch
//! model) means the chaos suite exercises the *real* wire path: a
//! dropped report is a frame that never enters the transport, a
//! delayed one re-emerges behind later packets' frames. The verdict
//! sequence is identical to the old in-switch seam — the injector is
//! consulted once per fresh report, in packet order, per packet.
//! Without faults there is no per-report decision to make, and a
//! batch's reports leave as [`Frame::ReportBlocks`] chunks.

use crate::frame::Frame;
use crate::transport::{NetError, NetMetrics, Transport};
use sonata_faults::{FaultInjector, ReportVerdict};
use sonata_obs::{EventKind, TraceContext};
use sonata_packet::ArenaBatch;
use sonata_pisa::{ControlOp, Report, ReportBatch, WindowDump, CHUNK_BYTES};
use std::time::Duration;

/// Default blocking-receive timeout for protocol turns. Generous: a
/// turn only stalls when the peer crashed, and the driver surfaces the
/// timeout as a runtime error rather than hanging forever.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// Switch-side protocol endpoint.
pub struct SwitchEndpoint {
    t: Box<dyn Transport>,
    faults: FaultInjector,
    /// Reports held by a `Delay` verdict: `(due_packet, report)`.
    delayed: Vec<(u64, Report)>,
    /// Packets mirrored so far this window (drives delay release).
    window_packets: u64,
    metrics: NetMetrics,
    timeout: Duration,
    /// Session identity, kept so a switch rejoining a fabric can
    /// replay its `Hello` and have the collector re-verify the digest.
    node: String,
    plan_digest: u64,
    /// Epoch of the locally committed plan, stamped on every outgoing
    /// frame. Bumped by [`SwitchEndpoint::set_plan`] at a swap, or
    /// adopted from the collector (the epoch authority) when a control
    /// frame arrives stamped with a *newer* epoch.
    epoch: u64,
    /// Trace context stamped on every outgoing frame; the driver sets
    /// it to the window's root span at `WindowOpen` so the collector
    /// parents its half of the trace under the same `TraceId`.
    ctx: TraceContext,
}

impl SwitchEndpoint {
    /// Wrap `transport` and open the session with a `Hello` stamped
    /// with the committed plan's `epoch` (0 for an initial plan).
    pub fn new(
        mut transport: Box<dyn Transport>,
        faults: FaultInjector,
        metrics: NetMetrics,
        node: &str,
        plan_digest: u64,
        epoch: u64,
    ) -> Result<Self, NetError> {
        transport.send(
            TraceContext::NONE,
            epoch,
            Frame::Hello {
                node: node.to_string(),
                plan_digest,
            },
        )?;
        metrics.frames_tx.inc();
        Ok(SwitchEndpoint {
            t: transport,
            faults,
            delayed: Vec::new(),
            window_packets: 0,
            metrics,
            timeout: DEFAULT_TIMEOUT,
            node: node.to_string(),
            plan_digest,
            epoch,
            ctx: TraceContext::NONE,
        })
    }

    /// Epoch of the plan this endpoint currently stamps on frames.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commit a swapped-in plan: adopt its digest and epoch, then send
    /// a fresh `Hello` so the session identity (and, on `Tcp`, the
    /// cached reconnect-replay bytes) carries the new digest. Called
    /// at a window boundary — never mid-window — so every subsequent
    /// frame is stamped with the new epoch.
    pub fn set_plan(&mut self, plan_digest: u64, epoch: u64) -> Result<(), NetError> {
        self.plan_digest = plan_digest;
        self.epoch = epoch;
        self.resend_hello()
    }

    /// Set the trace context stamped on subsequent outgoing frames
    /// (the window's root span; [`TraceContext::NONE`] when tracing is
    /// off).
    pub fn set_ctx(&mut self, ctx: TraceContext) {
        self.ctx = ctx;
    }

    /// Replay the session `Hello` — a switch rejoining the fabric
    /// after an outage re-opens its session exactly like a fresh
    /// connection, letting the collector re-verify the plan digest.
    pub fn resend_hello(&mut self) -> Result<(), NetError> {
        let frame = Frame::Hello {
            node: self.node.clone(),
            plan_digest: self.plan_digest,
        };
        self.send(frame)
    }

    fn send(&mut self, frame: Frame) -> Result<(), NetError> {
        self.t.send(self.ctx, self.epoch, frame)?;
        self.metrics.frames_tx.inc();
        Ok(())
    }

    /// Epoch screen for inbound control-path frames. The collector is
    /// the epoch authority: a frame stamped newer means a swap was
    /// committed there first, so adopt its epoch; a frame stamped
    /// older is left over from a replaced plan and is rejected.
    fn screen_epoch(&mut self, theirs: u64) -> Result<(), NetError> {
        if theirs < self.epoch {
            return Err(NetError::StaleEpoch {
                theirs,
                ours: self.epoch,
            });
        }
        self.epoch = theirs;
        Ok(())
    }

    /// Announce a window.
    pub fn open_window(&mut self, window: u64, packets: u64) -> Result<(), NetError> {
        self.send(Frame::WindowOpen { window, packets })
    }

    /// Ship one packet's freshly mirrored reports through the egress
    /// fault seam. Must be called once per processed packet — even
    /// when `fresh` is empty — because delay verdicts are measured in
    /// packets, and previously delayed reports re-emerge in front of
    /// this packet's survivors (a true reorder on the mirror stream).
    pub fn send_packet_reports(&mut self, fresh: Vec<Report>) -> Result<(), NetError> {
        if !self.faults.is_enabled() {
            for r in fresh {
                self.send(Frame::Report(r))?;
            }
            return Ok(());
        }
        self.window_packets += 1;
        let now = self.window_packets;
        if !self.delayed.is_empty() {
            let mut pending = Vec::new();
            for (due, r) in std::mem::take(&mut self.delayed) {
                if due <= now {
                    self.send(Frame::Report(r))?;
                } else {
                    pending.push((due, r));
                }
            }
            self.delayed = pending;
        }
        for r in fresh {
            match self.faults.egress(r.task.query.0) {
                ReportVerdict::Deliver => self.send(Frame::Report(r))?,
                ReportVerdict::Drop => {}
                ReportVerdict::Duplicate => {
                    self.send(Frame::Report(r.clone()))?;
                    self.send(Frame::Report(r))?;
                }
                ReportVerdict::Delay { packets } => {
                    self.delayed.push((now + packets, r));
                }
            }
        }
        Ok(())
    }

    /// Ship a whole batch's reports, straight from the report batch
    /// and the packet batch it was produced from, calling `pump` after
    /// every send so a single-threaded driver's collector keeps
    /// draining. Fault-free windows ship [`Frame::ReportBlocks`] chunks
    /// of [`CHUNK_BYTES`]. The runtime's 1 024-packet slices ship one
    /// frame each; but a slice bounds packets, not bytes (a packet
    /// carries a row per task that mirrors it), so the budget is what
    /// keeps any batch under the codec's frame limit. With the fault
    /// seam on, every packet — even one that reported nothing, because
    /// delay verdicts are measured in packets — goes through
    /// [`Self::send_packet_reports`] as owned reports, the identical
    /// per-packet verdict sequence.
    pub fn send_batch_reports<E: From<NetError>>(
        &mut self,
        reports: &ReportBatch,
        batch: ArenaBatch<'_>,
        mut pump: impl FnMut() -> Result<(), E>,
    ) -> Result<(), E> {
        if self.faults.is_enabled() {
            for i in 0..reports.packets() {
                let fresh = reports.packet_reports(i, batch);
                self.send_packet_reports(fresh.map(|r| r.to_report()).collect())?;
                pump()?;
            }
            return Ok(());
        }
        let mut next = 0;
        while let Some((chunk, after)) = reports.chunk(next, batch, CHUNK_BYTES) {
            self.send(Frame::ReportBlocks(chunk))?;
            pump()?;
            next = after;
        }
        Ok(())
    }

    /// Ship the end-of-window register dump as one batch frame. The
    /// dump travels the control-adjacent path, not the mirror stream,
    /// so it bypasses the report-fault seam (matching the pre-wire
    /// runtime, where dump tuples went straight to the emitter).
    pub fn send_dump(&mut self, window: u64, dump: WindowDump) -> Result<(), NetError> {
        self.send(Frame::WindowDump { window, dump })
    }

    /// Close the window, carrying the switch's own stage latencies
    /// in-band (INT-style) for the collector's waterfall. Reports
    /// still held by a delay verdict are dropped and counted as late —
    /// bounded staleness: a report is never misattributed to the next
    /// window.
    pub fn close_window(
        &mut self,
        window: u64,
        packet_loop_ns: u64,
        dump_ns: u64,
        transport_ns: u64,
    ) -> Result<(), NetError> {
        if self.faults.is_enabled() {
            self.faults.note_late_drop(self.delayed.len() as u64);
            self.delayed.clear();
            self.window_packets = 0;
        }
        self.send(Frame::WindowClose {
            window,
            packet_loop_ns,
            dump_ns,
            transport_ns,
        })
    }

    /// Await the collector's control batch for `window`.
    pub fn recv_control(&mut self) -> Result<(u64, Vec<ControlOp>), NetError> {
        let (_, epoch, frame) = self.t.recv_timeout(self.timeout)?;
        self.metrics.frames_rx.inc();
        self.screen_epoch(epoch)?;
        match frame {
            Frame::Control { window, ops } => Ok((window, ops)),
            _ => Err(NetError::Protocol("expected Control")),
        }
    }

    /// Acknowledge an applied control batch.
    pub fn send_ack(
        &mut self,
        window: u64,
        entries_written: u64,
        latency_ns: u64,
    ) -> Result<(), NetError> {
        self.send(Frame::ControlAck {
            window,
            entries_written,
            latency_ns,
        })
    }

    /// Await the flow-control credit that opens the next window.
    pub fn recv_credit(&mut self) -> Result<u64, NetError> {
        let (_, epoch, frame) = self.t.recv_timeout(self.timeout)?;
        self.metrics.frames_rx.inc();
        self.screen_epoch(epoch)?;
        match frame {
            Frame::Credit { window } => Ok(window),
            _ => Err(NetError::Protocol("expected Credit")),
        }
    }
}

/// Collector-side (stream processor) protocol endpoint.
pub struct CollectorEndpoint {
    t: Box<dyn Transport>,
    metrics: NetMetrics,
    /// Digest of the locally deployed plan; `Hello`s must match.
    plan_digest: u64,
    /// Epoch of the locally committed plan. The collector is the
    /// epoch authority: it commits a swap first, stamps its control
    /// frames with the new epoch, and rejects non-`Hello` data frames
    /// stamped older (output of the replaced plan).
    epoch: u64,
    timeout: Duration,
    /// Trace context of the most recently received data frame — the
    /// switch's window root, under which the collector parents its
    /// half of the trace.
    last_ctx: TraceContext,
    /// Epoch stamped on the most recently received data frame; the
    /// fabric tags each switch's window contribution with this so a
    /// cross-epoch merge can be refused.
    last_epoch: u64,
    /// The window the switch last opened (labels `NetFrame` events of
    /// frames that do not name theirs).
    window: u64,
    /// Trace context stamped on outgoing control frames.
    ctx: TraceContext,
}

impl CollectorEndpoint {
    /// Wrap the collector side of a transport; `epoch` is the
    /// committed plan's epoch (0 for an initial plan).
    pub fn new(
        transport: Box<dyn Transport>,
        metrics: NetMetrics,
        plan_digest: u64,
        epoch: u64,
    ) -> Self {
        CollectorEndpoint {
            t: transport,
            metrics,
            plan_digest,
            epoch,
            timeout: DEFAULT_TIMEOUT,
            last_ctx: TraceContext::NONE,
            last_epoch: epoch,
            window: 0,
            ctx: TraceContext::NONE,
        }
    }

    /// Trace context carried by the most recently received data frame
    /// ([`TraceContext::NONE`] before the first, or when tracing is
    /// off).
    pub fn last_ctx(&self) -> TraceContext {
        self.last_ctx
    }

    /// Epoch stamped on the most recently received data frame (the
    /// committed epoch before the first).
    pub fn last_epoch(&self) -> u64 {
        self.last_epoch
    }

    /// Epoch of the plan this endpoint currently stamps on frames.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Commit a swapped-in plan: subsequent `Hello`s must carry the
    /// new digest, outgoing control frames are stamped with the new
    /// epoch, and data frames from the replaced plan are rejected.
    pub fn set_plan(&mut self, plan_digest: u64, epoch: u64) {
        self.plan_digest = plan_digest;
        self.epoch = epoch;
        self.last_epoch = epoch;
    }

    /// Set the trace context stamped on subsequent outgoing frames.
    pub fn set_ctx(&mut self, ctx: TraceContext) {
        self.ctx = ctx;
    }

    /// Verify a session `Hello` against the deployed plan.
    fn check_hello(&self, theirs: u64) -> Result<(), NetError> {
        if theirs == self.plan_digest {
            Ok(())
        } else {
            Err(NetError::PlanMismatch {
                theirs,
                ours: self.plan_digest,
            })
        }
    }

    /// Count a received data frame; the bulk ones (dump, report
    /// blocks) also log the length the transport saw on the wire.
    fn note_rx(&mut self, frame: &Frame) {
        self.metrics.frames_rx.inc();
        if let Frame::WindowOpen { window, .. } = frame {
            self.window = *window;
        }
        if matches!(frame, Frame::WindowDump { .. } | Frame::ReportBlocks(_))
            && self.metrics.handle().is_enabled()
        {
            self.metrics.handle().event(EventKind::NetFrame {
                window: self.window,
                kind: frame.label().to_string(),
                bytes: self.t.last_rx_len() as u64,
            });
        }
    }

    /// Epoch screen for inbound data frames: a non-`Hello` frame
    /// stamped older than the committed epoch is output of a plan the
    /// collector already swapped away from. (`Hello`s are exempt —
    /// they are identity, not plan output, and are guarded by the
    /// digest check instead, so a rejoining switch can always open a
    /// session and be brought forward.)
    fn screen_epoch(&self, theirs: u64) -> Result<(), NetError> {
        if theirs < self.epoch {
            return Err(NetError::StaleEpoch {
                theirs,
                ours: self.epoch,
            });
        }
        Ok(())
    }

    /// Receive the next data frame if one is already buffered.
    /// Session `Hello`s (initial or post-reconnect) are verified and
    /// filtered out of the data stream.
    pub fn try_recv_frame(&mut self) -> Result<Option<Frame>, NetError> {
        loop {
            match self.t.try_recv()? {
                Some((_, _, Frame::Hello { plan_digest, .. })) => {
                    self.metrics.frames_rx.inc();
                    self.check_hello(plan_digest)?;
                }
                Some((ctx, epoch, frame)) => {
                    self.screen_epoch(epoch)?;
                    self.last_ctx = ctx;
                    self.last_epoch = epoch;
                    self.note_rx(&frame);
                    return Ok(Some(frame));
                }
                None => return Ok(None),
            }
        }
    }

    /// Receive the next data frame, blocking up to the endpoint
    /// timeout.
    pub fn recv_frame(&mut self) -> Result<Frame, NetError> {
        loop {
            match self.t.recv_timeout(self.timeout)? {
                (_, _, Frame::Hello { plan_digest, .. }) => {
                    self.metrics.frames_rx.inc();
                    self.check_hello(plan_digest)?;
                }
                (ctx, epoch, frame) => {
                    self.screen_epoch(epoch)?;
                    self.last_ctx = ctx;
                    self.last_epoch = epoch;
                    self.note_rx(&frame);
                    return Ok(frame);
                }
            }
        }
    }

    /// Send the control batch closing `window`.
    pub fn send_control(&mut self, window: u64, ops: &[ControlOp]) -> Result<(), NetError> {
        let frame = Frame::Control {
            window,
            ops: ops.to_vec(),
        };
        if self.metrics.handle().is_enabled() {
            self.metrics.handle().event(EventKind::NetFrame {
                window,
                kind: frame.label().to_string(),
                bytes: crate::codec::encode_frame(&frame).len() as u64,
            });
        }
        self.t.send(self.ctx, self.epoch, frame)?;
        self.metrics.frames_tx.inc();
        Ok(())
    }

    /// Await the switch's acknowledgement of a control batch. Returns
    /// `(entries_written, latency_ns)`.
    pub fn recv_ack(&mut self) -> Result<(u64, u64), NetError> {
        let (_, epoch, frame) = self.t.recv_timeout(self.timeout)?;
        self.metrics.frames_rx.inc();
        self.screen_epoch(epoch)?;
        match frame {
            Frame::ControlAck {
                entries_written,
                latency_ns,
                ..
            } => Ok((entries_written, latency_ns)),
            _ => Err(NetError::Protocol("expected ControlAck")),
        }
    }

    /// Grant the credit that lets the switch open the next window.
    pub fn send_credit(&mut self, window: u64) -> Result<(), NetError> {
        self.t
            .send(self.ctx, self.epoch, Frame::Credit { window })?;
        self.metrics.frames_tx.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::loopback_pair;
    use sonata_faults::{FaultKind, FaultPlan, ReportFaults};
    use sonata_obs::ObsHandle;
    use sonata_pisa::{ReportKind, TaskId};
    use sonata_query::QueryId;

    fn report(seq: u64) -> Report {
        Report {
            task: TaskId {
                query: QueryId(1),
                level: 32,
                branch: 0,
            },
            kind: ReportKind::Tuple,
            columns: vec![("ipv4.src".into(), seq)],
            packet: None,
            entry_op: None,
            seq,
        }
    }

    fn faulted_pair(
        report_faults: ReportFaults,
    ) -> (SwitchEndpoint, CollectorEndpoint, FaultInjector) {
        let plan = FaultPlan {
            seed: 3,
            report: report_faults,
            ..FaultPlan::default()
        };
        let inj = FaultInjector::from_plan(&plan);
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(1024, &metrics);
        let sw =
            SwitchEndpoint::new(Box::new(sw_t), inj.clone(), metrics.clone(), "sw", 7, 0).unwrap();
        let sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        (sw, sp, inj)
    }

    fn drain_reports(sp: &mut CollectorEndpoint) -> Vec<Report> {
        let mut out = Vec::new();
        while let Some(frame) = sp.try_recv_frame().unwrap() {
            match frame {
                Frame::Report(r) => out.push(r),
                Frame::WindowClose { .. } => break,
                _ => {}
            }
        }
        out
    }

    #[test]
    fn egress_drop_loses_reports_at_the_transport_seam() {
        let (mut sw, mut sp, inj) = faulted_pair(ReportFaults {
            drop_per_mille: 1000,
            ..ReportFaults::default()
        });
        inj.begin_window(0);
        for i in 0..5 {
            sw.send_packet_reports(vec![report(i)]).unwrap();
        }
        sw.close_window(0, 0, 0, 0).unwrap();
        assert!(drain_reports(&mut sp).is_empty());
        assert_eq!(inj.take_window_record().get(FaultKind::ReportDrop), 5);
    }

    #[test]
    fn egress_duplicate_repeats_the_same_seq_on_the_wire() {
        let (mut sw, mut sp, inj) = faulted_pair(ReportFaults {
            duplicate_per_mille: 1000,
            ..ReportFaults::default()
        });
        inj.begin_window(0);
        sw.send_packet_reports(vec![report(0)]).unwrap();
        sw.close_window(0, 0, 0, 0).unwrap();
        let got = drain_reports(&mut sp);
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].seq, got[1].seq);
        assert_eq!(got[0].columns, got[1].columns);
    }

    #[test]
    fn egress_delay_reorders_within_window_and_late_drops_at_close() {
        let (mut sw, mut sp, inj) = faulted_pair(ReportFaults {
            delay_per_mille: 1000,
            delay_packets: 2,
            ..ReportFaults::default()
        });
        inj.begin_window(0);
        // Every report is held 2 packets: packet i's report surfaces
        // with packet i+2 (itself delayed), so nothing crosses the
        // transport until the third packet releases packet 0's report.
        sw.send_packet_reports(vec![report(0)]).unwrap();
        sw.send_packet_reports(vec![report(1)]).unwrap();
        assert!(drain_reports(&mut sp).is_empty());
        sw.send_packet_reports(vec![report(2)]).unwrap();
        let got = drain_reports(&mut sp);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 0);
        // Reports from packets 1 and 2 are still in flight at close:
        // dropped late, never leaked into the next window.
        sw.close_window(0, 0, 0, 0).unwrap();
        let rec = inj.take_window_record();
        assert_eq!(rec.get(FaultKind::ReportLateDrop), 2);
        assert_eq!(rec.get(FaultKind::ReportDelay), 3);
        inj.begin_window(1);
        sw.send_packet_reports(vec![]).unwrap();
        sw.close_window(1, 0, 0, 0).unwrap();
        let leaked: Vec<_> = drain_reports(&mut sp);
        assert!(leaked.is_empty(), "no cross-window leak");
    }

    #[test]
    fn hello_digest_mismatch_is_rejected() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(16, &metrics);
        let _sw = SwitchEndpoint::new(
            Box::new(sw_t),
            FaultInjector::disabled(),
            metrics.clone(),
            "sw",
            99,
            0,
        )
        .unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        assert_eq!(
            sp.try_recv_frame().unwrap_err(),
            NetError::PlanMismatch {
                theirs: 99,
                ours: 7
            }
        );
    }

    #[test]
    fn lockstep_control_turn_round_trips() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(64, &metrics);
        let mut sw = SwitchEndpoint::new(
            Box::new(sw_t),
            FaultInjector::disabled(),
            metrics.clone(),
            "sw",
            7,
            0,
        )
        .unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        let root = TraceContext::root(0, 0);
        sw.set_ctx(root);
        sw.open_window(0, 1).unwrap();
        sw.send_packet_reports(vec![report(0)]).unwrap();
        sw.send_dump(0, WindowDump::default()).unwrap();
        sw.close_window(0, 0, 0, 0).unwrap();
        // Collector drains the window…
        let mut closed = false;
        while let Some(f) = sp.try_recv_frame().unwrap() {
            if matches!(f, Frame::WindowClose { .. }) {
                closed = true;
                break;
            }
        }
        assert!(closed);
        // …inheriting the switch's window root as its parent context…
        assert_eq!(sp.last_ctx(), root);
        // …then runs the control turn.
        sp.send_control(0, &[ControlOp::ResetRegisters]).unwrap();
        let (window, ops) = sw.recv_control().unwrap();
        assert_eq!(window, 0);
        assert_eq!(ops, vec![ControlOp::ResetRegisters]);
        sw.send_ack(0, 0, 123).unwrap();
        assert_eq!(sp.recv_ack().unwrap(), (0, 123));
        sp.send_credit(0).unwrap();
        assert_eq!(sw.recv_credit().unwrap(), 0);
    }

    #[test]
    fn stale_epoch_data_frames_are_rejected_after_a_swap() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(64, &metrics);
        let mut sw = SwitchEndpoint::new(
            Box::new(sw_t),
            FaultInjector::disabled(),
            metrics.clone(),
            "sw",
            7,
            0,
        )
        .unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        // Drain the session Hello while both sides agree.
        assert!(sp.try_recv_frame().unwrap().is_none());
        // A frame sent under epoch 0 lands after the collector has
        // committed epoch 1: output of the replaced plan, rejected
        // with a typed error — this is the torn-window guard.
        sw.open_window(3, 1).unwrap();
        sp.set_plan(9, 1);
        assert_eq!(
            sp.try_recv_frame().unwrap_err(),
            NetError::StaleEpoch { theirs: 0, ours: 1 }
        );
    }

    #[test]
    fn swap_resends_hello_and_stamps_the_new_epoch() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(64, &metrics);
        let mut sw = SwitchEndpoint::new(
            Box::new(sw_t),
            FaultInjector::disabled(),
            metrics.clone(),
            "sw",
            7,
            0,
        )
        .unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        assert!(sp.try_recv_frame().unwrap().is_none());
        // Boundary swap: collector first (it is the authority), then
        // the switch; the switch's fresh Hello carries the new digest.
        sp.set_plan(9, 1);
        sw.set_plan(9, 1).unwrap();
        assert_eq!(sw.epoch(), 1);
        sw.open_window(4, 1).unwrap();
        // The swapped Hello verifies against the new digest and the
        // window frame passes the epoch screen.
        assert!(matches!(
            sp.try_recv_frame().unwrap(),
            Some(Frame::WindowOpen { window: 4, .. })
        ));
        assert_eq!(sp.last_epoch(), 1);
        // Control path stamps the collector's epoch; the switch
        // adopts it (no-op here, already equal).
        sp.send_credit(4).unwrap();
        assert_eq!(sw.recv_credit().unwrap(), 4);
        assert_eq!(sw.epoch(), 1);
    }

    #[test]
    fn switch_adopts_a_newer_epoch_from_the_collector() {
        let metrics = NetMetrics::new(&ObsHandle::disabled());
        let (sw_t, sp_t) = loopback_pair(64, &metrics);
        let mut sw = SwitchEndpoint::new(
            Box::new(sw_t),
            FaultInjector::disabled(),
            metrics.clone(),
            "sw",
            7,
            0,
        )
        .unwrap();
        let mut sp = CollectorEndpoint::new(Box::new(sp_t), metrics, 7, 0);
        assert!(sp.try_recv_frame().unwrap().is_none());
        // The collector commits epoch 2 and grants a credit; the
        // switch learns the fabric moved on from the stamp alone.
        sp.set_plan(7, 2);
        sp.send_credit(0).unwrap();
        assert_eq!(sw.recv_credit().unwrap(), 0);
        assert_eq!(sw.epoch(), 2);
    }
}
