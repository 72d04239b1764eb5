//! Reusable report arena for batch execution.
//!
//! [`crate::switch::Switch::process_batch`] collects every report a
//! window's packets produce into one [`ReportBatch`] instead of a
//! fresh `Vec<Report>` per packet: entries are fixed-width records
//! whose columns live in one shared pool, and mirrored packets are
//! stored as *indices into the arena batch* rather than owned
//! [`Packet`](sonata_packet::Packet) clones. Consumers walk
//! [`ReportBatch::packet_reports`] to get borrowed [`ReportRef`]s in
//! the exact order the per-packet path would have produced owned
//! [`Report`]s; [`ReportRef::to_report`] materializes one only when an
//! owned value is genuinely needed (loopback transport hand-off,
//! fault-injection replay).

use crate::ir::TaskId;
use crate::switch::{Report, ReportKind};
use sonata_packet::{ArenaBatch, PacketView};
use sonata_query::ColName;

/// One report record: a slice of the shared column pool plus the
/// source packet's index in the arena batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BatchEntry {
    pub task: TaskId,
    /// Dense task index (which sequence counter numbers the report).
    pub task_idx: u32,
    pub kind: ReportKind,
    pub col_start: u32,
    pub col_end: u32,
    /// Batch index of the packet that produced the report.
    pub pkt: u32,
    /// Step index of the `Update` that shunted (orders one packet's
    /// shunts as the per-packet path emits them); unused for mirrors.
    pub rank: u32,
    /// Whether the report carries the packet itself.
    pub mirrored: bool,
    pub entry_op: Option<usize>,
    /// Assigned by [`ReportBatch::emit`].
    pub seq: u64,
}

/// A window's worth of reports in struct-of-arrays form, reused
/// across windows (`reset` retains all allocations, so the
/// steady-state batch loop performs no heap allocation).
///
/// Batch execution runs task-major kernels, then a packet-major
/// deparser. Kernels [`stage`](Self::stage) the (rare) shunts they
/// produce; the deparser walks packets in order, first
/// [`flush`](Self::flush_through)ing each packet's staged shunts, then
/// [`emit`](Self::emit)ting its mirrors — so `entries` is built
/// directly in the order the per-packet path reports.
#[derive(Debug, Default)]
pub struct ReportBatch {
    /// Shunts in kernel (task-major) order, sorted before deparsing.
    staged: Vec<BatchEntry>,
    /// How many of `staged` the deparser has flushed.
    flushed: usize,
    /// Reports in final, packet-major order.
    entries: Vec<BatchEntry>,
    /// Shared column pool all entries slice into.
    cols: Vec<(ColName, u64)>,
    /// `ends[i]` is one past packet `i`'s last entry; its first is
    /// `ends[i - 1]` (0 for the first packet).
    ends: Vec<u32>,
}

impl ReportBatch {
    /// An empty batch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        ReportBatch::default()
    }

    /// Clear for a new batch of `n` packets, retaining capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.staged.clear();
        self.flushed = 0;
        self.entries.clear();
        self.cols.clear();
        self.ends.clear();
        self.ends.resize(n, 0);
    }

    /// Start a report's column run in the shared pool; the run ends
    /// where the pool does when the entry is staged or emitted.
    pub(crate) fn begin_report(&mut self) -> u32 {
        self.cols.len() as u32
    }

    pub(crate) fn push_col(&mut self, name: &ColName, v: u64) {
        self.cols.push((name.clone(), v));
    }

    /// Hold a kernel's shunt for the deparser.
    pub(crate) fn stage(&mut self, mut entry: BatchEntry) {
        entry.col_end = self.cols.len() as u32;
        self.staged.push(entry);
    }

    /// Put the staged shunts in deparser order: by packet, then by
    /// the step that shunted. (A packet has at most one per step, so
    /// the unstable sort is deterministic.)
    pub(crate) fn sort_staged(&mut self) {
        self.staged.sort_unstable_by_key(|e| (e.pkt, e.rank));
    }

    /// Emit the staged shunts of every packet up to and including
    /// `pkt`.
    pub(crate) fn flush_through(&mut self, pkt: u32, task_seq: &mut [u64]) {
        while let Some(&e) = self.staged.get(self.flushed).filter(|e| e.pkt <= pkt) {
            self.flushed += 1;
            self.number_and_push(e, task_seq);
        }
    }

    /// Append a freshly built report (a mirror) in final order.
    pub(crate) fn emit(&mut self, mut entry: BatchEntry, task_seq: &mut [u64]) {
        entry.col_end = self.cols.len() as u32;
        self.number_and_push(entry, task_seq);
    }

    /// Numbering a report only as it enters the final order — not when
    /// a kernel produces it — is what makes `seq` follow packet order:
    /// a kernel stages all of one `Update`'s shunts before the next
    /// step's, and every mirror comes later still.
    fn number_and_push(&mut self, mut entry: BatchEntry, task_seq: &mut [u64]) {
        let seq = &mut task_seq[entry.task_idx as usize];
        entry.seq = *seq;
        *seq += 1;
        self.entries.push(entry);
        self.ends[entry.pkt as usize] = self.entries.len() as u32;
    }

    /// Flush what is still staged and close every packet's range.
    pub(crate) fn finish(&mut self, task_seq: &mut [u64]) {
        self.flush_through(u32::MAX, task_seq);
        // Packets that reported nothing end where their predecessor did.
        let mut last = 0;
        for end in &mut self.ends {
            last = last.max(*end);
            *end = last;
        }
    }

    /// Number of packets recorded so far.
    pub fn packets(&self) -> usize {
        self.ends.len()
    }

    /// Total reports across all packets.
    pub fn total_reports(&self) -> usize {
        self.entries.len()
    }

    /// Whether no packet emitted anything.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The first packet at or after `from` that produced a report —
    /// shippers step through these instead of through every packet.
    pub fn next_reporting(&self, from: usize) -> Option<usize> {
        let first = match from {
            0 => 0,
            _ => *self.ends.get(from - 1)?,
        };
        self.entries.get(first as usize).map(|e| e.pkt as usize)
    }

    /// The reports packet `i` produced, in emission order, borrowing
    /// mirrored packet bytes from `batch` — which must be the same
    /// [`ArenaBatch`] the reports were produced from.
    pub fn packet_reports<'s, 'a: 's>(
        &'s self,
        i: usize,
        batch: ArenaBatch<'a>,
    ) -> impl Iterator<Item = ReportRef<'s, 'a>> + 's {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        self.entries[start as usize..self.ends[i] as usize]
            .iter()
            .map(move |e| ReportRef {
                task: e.task,
                kind: e.kind,
                columns: &self.cols[e.col_start as usize..e.col_end as usize],
                packet: e.mirrored.then(|| batch.view(e.pkt as usize)),
                entry_op: e.entry_op,
                seq: e.seq,
            })
    }
}

/// A borrowed view of one report: columns point into the
/// [`ReportBatch`] pool, the mirrored packet (if any) into the packet
/// arena. Conversion to an owned [`Report`] is deferred to the ship
/// boundary — and skipped entirely on transports that can encode
/// straight from borrowed slices.
#[derive(Debug, Clone, Copy)]
pub struct ReportRef<'b, 'a> {
    /// Originating task.
    pub task: TaskId,
    /// Tuple or shunt (window dumps never pass through the batch).
    pub kind: ReportKind,
    /// Report columns in program order.
    pub columns: &'b [(ColName, u64)],
    /// Borrowed view of the mirrored packet, when the query asked for
    /// packet payloads.
    pub packet: Option<PacketView<'a>>,
    /// Shunt entry op, `None` for tuples.
    pub entry_op: Option<usize>,
    /// Per-task window sequence number.
    pub seq: u64,
}

impl ReportRef<'_, '_> {
    /// Materialize an owned [`Report`]. The arena invariant (every
    /// record is `Packet::decode`-able — enforced when arenas are
    /// built) means the deferred decode cannot fail for well-formed
    /// arenas; a hand-built arena with an undecodable record degrades
    /// to `packet: None` rather than panicking.
    pub fn to_report(&self) -> Report {
        Report {
            task: self.task,
            kind: self.kind,
            columns: self.columns.to_vec(),
            packet: self.packet.and_then(|v| v.decode().ok()),
            entry_op: self.entry_op,
            seq: self.seq,
        }
    }
}
