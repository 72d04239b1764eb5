//! Reusable report arena for batch execution.
//!
//! [`crate::switch::Switch::process_batch`] collects every report a
//! window's packets produce into one [`ReportBatch`] instead of a
//! fresh `Vec<Report>` per packet. Reports are rows of
//! [`ReportBlock`]s — one per task, header and column names stated
//! once, values as flat `u64` cells, mirrored packets as *indices into
//! the arena batch* rather than owned
//! [`Packet`](sonata_packet::Packet) clones — and a packet-major order
//! index remembers which row came when. [`ReportBatch::chunk`] cuts
//! the blocks into self-contained [`ReportChunk`]s, the form that
//! crosses the wire and that the emitter reads in place;
//! [`ReportBatch::packet_reports`] walks one packet's rows as borrowed
//! [`ReportRef`]s in the exact order the reference interpreter
//! produces owned [`Report`]s, for oracles and the fault seam.

use crate::ir::TaskId;
use crate::switch::{Report, ReportKind};
use sonata_packet::{ArenaBatch, PacketArena, PacketView};
use sonata_query::ColName;
use std::sync::Arc;

/// One run of a task's mirrored reports that share everything but
/// their values: the header is stated once, the rows are flat `u64`
/// cells. Row `r` is the report `(task, kind, entry_op, seq =
/// first_seq + r)` whose columns pair `names` with
/// `cells[r * width..][..width]`.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportBlock {
    /// The reporting task.
    pub task: TaskId,
    /// [`ReportKind::Tuple`] or [`ReportKind::Shunt`] (window dumps
    /// travel as [`DumpBlock`](crate::switch::DumpBlock)s).
    pub kind: ReportKind,
    /// Residual-pipeline operator the rows enter at (shunts); `None`
    /// is the task's default resume point.
    pub entry_op: Option<usize>,
    /// Report sequence number of row 0; rows number consecutively.
    pub first_seq: u64,
    /// Column names, bound once at load and shared by every block the
    /// report layout ever fills.
    pub names: Arc<[ColName]>,
    /// Rows held (stated, not derived: a packet mirror has no columns).
    pub rows: usize,
    /// `rows × names.len()` values, row-major.
    pub cells: Vec<u64>,
    /// The packet each row carries, as an index into the packets that
    /// travel with the block — the arena batch on the switch, the
    /// chunk's own packets once cut. Empty when the rows carry none.
    pub pkts: Vec<u32>,
}

impl ReportBlock {
    /// Values per row.
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// Whether `cells` and `pkts` hold exactly `rows` rows. Blocks the
    /// switch builds always do; one built by hand may not, and the
    /// emitter drops it.
    pub fn is_well_formed(&self) -> bool {
        self.rows.checked_mul(self.width()) == Some(self.cells.len())
            && (self.pkts.is_empty() || self.pkts.len() == self.rows)
    }

    /// Row `r` as a borrowed report over `packets`.
    fn row<'b, 'a>(&'b self, r: usize, packets: ArenaBatch<'a>) -> ReportRef<'b, 'a> {
        let width = self.width();
        let pkt = self.pkts.get(r).map(|&p| p as usize);
        ReportRef {
            task: self.task,
            kind: self.kind,
            names: &self.names,
            cells: &self.cells[r * width..(r + 1) * width],
            packet: pkt.filter(|&p| p < packets.len()).map(|p| packets.view(p)),
            entry_op: self.entry_op,
            seq: self.first_seq.wrapping_add(r as u64),
        }
    }
}

/// A self-contained slice of a batch's reports: the wire bytes of
/// every packet some row carries, once, and the blocks, whose `pkts`
/// index into `packets`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportChunk {
    /// The carried packets, in first-reference order.
    pub packets: PacketArena,
    /// The blocks, in the order their first row was reported.
    pub blocks: Vec<ReportBlock>,
}

impl ReportChunk {
    /// Materialize every row of every well-formed block as an owned
    /// [`Report`], block by block — for tests and oracles; the emitter
    /// reads the cells in place. A row whose packet is absent or
    /// undecodable materializes without one, as
    /// [`ReportRef::to_report`] degrades.
    pub fn reports(&self) -> impl Iterator<Item = Report> + '_ {
        let blocks = self.blocks.iter().filter(|b| b.is_well_formed());
        blocks.flat_map(|b| (0..b.rows).map(|r| b.row(r, self.packets.batch()).to_report()))
    }
}

/// The chunk budget shippers pass to [`ReportBatch::chunk`]: large
/// enough that a frame's fixed costs vanish, and a 64th of the wire's
/// frame limit, so no window size — only a single row wider than the
/// limit itself — can produce an oversized frame.
pub const CHUNK_BYTES: usize = 1 << 20;

/// What every row of one block shares: a report layout of the lowered
/// plan (a task's mirror, or one `Update`'s shunt), stated once there.
#[derive(Debug, Clone)]
pub(crate) struct BlockShape {
    pub task: TaskId,
    /// Dense task index (which sequence counter numbers the rows).
    pub task_idx: usize,
    pub kind: ReportKind,
    pub entry_op: Option<usize>,
    /// Column names, bound once at lowering and shared by every block
    /// the layout ever fills.
    pub names: Arc<[ColName]>,
    /// Whether the rows carry the packet itself.
    pub with_packet: bool,
}

/// A shunt a kernel produced, held until the deparser reaches its
/// packet.
#[derive(Debug)]
struct Staged {
    pkt: u32,
    /// Step index of the `Update` that shunted: orders one packet's
    /// shunts as the reference interpreter emits them.
    rank: u32,
    shape: BlockShape,
    /// Where its cells start in `ReportBatch::staged_cells`.
    cells: usize,
}

/// The reports in final form: blocks plus the packet-major order index.
#[derive(Debug, Default)]
struct Placed {
    /// Blocks in opening order. Only the first `live` belong to this
    /// batch; the rest keep their buffers for the next one.
    blocks: Vec<ReportBlock>,
    live: usize,
    /// Per dense task index, the block the task's next report extends
    /// if it has the same kind and entry op.
    open: Vec<u32>,
    /// `(block, row)` of every report, in the order the reference
    /// interpreter emits them.
    order: Vec<(u32, u32)>,
    /// `ends[i]` is one past packet `i`'s last entry in `order`; its
    /// first is `ends[i - 1]` (0 for the first packet).
    ends: Vec<u32>,
}

impl Placed {
    /// Append one report as the next row of its task's open block,
    /// opening a new block when the task's last report was of another
    /// kind or entry op. A row is numbered only here, as it enters the
    /// final order — not when a kernel produces it — which is what
    /// makes `seq` follow packet order and a block's rows number
    /// consecutively from `first_seq`.
    fn push_row(
        &mut self,
        shape: &BlockShape,
        pkt: u32,
        cells: impl IntoIterator<Item = u64>,
        task_seq: &mut [u64],
    ) {
        let seq = &mut task_seq[shape.task_idx];
        let open = self.open[shape.task_idx] as usize;
        let extends = |b: &ReportBlock| b.kind == shape.kind && b.entry_op == shape.entry_op;
        let b = if self.blocks[..self.live].get(open).is_some_and(extends) {
            open
        } else {
            if self.live == self.blocks.len() {
                self.blocks.push(ReportBlock {
                    task: shape.task,
                    kind: shape.kind,
                    entry_op: shape.entry_op,
                    first_seq: 0,
                    names: Arc::clone(&shape.names),
                    rows: 0,
                    cells: Vec::new(),
                    pkts: Vec::new(),
                });
            }
            let block = &mut self.blocks[self.live];
            (block.task, block.kind, block.entry_op) = (shape.task, shape.kind, shape.entry_op);
            block.first_seq = *seq;
            block.names = Arc::clone(&shape.names);
            block.rows = 0;
            block.cells.clear();
            block.pkts.clear();
            self.open[shape.task_idx] = self.live as u32;
            self.live += 1;
            self.live - 1
        };
        let block = &mut self.blocks[b];
        self.order.push((b as u32, block.rows as u32));
        block.cells.extend(cells);
        if shape.with_packet {
            block.pkts.push(pkt);
        }
        block.rows += 1;
        *seq += 1;
        self.ends[pkt as usize] = self.order.len() as u32;
    }
}

/// A window's worth of reports as column blocks, reused across windows
/// (`reset` retains all allocations, so the steady-state batch loop
/// performs no heap allocation).
///
/// Batch execution runs task-major kernels, then a packet-major
/// deparser. Kernels [`stage`](Self::stage) the (rare) shunts they
/// produce; the deparser walks packets in order, first
/// [`flush`](Self::flush_through)ing each packet's staged shunts, then
/// [`emit`](Self::emit)ting its mirrors — so rows enter their blocks,
/// and the order index, directly in the order the reference
/// interpreter reports.
#[derive(Debug, Default)]
pub struct ReportBatch {
    /// Shunts in kernel (task-major) order, sorted before deparsing.
    staged: Vec<Staged>,
    staged_cells: Vec<u64>,
    /// How many of `staged` the deparser has flushed.
    flushed: usize,
    placed: Placed,
}

impl ReportBatch {
    /// An empty batch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        ReportBatch::default()
    }

    /// Clear for a new batch of `packets` packets from a program of
    /// `tasks` tasks, retaining capacity.
    pub(crate) fn reset(&mut self, packets: usize, tasks: usize) {
        self.staged.clear();
        self.staged_cells.clear();
        self.flushed = 0;
        let p = &mut self.placed;
        p.live = 0;
        p.open.clear();
        p.open.resize(tasks, u32::MAX);
        p.order.clear();
        p.ends.clear();
        p.ends.resize(packets, 0);
    }

    /// Hold a kernel's shunt for the deparser.
    pub(crate) fn stage(
        &mut self,
        shape: &BlockShape,
        pkt: u32,
        rank: u32,
        cells: impl IntoIterator<Item = u64>,
    ) {
        self.staged.push(Staged {
            pkt,
            rank,
            shape: shape.clone(),
            cells: self.staged_cells.len(),
        });
        self.staged_cells.extend(cells);
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
        while let Some(e) = self.staged.get(self.flushed).filter(|e| e.pkt <= pkt) {
            self.flushed += 1;
            let cells = &self.staged_cells[e.cells..e.cells + e.shape.names.len()];
            self.placed
                .push_row(&e.shape, e.pkt, cells.iter().copied(), task_seq);
        }
    }

    /// Append a freshly built report (a mirror) in final order.
    pub(crate) fn emit(
        &mut self,
        shape: &BlockShape,
        pkt: u32,
        cells: impl IntoIterator<Item = u64>,
        task_seq: &mut [u64],
    ) {
        self.placed.push_row(shape, pkt, cells, task_seq);
    }

    /// Flush what is still staged and close every packet's range.
    pub(crate) fn finish(&mut self, task_seq: &mut [u64]) {
        self.flush_through(u32::MAX, task_seq);
        // Packets that reported nothing end where their predecessor did.
        let mut last = 0;
        for end in &mut self.placed.ends {
            last = last.max(*end);
            *end = last;
        }
    }

    /// Number of packets recorded so far.
    pub fn packets(&self) -> usize {
        self.placed.ends.len()
    }

    /// Total reports across all packets.
    pub fn total_reports(&self) -> usize {
        self.placed.order.len()
    }

    /// Whether no packet emitted anything.
    pub fn is_empty(&self) -> bool {
        self.placed.order.is_empty()
    }

    /// The batch's blocks, in the order their first row was reported;
    /// their `pkts` index the arena batch the reports were produced
    /// from.
    pub fn blocks(&self) -> &[ReportBlock] {
        &self.placed.blocks[..self.placed.live]
    }

    /// The reports packet `i` produced, in emission order, borrowing
    /// mirrored packet bytes from `batch` — which must be the same
    /// [`ArenaBatch`] the reports were produced from.
    pub fn packet_reports<'s, 'a: 's>(
        &'s self,
        i: usize,
        batch: ArenaBatch<'a>,
    ) -> impl Iterator<Item = ReportRef<'s, 'a>> + 's {
        let p = &self.placed;
        let start = if i == 0 { 0 } else { p.ends[i - 1] };
        p.order[start as usize..p.ends[i] as usize]
            .iter()
            .map(move |&(b, r)| p.blocks[b as usize].row(r as usize, batch))
    }

    /// Cut the next chunk: the reports from position `from` of the
    /// packet-major order on, until `budget` bytes of rows and packets
    /// are in (at least one row), with each carried packet's bytes
    /// copied from `batch` (the [`ArenaBatch`] the reports were
    /// produced from) once. Returns the chunk and the position the next
    /// one starts at; `None` when nothing is left. A block the cut
    /// falls inside continues in the next chunk under a later
    /// `first_seq`.
    pub fn chunk(
        &self,
        from: usize,
        batch: ArenaBatch<'_>,
        budget: usize,
    ) -> Option<(ReportChunk, usize)> {
        let order = &self.placed.order;
        if from >= order.len() {
            return None;
        }
        let mut chunk = ReportChunk::default();
        // The packets a chunk can carry are its first row's and the
        // ones after it: size the arena for them, or for the budget if
        // that is less, once instead of by doubling.
        let (b, r) = (order[from].0 as usize, order[from].1 as usize);
        if let Some(&first) = self.placed.blocks[b].pkts.get(r) {
            let left = &batch.index()[first as usize..];
            let end = left.last().map_or(0, |e| e.offset + e.len as u64);
            let bytes = (end - left[0].offset) as usize;
            chunk.packets = PacketArena::with_capacity(left.len(), bytes.min(budget));
        }
        // Batch block → its continuation in this chunk.
        let mut slot = vec![usize::MAX; self.placed.live];
        // Rows arrive packet by packet, so one packet's rows are
        // adjacent and remembering the last packet copied suffices.
        let mut last_pkt = None;
        let mut bytes = 0;
        let mut next = from;
        while next < order.len() && (next == from || bytes < budget) {
            let (b, r) = (order[next].0 as usize, order[next].1 as usize);
            next += 1;
            let src = &self.placed.blocks[b];
            let width = src.width();
            if slot[b] == usize::MAX {
                slot[b] = chunk.blocks.len();
                let left = src.rows - r;
                chunk.blocks.push(ReportBlock {
                    task: src.task,
                    kind: src.kind,
                    entry_op: src.entry_op,
                    first_seq: src.first_seq.wrapping_add(r as u64),
                    names: Arc::clone(&src.names),
                    rows: 0,
                    cells: Vec::with_capacity(left * width),
                    pkts: Vec::with_capacity(if src.pkts.is_empty() { 0 } else { left }),
                });
            }
            let dst = &mut chunk.blocks[slot[b]];
            dst.cells
                .extend_from_slice(&src.cells[r * width..(r + 1) * width]);
            dst.rows += 1;
            bytes += width * 8;
            if let Some(&pkt) = src.pkts.get(r) {
                if last_pkt != Some(pkt) {
                    let view = batch.view(pkt as usize);
                    chunk.packets.push_record(view.ts_nanos(), view.bytes());
                    // Its bytes, timestamp and length.
                    bytes += view.wire_len() + 12;
                    last_pkt = Some(pkt);
                }
                dst.pkts.push(chunk.packets.len() as u32 - 1);
                bytes += 4;
            }
        }
        Some((chunk, next))
    }
}

/// A borrowed view of one report: names and cells point into its
/// [`ReportBlock`], the mirrored packet (if any) into the packet
/// arena. Conversion to an owned [`Report`] is deferred to whoever
/// genuinely needs one (an oracle, the fault seam).
#[derive(Debug, Clone, Copy)]
pub struct ReportRef<'b, 'a> {
    /// Originating task.
    pub task: TaskId,
    /// Tuple or shunt (window dumps never pass through the batch).
    pub kind: ReportKind,
    /// Column names in program order.
    pub names: &'b [ColName],
    /// The value of each named column.
    pub cells: &'b [u64],
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
            columns: (self.names.iter().cloned())
                .zip(self.cells.iter().copied())
                .collect(),
            packet: self.packet.and_then(|v| v.decode().ok()),
            entry_op: self.entry_op,
            seq: self.seq,
        }
    }
}
