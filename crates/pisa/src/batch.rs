//! Reusable report arena for batch execution.
//!
//! [`crate::switch::Switch::process_batch`] collects every report a
//! window's packets produce into one [`ReportBatch`] instead of a
//! fresh `Vec<Report>` per packet. Reports are rows of
//! [`ReportBlock`]s — written task by task, each task's rows in packet
//! order; header and column names stated once, values as flat `u64`
//! cells, mirrored packets as *indices into the arena batch* rather
//! than owned [`Packet`](sonata_packet::Packet) clones — and every
//! block remembers the packet each of its rows came from.
//! [`ReportBatch::chunk`] cuts the window on packet boundaries into
//! self-contained [`ReportChunk`]s, the form that crosses the wire and
//! that the emitter reads in place; [`ReportBatch::packet_reports`]
//! gathers one packet's rows across blocks as borrowed [`ReportRef`]s
//! in the exact order the reference interpreter produces owned
//! [`Report`]s, for oracles and the fault seam.

use crate::ir::TaskId;
use crate::registers::for_each_bit;
use crate::switch::{Report, ReportKind};
use sonata_packet::wire::LAZY_FIELDS;
use sonata_packet::{ArenaBatch, PacketView};
use sonata_query::{ColName, PacketBlock};
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
    /// [`ReportKind::Tuple`] or [`ReportKind::Shunt`] in a batch's
    /// chunks; [`ReportKind::WindowDump`] (thresholded on the switch) or
    /// [`ReportKind::WindowDumpRaw`] (the emitter merges and
    /// thresholds) in a [`WindowDump`](crate::switch::WindowDump)'s.
    pub kind: ReportKind,
    /// Residual-pipeline operator the rows enter at (shunts and raw
    /// dumps); `None` is the task's default resume point.
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

/// A self-contained slice of a batch's reports: every packet some row
/// carries, once, as the columns of the fields its mask names, and the
/// blocks, whose `pkts` index into `packets`. A window dump is a chunk
/// whose rows carry no packets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportChunk {
    /// The carried packets, in batch order.
    pub packets: PacketBlock,
    /// The blocks, task by task.
    pub blocks: Vec<ReportBlock>,
}

impl ReportChunk {
    /// Rows across all blocks.
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.rows).sum()
    }

    /// Whether no block holds a row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every row of every well-formed block as an owned
    /// [`Report`], block by block — for tests and oracles; the emitter
    /// reads the cells in place. A row's packet materializes only where
    /// the chunk carries its bytes (its mask names a lazy field); a row
    /// whose packet is absent or undecodable materializes without one,
    /// as [`ReportRef::to_report`] degrades.
    pub fn reports(&self) -> impl Iterator<Item = Report> + '_ {
        let blocks = self.blocks.iter().filter(|b| b.is_well_formed());
        let packets = self.packets.packets().batch();
        blocks.flat_map(move |b| (0..b.rows).map(move |r| b.row(r, packets).to_report()))
    }
}

/// The chunk budget shippers pass to [`ReportBatch::chunk`]: large
/// enough that a frame's fixed costs vanish, and a 64th of the wire's
/// frame limit, so no window size — only a single packet's rows wider
/// than the limit itself — can produce an oversized frame.
pub const CHUNK_BYTES: usize = 1 << 20;

/// What every row of one block shares: a report layout of the lowered
/// plan (a task's mirror, or one `Update`'s shunt), stated once there.
#[derive(Debug, Clone)]
pub(crate) struct BlockShape {
    pub task: TaskId,
    pub kind: ReportKind,
    pub entry_op: Option<usize>,
    /// Column names, bound once at lowering and shared by every block
    /// the layout ever fills.
    pub names: Arc<[ColName]>,
    /// Whether the rows carry the packet itself.
    pub with_packet: bool,
    /// Where one packet's report of this layout comes among its
    /// others in the reference interpreter: shunts by the rank of the
    /// shunting table in execution order, then mirrors in report-spec
    /// order.
    pub rank: u32,
}

/// Where a block's rows came from.
#[derive(Debug, Default)]
struct Source {
    /// The block's [`BlockShape::rank`].
    rank: u32,
    /// Each row's packet, ascending, when the rows carry none (rows
    /// that do list their packets in the block's `pkts`).
    pkts: Vec<u32>,
}

/// The rows of the block [`ReportBatch::rows_of`] handed out.
pub(crate) struct Rows<'b> {
    width: usize,
    rows: &'b mut usize,
    cells: &'b mut Vec<u64>,
    pkts: &'b mut Vec<u32>,
    /// Marks the packets the rows carry, if they do.
    carried: Option<&'b mut [u64]>,
}

impl Rows<'_> {
    /// Append one row per packet of `pkts` (ascending, after every
    /// row held), `cells(p, out)` pushing packet `p`'s values.
    pub(crate) fn extend(&mut self, pkts: &[u32], mut cells: impl FnMut(u32, &mut Vec<u64>)) {
        *self.rows += pkts.len();
        self.pkts.extend_from_slice(pkts);
        if let Some(bits) = &mut self.carried {
            for &p in pkts {
                bits[p as usize / 64] |= 1 << (p % 64);
            }
        }
        if self.width > 0 {
            for &p in pkts {
                cells(p, self.cells);
            }
        }
    }
}

/// A window's worth of reports as column blocks, reused across windows
/// (`reset` retains all allocations, so the steady-state batch loop
/// performs no heap allocation).
///
/// Batch execution runs task-major kernels, and each task's reports
/// land right after its kernel: one run of rows per block, in packet
/// order, numbered as they land. A block keeps the packet each row
/// came from, so [`Self::chunk`] can cut the window between packets
/// and [`Self::packet_reports`] can find one packet's rows.
#[derive(Debug, Default)]
pub struct ReportBatch {
    /// Blocks task by task. Only the first `live` belong to this
    /// batch; the rest keep their buffers for the next one.
    blocks: Vec<ReportBlock>,
    /// Per block, where its rows came from.
    sources: Vec<Source>,
    live: usize,
    packets: usize,
    /// The fields each carried packet ships, the program's mirror mask.
    mask: u32,
    /// Bit `i` set when some row carries packet `i`.
    carried_bits: Vec<u64>,
    /// The packets some row carries, ascending.
    carried: Vec<u32>,
    /// `carried_cost[j]` is what `carried[..j]` cost a chunk: their
    /// columns, and their bytes and records where those ride.
    carried_cost: Vec<u64>,
}

impl ReportBatch {
    /// An empty batch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        ReportBatch::default()
    }

    /// Clear for a new batch of `packets` packets whose carried packets
    /// ship `mask`'s fields, retaining capacity.
    pub(crate) fn reset(&mut self, packets: usize, mask: u32) {
        self.live = 0;
        self.packets = packets;
        self.mask = mask;
        self.carried_bits.clear();
        self.carried_bits.resize(packets.div_ceil(64), 0);
        self.carried.clear();
        self.carried_cost.clear();
        self.carried_cost.push(0);
    }

    /// The rows of the last block if it has `shape`'s header (its
    /// task, kind and entry op), else of a new block numbered from
    /// `seq`.
    pub(crate) fn rows_of(&mut self, shape: &BlockShape, seq: u64) -> Rows<'_> {
        let same = |b: &ReportBlock| {
            (b.task, b.kind, b.entry_op) == (shape.task, shape.kind, shape.entry_op)
        };
        if !self.blocks[..self.live].last().is_some_and(same) {
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
                self.sources.push(Source::default());
            }
            let block = &mut self.blocks[self.live];
            (block.task, block.kind, block.entry_op) = (shape.task, shape.kind, shape.entry_op);
            block.first_seq = seq;
            block.names = Arc::clone(&shape.names);
            block.rows = 0;
            block.cells.clear();
            block.pkts.clear();
            self.sources[self.live].rank = shape.rank;
            self.sources[self.live].pkts.clear();
            self.live += 1;
        }
        let b = self.live - 1;
        let (block, source) = (&mut self.blocks[b], &mut self.sources[b]);
        Rows {
            carried: shape.with_packet.then_some(&mut self.carried_bits[..]),
            width: shape.names.len(),
            rows: &mut block.rows,
            cells: &mut block.cells,
            pkts: if shape.with_packet {
                &mut block.pkts
            } else {
                &mut source.pkts
            },
        }
    }

    /// List the packets some row carries, with what they cost a chunk
    /// (their wire lengths from `batch`, the [`ArenaBatch`] the reports
    /// were produced from), for [`Self::chunk`] to price and ship.
    pub(crate) fn carry(&mut self, batch: &ArenaBatch<'_>) {
        let (bytes_ride, mut cost) = (u64::from(self.mask & LAZY_FIELDS != 0), 0);
        let columns = 4 * (self.mask & !LAZY_FIELDS).count_ones() as u64;
        for_each_bit(&self.carried_bits, |i| {
            cost += columns + bytes_ride * (batch.index()[i].len as u64 + 12);
            self.carried.push(i as u32);
            self.carried_cost.push(cost);
        });
    }

    /// Number of packets recorded so far.
    pub fn packets(&self) -> usize {
        self.packets
    }

    /// Total reports across all packets.
    pub fn total_reports(&self) -> usize {
        self.blocks().iter().map(|b| b.rows).sum()
    }

    /// Whether no packet emitted anything.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The batch's blocks, task by task, each task's in packet order;
    /// their `pkts` index the arena batch the reports were produced
    /// from.
    pub fn blocks(&self) -> &[ReportBlock] {
        &self.blocks[..self.live]
    }

    /// The packet each row of block `b` came from, ascending.
    fn row_packets(&self, b: usize) -> &[u32] {
        match &self.blocks[b].pkts {
            pkts if pkts.is_empty() => &self.sources[b].pkts,
            pkts => pkts,
        }
    }

    /// The first row of block `b` from packet `pkt` on.
    fn row_at(&self, b: usize, pkt: usize) -> usize {
        self.row_packets(b).partition_point(|&p| (p as usize) < pkt)
    }

    /// The reports packet `i` produced, in emission order, borrowing
    /// mirrored packet bytes from `batch` — which must be the same
    /// [`ArenaBatch`] the reports were produced from. A task reports a
    /// packet at most once, so this is one search per block.
    pub fn packet_reports<'s, 'a: 's>(
        &'s self,
        i: usize,
        batch: ArenaBatch<'a>,
    ) -> impl Iterator<Item = ReportRef<'s, 'a>> + 's {
        let mut rows: Vec<(u32, usize, usize)> = (0..self.live)
            .filter_map(|b| {
                let r = self.row_packets(b).binary_search(&(i as u32)).ok()?;
                Some((self.sources[b].rank, b, r))
            })
            .collect();
        rows.sort_unstable();
        rows.into_iter()
            .map(move |(_, b, r)| self.blocks[b].row(r, batch))
    }

    /// Cut the next chunk: the reports of whole packets from packet
    /// `from` on, until `budget` bytes of rows and packets are in (at
    /// least one packet that reported), with each carried packet's
    /// masked fields extracted from `batch` (the [`ArenaBatch`] the
    /// reports were produced from) once. A row costs its cells and, if
    /// it carries a packet, a 4-byte index; a carried packet its
    /// columns and validity bit, and — only when the mask names a lazy
    /// field, so they ride — its bytes, timestamp and length. Returns
    /// the chunk and the packet the next one starts at —
    /// [`Self::packets`] once nothing is left to report — or `None`
    /// when no packet from `from` on reported. A block the cut falls
    /// inside continues in the next chunk under a later `first_seq`.
    pub fn chunk(
        &self,
        from: usize,
        batch: ArenaBatch<'_>,
        budget: usize,
    ) -> Option<(ReportChunk, usize)> {
        let blocks = self.blocks();
        let starts: Vec<usize> = (0..blocks.len()).map(|b| self.row_at(b, from)).collect();
        let first = (0..blocks.len())
            .filter_map(|b| self.row_packets(b).get(starts[b]))
            .min()?;
        let carried_from = self.carried.partition_point(|&p| (p as usize) < from);
        let carried_to = |to: usize| self.carried.partition_point(|&p| (p as usize) < to);
        let bytes = |to: usize| {
            let rows = (blocks.iter().enumerate()).map(|(b, block)| {
                let row = block.width() * 8 + if block.pkts.is_empty() { 0 } else { 4 };
                (self.row_at(b, to) - starts[b]) * row
            });
            let c = carried_to(to);
            let carried = self.carried_cost[c] - self.carried_cost[carried_from];
            rows.sum::<usize>() + carried as usize + (c - carried_from).div_ceil(8)
        };
        // The fewest packets whose bytes reach the budget.
        let (mut next, mut hi) = (*first as usize + 1, self.packets);
        while next < hi {
            let mid = next + (hi - next) / 2;
            if bytes(mid) < budget {
                next = mid + 1;
            } else {
                hi = mid;
            }
        }
        let stops: Vec<usize> = (0..blocks.len()).map(|b| self.row_at(b, next)).collect();
        if blocks.iter().zip(&stops).all(|(b, &stop)| stop == b.rows) {
            next = self.packets;
        }

        let carried = &self.carried[carried_from..carried_to(next)];
        let views = carried.iter().map(|&p| batch.view(p as usize));
        let packets = PacketBlock::extract(self.mask, views);
        // Batch packet `base + k` → its number among the chunk's.
        let base = carried.first().copied().unwrap_or(0);
        let mut local = vec![0; carried.last().map_or(0, |&p| (p - base) as usize + 1)];
        for (j, &p) in carried.iter().enumerate() {
            local[(p - base) as usize] = j as u32;
        }
        let blocks = (blocks.iter().zip(starts.into_iter().zip(stops)))
            .filter(|(_, (start, end))| start < end)
            .map(|(src, (start, end))| {
                let width = src.width();
                let pkts = src.pkts.get(start..end).unwrap_or_default();
                ReportBlock {
                    task: src.task,
                    kind: src.kind,
                    entry_op: src.entry_op,
                    first_seq: src.first_seq.wrapping_add(start as u64),
                    names: Arc::clone(&src.names),
                    rows: end - start,
                    cells: src.cells[start * width..end * width].to_vec(),
                    pkts: pkts.iter().map(|&p| local[(p - base) as usize]).collect(),
                }
            })
            .collect();
        Some((ReportChunk { packets, blocks }, next))
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
    /// Tuple or shunt from a batch; a dump kind from a window dump.
    pub kind: ReportKind,
    /// Column names in program order.
    pub names: &'b [ColName],
    /// The value of each named column.
    pub cells: &'b [u64],
    /// Borrowed view of the mirrored packet, when the query asked for
    /// packet payloads.
    pub packet: Option<PacketView<'a>>,
    /// Entry op of a shunt or raw dump row, `None` otherwise.
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
