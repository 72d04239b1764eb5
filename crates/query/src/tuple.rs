//! Tuples, schemas, and the fixed-width rows the stream engine runs on.
//!
//! A [`Tuple`] is a positional vector of [`Value`]s; its column names
//! live in a shared [`Schema`]. Schemas are immutable and cheap to
//! clone (`Arc` inside); operators derive new schemas during query
//! validation, and the interpreter/stream engine bind expressions to a
//! schema once, not per tuple.
//!
//! Tuples are what the reference interpreter computes on and what
//! leaves the engine. What *enters* the engine is a [`RowRun`]: rows
//! of `u64` cells read where they already are — mirrored packets as a
//! selection over a shared [`PacketBlock`] of field columns, report
//! and dump rows as flat [`Rows`]. A cell is a scalar below 2⁶³ or
//! the number of a value in the rows' [`Heap`] (text, bytes, larger
//! scalars), so equal values are equal cells and a row is a fixed
//! `[u64; width]` whatever it holds.

use crate::expr::{cmp_same_kind, contains_subslice};
use sonata_packet::wire::{extract_fields, ALL_FIELDS, LAZY_FIELDS};
use sonata_packet::{Field, Packet, PacketArena, PacketView, Value};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A column name. Cheap to clone, compared by string value.
pub type ColName = Arc<str>;

/// An ordered set of column names describing tuple layout.
#[derive(Clone, PartialEq, Eq)]
pub struct Schema {
    cols: Arc<[ColName]>,
}

impl Schema {
    /// Build a schema from column names. Duplicate names are a caller
    /// bug surfaced during query validation, not here.
    pub fn new<I, S>(cols: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<ColName>,
    {
        Schema {
            cols: cols.into_iter().map(Into::into).collect(),
        }
    }

    /// The schema a raw packet stream carries: one column per packet
    /// field, named by [`Field::name`].
    pub fn packet() -> Self {
        Schema::new(Field::ALL.iter().map(|f| f.name()))
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|c| c.as_ref() == name)
    }

    /// Whether the schema contains a column.
    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_some()
    }

    /// The column names in order.
    pub fn columns(&self) -> &[ColName] {
        &self.cols
    }

    /// Whether this is the raw packet schema.
    pub fn is_packet(&self) -> bool {
        self.len() == Field::ALL.len()
            && self
                .cols
                .iter()
                .zip(Field::ALL)
                .all(|(c, f)| c.as_ref() == f.name())
    }

    /// A new schema with the given columns appended.
    pub fn extend<I, S>(&self, extra: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<ColName>,
    {
        let mut cols: Vec<ColName> = self.cols.to_vec();
        cols.extend(extra.into_iter().map(Into::into));
        Schema { cols: cols.into() }
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema(")?;
        for (i, c) in self.cols.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

/// A positional tuple of values.
///
/// The values are shared and immutable: a clone is a reference-count
/// increment, so one packet's row can sit in every query's batch at
/// once, and dropping a tuple a filter rejected frees nothing unless it
/// was the last holder. Equality, order and hash are those of the
/// values, whoever else holds them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl Tuple {
    /// Build a tuple from values. Collecting an iterator of known
    /// length (`iter.collect::<Tuple>()`) skips the intermediate `Vec`.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple {
            values: values.into(),
        }
    }

    /// Materialize a packet into a tuple over [`Schema::packet`].
    ///
    /// Fields the packet lacks (e.g. TCP fields of a UDP packet) become
    /// `U64(0)` — the same behavior as a PISA parser leaving invalid
    /// PHV containers zeroed. Queries guard with protocol filters.
    pub fn from_packet(pkt: &Packet) -> Self {
        Field::ALL
            .iter()
            .map(|f| pkt.get(*f).unwrap_or(Value::U64(0)))
            .collect()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at an index.
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tuple is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Project the tuple onto the given indices.
    pub fn project(&self, indices: &[usize]) -> Tuple {
        indices.iter().map(|&i| self.values[i].clone()).collect()
    }

    /// Append values from another tuple.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        self.values.iter().chain(&*other.values).cloned().collect()
    }

    /// Total width in bits when carried as switch metadata or in a
    /// report packet.
    pub fn width_bits(&self) -> u32 {
        self.values.iter().map(Value::width_bits).sum()
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(values: I) -> Self {
        Tuple {
            values: values.into_iter().collect(),
        }
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// Cells from here up are numbers into a [`Heap`].
pub(crate) const BOXED: u64 = 1 << 63;

/// The values a `u64` cell cannot hold itself — text, bytes, scalars
/// of 2⁶³ and up — each held once, so two cells of one heap are equal
/// exactly when their values are.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    values: Vec<Value>,
    ids: HashMap<Value, u64>,
}

impl Heap {
    /// Whether every cell made so far is a plain scalar.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The cell of a scalar.
    #[inline]
    pub fn scalar(&mut self, v: u64) -> u64 {
        if v < BOXED {
            v
        } else {
            self.intern(Value::U64(v))
        }
    }

    /// The cell of a value.
    #[inline]
    pub fn cell(&mut self, v: &Value) -> u64 {
        match v {
            Value::U64(x) if *x < BOXED => *x,
            other => self.intern(other.clone()),
        }
    }

    fn intern(&mut self, v: Value) -> u64 {
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let id = BOXED + self.values.len() as u64;
        self.values.push(v.clone());
        self.ids.insert(v, id);
        id
    }

    #[inline]
    fn boxed(&self, cell: u64) -> Option<&Value> {
        (cell >= BOXED).then(|| &self.values[(cell - BOXED) as usize])
    }

    /// The scalar a cell holds, if it holds one.
    #[inline]
    pub fn as_u64(&self, cell: u64) -> Option<u64> {
        match self.boxed(cell) {
            None => Some(cell),
            Some(v) => v.as_u64(),
        }
    }

    /// The value a cell holds.
    pub fn value(&self, cell: u64) -> Value {
        self.boxed(cell).cloned().unwrap_or(Value::U64(cell))
    }

    /// A cell of `from` as a cell of this heap.
    #[inline]
    pub fn adopt(&mut self, cell: u64, from: &Heap) -> u64 {
        match from.boxed(cell) {
            None => cell,
            Some(v) => self.intern(v.clone()),
        }
    }

    /// `cell` masked to a refinement level ([`Value::mask_to_level`]).
    #[inline]
    pub fn mask(&mut self, cell: u64, level: u8) -> u64 {
        match self.boxed(cell) {
            None => sonata_packet::field::mask_ipv4(cell, level),
            Some(v) => {
                let masked = v.mask_to_level(level);
                self.cell(&masked)
            }
        }
    }

    /// Whether `cell` holds text or bytes with `needle` in them.
    pub fn contains(&self, cell: u64, needle: &[u8]) -> bool {
        match self.boxed(cell) {
            Some(Value::Bytes(b)) => contains_subslice(b, needle),
            Some(Value::Text(s)) => contains_subslice(s.as_bytes(), needle),
            _ => false,
        }
    }

    /// Order two cells as their values order.
    #[inline]
    pub fn order(&self, a: u64, b: u64) -> Ordering {
        if a < BOXED && b < BOXED {
            a.cmp(&b)
        } else {
            self.value(a).cmp(&self.value(b))
        }
    }

    /// Order two cells of one kind — scalars, texts, or byte strings —
    /// as their values order; `None` across kinds.
    #[inline]
    pub fn order_same_kind(&self, a: u64, b: u64) -> Option<Ordering> {
        if a < BOXED && b < BOXED {
            Some(a.cmp(&b))
        } else {
            cmp_same_kind(&self.value(a), &self.value(b))
        }
    }

    /// Order two rows as the tuples they stand for order.
    pub fn cmp_rows(&self, a: &[u64], b: &[u64]) -> Ordering {
        if self.is_empty() {
            return a.cmp(b);
        }
        let mut cells = a.iter().zip(b).map(|(&x, &y)| self.order(x, y));
        (cells.find(|o| o.is_ne())).unwrap_or_else(|| a.len().cmp(&b.len()))
    }
}

/// What expressions read a row's cells from.
pub trait RowSource {
    /// Column `col` as a cell of `heap`.
    fn cell(&self, col: usize, heap: &mut Heap) -> u64;

    /// Whether column `col` holds text or bytes with `needle` in them.
    fn contains(&self, col: usize, needle: &[u8], heap: &mut Heap) -> bool {
        let cell = self.cell(col, heap);
        heap.contains(cell, needle)
    }
}

/// A row given as the function from column to cell.
impl<F: Fn(usize, &mut Heap) -> u64> RowSource for F {
    #[inline]
    fn cell(&self, col: usize, heap: &mut Heap) -> u64 {
        self(col, heap)
    }
}

/// Rows a pipeline reads a column at a time: the packets of a block,
/// flat rows, the groups of a finished sink. Rows go by number.
pub(crate) trait Columns {
    /// Column `col` by row: the cell where it is a plain scalar, any
    /// value from 2⁶³ up where it has to be read through [`Self::row`]
    /// — it belongs to another heap, or is decoded per packet.
    fn col(&self, col: usize) -> impl Fn(u32) -> u64 + '_;

    /// Row `r`, for whatever reads a row whole.
    fn row(&self, r: u32) -> impl RowSource + '_;
}

impl RowSource for Tuple {
    fn cell(&self, col: usize, heap: &mut Heap) -> u64 {
        heap.cell(&self.values[col])
    }
}

/// One row of a [`Rows`], read into another heap.
#[derive(Debug, Clone, Copy)]
pub struct RowOf<'a> {
    cells: &'a [u64],
    heap: &'a Heap,
}

impl RowOf<'_> {
    /// The value in column `col`.
    pub fn value(&self, col: usize) -> Value {
        self.heap.value(self.cells[col])
    }
}

impl RowSource for RowOf<'_> {
    #[inline]
    fn cell(&self, col: usize, heap: &mut Heap) -> u64 {
        heap.adopt(self.cells[col], self.heap)
    }
}

/// Flat fixed-width rows with the heap their cells belong to.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    width: usize,
    /// Stated, not derived: a row may have no columns.
    pub(crate) rows: usize,
    pub(crate) cells: Vec<u64>,
    pub(crate) heap: Heap,
}

impl Rows {
    /// No rows yet, `width` cells each.
    pub fn new(width: usize) -> Self {
        Rows {
            width,
            ..Rows::default()
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Append one row of `width` scalars.
    #[inline]
    pub fn push(&mut self, scalars: impl IntoIterator<Item = u64>) {
        let heap = &mut self.heap;
        self.cells
            .extend(scalars.into_iter().map(|v| heap.scalar(v)));
        self.rows += 1;
        debug_assert_eq!(self.cells.len(), self.rows * self.width);
    }

    /// Append one row read from `row`.
    pub fn push_row<R: RowSource + ?Sized>(&mut self, row: &R) {
        let heap = &mut self.heap;
        self.cells
            .extend((0..self.width).map(|c| row.cell(c, heap)));
        self.rows += 1;
    }

    /// Append every row of `other`, which has this width.
    pub fn append(&mut self, other: &Rows) {
        debug_assert_eq!(self.width, other.width);
        let heap = &mut self.heap;
        let cells = other.cells.iter().map(|&c| heap.adopt(c, &other.heap));
        self.cells.extend(cells);
        self.rows += other.rows;
    }

    /// Forget the rows, keep the buffers.
    pub(crate) fn clear(&mut self) {
        self.rows = 0;
        self.cells.clear();
        self.heap = Heap::default();
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> RowOf<'_> {
        RowOf {
            cells: &self.cells[r * self.width..(r + 1) * self.width],
            heap: &self.heap,
        }
    }

    /// The rows `keep` says yes to, in order.
    pub fn filter(&self, mut keep: impl FnMut(&RowOf<'_>) -> bool) -> Rows {
        let mut kept = Rows::new(self.width);
        let all = (0..self.rows).map(|r| self.row(r));
        all.filter(|row| keep(row))
            .for_each(|row| kept.push_row(&row));
        kept
    }

    /// The rows as tuples, in order — for what leaves the engine.
    pub fn tuples(&self) -> impl Iterator<Item = Tuple> + '_ {
        let tuple = |row: RowOf<'_>| (0..self.width).map(|c| row.value(c)).collect();
        (0..self.rows).map(move |r| tuple(self.row(r)))
    }
}

impl Columns for Rows {
    #[inline]
    fn col(&self, col: usize) -> impl Fn(u32) -> u64 + '_ {
        move |r| self.cells[r as usize * self.width + col]
    }

    #[inline]
    fn row(&self, r: u32) -> impl RowSource + '_ {
        Rows::row(self, r as usize)
    }
}

/// Equal when they stand for the same tuples in the same order.
impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        (self.width, self.rows) == (other.width, other.rows)
            && if self.heap.is_empty() && other.heap.is_empty() {
                self.cells == other.cells
            } else {
                self.tuples().eq(other.tuples())
            }
    }
}

/// The packets a chunk of mirrored reports carries, as columns: the
/// header fields of `mask` ([`sonata_packet::wire::field_mask`] bits),
/// each scalar one extracted once per packet by the parse-graph walk the
/// switch uses; whether each packet decodes; and, only when the mask
/// names a field read lazily, the bytes. The switch builds it as it cuts
/// a chunk, and it crosses the wire as it is; every task that mirrored a
/// packet shares it and names its rows by packet number. The mask is
/// fixed at deploy to what the stream side reads: reading another field
/// is a deploy bug.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PacketBlock {
    mask: u32,
    len: usize,
    /// `cols[k * len + p]`: packet `p`'s value of the `k`th scalar field
    /// of `mask`, in field order; zero where the packet has no such
    /// field. No header field is wider than 32 bits.
    cols: Vec<u32>,
    /// Bit `p` set exactly when packet `p` decodes.
    valid: Vec<u64>,
    /// The packets' wire bytes when `mask` names a lazy field; empty
    /// otherwise.
    packets: PacketArena,
}

impl PacketBlock {
    /// Extract `mask`'s fields from `packets`, keeping their bytes only
    /// when the mask names a lazy field.
    pub fn extract<'a, I>(mask: u32, packets: I) -> Self
    where
        I: ExactSizeIterator<Item = PacketView<'a>> + Clone,
    {
        debug_assert_eq!(mask & !ALL_FIELDS, 0, "a mask bit past the fields");
        let len = packets.len();
        let scalars = mask & !LAZY_FIELDS;
        let mut cols = vec![0u32; scalars.count_ones() as usize * len];
        let mut valid = vec![0u64; len.div_ceil(64)];
        let at: [usize; 32] =
            std::array::from_fn(|f| (scalars & ((1 << f) - 1)).count_ones() as usize * len);
        let mut bytes = PacketArena::new();
        if mask & LAZY_FIELDS != 0 {
            let wire = packets.clone().map(|v| v.wire_len()).sum();
            bytes = PacketArena::with_capacity(len, wire);
        }
        for (p, view) in packets.enumerate() {
            let put = |f: Field, v: u64| cols[at[f as usize] + p] = v as u32;
            valid[p / 64] |= (extract_fields(view.bytes(), scalars, put) as u64) << (p % 64);
            if mask & LAZY_FIELDS != 0 {
                bytes.push_record(view.ts_nanos(), view.bytes());
            }
        }
        PacketBlock {
            mask,
            len,
            cols,
            valid,
            packets: bytes,
        }
    }

    /// Every field of `packets`.
    pub fn new(packets: PacketArena) -> Self {
        PacketBlock::extract(ALL_FIELDS, packets.batch().iter())
    }

    /// Every field of one owned packet — the one-row path's block.
    pub fn of_packet(pkt: &Packet) -> Self {
        let view = PacketView::new(pkt.encode_cached(), pkt.ts_nanos);
        PacketBlock::extract(ALL_FIELDS, std::iter::once(view))
    }

    /// A block from the parts [`Self::mask`], [`Self::len`],
    /// [`Self::columns`], [`Self::validity`] and [`Self::packets`]
    /// return, checked to agree: no mask bit past the fields, `len`
    /// values per scalar field of the mask, a validity bit per packet
    /// and none past them, and bytes exactly when the mask names a lazy
    /// field, one record per packet.
    pub fn from_parts(
        mask: u32,
        len: usize,
        cols: Vec<u32>,
        valid: Vec<u64>,
        packets: PacketArena,
    ) -> Result<Self, &'static str> {
        let scalars = (mask & !LAZY_FIELDS).count_ones() as usize;
        let stray = |w: &u64| !len.is_multiple_of(64) && w >> (len % 64) != 0;
        let records = if mask & LAZY_FIELDS != 0 { len } else { 0 };
        if mask & !ALL_FIELDS != 0 {
            Err("field mask bit past the fields")
        } else if Some(cols.len()) != len.checked_mul(scalars) {
            Err("columns are not the mask's fields by the packets")
        } else if valid.len() != len.div_ceil(64) || valid.last().is_some_and(stray) {
            Err("validity bits are not one per packet")
        } else if packets.len() != records {
            Err("packet records are not one per packet of a lazy field")
        } else {
            Ok(PacketBlock {
                mask,
                len,
                cols,
                valid,
                packets,
            })
        }
    }

    /// The fields held, as [`sonata_packet::wire::field_mask`] bits.
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The scalar fields' columns, field-major, back to back.
    pub fn columns(&self) -> &[u32] {
        &self.cols
    }

    /// The validity bits, 64 packets a word.
    pub fn validity(&self) -> &[u64] {
        &self.valid
    }

    /// The packets' bytes: one record per packet when the mask names a
    /// lazy field, none otherwise.
    pub fn packets(&self) -> &PacketArena {
        &self.packets
    }

    /// Whether packet `p` exists and decodes. Only such packets have
    /// rows.
    #[inline]
    pub fn is_valid(&self, p: u32) -> bool {
        let word = self.valid.get(p as usize / 64);
        word.is_some_and(|w| w >> (p % 64) & 1 == 1)
    }

    /// Packet `p` as a row over [`Schema::packet`].
    #[inline]
    pub fn row(&self, p: u32) -> PacketRow<'_> {
        PacketRow {
            block: self,
            p: p as usize,
        }
    }

    /// Field `col`'s column; `None` for a lazy field, read from the
    /// bytes.
    #[inline]
    fn column(&self, col: usize) -> Option<&[u32]> {
        debug_assert!(
            self.mask >> col & 1 == 1,
            "{} is outside the block's field mask",
            Field::ALL[col]
        );
        let below = self.mask & !LAZY_FIELDS & ((1 << col) - 1);
        let at = below.count_ones() as usize * self.len;
        (LAZY_FIELDS >> col & 1 == 0).then(|| &self.cols[at..at + self.len])
    }

    /// Packet `p` as the tuple [`Tuple::from_packet`] makes of it, a
    /// field outside the mask read as zero.
    pub fn tuple(&self, p: u32) -> Option<Tuple> {
        let lazy = self.is_valid(p) && self.mask & LAZY_FIELDS != 0;
        let pkt = lazy
            .then(|| self.packets.view(p as usize).decode().ok())
            .flatten();
        let value = |c: usize| match (self.mask >> c & 1 == 1).then(|| self.column(c)) {
            None => Value::U64(0),
            Some(Some(held)) => Value::U64(held[p as usize] as u64),
            Some(None) => {
                (pkt.as_ref().and_then(|pkt| pkt.get(Field::ALL[c]))).unwrap_or(Value::U64(0))
            }
        };
        self.is_valid(p)
            .then(|| (0..Field::ALL.len()).map(value).collect())
    }
}

impl Columns for PacketBlock {
    /// A lazy field has no column: every row of it reads as 2⁶⁴ − 1.
    #[inline]
    fn col(&self, col: usize) -> impl Fn(u32) -> u64 + '_ {
        let held = self.column(col).unwrap_or_default();
        move |p| held.get(p as usize).map_or(u64::MAX, |&v| v as u64)
    }

    #[inline]
    fn row(&self, p: u32) -> impl RowSource + '_ {
        PacketBlock::row(self, p)
    }
}

/// One packet of a [`PacketBlock`] as a row over [`Schema::packet`].
#[derive(Debug, Clone, Copy)]
pub struct PacketRow<'a> {
    block: &'a PacketBlock,
    p: usize,
}

impl RowSource for PacketRow<'_> {
    #[inline]
    fn cell(&self, col: usize, heap: &mut Heap) -> u64 {
        if let Some(held) = self.block.column(col) {
            return held[self.p] as u64;
        }
        let pkt = self.block.packets.view(self.p).decode().ok();
        let value = pkt.and_then(|pkt| pkt.get(Field::ALL[col]));
        heap.cell(&value.unwrap_or(Value::U64(0)))
    }

    fn contains(&self, col: usize, needle: &[u8], heap: &mut Heap) -> bool {
        if col == Field::Payload as usize {
            debug_assert!(self.block.column(col).is_none());
            let payload = self.block.packets.view(self.p).payload();
            return payload.is_some_and(|b| contains_subslice(b, needle));
        }
        let cell = self.cell(col, heap);
        heap.contains(cell, needle)
    }
}

/// A run of rows entering a pipeline at one operator.
#[derive(Debug, Clone, PartialEq)]
pub enum RowRun {
    /// Mirrored packets: the packets of `block` numbered in `sel`, in
    /// that order, each a row over [`Schema::packet`].
    Packets {
        /// The chunk's shared columns.
        block: Arc<PacketBlock>,
        /// The packets this task kept.
        sel: Vec<u32>,
    },
    /// Report, shunt and dump rows, already flat.
    Cells(Rows),
}

impl RowRun {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            RowRun::Packets { sel, .. } => sel.len(),
            RowRun::Cells(rows) => rows.len(),
        }
    }

    /// Whether the run has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `tuple` to `runs` as a flat row: of the run they end
    /// with if that holds flat rows as wide, of a new run otherwise.
    pub fn push_tuple(runs: &mut Vec<RowRun>, tuple: &Tuple) {
        if !matches!(runs.last(), Some(RowRun::Cells(rows)) if rows.width() == tuple.len()) {
            runs.push(RowRun::Cells(Rows::new(tuple.len())));
        }
        if let Some(RowRun::Cells(rows)) = runs.last_mut() {
            rows.push_row(tuple);
        }
    }

    /// Cells per row.
    pub fn width(&self) -> usize {
        match self {
            RowRun::Packets { .. } => Field::ALL.len(),
            RowRun::Cells(rows) => rows.width(),
        }
    }

    /// The rows `keep` says yes to, in order: a narrower selection of
    /// the same shared block, or a copy of the kept cells.
    pub fn filter(&self, mut keep: impl FnMut(&dyn RowSource) -> bool) -> RowRun {
        match self {
            RowRun::Packets { block, sel } => {
                let keep = |p: &u32| block.is_valid(*p) && keep(&block.row(*p));
                RowRun::Packets {
                    block: Arc::clone(block),
                    sel: sel.iter().copied().filter(keep).collect(),
                }
            }
            RowRun::Cells(rows) => RowRun::Cells(rows.filter(|row| keep(row))),
        }
    }

    /// The rows as tuples — what the reference interpreter is given.
    /// A packet that does not decode has no row.
    pub fn tuples(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        match self {
            RowRun::Packets { block, sel } => Box::new(sel.iter().filter_map(|&p| block.tuple(p))),
            RowRun::Cells(rows) => Box::new(rows.tuples()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sonata_packet::{PacketBuilder, TcpFlags};

    #[test]
    fn schema_lookup() {
        let s = Schema::new(["dIP", "count"]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.index_of("dIP"), Some(0));
        assert_eq!(s.index_of("count"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert!(s.contains("count"));
        assert!(!s.is_empty());
    }

    #[test]
    fn packet_schema_covers_all_fields() {
        let s = Schema::packet();
        assert!(s.is_packet());
        for f in Field::ALL {
            assert!(s.contains(f.name()), "missing {f}");
        }
        assert!(!Schema::new(["a"]).is_packet());
    }

    #[test]
    fn packet_tuple_resolves_fields() {
        let pkt = PacketBuilder::tcp("10.0.0.1:5555", "10.0.0.2:80")
            .unwrap()
            .flags(TcpFlags::SYN)
            .build();
        let t = Tuple::from_packet(&pkt);
        let s = Schema::packet();
        assert_eq!(
            t.get(s.index_of("ipv4.dIP").unwrap()),
            &Value::U64(0x0a000002)
        );
        assert_eq!(t.get(s.index_of("tcp.flags").unwrap()), &Value::U64(2));
        // UDP fields of a TCP packet read as zero, like zeroed PHV containers.
        assert_eq!(t.get(s.index_of("udp.dPort").unwrap()), &Value::U64(0));
    }

    #[test]
    fn project_and_concat() {
        let t = Tuple::new(vec![Value::U64(1), Value::U64(2), Value::U64(3)]);
        let p = t.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::U64(3), Value::U64(1)]);
        let c = p.concat(&Tuple::new(vec![Value::U64(9)]));
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), &Value::U64(9));
    }

    #[test]
    fn sharing_is_invisible_to_eq_ord_and_hash() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let values = || vec![Value::U64(7), Value::Text("a.example".into())];
        let original = Tuple::new(values());
        let shared = original.clone();
        let rebuilt: Tuple = values().into_iter().collect();
        let hash = |t: &Tuple| {
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        };
        assert_eq!(shared, rebuilt);
        assert_eq!(shared.cmp(&rebuilt), std::cmp::Ordering::Equal);
        assert_eq!(hash(&shared), hash(&rebuilt));
        // A different tuple still differs and orders by its values.
        let bigger = Tuple::new(vec![Value::U64(8), Value::Text("a.example".into())]);
        assert_ne!(shared, bigger);
        assert!(shared < bigger);
        assert_eq!(shared, original);
    }

    #[test]
    fn a_cell_is_its_value_and_equal_values_are_equal_cells() {
        let mut heap = Heap::default();
        assert_eq!(heap.cell(&Value::U64(5)), 5);
        assert!(heap.is_empty());
        // Text, bytes and scalars from 2⁶³ up are held by number.
        let values = [
            Value::U64(u64::MAX),
            Value::U64(1 << 63),
            Value::Text("mail.corp.example.com".into()),
            Value::Bytes(b"zorro".to_vec().into()),
        ];
        let cells: Vec<u64> = values.iter().map(|v| heap.cell(v)).collect();
        for (v, &c) in values.iter().zip(&cells) {
            assert!(c >= 1 << 63);
            assert_eq!((heap.cell(v), heap.value(c)), (c, v.clone()));
        }
        assert_eq!(heap.scalar(u64::MAX), cells[0]);
        assert_eq!(heap.as_u64(cells[0]), Some(u64::MAX));
        assert_eq!(heap.as_u64(cells[2]), None);
        // Order is `Value`'s: scalars by size, then text, then bytes.
        let mut sorted = vec![cells[3], cells[2], cells[0], 7, cells[1]];
        sorted.sort_by(|&a, &b| heap.order(a, b));
        assert_eq!(sorted, [7, cells[1], cells[0], cells[2], cells[3]]);
        assert_eq!(heap.order_same_kind(7, cells[2]), None);
        // Masks and searches look through the number.
        assert_eq!(heap.mask(0x0a0b_0c0d, 8), 0x0a00_0000);
        let masked = heap.mask(cells[2], 2);
        assert_eq!(heap.value(masked), Value::Text("example.com".into()));
        assert!(heap.contains(cells[3], b"orr") && !heap.contains(7, b""));
        // Another heap numbers the same value its own way.
        let mut other = Heap::default();
        other.cell(&Value::Text("first".into()));
        let adopted = other.adopt(cells[2], &heap);
        assert_ne!(adopted, cells[2]);
        assert_eq!(other.value(adopted), values[2]);
        assert_eq!(other.adopt(7, &heap), 7);
    }

    #[test]
    fn a_packet_block_reads_as_the_tuples_of_its_packets() {
        use sonata_packet::{DnsHeader, DnsQType};
        for (i, f) in Field::ALL.iter().enumerate() {
            assert_eq!(*f as usize, i, "columns are numbered as the schema is");
        }
        let packets = [
            PacketBuilder::tcp_raw(1, 2, 3, 23)
                .flags(TcpFlags::SYN)
                .payload(&b"a zorro b"[..])
                .build(),
            PacketBuilder::dns(5, 6, DnsHeader::query(1, "x.example.com", DnsQType::Txt)).build(),
            PacketBuilder::icmp_raw(7, 8).build(),
        ];
        let mut arena = PacketArena::new();
        for p in &packets {
            arena.push_record(p.ts_nanos, &p.encode());
        }
        arena.push_record(9, &[0x45, 0, 0]); // does not decode
        let block = PacketBlock::new(arena);
        assert_eq!(block.len(), 4);
        assert!(!block.is_valid(3) && !block.is_valid(4));
        assert_eq!((block.tuple(3), block.tuple(4)), (None, None));
        let mut heap = Heap::default();
        for (p, pkt) in packets.iter().enumerate() {
            let want = Tuple::from_packet(pkt);
            assert_eq!(block.tuple(p as u32).as_ref(), Some(&want));
            let row = block.row(p as u32);
            for (c, v) in want.values().iter().enumerate() {
                let cell = row.cell(c, &mut heap);
                assert_eq!(&heap.value(cell), v, "packet {p}, {}", Field::ALL[c]);
            }
            // The payload is searched where it lies.
            let payload = Field::Payload as usize;
            assert_eq!(row.contains(payload, b"zorro", &mut heap), p == 0);
        }
        assert_eq!(PacketBlock::of_packet(&packets[1]).tuple(0), block.tuple(1));
    }

    #[test]
    fn a_masked_block_holds_its_fields_and_its_parts_are_checked() {
        use sonata_packet::wire::field_mask;
        let pkt = PacketBuilder::tcp_raw(1, 2, 3, 23)
            .flags(TcpFlags::SYN)
            .payload(&b"a zorro b"[..])
            .build();
        let mut arena = PacketArena::new();
        arena.push_record(pkt.ts_nanos, &pkt.encode());
        arena.push_record(9, &[0x45, 0, 0]); // does not decode
        let full = Tuple::from_packet(&pkt);
        let mut heap = Heap::default();
        for fields in [
            &[Field::Ipv4Dst, Field::TcpFlags][..],
            &[Field::TcpDstPort, Field::Payload],
        ] {
            let mask = field_mask(fields);
            let block = PacketBlock::extract(mask, arena.batch().iter());
            assert_eq!((block.mask(), block.len()), (mask, 2));
            assert!(block.is_valid(0) && !block.is_valid(1));
            // Bytes ride only for a lazy field.
            let lazy = fields.contains(&Field::Payload);
            assert_eq!(block.packets().len(), if lazy { 2 } else { 0 });
            assert_eq!(
                block.columns().len(),
                2 * (fields.len() - usize::from(lazy))
            );
            let t = block.tuple(0).unwrap();
            for (c, v) in full.values().iter().enumerate() {
                let held = mask >> c & 1 == 1;
                assert_eq!(t.get(c), if held { v } else { &Value::U64(0) });
                if held {
                    let cell = block.row(0).cell(c, &mut heap);
                    assert_eq!(&heap.value(cell), v);
                }
            }
            let parts = || {
                let (cols, valid) = (block.columns().to_vec(), block.validity().to_vec());
                (cols, valid, block.packets().clone())
            };
            let (cols, valid, bytes) = parts();
            assert_eq!(
                PacketBlock::from_parts(mask, 2, cols, valid, bytes).as_ref(),
                Ok(&block)
            );
            // A mask bit past the fields, a column short, a validity bit
            // past the packets, bytes that do not match the mask.
            let (cols, valid, bytes) = parts();
            assert!(PacketBlock::from_parts(mask | 1 << 30, 2, cols, valid, bytes).is_err());
            let (mut cols, valid, bytes) = parts();
            cols.pop();
            assert!(PacketBlock::from_parts(mask, 2, cols, valid, bytes).is_err());
            let (cols, _, bytes) = parts();
            assert!(PacketBlock::from_parts(mask, 2, cols, vec![0b101], bytes).is_err());
            let (cols, valid, _) = parts();
            let wrong = if lazy {
                PacketArena::new()
            } else {
                arena.clone()
            };
            assert!(PacketBlock::from_parts(mask, 2, cols, valid, wrong).is_err());
        }
    }

    #[test]
    fn runs_take_tuples_in_and_give_them_back() {
        let t = |a: u64, s: &str| Tuple::new(vec![Value::U64(a), Value::Text(s.into())]);
        let mut runs = Vec::new();
        for tuple in [t(1, "a"), t(2, "b"), Tuple::new(vec![]), t(1, "a")] {
            RowRun::push_tuple(&mut runs, &tuple);
        }
        // A tuple of another width opens a run of its own.
        assert_eq!(runs.iter().map(RowRun::len).collect::<Vec<_>>(), [2, 1, 1]);
        assert_eq!((runs[0].width(), runs[1].width()), (2, 0));
        let back: Vec<Tuple> = runs.iter().flat_map(RowRun::tuples).collect();
        assert_eq!(back, [t(1, "a"), t(2, "b"), Tuple::new(vec![]), t(1, "a")]);
        let mut heap = Heap::default();
        let kept = runs[0].filter(|row| row.cell(0, &mut heap) == 2);
        assert_eq!(kept.tuples().collect::<Vec<_>>(), [t(2, "b")]);
        // Rows compare as the tuples they stand for.
        let (mut a, mut b) = (Rows::new(1), Rows::new(1));
        a.push_row(&Tuple::new(vec![Value::Text("x".into())]));
        b.push_row(&Tuple::new(vec![Value::Text("first".into())]));
        b = b.filter(|_| false);
        b.push_row(&Tuple::new(vec![Value::Text("x".into())]));
        assert_eq!(a, b);
    }

    #[test]
    fn schema_extend() {
        let s = Schema::new(["a"]).extend(["b", "c"]);
        assert_eq!(s.columns().len(), 3);
        assert_eq!(s.index_of("c"), Some(2));
    }

    #[test]
    fn tuple_width_bits() {
        let t = Tuple::new(vec![Value::U64(1), Value::Text("abcd".into())]);
        assert_eq!(t.width_bits(), 64 + 32);
    }
}
