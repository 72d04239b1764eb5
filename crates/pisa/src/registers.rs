//! Hash-indexed register arrays with the paper's collision-mitigation
//! scheme (Section 3.1.3).
//!
//! True hash tables with chaining don't exist on PISA hardware, so
//! Sonata uses a sequence of `d` register arrays, each indexed by a
//! different hash of the key, with the original key stored next to the
//! value for collision *detection*. An incoming key probes array 0; on
//! a collision (slot holds a different key) it falls through to array
//! 1, and so on. A key that collides in all `d` arrays is *shunted*:
//! the packet is sent to the stream processor, which finishes the
//! aggregation there and reconciles at window end.

use sonata_query::Agg;
use sonata_sketch::{
    bloom_bits_for, mix64, BloomFilter, CmOp, CountMinSketch, ErrorBound, HyperLogLog,
    BLOOM_HASHES, HLL_PRECISION,
};

pub use sonata_sketch::StateLayout;

/// Key parts as fixed-width scalars (what switch metadata can carry).
pub type RegKey = Vec<u64>;

/// Outcome of a register update for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOutcome {
    /// The key's slot was created or updated.
    Updated {
        /// True when this packet created the key's slot (first packet
        /// of this key in the window).
        first_touch: bool,
        /// The value after the update.
        new_value: u64,
        /// The value before the update (0 on first touch).
        old_value: u64,
    },
    /// All `d` probes collided; the packet must go to the stream
    /// processor.
    Shunted,
}

/// Call `f` with the index of every set bit of a bitmap, ascending.
pub(crate) fn for_each_bit(bits: &[u64], mut f: impl FnMut(usize)) {
    for (w, &word) in bits.iter().enumerate() {
        let mut live = word;
        while live != 0 {
            f(w * 64 + live.trailing_zeros() as usize);
            live &= live - 1;
        }
    }
}

/// A sequence of `d` hash-indexed register arrays.
///
/// Storage is flat and fixed at load: every slot is a record of
/// `key_parts + 1` words (the stored key, then the value) in one
/// `cells` vector, with occupancy in a bitmap beside it. Updating a
/// key therefore allocates nothing, compares keys inline instead of
/// through a heap pointer, and the end-of-window reset is one `fill`
/// of the bitmap (stale cells are unreachable behind a clear bit).
#[derive(Debug, Clone)]
pub struct HashRegisters {
    slots_per_array: usize,
    seeds: Vec<u64>,
    value_mask: u64,
    /// Key arity every update must carry (the Hash table's key list).
    key_parts: usize,
    /// `arrays × slots` records of `key_parts + 1` words.
    cells: Vec<u64>,
    /// One bit per slot, array-major like `cells`.
    occupied_bits: Vec<u64>,
    shunted_packets: u64,
    /// Occupied-slot count maintained incrementally so `occupancy()`
    /// and dump pre-sizing never scan the bitmap.
    occupied: usize,
}

impl HashRegisters {
    /// Create with `slots_per_array` slots (`n`), `arrays` arrays
    /// (`d`), values truncated to `value_bits`, and keys of
    /// `key_parts` scalars.
    pub fn new(slots_per_array: usize, arrays: usize, value_bits: u32, key_parts: usize) -> Self {
        assert!(slots_per_array >= 1, "register needs at least one slot");
        assert!((1..=8).contains(&arrays), "d must be in 1..=8");
        let value_mask = if value_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << value_bits) - 1
        };
        let total = slots_per_array * arrays;
        HashRegisters {
            slots_per_array,
            seeds: (0..arrays as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i * 2 + 1))
                .collect(),
            value_mask,
            key_parts,
            cells: vec![0; total * (key_parts + 1)],
            occupied_bits: vec![0; total.div_ceil(64)],
            shunted_packets: 0,
            occupied: 0,
        }
    }

    /// Number of arrays (`d`).
    pub fn arrays(&self) -> usize {
        self.seeds.len()
    }

    /// Slots per array (`n`).
    pub fn slots_per_array(&self) -> usize {
        self.slots_per_array
    }

    #[inline]
    fn index(&self, array: usize, key: &[u64]) -> usize {
        let mut h = self.seeds[array];
        for part in key {
            h ^= part.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h = h.rotate_left(31).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        }
        h ^= h >> 33;
        array * self.slots_per_array + (h as usize % self.slots_per_array)
    }

    #[inline]
    fn is_occupied(&self, idx: usize) -> bool {
        self.occupied_bits[idx / 64] >> (idx % 64) & 1 != 0
    }

    /// Apply `agg` with `operand` for `key`, probing the arrays in
    /// order. Mirrors a per-packet read-modify-write action.
    ///
    /// Always inlined: a caller that passes a fixed-size array (the
    /// batch kernels dispatch on key width once per batch) gets the
    /// hash rounds and the stored-key compare unrolled for that width.
    #[inline(always)]
    pub fn update(&mut self, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        assert_eq!(key.len(), self.key_parts, "register key arity");
        let stride = key.len() + 1;
        for array in 0..self.seeds.len() {
            let idx = self.index(array, key);
            let vacant = !self.is_occupied(idx);
            let cell = &mut self.cells[idx * stride..(idx + 1) * stride];
            let (stored, value) = cell.split_at_mut(key.len());
            if vacant {
                let v = agg.init(operand) & self.value_mask;
                stored.copy_from_slice(key);
                value[0] = v;
                self.occupied_bits[idx / 64] |= 1 << (idx % 64);
                self.occupied += 1;
                return RegOutcome::Updated {
                    first_touch: true,
                    new_value: v,
                    old_value: 0,
                };
            }
            if stored == key {
                let old = value[0];
                value[0] = agg.fold(old, operand) & self.value_mask;
                return RegOutcome::Updated {
                    first_touch: false,
                    new_value: value[0],
                    old_value: old,
                };
            }
        }
        self.shunted_packets += 1;
        RegOutcome::Shunted
    }

    /// Read a key's current value without modifying it.
    pub fn read(&self, key: &[u64]) -> Option<u64> {
        let stride = self.key_parts + 1;
        for array in 0..self.arrays() {
            let idx = self.index(array, key);
            if !self.is_occupied(idx) {
                return None;
            }
            let cell = &self.cells[idx * stride..(idx + 1) * stride];
            if &cell[..self.key_parts] == key {
                return Some(cell[self.key_parts]);
            }
        }
        None
    }

    /// Visit every stored `(key, value)` pair in deterministic slot
    /// order (array-major) without materializing owned keys.
    pub fn for_each(&self, mut f: impl FnMut(&[u64], u64)) {
        let stride = self.key_parts + 1;
        for_each_bit(&self.occupied_bits, |idx| {
            let cell = &self.cells[idx * stride..(idx + 1) * stride];
            f(&cell[..self.key_parts], cell[self.key_parts]);
        });
    }

    /// Dump all stored `(key, value)` pairs — the end-of-window
    /// register poll, in deterministic slot order. Pre-sized from the
    /// tracked occupancy so the poll allocates exactly once.
    pub fn dump(&self) -> Vec<(RegKey, u64)> {
        let mut out = Vec::with_capacity(self.occupied);
        self.for_each(|k, v| out.push((k.to_vec(), v)));
        out
    }

    /// Number of occupied slots.
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Packets shunted since the last reset.
    pub fn shunted_packets(&self) -> u64 {
        self.shunted_packets
    }

    /// Clear all slots and counters (end-of-window reset).
    pub fn reset(&mut self) {
        self.occupied_bits.fill(0);
        self.shunted_packets = 0;
        self.occupied = 0;
    }
}

/// Runtime knob selecting approximate register layouts (the
/// `RuntimeConfig::sketch` field threads this down to every switch).
///
/// `layout` names the *family*; the loader maps it per register by
/// operator kind — see [`SketchConfig::effective_layout`] — and sizes
/// each sketch from the register declaration. The default
/// (`StateLayout::Exact`) is a byte-for-byte no-op against the
/// pre-sketch code.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SketchConfig {
    /// Layout family to apply where the declaration doesn't already
    /// pin one (the planner stamps `RegisterDecl::layout` when its
    /// sketch cost model is on; a stamped non-exact layout wins).
    pub layout: StateLayout,
}

/// Hash-family seed ("SONATASK"); each register derives its own
/// sub-seed from it ([`reg_seed`]).
const SKETCH_SEED: u64 = 0x534f_4e41_5441_534b;

/// Per-register sub-seed, mixing the register index in so no two
/// registers share hash rows.
pub(crate) fn reg_seed(reg_idx: usize) -> u64 {
    mix64(SKETCH_SEED ^ (reg_idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5354)
}

impl SketchConfig {
    /// Resolve the layout one register actually runs.
    ///
    /// A non-exact layout stamped on the declaration (by the
    /// planner's sketch cost model) wins. Otherwise the family knob
    /// maps by operator kind: count-min only fits monotone
    /// aggregations (`Sum`/`Count`/`Max` — the whole catalog), Bloom
    /// only fits `distinct` admission, so e.g. `layout: Bloom` leaves
    /// `reduce` registers exact and `layout: CountMin` runs
    /// `distinct` registers on Bloom admission.
    pub fn effective_layout(
        &self,
        decl_layout: StateLayout,
        distinct: bool,
        agg: Agg,
    ) -> StateLayout {
        let family = if decl_layout != StateLayout::Exact {
            decl_layout
        } else {
            self.layout
        };
        let cm_capable = matches!(agg, Agg::Sum | Agg::Count | Agg::Max);
        match family {
            StateLayout::Exact => StateLayout::Exact,
            StateLayout::CountMin => {
                if distinct {
                    StateLayout::Bloom
                } else if cm_capable {
                    StateLayout::CountMin
                } else {
                    StateLayout::Exact
                }
            }
            StateLayout::Bloom => {
                if distinct {
                    StateLayout::Bloom
                } else {
                    StateLayout::Exact
                }
            }
            StateLayout::Hll => {
                if distinct {
                    StateLayout::Hll
                } else if cm_capable {
                    StateLayout::CountMin
                } else {
                    StateLayout::Exact
                }
            }
        }
    }
}

/// Count-min backed `reduce` state: a sketch for the aggregates plus
/// a Bloom admission filter for first-touch detection and an exact
/// first-touch key list.
///
/// The key list models Sonata's mirror channel (first occurrences are
/// reported to the stream processor, exactly as `distinct` already
/// mirrors them), so it costs report bandwidth, **not** register
/// SRAM — `RegisterDecl::total_bits` charges only the sketch cells
/// and the admission bits. Sketch state never shunts: collisions fold
/// into the error bound instead of consuming the mirror channel.
#[derive(Debug, Clone)]
pub struct CmRegisters {
    cm: CountMinSketch,
    admission: BloomFilter,
    keys: Vec<RegKey>,
    capacity: usize,
    value_mask: u64,
}

impl CmRegisters {
    /// Build for `width × depth` counters with admission state sized
    /// for `capacity` expected keys.
    pub fn new(width: usize, depth: usize, capacity: usize, value_bits: u32, seed: u64) -> Self {
        let capacity = capacity.max(16);
        let value_mask = if value_bits >= 64 {
            u64::MAX
        } else {
            (1u64 << value_bits) - 1
        };
        CmRegisters {
            cm: CountMinSketch::new(width, depth.clamp(1, 16), seed, CmOp::Add),
            admission: BloomFilter::new(
                bloom_bits_for(capacity),
                BLOOM_HASHES,
                mix64(seed ^ 0xB100),
            ),
            keys: Vec::new(),
            capacity,
            value_mask,
        }
    }

    fn op_value(agg: Agg, operand: u64) -> (CmOp, u64) {
        match agg {
            Agg::Sum => (CmOp::Add, operand),
            Agg::Count => (CmOp::Add, 1),
            Agg::Max => (CmOp::Max, operand),
            // Unreachable via `effective_layout`, which keeps Min and
            // BitOr registers exact; fold conservatively if forced.
            Agg::Min | Agg::BitOr => (CmOp::Max, operand),
        }
    }

    /// Mirror of [`HashRegisters::update`]; never shunts.
    pub fn update(&mut self, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        let (op, v) = Self::op_value(agg, operand);
        debug_assert_eq!(
            op,
            self.cm.op(),
            "register built for a different agg family"
        );
        let first_touch = self.admission.insert(key);
        if first_touch {
            self.keys.push(key.to_vec());
        }
        let old_value = if first_touch {
            0
        } else {
            self.cm.estimate(key) & self.value_mask
        };
        self.cm.update(key, v);
        RegOutcome::Updated {
            first_touch,
            new_value: self.cm.estimate(key) & self.value_mask,
            old_value,
        }
    }

    /// Conservative point estimate for a key seen this window.
    pub fn read(&self, key: &[u64]) -> Option<u64> {
        if self.admission.contains(key) {
            Some(self.cm.estimate(key) & self.value_mask)
        } else {
            None
        }
    }

    /// End-of-window poll: admitted keys in first-touch order with
    /// their (over-)estimates.
    pub fn dump(&self) -> Vec<(RegKey, u64)> {
        let mut out = Vec::with_capacity(self.keys.len());
        self.for_each(|k, v| out.push((k.to_vec(), v)));
        out
    }

    /// Visit the pairs [`Self::dump`] returns, borrowed.
    pub fn for_each(&self, mut f: impl FnMut(&[u64], u64)) {
        for k in &self.keys {
            f(k, self.cm.estimate(k) & self.value_mask);
        }
    }

    /// Admitted keys this window.
    pub fn occupancy(&self) -> usize {
        self.keys.len()
    }

    /// The declared `(ε, δ)` contract for this shape.
    pub fn bound(&self) -> ErrorBound {
        self.cm.bound()
    }

    /// Total stream mass folded in (the bound's ε is relative to it).
    pub fn mass(&self) -> u64 {
        self.cm.mass()
    }

    /// Updates folded in this window.
    pub fn updates(&self) -> u64 {
        self.cm.updates()
    }

    /// True once the admission filter is past its design load — the
    /// point where first-touch false positives (dropped keys) become
    /// likely and the declared bound degrades.
    pub fn saturated(&self) -> bool {
        self.keys.len() > self.capacity
    }

    /// Sketch width (for gauges).
    pub fn width(&self) -> usize {
        self.cm.width()
    }

    /// Sketch depth (for gauges).
    pub fn depth(&self) -> usize {
        self.cm.depth()
    }

    /// End-of-window reset, keeping shape and seeds.
    pub fn reset(&mut self) {
        self.cm.reset();
        self.admission.reset();
        self.keys.clear();
    }
}

/// Bloom-admission `distinct` state: the filter decides first-touch,
/// an exact admitted-key list backs the end-of-window dump (the PR 6
/// fabric merge and collector suffix-recompute consume key sets, so
/// that contract is unchanged), and the `Hll` family adds a
/// HyperLogLog whose union-mergeable cardinality estimate feeds the
/// occupancy gauge.
///
/// A false positive makes a new key look already-seen (an undercount
/// at probability ε = the filter's fp rate); false negatives cannot
/// occur, so a key is never reported twice.
#[derive(Debug, Clone)]
pub struct BloomRegisters {
    bloom: BloomFilter,
    hll: Option<HyperLogLog>,
    keys: Vec<RegKey>,
    capacity: usize,
}

impl BloomRegisters {
    /// Build for `capacity` expected keys; `with_hll` adds the
    /// cardinality estimator (the `Hll` family).
    pub fn new(capacity: usize, with_hll: bool, seed: u64) -> Self {
        let capacity = capacity.max(16);
        BloomRegisters {
            bloom: BloomFilter::new(bloom_bits_for(capacity), BLOOM_HASHES, seed),
            hll: with_hll.then(|| HyperLogLog::new(HLL_PRECISION, mix64(seed ^ 0x4811))),
            keys: Vec::new(),
            capacity,
        }
    }

    /// Mirror of [`HashRegisters::update`]; never shunts.
    pub fn update(&mut self, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        let first_touch = self.bloom.insert(key);
        if let Some(h) = &mut self.hll {
            h.insert(key);
        }
        if first_touch {
            self.keys.push(key.to_vec());
        }
        let v = agg.init(operand) & 1;
        RegOutcome::Updated {
            first_touch,
            new_value: v.max(1),
            old_value: if first_touch { 0 } else { 1 },
        }
    }

    /// Membership probe.
    pub fn read(&self, key: &[u64]) -> Option<u64> {
        self.bloom.contains(key).then_some(1)
    }

    /// End-of-window poll: the admitted key set, in first-touch
    /// order (the same shape the exact `distinct` dump has).
    pub fn dump(&self) -> Vec<(RegKey, u64)> {
        self.keys.iter().map(|k| (k.clone(), 1)).collect()
    }

    /// Visit the pairs [`Self::dump`] returns, borrowed.
    pub fn for_each(&self, mut f: impl FnMut(&[u64], u64)) {
        for k in &self.keys {
            f(k, 1);
        }
    }

    /// Admitted keys this window.
    pub fn occupancy(&self) -> usize {
        self.keys.len()
    }

    /// The HyperLogLog cardinality estimate, when the `Hll` family
    /// is active.
    pub fn cardinality_estimate(&self) -> Option<u64> {
        self.hll.as_ref().map(|h| h.estimate())
    }

    /// The declared `(ε, δ)` contract at the current load.
    pub fn bound(&self) -> ErrorBound {
        match &self.hll {
            // With an estimator attached, report the dominating bound
            // of the admission filter and the estimator.
            Some(h) => self.bloom.bound().fold(h.bound()),
            None => self.bloom.bound(),
        }
    }

    /// Keys admitted (≈ update count for distinct state).
    pub fn updates(&self) -> u64 {
        self.bloom.inserted()
    }

    /// True once past design load (fp rate beyond the provisioned ε).
    pub fn saturated(&self) -> bool {
        self.keys.len() > self.capacity
    }

    /// Filter bits (for gauges).
    pub fn width(&self) -> usize {
        self.bloom.bits()
    }

    /// Hash count (for gauges).
    pub fn depth(&self) -> usize {
        self.bloom.hashes()
    }

    /// End-of-window reset, keeping shape and seeds.
    pub fn reset(&mut self) {
        self.bloom.reset();
        if let Some(h) = &mut self.hll {
            h.reset();
        }
        self.keys.clear();
    }
}

/// One stateful task's register state under its chosen layout.
///
/// `Exact` is the reference oracle (the original [`HashRegisters`]);
/// the sketch variants present the same update/dump surface so both
/// the reference interpreter and the compiled `ExecPlan` hot path are
/// layout-transparent.
#[derive(Debug, Clone)]
pub enum RegisterState {
    /// Keyed hash table with shunt-on-collision (the reference).
    Exact(HashRegisters),
    /// Count-min `reduce` state.
    CountMin(CmRegisters),
    /// Bloom-admission `distinct` state (optionally with HLL).
    Bloom(BloomRegisters),
}

impl RegisterState {
    /// Which layout this state runs.
    pub fn layout(&self) -> StateLayout {
        match self {
            RegisterState::Exact(_) => StateLayout::Exact,
            RegisterState::CountMin(_) => StateLayout::CountMin,
            RegisterState::Bloom(b) => {
                if b.hll.is_some() {
                    StateLayout::Hll
                } else {
                    StateLayout::Bloom
                }
            }
        }
    }

    /// Apply `agg` with `operand` for `key` (the per-packet
    /// read-modify-write action both execution paths call).
    #[inline]
    pub fn update(&mut self, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        match self {
            RegisterState::Exact(r) => r.update(key, agg, operand),
            RegisterState::CountMin(r) => r.update(key, agg, operand),
            RegisterState::Bloom(r) => r.update(key, agg, operand),
        }
    }

    /// Read a key's current value/membership without modifying it.
    pub fn read(&self, key: &[u64]) -> Option<u64> {
        match self {
            RegisterState::Exact(r) => r.read(key),
            RegisterState::CountMin(r) => r.read(key),
            RegisterState::Bloom(r) => r.read(key),
        }
    }

    /// End-of-window register poll.
    pub fn dump(&self) -> Vec<(RegKey, u64)> {
        match self {
            RegisterState::Exact(r) => r.dump(),
            RegisterState::CountMin(r) => r.dump(),
            RegisterState::Bloom(r) => r.dump(),
        }
    }

    /// Visit the end-of-window poll's `(key, value)` pairs in
    /// [`Self::dump`] order without materializing owned keys.
    pub fn for_each(&self, f: impl FnMut(&[u64], u64)) {
        match self {
            RegisterState::Exact(r) => r.for_each(f),
            RegisterState::CountMin(r) => r.for_each(f),
            RegisterState::Bloom(r) => r.for_each(f),
        }
    }

    /// Occupied slots / admitted keys.
    pub fn occupancy(&self) -> usize {
        match self {
            RegisterState::Exact(r) => r.occupancy(),
            RegisterState::CountMin(r) => r.occupancy(),
            RegisterState::Bloom(r) => r.occupancy(),
        }
    }

    /// Packets shunted since the last reset (always 0 for sketch
    /// layouts — they never shunt).
    pub fn shunted_packets(&self) -> u64 {
        match self {
            RegisterState::Exact(r) => r.shunted_packets(),
            _ => 0,
        }
    }

    /// The declared `(ε, δ)` contract (`ErrorBound::EXACT` for the
    /// reference layout).
    pub fn bound(&self) -> ErrorBound {
        match self {
            RegisterState::Exact(_) => ErrorBound::EXACT,
            RegisterState::CountMin(r) => r.bound(),
            RegisterState::Bloom(r) => r.bound(),
        }
    }

    /// Stream mass the bound's ε is relative to (count-min only).
    pub fn mass(&self) -> u64 {
        match self {
            RegisterState::CountMin(r) => r.mass(),
            _ => 0,
        }
    }

    /// Updates folded in this window.
    pub fn updates(&self) -> u64 {
        match self {
            RegisterState::Exact(r) => r.occupancy() as u64,
            RegisterState::CountMin(r) => r.updates(),
            RegisterState::Bloom(r) => r.updates(),
        }
    }

    /// Whether the sketch is past its design load and the declared
    /// bound no longer holds (never true for exact state).
    pub fn saturated(&self) -> bool {
        match self {
            RegisterState::Exact(_) => false,
            RegisterState::CountMin(r) => r.saturated(),
            RegisterState::Bloom(r) => r.saturated(),
        }
    }

    /// Primary dimension for gauges (slots / cm width / bloom bits).
    pub fn gauge_width(&self) -> u64 {
        match self {
            RegisterState::Exact(r) => r.slots_per_array() as u64,
            RegisterState::CountMin(r) => r.width() as u64,
            RegisterState::Bloom(r) => r.width() as u64,
        }
    }

    /// Secondary dimension for gauges (arrays / cm depth / bloom k).
    pub fn gauge_depth(&self) -> u64 {
        match self {
            RegisterState::Exact(r) => r.arrays() as u64,
            RegisterState::CountMin(r) => r.depth() as u64,
            RegisterState::Bloom(r) => r.depth() as u64,
        }
    }

    /// End-of-window reset.
    pub fn reset(&mut self) {
        match self {
            RegisterState::Exact(r) => r.reset(),
            RegisterState::CountMin(r) => r.reset(),
            RegisterState::Bloom(r) => r.reset(),
        }
    }
}

/// Simulate the collision rate for Figure 3: insert `keys` distinct
/// keys into a `d`-array register sized for `n` expected keys, and
/// return the fraction of *keys* that shunt.
///
/// Matches the paper's setup: the x-axis is `keys / n` and each curve
/// is one `d`.
pub fn collision_rate(n: usize, d: usize, keys: usize, seed: u64) -> f64 {
    if keys == 0 {
        return 0.0;
    }
    let mut regs = HashRegisters::new(n.max(1), d, 32, 1);
    let mut shunted = 0usize;
    // Distinct synthetic keys; mix the seed in so repeated runs vary.
    for i in 0..keys {
        let key = [seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ (i as u64)];
        match regs.update(&key, Agg::Count, 1) {
            RegOutcome::Shunted => shunted += 1,
            RegOutcome::Updated { .. } => {}
        }
    }
    shunted as f64 / keys as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_aggregation_per_key() {
        let mut r = HashRegisters::new(64, 2, 32, 1);
        let k1 = vec![1u64];
        let k2 = vec![2u64];
        assert_eq!(
            r.update(&k1, Agg::Sum, 5),
            RegOutcome::Updated {
                first_touch: true,
                new_value: 5,
                old_value: 0
            }
        );
        assert_eq!(
            r.update(&k1, Agg::Sum, 3),
            RegOutcome::Updated {
                first_touch: false,
                new_value: 8,
                old_value: 5
            }
        );
        r.update(&k2, Agg::Sum, 7);
        assert_eq!(r.read(&k1), Some(8));
        assert_eq!(r.read(&k2), Some(7));
        assert_eq!(r.read(&[3]), None);
        assert_eq!(r.occupancy(), 2);
    }

    #[test]
    fn value_width_truncates() {
        let mut r = HashRegisters::new(4, 1, 8, 1);
        let k = vec![1u64];
        r.update(&k, Agg::Sum, 250);
        let out = r.update(&k, Agg::Sum, 10);
        // 260 mod 256 = 4: an 8-bit counter wraps like hardware.
        assert_eq!(
            out,
            RegOutcome::Updated {
                first_touch: false,
                new_value: 4,
                old_value: 250
            }
        );
    }

    #[test]
    fn collisions_cascade_then_shunt() {
        // One slot per array: the second distinct key must cascade,
        // the (d+1)-th must shunt.
        for d in 1..=4usize {
            let mut r = HashRegisters::new(1, d, 32, 1);
            let mut shunts = 0;
            for key in 0..(d as u64 + 1) {
                if r.update(&[key], Agg::Count, 1) == RegOutcome::Shunted {
                    shunts += 1;
                }
            }
            assert_eq!(shunts, 1, "d={d}");
            assert_eq!(r.occupancy(), d);
            assert_eq!(r.shunted_packets(), 1);
        }
    }

    #[test]
    fn shunted_key_stays_shunted_within_window() {
        let mut r = HashRegisters::new(1, 1, 32, 1);
        assert!(matches!(
            r.update(&[1], Agg::Count, 1),
            RegOutcome::Updated { .. }
        ));
        // Key 2 collides (single slot) and must shunt every time.
        for _ in 0..5 {
            assert_eq!(r.update(&[2], Agg::Count, 1), RegOutcome::Shunted);
        }
        assert_eq!(r.shunted_packets(), 5);
        // Key 1 keeps aggregating in the register.
        assert!(matches!(
            r.update(&[1], Agg::Count, 1),
            RegOutcome::Updated {
                first_touch: false,
                new_value: 2,
                ..
            }
        ));
    }

    #[test]
    fn dump_returns_all_pairs() {
        let mut r = HashRegisters::new(128, 2, 32, 1);
        for k in 0..50u64 {
            r.update(&[k], Agg::Sum, k);
        }
        let mut dump = r.dump();
        dump.sort();
        assert_eq!(dump.len(), 50);
        for (k, v) in dump {
            assert_eq!(v, k[0]);
        }
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = HashRegisters::new(1, 1, 32, 1);
        r.update(&[1], Agg::Count, 1);
        r.update(&[2], Agg::Count, 1); // shunt
        r.reset();
        assert_eq!(r.occupancy(), 0);
        assert_eq!(r.shunted_packets(), 0);
        assert!(matches!(
            r.update(&[2], Agg::Count, 1),
            RegOutcome::Updated {
                first_touch: true,
                ..
            }
        ));
    }

    #[test]
    fn distinct_via_bitor() {
        let mut r = HashRegisters::new(64, 1, 1, 1);
        let out1 = r.update(&[7], Agg::BitOr, 1);
        let out2 = r.update(&[7], Agg::BitOr, 1);
        assert!(matches!(
            out1,
            RegOutcome::Updated {
                first_touch: true,
                new_value: 1,
                ..
            }
        ));
        assert!(matches!(
            out2,
            RegOutcome::Updated {
                first_touch: false,
                new_value: 1,
                ..
            }
        ));
    }

    #[test]
    fn multipart_keys_are_distinguished() {
        let mut r = HashRegisters::new(256, 2, 32, 2);
        r.update(&[1, 2], Agg::Count, 1);
        r.update(&[2, 1], Agg::Count, 1);
        r.update(&[1, 2], Agg::Count, 1);
        assert_eq!(r.read(&[1, 2]), Some(2));
        assert_eq!(r.read(&[2, 1]), Some(1));
    }

    #[test]
    fn collision_rate_monotonic_in_load_and_d() {
        // More keys than slots -> more collisions; more arrays -> fewer.
        let n = 1024;
        let r_half = collision_rate(n, 1, n / 2, 1);
        let r_double = collision_rate(n, 1, n * 2, 1);
        assert!(r_double > r_half);
        let d1 = collision_rate(n, 1, n, 2);
        let d4 = collision_rate(n, 4, n, 2);
        assert!(d1 > d4, "d1={d1} d4={d4}");
        // At very light load the rate is near zero for d=4.
        assert!(collision_rate(n, 4, n / 10, 3) < 0.01);
    }

    #[test]
    fn collision_rate_zero_for_no_keys() {
        assert_eq!(collision_rate(16, 2, 0, 0), 0.0);
    }
}
