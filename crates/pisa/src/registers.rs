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

/// A sequence of `d` hash-indexed register arrays at the widths the
/// program declares: each slot is a record of 32-bit words — one per
/// key part declared ≤ 32 bits, two (low first) per wider part, then
/// the value's, which a `distinct` [set](Self::set) does without (its
/// occupancy bit is its value). Occupancy is a bitmap beside `cells`,
/// so the end-of-window reset is one `fill`. Keys hash as their
/// logical `u64` parts: slots, shunts and dump order do not depend on
/// the layout.
#[derive(Debug, Clone)]
pub struct HashRegisters {
    slots_per_array: usize,
    seeds: Vec<u64>,
    value_mask: u64,
    /// Key arity every update must carry (the Hash table's key list).
    key_parts: usize,
    /// Bit `p` set: key part `p` is wider than 32 bits (two words).
    wide: u64,
    /// Words per slot; a key-only `set` has no value word.
    stride: usize,
    set: bool,
    /// `arrays × slots` records of `stride` words.
    cells: Vec<u32>,
    /// One bit per slot, array-major like `cells`.
    occupied_bits: Vec<u64>,
    shunted_packets: u64,
    /// Occupied-slot count maintained incrementally so `occupancy()`
    /// and dump pre-sizing never scan the bitmap.
    occupied: usize,
}

impl HashRegisters {
    /// Create with `slots_per_array` slots (`n`), `arrays` arrays
    /// (`d`), values truncated to `value_bits` (≤ 32), and one key part
    /// per entry of `key_widths`, each that many bits wide.
    pub fn new(slots_per_array: usize, arrays: usize, value_bits: u32, key_widths: &[u32]) -> Self {
        assert!(value_bits <= 32, "a register value is at most 32 bits");
        Self::build(slots_per_array, arrays, value_bits, key_widths, false)
    }

    /// A `distinct` register (a 1-bit `BitOr` of the constant 1): a
    /// set of keys, with no value word.
    pub fn set(slots_per_array: usize, arrays: usize, key_widths: &[u32]) -> Self {
        Self::build(slots_per_array, arrays, 1, key_widths, true)
    }

    fn build(slots: usize, arrays: usize, value_bits: u32, key_widths: &[u32], set: bool) -> Self {
        assert!((1..1 << 32).contains(&slots), "1 ≤ n < 2³²");
        assert!((1..=8).contains(&arrays), "d must be in 1..=8");
        assert!(key_widths.len() <= 64, "at most 64 key parts");
        let wide = (key_widths.iter().enumerate())
            .filter(|(_, &w)| w > 32)
            .fold(0u64, |m, (p, _)| m | 1 << p);
        let stride = key_widths.len() + wide.count_ones() as usize + !set as usize;
        let total = slots * arrays;
        HashRegisters {
            slots_per_array: slots,
            seeds: (0..arrays as u64)
                .map(|i| 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i * 2 + 1))
                .collect(),
            value_mask: (1u64 << value_bits) - 1,
            key_parts: key_widths.len(),
            wide,
            stride,
            set,
            cells: vec![0; total * stride],
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

    /// Key parts every update carries.
    pub(crate) fn key_parts(&self) -> usize {
        self.key_parts
    }

    /// Bits of register memory simulated: cells plus occupancy bitmap.
    pub fn bits(&self) -> u64 {
        32 * self.cells.len() as u64 + 64 * self.occupied_bits.len() as u64
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

    #[inline(always)]
    fn holds(&self, idx: usize, key: &[u64]) -> bool {
        let rec = &self.cells[idx * self.stride..(idx + 1) * self.stride];
        key_words(self.wide, key, |w, word| rec[w] as u64 == word)
    }

    /// Slot `idx`'s key, widened into `key`, and its value.
    fn unpack(&self, idx: usize, key: &mut [u64]) -> u64 {
        let rec = &self.cells[idx * self.stride..(idx + 1) * self.stride];
        let mut w = 0;
        for (p, part) in key.iter_mut().enumerate() {
            let two = self.wide >> p & 1 != 0;
            *part = rec[w] as u64 | if two { (rec[w + 1] as u64) << 32 } else { 0 };
            w += 1 + two as usize;
        }
        if self.set {
            1
        } else {
            rec[self.stride - 1] as u64
        }
    }

    /// The slot `key` probes first. The batch kernel hashes every lane
    /// before it probes any ([`Self::update_at`]).
    #[inline(always)]
    pub fn slot(&self, key: &[u64]) -> usize {
        self.index(0, key)
    }

    /// Apply `agg` with `operand` for `key`, probing the arrays in
    /// order. Mirrors a per-packet read-modify-write action.
    #[inline(always)]
    pub fn update(&mut self, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        assert_eq!(key.len(), self.key_parts, "register key arity");
        self.update_at(self.slot(key), key, agg, operand)
    }

    /// [`Self::update`] for a key of the register's arity whose array-0
    /// slot is `slot`: only a key that collides there hashes again.
    ///
    /// Always inlined: a caller that passes a fixed-size array (the
    /// batch kernels dispatch on key arity once per step) gets the
    /// hash rounds and the stored-key compare unrolled for that arity.
    #[inline(always)]
    pub fn update_at(&mut self, slot: usize, key: &[u64], agg: Agg, operand: u64) -> RegOutcome {
        debug_assert_eq!(key.len(), self.key_parts, "register key arity");
        debug_assert_eq!(slot, self.slot(key), "slot of another key");
        let mut idx = slot;
        for array in 0..self.seeds.len() {
            if array > 0 {
                idx = self.index(array, key);
            }
            let end = (idx + 1) * self.stride;
            let first_touch = !self.is_occupied(idx);
            if first_touch {
                let rec = &mut self.cells[idx * self.stride..end];
                key_words(self.wide, key, |w, word| {
                    rec[w] = u32::try_from(word).expect("key part wider than declared");
                    true
                });
                self.occupied_bits[idx / 64] |= 1 << (idx % 64);
                self.occupied += 1;
            } else if !self.holds(idx, key) {
                continue;
            }
            let old = match (first_touch, self.set) {
                (true, _) => 0,
                (false, true) => 1,
                (false, false) => self.cells[end - 1] as u64,
            };
            let new = if first_touch {
                agg.init(operand)
            } else {
                agg.fold(old, operand)
            } & self.value_mask;
            debug_assert!(!self.set || new == 1, "a set holds the constant 1");
            if !self.set {
                self.cells[end - 1] = new as u32;
            }
            return RegOutcome::Updated {
                first_touch,
                new_value: new,
                old_value: old,
            };
        }
        self.shunted_packets += 1;
        RegOutcome::Shunted
    }

    /// Read a key's current value without modifying it.
    pub fn read(&self, key: &[u64]) -> Option<u64> {
        let idx = (0..self.arrays())
            .filter(|_| key.len() == self.key_parts)
            .map(|array| self.index(array, key))
            .take_while(|&idx| self.is_occupied(idx))
            .find(|&idx| self.holds(idx, key))?;
        Some(self.unpack(idx, &mut vec![0; key.len()]))
    }

    /// Visit every stored `(key, value)` pair in deterministic slot
    /// order (array-major), each key widened back to `u64` parts in
    /// one buffer per call.
    pub fn for_each(&self, mut f: impl FnMut(&[u64], u64)) {
        let mut key = vec![0; self.key_parts];
        for_each_bit(&self.occupied_bits, |idx| {
            let value = self.unpack(idx, &mut key);
            f(&key, value);
        });
    }

    /// Every stored `(key, value)` pair, owned, in slot order.
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

/// Call `f(word, value)` for each stored word of `key` in record order
/// while it returns true. A wide part gives its low word, then its high
/// word; a part declared ≤ 32 bits is given whole, so a wider value
/// matches no stored word, and storing one panics instead of aliasing.
#[inline(always)]
fn key_words(wide: u64, key: &[u64], mut f: impl FnMut(usize, u64) -> bool) -> bool {
    let mut w = 0;
    for (p, &part) in key.iter().enumerate() {
        let two = wide >> p & 1 != 0;
        let low = if two { part & 0xFFFF_FFFF } else { part };
        if !f(w, low) || two && !f(w + 1, part >> 32) {
            return false;
        }
        w += 1 + two as usize;
    }
    true
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
    pub fn for_each(&self, mut f: impl FnMut(&[u64], u64)) {
        for k in &self.keys {
            f(k, 1);
        }
    }

    /// Admitted keys this window.
    pub fn occupancy(&self) -> usize {
        self.keys.len()
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

    /// The end-of-window register poll: visit every `(key, value)`
    /// pair without materializing owned keys.
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
    let mut regs = HashRegisters::new(n.max(1), d, 32, &[64]);
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
        let mut r = HashRegisters::new(64, 2, 32, &[32]);
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
        let mut r = HashRegisters::new(4, 1, 8, &[32]);
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
            let mut r = HashRegisters::new(1, d, 32, &[32]);
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
        let mut r = HashRegisters::new(1, 1, 32, &[32]);
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
        let mut r = HashRegisters::new(128, 2, 32, &[32]);
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
        let mut r = HashRegisters::new(1, 1, 32, &[32]);
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
        let mut r = HashRegisters::set(64, 1, &[32]);
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
        assert_eq!(r.dump(), vec![(vec![7], 1)]);
        // One word per slot: the key, no value.
        assert_eq!(r.bits(), 64 * 32 + 64);
    }

    #[test]
    fn multipart_keys_are_distinguished() {
        // A 40-bit part takes two words: keys equal in their low 32
        // bits stay apart.
        let mut r = HashRegisters::new(256, 2, 32, &[32, 40]);
        r.update(&[1, 2], Agg::Count, 1);
        r.update(&[2, 1], Agg::Count, 1);
        r.update(&[1, 2], Agg::Count, 1);
        r.update(&[1, 2 | 1 << 39], Agg::Count, 1);
        assert_eq!(r.read(&[1, 2]), Some(2));
        assert_eq!(r.read(&[2, 1]), Some(1));
        assert_eq!(r.read(&[1, 2 | 1 << 39]), Some(1));
        assert_eq!(r.bits(), 512 * 4 * 32 + 512);
        // A 32-bit part holding a wider value is refused, not truncated.
        let wider = std::panic::catch_unwind(move || r.update(&[1 << 32, 0], Agg::Count, 1));
        assert!(wider.is_err());
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
