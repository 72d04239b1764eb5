//! The packet header vector (PHV).
//!
//! A PHV carries (1) parsed header fields — fixed-width scalars only,
//! as on real hardware — and (2) per-task metadata containers that the
//! match-action pipeline reads and writes. Variable-width content
//! (payloads, DNS names) never enters the PHV; queries needing it are
//! partitioned so the stream processor sees the original packet.

use sonata_packet::Field;

/// Number of scalar header fields a PHV can hold.
pub const FIELD_SLOTS: usize = Field::ALL.len();

/// Index of a field in the PHV's fixed slot array.
pub fn field_slot(f: Field) -> usize {
    Field::ALL
        .iter()
        .position(|x| *x == f)
        .expect("field in ALL")
}

/// A reference to a metadata container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetaRef(pub usize);

/// The packet header vector for one packet traversing the pipeline.
#[derive(Debug, Clone)]
pub struct Phv {
    /// Parsed header fields, indexed by [`field_slot`]. Unparsed or
    /// invalid fields read as zero (zeroed containers).
    fields: [u64; FIELD_SLOTS],
    /// Which fields were actually parsed.
    valid: [bool; FIELD_SLOTS],
    /// Metadata containers, sized by the program's metadata layout.
    meta: Vec<u64>,
    /// Per-task liveness: a task's tables only execute while alive,
    /// and the deparser mirrors a task's report iff it still is.
    alive: Vec<bool>,
}

impl Phv {
    /// A PHV with `meta_slots` metadata containers and `tasks` tasks.
    pub fn new(meta_slots: usize, tasks: usize) -> Self {
        Phv {
            fields: [0; FIELD_SLOTS],
            valid: [false; FIELD_SLOTS],
            meta: vec![0; meta_slots],
            alive: vec![true; tasks],
        }
    }

    /// Store a parsed field value.
    pub fn set_field(&mut self, f: Field, v: u64) {
        let i = field_slot(f);
        self.fields[i] = v;
        self.valid[i] = true;
    }

    /// Read a field (0 when unparsed).
    pub fn field(&self, f: Field) -> u64 {
        self.fields[field_slot(f)]
    }

    /// Whether a field was parsed.
    pub fn field_valid(&self, f: Field) -> bool {
        self.valid[field_slot(f)]
    }

    /// Read a metadata container.
    pub fn meta(&self, r: MetaRef) -> u64 {
        self.meta[r.0]
    }

    /// Write a metadata container.
    pub fn set_meta(&mut self, r: MetaRef, v: u64) {
        self.meta[r.0] = v;
    }

    /// Whether task `t` is still alive.
    pub fn is_alive(&self, t: usize) -> bool {
        self.alive[t]
    }

    /// Kill task `t` (a filter miss).
    pub fn kill(&mut self, t: usize) {
        self.alive[t] = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_slots_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for f in Field::ALL {
            assert!(seen.insert(field_slot(*f)));
        }
    }

    #[test]
    fn fields_default_to_zero_and_invalid() {
        let phv = Phv::new(4, 2);
        assert_eq!(phv.field(Field::Ipv4Dst), 0);
        assert!(!phv.field_valid(Field::Ipv4Dst));
    }

    #[test]
    fn set_and_read_fields_meta() {
        let mut phv = Phv::new(4, 2);
        phv.set_field(Field::Ipv4Dst, 0x0a000001);
        assert_eq!(phv.field(Field::Ipv4Dst), 0x0a000001);
        assert!(phv.field_valid(Field::Ipv4Dst));
        phv.set_meta(MetaRef(3), 99);
        assert_eq!(phv.meta(MetaRef(3)), 99);
        assert_eq!(phv.meta(MetaRef(0)), 0);
    }

    #[test]
    fn task_liveness() {
        let mut phv = Phv::new(0, 3);
        assert!(phv.is_alive(1));
        phv.kill(1);
        assert!(!phv.is_alive(1));
        assert!(phv.is_alive(0) && phv.is_alive(2));
    }
}
