//! Tuples and schemas.
//!
//! A [`Tuple`] is a positional vector of [`Value`]s; its column names
//! live in a shared [`Schema`]. Schemas are immutable and cheap to
//! clone (`Arc` inside); operators derive new schemas during query
//! validation, and the interpreter/stream engine bind expressions to a
//! schema once, not per tuple.

use sonata_packet::{Field, Packet, Value};
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

    /// Overwrite the value at an index (a reused probe tuple). Copies
    /// the values first if anyone else holds them, so a write never
    /// shows through a clone.
    pub(crate) fn set(&mut self, idx: usize, value: Value) {
        Arc::make_mut(&mut self.values)[idx] = value;
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
        // Writing to one holder copies: the other still reads the old
        // values, and the writer compares as its new ones.
        let mut probe = shared.clone();
        probe.set(0, Value::U64(8));
        assert_eq!(probe, bigger);
        assert_eq!(shared, original);
        assert_eq!(shared.get(0), &Value::U64(7));
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
