//! The acknowledged-write model every verified get is checked against.
//!
//! A put is *acknowledged* once its batch's Phase-I receipt reaches the
//! caller. Each generator thread owns one edge and issues its calls in
//! order, so at any moment the edge has applied exactly the acknowledged
//! puts (a put still buffered in a client-side batch has not reached the
//! edge). A get must therefore return the last acknowledged value for
//! its (edge, key), or nothing if the key was never acknowledged there.

use std::collections::HashMap;

/// What the model knows about one (edge, key).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Slot {
    Acked(Vec<u8>),
    /// A put whose Phase-I reply never came: the edge may or may not
    /// have applied it, so reads of the key are no longer checkable.
    Unknown,
}

/// Last acknowledged value per (edge, key).
#[derive(Clone, Debug, Default)]
pub struct AckModel {
    slots: HashMap<(usize, u64), Slot>,
}

impl AckModel {
    /// Records an acknowledged put.
    pub fn ack(&mut self, edge: usize, key: u64, value: Vec<u8>) {
        self.slots.insert((edge, key), Slot::Acked(value));
    }

    /// Records a put that drew no Phase-I reply.
    pub fn lost(&mut self, edge: usize, key: u64) {
        self.slots.insert((edge, key), Slot::Unknown);
    }

    /// Whether a verified get of (edge, key) returning `got` agrees
    /// with the acknowledged writes.
    pub fn check(&self, edge: usize, key: u64, got: Option<&[u8]>) -> bool {
        match self.slots.get(&(edge, key)) {
            None => got.is_none(),
            Some(Slot::Acked(v)) => got == Some(v.as_slice()),
            Some(Slot::Unknown) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_written_key_must_read_absent() {
        let m = AckModel::default();
        assert!(m.check(0, 7, None));
        assert!(!m.check(0, 7, Some(b"x")));
    }

    #[test]
    fn reads_see_the_last_acknowledged_put() {
        let mut m = AckModel::default();
        m.ack(0, 7, b"old".to_vec());
        m.ack(0, 7, b"new".to_vec());
        assert!(m.check(0, 7, Some(b"new")));
        assert!(!m.check(0, 7, Some(b"old")));
        assert!(!m.check(0, 7, None));
    }

    #[test]
    fn edges_are_separate_stores() {
        let mut m = AckModel::default();
        m.ack(0, 7, b"a".to_vec());
        assert!(m.check(1, 7, None));
        assert!(!m.check(1, 7, Some(b"a")));
    }

    #[test]
    fn a_lost_put_makes_the_key_uncheckable() {
        let mut m = AckModel::default();
        m.ack(0, 7, b"a".to_vec());
        m.lost(0, 7);
        assert!(m.check(0, 7, Some(b"a")));
        assert!(m.check(0, 7, None));
        m.ack(0, 7, b"b".to_vec());
        assert!(!m.check(0, 7, Some(b"a")));
    }
}
