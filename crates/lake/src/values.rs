//! [`Values`]: an attribute's raw domain values in one buffer, and the
//! [`ValueStore`] that holds them beside a lake's catalog.
//!
//! Organization construction reads only topic vectors and tags
//! (Definition 4, §3.2); raw values serve keyword search (§4.4) and the
//! user study. So a [`DataLake`](crate::DataLake) is a values-free
//! catalog, and the values of its attributes live in a separate
//! `ValueStore`, which CSV ingest and the generators return next to it.
//! A replayed or maintained lake therefore never carries values.
//!
//! Most values are a few bytes long, so storing each as its own `String`
//! (24 bytes inline plus a heap chunk of at least 32 bytes) costs several
//! times the text itself. `Values` concatenates an attribute's values into
//! one `String` and records where each ends, so a value costs its bytes
//! plus a 4-byte offset, and pushing a value allocates only when a buffer
//! grows.

use std::fmt;

use crate::model::AttrId;

/// An attribute's values, in insertion order, stored as one `String` plus
/// the `u32` end offset of each value.
///
/// The whole text of one attribute is limited to `u32::MAX` bytes;
/// [`push`](Values::push) panics rather than wrap an offset past it.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Values {
    /// Every value, back to back.
    text: String,
    /// `ends[i]` is the byte offset in `text` just past value `i`.
    ends: Vec<u32>,
}

impl Values {
    /// No values.
    pub fn new() -> Values {
        Values::default()
    }

    /// No values, with room for `values` values of `bytes` bytes in all.
    pub(crate) fn with_capacity(values: usize, bytes: usize) -> Values {
        Values {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(values),
        }
    }

    /// Append `value`.
    ///
    /// # Panics
    /// When the attribute's text would exceed `u32::MAX` bytes.
    pub fn push(&mut self, value: &str) {
        let end = match u32::try_from(self.text.len() + value.len()) {
            Ok(end) => end,
            Err(_) => panic!("an attribute's values exceed u32::MAX bytes"),
        };
        self.text.push_str(value);
        self.ends.push(end);
    }

    /// Number of values.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether there are no values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The `i`-th value, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<&str> {
        let end = *self.ends.get(i)? as usize;
        let start = match i {
            0 => 0,
            _ => self.ends[i - 1] as usize,
        };
        Some(&self.text[start..end])
    }

    /// The first value.
    pub fn first(&self) -> Option<&str> {
        self.get(0)
    }

    /// The values in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.text[start as usize..end as usize])
    }

    /// Release the spare capacity of both buffers (a store keeps its
    /// values for its whole life).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

impl<'a> FromIterator<&'a str> for Values {
    fn from_iter<I: IntoIterator<Item = &'a str>>(iter: I) -> Values {
        let mut values = Values::new();
        for v in iter {
            values.push(v);
        }
        values
    }
}

impl From<Vec<String>> for Values {
    fn from(values: Vec<String>) -> Values {
        values.iter().map(String::as_str).collect()
    }
}

impl fmt::Debug for Values {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The raw values of a lake's attributes: the [`Values`] of attribute
/// `AttrId(i)` of the catalog it was built beside is entry `i`.
///
/// Built by pushing one entry per attribute in the order the catalog's
/// builder added them (attribute ids are dense in insertion order), so the
/// two line up id for id. A producer that keeps no values pushes an empty
/// [`Values`] (which allocates nothing) per attribute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValueStore {
    attrs: Vec<Values>,
}

impl ValueStore {
    /// A store without attributes.
    pub fn new() -> ValueStore {
        ValueStore::default()
    }

    /// Store the values of the next attribute, releasing their spare
    /// capacity; returns the id they are stored under.
    pub fn push(&mut self, mut values: Values) -> AttrId {
        values.shrink_to_fit();
        let id = AttrId(self.attrs.len() as u32);
        self.attrs.push(values);
        id
    }

    /// The values of attribute `id`.
    ///
    /// # Panics
    /// When `id` is past the last attribute stored.
    #[inline]
    pub fn get(&self, id: AttrId) -> &Values {
        &self.attrs[id.index()]
    }

    /// Number of attributes stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether no attribute is stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The values of every attribute, in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Values> + '_ {
        self.attrs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(values: &Values) -> Vec<String> {
        values.iter().map(str::to_string).collect()
    }

    #[test]
    fn no_values() {
        let v = Values::new();
        assert!(v.is_empty());
        assert_eq!(v.len(), 0);
        assert_eq!(v.first(), None);
        assert_eq!(v.get(0), None);
        assert_eq!(v.iter().count(), 0);
        assert_eq!(format!("{v:?}"), "[]");
    }

    #[test]
    fn empty_string_values_are_kept_as_values() {
        let v: Values = ["", "a", "", ""].into_iter().collect();
        assert_eq!(v.len(), 4);
        assert!(!v.is_empty());
        assert_eq!(strings(&v), ["", "a", "", ""]);
        assert_eq!(v.first(), Some(""));
        assert_eq!(v.get(3), Some(""));
    }

    #[test]
    fn multi_byte_utf8_values_round_trip() {
        let words = ["Straße", "İstanbul", "ΣΊΣΥΦΟΣ", "٣٤٥", "🦀", "x"];
        let v: Values = words.into_iter().collect();
        assert_eq!(v.len(), words.len());
        for (i, w) in words.iter().enumerate() {
            assert_eq!(v.get(i), Some(*w));
        }
        assert_eq!(strings(&v), words);
        assert_eq!(format!("{v:?}"), format!("{words:?}"));
    }

    #[test]
    fn get_past_the_end_is_none() {
        let v: Values = ["a", "bc"].into_iter().collect();
        assert_eq!(v.get(1), Some("bc"));
        assert_eq!(v.get(2), None);
        assert_eq!(v.get(usize::MAX), None);
    }

    #[test]
    fn iter_count_equals_len() {
        let mut v = Values::new();
        for i in 0..100 {
            assert_eq!(v.iter().count(), v.len());
            v.push(&"ab".repeat(i % 3));
        }
        assert_eq!(v.iter().count(), 100);
    }

    #[test]
    fn clones_are_equal_and_independent() {
        let v: Values = ["salmon", "", "cod"].into_iter().collect();
        let mut c = v.clone();
        assert_eq!(c, v);
        c.push("trout");
        assert_ne!(c, v);
        assert_eq!(v.len(), 3);
        // Equal values compare equal whatever their capacity.
        let mut shrunk = v.clone();
        shrunk.shrink_to_fit();
        assert_eq!(shrunk, v);
    }

    #[test]
    fn from_vec_of_strings_round_trips() {
        let owned: Vec<String> = ["harbor", "", "σίσυφος", "t3w12"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let v = Values::from(owned.clone());
        assert_eq!(strings(&v), owned);
        assert_eq!(Values::from(strings(&v)), v);
        assert_eq!(Values::from(Vec::new()), Values::new());
    }

    #[test]
    fn store_ids_follow_push_order() {
        let mut store = ValueStore::new();
        assert!(store.is_empty());
        let a = store.push(["x", "y"].into_iter().collect());
        let b = store.push(Values::new());
        assert_eq!((a, b), (AttrId(0), AttrId(1)));
        assert_eq!(store.len(), 2);
        assert_eq!(strings(store.get(a)), ["x", "y"]);
        assert!(store.get(b).is_empty());
        assert_eq!(store.iter().map(Values::len).collect::<Vec<_>>(), [2, 0]);
    }
}
