//! Sequence algebra for the Optimistic Active Replication (OAR) protocol.
//!
//! The OAR paper (Felber & Schiper, ICDCS 2001, §5.1) manipulates *sequences of
//! messages* with four operators:
//!
//! * `seq1 ⊕ seq2` — concatenation: all messages of `seq1` followed by all
//!   messages of `seq2` (here: [`Seq::concat`], also the `+` operator);
//! * `seq1 ⊖ seq2` — decomposition: all messages of `seq1` that are **not**
//!   in `seq2` (here: [`Seq::subtract`]);
//! * `⊓(seq1, …, seqn)` — the longest common prefix of a set of sequences
//!   (here: [`Seq::common_prefix`] / [`common_prefix_all`]);
//! * `⊎(seq1, …, seqn)` — append all sequences together, removing duplicates
//!   (here: [`dedup_append`]).
//!
//! Sequences also support the implicit conversion to sets used by the paper for
//! the `∈`, `∩`, `∪` operators ([`Seq::contains`], [`Seq::intersection`],
//! [`Seq::union_set`]).
//!
//! # Indexed representation
//!
//! `Seq<T>` stores its elements in a `Vec<T>` **and** maintains a hash index
//! from element to the position of its first occurrence. The index makes the
//! membership queries of the protocol's hot path (`m ∈ O_delivered`,
//! `position(m)`) O(1), and turns the binary operators from the naive
//! O(n·m) scans of the obvious implementation into O(n + m) passes:
//! `subtract`, `intersection`, `is_disjoint` and `union_set` probe the other
//! side's index instead of scanning it, and `⊎` probes the accumulator. This
//! is what keeps the per-epoch CPU cost linear as `O_delivered` grows — the
//! concern raised by the paper's §5.3 remark.
//!
//! The index is invisible in the API: it costs one `T` clone per inserted
//! element plus O(n) memory, and is rebuilt in O(n) by the few operations
//! that remove elements ([`Seq::split_prefix`], [`Seq::clear`]). The naive
//! reference implementations are kept in the [`naive`] module; the crate's
//! property tests check every indexed operation against them, and a unit
//! test counts the `Eq`/`Hash` calls of both at n = m = 4 096 to pin the
//! asymptotic gap (linear vs quadratic).
//!
//! The algebra is generic over the element type so that it can be unit-tested
//! and property-tested with small types (`u32`) while the protocol
//! instantiates it with message identifiers. Elements must be `Clone + Eq +
//! Hash` (the seed implementation required only `Clone + PartialEq`; the
//! strengthened bound is what buys the index).
//!
//! # Examples
//!
//! ```
//! use oar_sequence::{Seq, dedup_append};
//!
//! let a: Seq<u32> = Seq::from(vec![1, 2, 3]);
//! let b: Seq<u32> = Seq::from(vec![3, 4]);
//!
//! assert_eq!(a.clone().concat(&b).as_slice(), &[1, 2, 3, 3, 4]);
//! assert_eq!(a.subtract(&b).as_slice(), &[1, 2]);
//! assert_eq!(a.common_prefix(&Seq::from(vec![1, 2, 5])).as_slice(), &[1, 2]);
//! assert_eq!(dedup_append([a, b]).as_slice(), &[1, 2, 3, 4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Index};

/// An ordered sequence of elements, the basic data structure of the OAR
/// protocol.
///
/// `Seq<T>` is an intention-revealing wrapper around `Vec<T>` that provides
/// the paper's operators (`⊕`, `⊖`, `⊓`, `⊎`) as well as prefix/suffix queries
/// used in the correctness arguments. A hash index from element to first
/// position is maintained alongside the vector, making membership and the
/// binary operators linear-time (see the crate docs).
#[derive(Clone)]
pub struct Seq<T> {
    items: Vec<T>,
    /// `index[x]` = position of the first occurrence of `x` in `items`.
    index: HashMap<T, usize>,
}

impl<T> Default for Seq<T> {
    fn default() -> Self {
        Seq {
            items: Vec::new(),
            index: HashMap::new(),
        }
    }
}

// Equality, ordering and hashing are defined by the element sequence alone;
// the index is derived data.
impl<T: PartialEq> PartialEq for Seq<T> {
    fn eq(&self, other: &Self) -> bool {
        self.items == other.items
    }
}

impl<T: Eq> Eq for Seq<T> {}

impl<T: PartialOrd> PartialOrd for Seq<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        self.items.partial_cmp(&other.items)
    }
}

impl<T: Ord> Ord for Seq<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.items.cmp(&other.items)
    }
}

impl<T: Hash> Hash for Seq<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.items.hash(state);
    }
}

impl<T: fmt::Debug> fmt::Debug for Seq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Seq")?;
        f.debug_list().entries(self.items.iter()).finish()
    }
}

impl<T: fmt::Display> fmt::Display for Seq<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{item}")?;
        }
        write!(f, "}}")
    }
}

impl<T> Seq<T> {
    /// Creates an empty sequence (the paper's `ε`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty sequence with room for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        Seq {
            items: Vec::with_capacity(capacity),
            index: HashMap::with_capacity(capacity),
        }
    }

    /// Returns the number of elements in the sequence.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Returns `true` if the sequence contains no elements.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Returns the elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Returns an iterator over the elements, in order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.items.iter()
    }

    /// Returns the first element, if any.
    pub fn first(&self) -> Option<&T> {
        self.items.first()
    }

    /// Returns the last element, if any.
    pub fn last(&self) -> Option<&T> {
        self.items.last()
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.items.clear();
        self.index.clear();
    }

    /// Consumes the sequence and returns the underlying vector.
    pub fn into_inner(self) -> Vec<T> {
        self.items
    }
}

impl<T: Clone + Eq + Hash> Seq<T> {
    /// Appends a single element at the end of the sequence.
    pub fn push(&mut self, item: T) {
        let pos = self.items.len();
        self.index.entry(item.clone()).or_insert(pos);
        self.items.push(item);
    }

    /// Rebuilds the element → first-position index from `items` (used after
    /// operations that remove elements).
    fn rebuild_index(&mut self) {
        self.index.clear();
        self.index.reserve(self.items.len());
        for (pos, item) in self.items.iter().enumerate() {
            self.index.entry(item.clone()).or_insert(pos);
        }
    }

    /// `self ⊕ other` — concatenation of two sequences.
    ///
    /// All elements of `self` followed by all elements of `other`. Duplicates
    /// are **not** removed; see [`dedup_append`] for the `⊎` operator.
    #[must_use]
    pub fn concat(&self, other: &Seq<T>) -> Seq<T> {
        let mut out = Seq::with_capacity(self.items.len() + other.items.len());
        out.items.extend_from_slice(&self.items);
        out.index = self.index.clone();
        for item in &other.items {
            out.push(item.clone());
        }
        out
    }

    /// `self ⊖ other` — all elements of `self` that are not in `other`,
    /// preserving the order of `self`. O(|self| + |other|).
    #[must_use]
    pub fn subtract(&self, other: &Seq<T>) -> Seq<T> {
        let mut out = Seq::with_capacity(self.items.len());
        for item in &self.items {
            if !other.contains(item) {
                out.push(item.clone());
            }
        }
        out
    }

    /// `⊓(self, other)` — the longest common prefix of the two sequences.
    #[must_use]
    pub fn common_prefix(&self, other: &Seq<T>) -> Seq<T> {
        let mut out = Seq::new();
        for (a, b) in self.items.iter().zip(other.items.iter()) {
            if a == b {
                out.push(a.clone());
            } else {
                break;
            }
        }
        out
    }

    /// Returns `true` if `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &Seq<T>) -> bool {
        self.items.len() <= other.items.len()
            && self
                .items
                .iter()
                .zip(other.items.iter())
                .all(|(a, b)| a == b)
    }

    /// Returns `true` if `self` is a suffix of `other`.
    pub fn is_suffix_of(&self, other: &Seq<T>) -> bool {
        if self.items.len() > other.items.len() {
            return false;
        }
        let start = other.items.len() - self.items.len();
        self.items
            .iter()
            .zip(other.items[start..].iter())
            .all(|(a, b)| a == b)
    }

    /// Returns `true` if the sequence contains `item` (the paper's `m ∈ seq`).
    /// O(1) via the hash index.
    pub fn contains(&self, item: &T) -> bool {
        self.index.contains_key(item)
    }

    /// Returns the position (0-based) of the first occurrence of `item` in the
    /// sequence, if present. O(1) via the hash index.
    pub fn position(&self, item: &T) -> Option<usize> {
        self.index.get(item).copied()
    }

    /// The elements that are in both `self` and `other`, in `self`'s order
    /// (the paper's `seq1 ∩ seq2` with the implicit sequence→set conversion).
    /// O(|self| + |other|).
    #[must_use]
    pub fn intersection(&self, other: &Seq<T>) -> Seq<T> {
        let mut out = Seq::new();
        for item in &self.items {
            if other.contains(item) {
                out.push(item.clone());
            }
        }
        out
    }

    /// Returns `true` if `self` and `other` have no element in common
    /// (the paper's `seq1 ∩ seq2 = ∅`). Probes the index of the longer side,
    /// so the cost is O(min(|self|, |other|)).
    pub fn is_disjoint(&self, other: &Seq<T>) -> bool {
        let (shorter, longer) = if self.items.len() <= other.items.len() {
            (self, other)
        } else {
            (other, self)
        };
        shorter.items.iter().all(|m| !longer.contains(m))
    }

    /// Set-union of the two sequences: `self` followed by the elements of
    /// `other` not already present (the paper's `seq1 ∪ seq2`).
    /// O(|self| + |other|).
    #[must_use]
    pub fn union_set(&self, other: &Seq<T>) -> Seq<T> {
        let mut result = self.clone();
        for item in &other.items {
            if !result.contains(item) {
                result.push(item.clone());
            }
        }
        result
    }

    /// Removes and returns the first `n` elements as a new sequence, keeping
    /// the remainder in `self`.
    pub fn split_prefix(&mut self, n: usize) -> Seq<T> {
        let n = n.min(self.items.len());
        let rest = self.items.split_off(n);
        let prefix_items = std::mem::replace(&mut self.items, rest);
        self.rebuild_index();
        let mut prefix = Seq {
            items: prefix_items,
            index: HashMap::new(),
        };
        prefix.rebuild_index();
        prefix
    }

    /// Returns the suffix of `self` starting at position `n`.
    #[must_use]
    pub fn suffix_from(&self, n: usize) -> Seq<T> {
        let n = n.min(self.items.len());
        let mut out = Seq::with_capacity(self.items.len() - n);
        for item in &self.items[n..] {
            out.push(item.clone());
        }
        out
    }

    /// Returns a copy of the sequence with duplicates removed, keeping the
    /// first occurrence of each element. O(n).
    #[must_use]
    pub fn dedup_keep_first(&self) -> Seq<T> {
        let mut out = Seq::new();
        for item in &self.items {
            if !out.contains(item) {
                out.push(item.clone());
            }
        }
        out
    }
}

impl<T: Clone + Ord> Seq<T> {
    /// Returns the set of elements of the sequence as a `BTreeSet`.
    pub fn to_set(&self) -> BTreeSet<T> {
        self.items.iter().cloned().collect()
    }
}

/// `⊎(seqs…)` — appends all sequences together, removing duplicates, keeping
/// the first occurrence of each element. O(total input length).
///
/// This is the paper's `⊎` operator, defined recursively as
/// `⊎(s1, …, si+1) = ⊎(s1, …, si) ⊕ (si+1 ⊖ ⊎(s1, …, si))`.
pub fn dedup_append<T, I>(seqs: I) -> Seq<T>
where
    T: Clone + Eq + Hash,
    I: IntoIterator<Item = Seq<T>>,
{
    let mut out = Seq::new();
    for seq in seqs {
        for item in seq.items {
            if !out.contains(&item) {
                out.push(item);
            }
        }
    }
    out
}

/// `⊓(seqs…)` — the longest common prefix of all the given sequences.
///
/// Returns the empty sequence if the iterator is empty.
pub fn common_prefix_all<'a, T, I>(seqs: I) -> Seq<T>
where
    T: Clone + Eq + Hash + 'a,
    I: IntoIterator<Item = &'a Seq<T>>,
{
    let mut iter = seqs.into_iter();
    let Some(first) = iter.next() else {
        return Seq::new();
    };
    // Track only the prefix *length* while scanning, and build the resulting
    // sequence once at the end: O(total scanned), not O(len · sequences).
    let mut len = first.len();
    for seq in iter {
        let mut common = 0;
        for (a, b) in first.items.iter().take(len).zip(seq.items.iter()) {
            if a == b {
                common += 1;
            } else {
                break;
            }
        }
        len = common;
        if len == 0 {
            break;
        }
    }
    let mut out = Seq::with_capacity(len);
    for item in &first.items[..len] {
        out.push(item.clone());
    }
    out
}

/// Returns the longest sequence among `seqs`.
///
/// Ties are broken in favour of the first maximum encountered, which matches
/// the paper's `dlv_max` selection (line 5 of Fig. 7): the candidates are
/// guaranteed by Lemma 2 to be prefixes of each other, so equal-length
/// candidates are equal.
pub fn longest<'a, T, I>(seqs: I) -> Option<&'a Seq<T>>
where
    T: 'a,
    I: IntoIterator<Item = &'a Seq<T>>,
{
    let mut best: Option<&Seq<T>> = None;
    for seq in seqs {
        match best {
            None => best = Some(seq),
            Some(b) if seq.len() > b.len() => best = Some(seq),
            _ => {}
        }
    }
    best
}

impl<T: Clone + Eq + Hash> From<Vec<T>> for Seq<T> {
    fn from(items: Vec<T>) -> Self {
        let mut seq = Seq {
            items,
            index: HashMap::new(),
        };
        seq.rebuild_index();
        seq
    }
}

impl<T: Clone + Eq + Hash> From<&[T]> for Seq<T> {
    fn from(items: &[T]) -> Self {
        Seq::from(items.to_vec())
    }
}

impl<T: Clone + Eq + Hash> FromIterator<T> for Seq<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut seq = Seq::new();
        seq.extend(iter);
        seq
    }
}

impl<T: Clone + Eq + Hash> Extend<T> for Seq<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for item in iter {
            self.push(item);
        }
    }
}

impl<T> IntoIterator for Seq<T> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

impl<'a, T> IntoIterator for &'a Seq<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

impl<T> Index<usize> for Seq<T> {
    type Output = T;

    fn index(&self, index: usize) -> &T {
        &self.items[index]
    }
}

impl<T: Clone + Eq + Hash> Add<&Seq<T>> for Seq<T> {
    type Output = Seq<T>;

    /// `a + &b` is the paper's `a ⊕ b`.
    fn add(self, rhs: &Seq<T>) -> Seq<T> {
        self.concat(rhs)
    }
}

/// Convenience macro for building a [`Seq`] from a list of elements.
///
/// ```
/// use oar_sequence::{seq, Seq};
/// let s: Seq<u32> = seq![1, 2, 3];
/// assert_eq!(s.len(), 3);
/// ```
#[macro_export]
macro_rules! seq {
    () => { $crate::Seq::new() };
    ($($x:expr),+ $(,)?) => {
        $crate::Seq::from(vec![$($x),+])
    };
}

pub mod naive {
    //! The seed's O(n·m) reference implementations of the algebra, over plain
    //! slices.
    //!
    //! These exist for two reasons: the crate's differential property tests
    //! check every indexed [`Seq`](crate::Seq) operation against them, and a
    //! unit test counts the `Eq`/`Hash` calls of both to show the indexed
    //! representation linear where these are quadratic. They are **not**
    //! used by the protocol.

    /// `a ⊖ b` by linear scan: O(|a|·|b|).
    pub fn subtract<T: Clone + PartialEq>(a: &[T], b: &[T]) -> Vec<T> {
        a.iter().filter(|m| !b.contains(m)).cloned().collect()
    }

    /// `a ∩ b` by linear scan: O(|a|·|b|).
    pub fn intersection<T: Clone + PartialEq>(a: &[T], b: &[T]) -> Vec<T> {
        a.iter().filter(|m| b.contains(m)).cloned().collect()
    }

    /// `a ∪ b` by linear scan: O((|a|+|b|)²) in the worst case.
    pub fn union_set<T: Clone + PartialEq>(a: &[T], b: &[T]) -> Vec<T> {
        let mut out = a.to_vec();
        for item in b {
            if !out.contains(item) {
                out.push(item.clone());
            }
        }
        out
    }

    /// `a ∩ b = ∅` by linear scan.
    pub fn is_disjoint<T: PartialEq>(a: &[T], b: &[T]) -> bool {
        a.iter().all(|m| !b.contains(m))
    }

    /// `⊎(seqs…)` by linear scan of the accumulator per element.
    pub fn dedup_append<T: Clone + PartialEq>(seqs: &[Vec<T>]) -> Vec<T> {
        let mut out: Vec<T> = Vec::new();
        for seq in seqs {
            for item in seq {
                if !out.contains(item) {
                    out.push(item.clone());
                }
            }
        }
        out
    }

    /// First occurrence of each element, by linear scan of the accumulator.
    pub fn dedup_keep_first<T: Clone + PartialEq>(a: &[T]) -> Vec<T> {
        dedup_append(std::slice::from_ref(&a.to_vec()))
    }

    /// `⊓(a, b)`.
    pub fn common_prefix<T: Clone + PartialEq>(a: &[T], b: &[T]) -> Vec<T> {
        let mut out = Vec::new();
        for (x, y) in a.iter().zip(b.iter()) {
            if x == y {
                out.push(x.clone());
            } else {
                break;
            }
        }
        out
    }

    /// `m ∈ a` by linear scan.
    pub fn contains<T: PartialEq>(a: &[T], item: &T) -> bool {
        a.contains(item)
    }

    /// Position of the first occurrence of `item`, by linear scan.
    pub fn position<T: PartialEq>(a: &[T], item: &T) -> Option<usize> {
        a.iter().position(|m| m == item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(items: &[u32]) -> Seq<u32> {
        Seq::from(items)
    }

    #[test]
    fn empty_sequence_properties() {
        let e: Seq<u32> = Seq::new();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.first(), None);
        assert_eq!(e.last(), None);
        assert_eq!(format!("{e}"), "{}");
    }

    #[test]
    fn concat_is_paper_oplus() {
        assert_eq!(s(&[1, 2]).concat(&s(&[3])), s(&[1, 2, 3]));
        assert_eq!(s(&[]).concat(&s(&[3])), s(&[3]));
        assert_eq!(s(&[1]).concat(&s(&[])), s(&[1]));
        // ⊕ keeps duplicates
        assert_eq!(s(&[1]).concat(&s(&[1])), s(&[1, 1]));
    }

    #[test]
    fn add_operator_is_concat() {
        assert_eq!(s(&[1, 2]) + &s(&[3, 4]), s(&[1, 2, 3, 4]));
    }

    #[test]
    fn subtract_is_paper_ominus() {
        assert_eq!(s(&[1, 2, 3, 4]).subtract(&s(&[2, 4])), s(&[1, 3]));
        assert_eq!(s(&[1, 2]).subtract(&s(&[])), s(&[1, 2]));
        assert_eq!(s(&[]).subtract(&s(&[1])), s(&[]));
        assert_eq!(s(&[1, 2]).subtract(&s(&[1, 2])), s(&[]));
        // subtraction removes *all* occurrences
        assert_eq!(s(&[1, 2, 1]).subtract(&s(&[1])), s(&[2]));
    }

    #[test]
    fn common_prefix_pairs() {
        assert_eq!(s(&[1, 2, 3]).common_prefix(&s(&[1, 2, 4])), s(&[1, 2]));
        assert_eq!(s(&[1, 2]).common_prefix(&s(&[3, 4])), s(&[]));
        assert_eq!(s(&[1, 2]).common_prefix(&s(&[1, 2])), s(&[1, 2]));
        assert_eq!(s(&[]).common_prefix(&s(&[1])), s(&[]));
    }

    #[test]
    fn common_prefix_all_of_many() {
        let a = s(&[1, 2, 3, 4]);
        let b = s(&[1, 2, 3]);
        let c = s(&[1, 2, 5]);
        assert_eq!(common_prefix_all([&a, &b, &c]), s(&[1, 2]));
        assert_eq!(common_prefix_all::<u32, [&Seq<u32>; 0]>([]), s(&[]));
        assert_eq!(common_prefix_all([&a]), a);
    }

    #[test]
    fn dedup_append_is_paper_uplus() {
        let out = dedup_append([s(&[1, 2]), s(&[2, 3]), s(&[3, 4, 1])]);
        assert_eq!(out, s(&[1, 2, 3, 4]));
        let empty: Vec<Seq<u32>> = vec![];
        assert_eq!(dedup_append(empty), s(&[]));
    }

    #[test]
    fn dedup_append_matches_recursive_definition() {
        // ⊎(s1, s2) = s1 ⊕ (s2 ⊖ s1)
        let s1 = s(&[5, 1, 2]);
        let s2 = s(&[2, 7, 5, 9]);
        assert_eq!(
            dedup_append([s1.clone(), s2.clone()]),
            s1.concat(&s2.subtract(&s1))
        );
    }

    #[test]
    fn prefix_and_suffix_checks() {
        assert!(s(&[1, 2]).is_prefix_of(&s(&[1, 2, 3])));
        assert!(!s(&[2]).is_prefix_of(&s(&[1, 2, 3])));
        assert!(s(&[]).is_prefix_of(&s(&[1])));
        assert!(s(&[2, 3]).is_suffix_of(&s(&[1, 2, 3])));
        assert!(!s(&[1, 2]).is_suffix_of(&s(&[1, 2, 3])));
        assert!(s(&[]).is_suffix_of(&s(&[])));
        assert!(!s(&[1, 2, 3, 4]).is_suffix_of(&s(&[3, 4])));
    }

    #[test]
    fn membership_and_position() {
        let a = s(&[4, 7, 9]);
        assert!(a.contains(&7));
        assert!(!a.contains(&8));
        assert_eq!(a.position(&9), Some(2));
        assert_eq!(a.position(&1), None);
    }

    #[test]
    fn position_reports_first_occurrence() {
        let a = s(&[4, 7, 4, 9, 7]);
        assert_eq!(a.position(&4), Some(0));
        assert_eq!(a.position(&7), Some(1));
        assert_eq!(a.position(&9), Some(3));
    }

    #[test]
    fn intersection_and_disjoint() {
        assert_eq!(s(&[1, 2, 3]).intersection(&s(&[3, 1])), s(&[1, 3]));
        assert!(s(&[1, 2]).is_disjoint(&s(&[3, 4])));
        assert!(!s(&[1, 2]).is_disjoint(&s(&[2])));
        assert!(s(&[]).is_disjoint(&s(&[])));
        // both probe directions (shorter side iterated)
        assert!(!s(&[1]).is_disjoint(&s(&[9, 8, 7, 1])));
        assert!(!s(&[9, 8, 7, 1]).is_disjoint(&s(&[1])));
    }

    #[test]
    fn union_set_keeps_first_occurrences() {
        assert_eq!(s(&[1, 2]).union_set(&s(&[2, 3])), s(&[1, 2, 3]));
    }

    #[test]
    fn split_prefix_and_suffix_from() {
        let mut a = s(&[1, 2, 3, 4]);
        let prefix = a.split_prefix(2);
        assert_eq!(prefix, s(&[1, 2]));
        assert_eq!(a, s(&[3, 4]));
        // the index must follow the split
        assert_eq!(a.position(&3), Some(0));
        assert!(!a.contains(&1));
        assert!(prefix.contains(&1));
        let b = s(&[1, 2, 3]);
        assert_eq!(b.suffix_from(1), s(&[2, 3]));
        assert_eq!(b.suffix_from(5), s(&[]));
        let mut c = s(&[1]);
        assert_eq!(c.split_prefix(10), s(&[1]));
        assert_eq!(c, s(&[]));
    }

    #[test]
    fn clear_resets_index() {
        let mut a = s(&[1, 2, 3]);
        a.clear();
        assert!(a.is_empty());
        assert!(!a.contains(&1));
        a.push(2);
        assert_eq!(a.position(&2), Some(0));
    }

    #[test]
    fn longest_selects_max_length() {
        let a = s(&[1]);
        let b = s(&[1, 2, 3]);
        let c = s(&[1, 2]);
        assert_eq!(longest([&a, &b, &c]), Some(&b));
        assert_eq!(longest::<u32, [&Seq<u32>; 0]>([]), None);
    }

    #[test]
    fn dedup_keep_first_works() {
        assert_eq!(s(&[1, 2, 1, 3, 2]).dedup_keep_first(), s(&[1, 2, 3]));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(format!("{}", s(&[1, 2, 3])), "{1;2;3}");
    }

    #[test]
    fn macro_builds_sequences() {
        let a: Seq<u32> = seq![1, 2, 3];
        assert_eq!(a, s(&[1, 2, 3]));
        let e: Seq<u32> = seq![];
        assert!(e.is_empty());
    }

    #[test]
    fn from_iterator_and_extend() {
        let a: Seq<u32> = (1..=3).collect();
        assert_eq!(a, s(&[1, 2, 3]));
        let mut b = s(&[1]);
        b.extend(vec![2, 3]);
        assert_eq!(b, s(&[1, 2, 3]));
        assert_eq!(b.position(&3), Some(2));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_seq() -> impl Strategy<Value = Seq<u8>> {
        proptest::collection::vec(0u8..20, 0..12).prop_map(Seq::from)
    }

    proptest! {
        /// ⊕ is associative.
        #[test]
        fn concat_associative(a in arb_seq(), b in arb_seq(), c in arb_seq()) {
            prop_assert_eq!(a.concat(&b).concat(&c), a.concat(&b.concat(&c)));
        }

        /// ε is the identity of ⊕.
        #[test]
        fn concat_identity(a in arb_seq()) {
            let e = Seq::new();
            prop_assert_eq!(a.concat(&e), a.clone());
            prop_assert_eq!(e.concat(&a), a);
        }

        /// `a ⊖ a = ε` and `a ⊖ ε = a`.
        #[test]
        fn subtract_identities(a in arb_seq()) {
            prop_assert_eq!(a.subtract(&a), Seq::new());
            prop_assert_eq!(a.subtract(&Seq::new()), a);
        }

        /// Elements of `a ⊖ b` are exactly the elements of `a` not in `b`,
        /// in `a`'s order.
        #[test]
        fn subtract_semantics(a in arb_seq(), b in arb_seq()) {
            let d = a.subtract(&b);
            for m in d.iter() {
                prop_assert!(a.contains(m));
                prop_assert!(!b.contains(m));
            }
            // order preserved: d is a subsequence of a
            let mut idx = 0usize;
            for m in a.iter() {
                if idx < d.len() && m == &d[idx] {
                    idx += 1;
                }
            }
            prop_assert_eq!(idx, d.len());
        }

        /// ⊓ returns a prefix of both arguments, and it is the longest one.
        #[test]
        fn common_prefix_is_longest_prefix(a in arb_seq(), b in arb_seq()) {
            let p = a.common_prefix(&b);
            prop_assert!(p.is_prefix_of(&a));
            prop_assert!(p.is_prefix_of(&b));
            // maximality: the next elements differ or one sequence ends
            if p.len() < a.len() && p.len() < b.len() {
                prop_assert_ne!(&a[p.len()], &b[p.len()]);
            }
        }

        /// ⊓ is commutative and idempotent.
        #[test]
        fn common_prefix_commutative_idempotent(a in arb_seq(), b in arb_seq()) {
            prop_assert_eq!(a.common_prefix(&b), b.common_prefix(&a));
            prop_assert_eq!(a.common_prefix(&a), a.clone());
        }

        /// ⊎ removes duplicates and preserves first-occurrence order.
        #[test]
        fn dedup_append_no_duplicates(seqs in proptest::collection::vec(arb_seq(), 0..5)) {
            let out = dedup_append(seqs.clone());
            // no duplicates
            for (i, x) in out.iter().enumerate() {
                for (j, y) in out.iter().enumerate() {
                    if i != j {
                        prop_assert_ne!(x, y);
                    }
                }
            }
            // every element of every input appears
            for s in &seqs {
                for m in s.iter() {
                    prop_assert!(out.contains(m));
                }
            }
            // every output element comes from some input
            for m in out.iter() {
                prop_assert!(seqs.iter().any(|s| s.contains(m)));
            }
        }

        /// ⊎ matches its recursive definition for two sequences.
        #[test]
        fn dedup_append_recursive_def(a in arb_seq(), b in arb_seq()) {
            let a = a.dedup_keep_first();
            let b = b.dedup_keep_first();
            prop_assert_eq!(dedup_append([a.clone(), b.clone()]), a.concat(&b.subtract(&a)));
        }

        /// The undo-legality identity used by the paper:
        /// `(a ⊖ suffix) ⊕ suffix = a` when `suffix` is a suffix of `a`
        /// and `a` has no duplicates.
        #[test]
        fn subtract_then_concat_suffix(a in arb_seq(), cut in 0usize..12) {
            let a = a.dedup_keep_first();
            let cut = cut.min(a.len());
            let suffix = a.suffix_from(cut);
            prop_assert_eq!(a.subtract(&suffix).concat(&suffix), a);
        }

        /// `is_prefix_of` agrees with `common_prefix`.
        #[test]
        fn prefix_agrees_with_common_prefix(a in arb_seq(), b in arb_seq()) {
            prop_assert_eq!(a.is_prefix_of(&b), a.common_prefix(&b) == a);
        }

        /// `longest` returns a sequence at least as long as every input.
        #[test]
        fn longest_is_maximal(seqs in proptest::collection::vec(arb_seq(), 1..6)) {
            let l = longest(seqs.iter()).unwrap();
            for s in &seqs {
                prop_assert!(l.len() >= s.len());
            }
        }
    }
}

#[cfg(test)]
mod differential_proptests {
    //! Every indexed operation must agree exactly with the naive O(n·m)
    //! reference implementation in [`naive`], including on inputs with
    //! duplicates. This is the safety net for the indexed representation.

    use super::*;
    use proptest::prelude::*;

    /// Small alphabet so duplicates and collisions are frequent.
    fn arb_vec() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..10, 0..16)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn subtract_matches_naive(a in arb_vec(), b in arb_vec()) {
            let indexed = Seq::from(a.clone()).subtract(&Seq::from(b.clone()));
            prop_assert_eq!(indexed.as_slice(), naive::subtract(&a, &b).as_slice());
        }

        #[test]
        fn intersection_matches_naive(a in arb_vec(), b in arb_vec()) {
            let indexed = Seq::from(a.clone()).intersection(&Seq::from(b.clone()));
            prop_assert_eq!(indexed.as_slice(), naive::intersection(&a, &b).as_slice());
        }

        #[test]
        fn union_set_matches_naive(a in arb_vec(), b in arb_vec()) {
            let indexed = Seq::from(a.clone()).union_set(&Seq::from(b.clone()));
            prop_assert_eq!(indexed.as_slice(), naive::union_set(&a, &b).as_slice());
        }

        #[test]
        fn is_disjoint_matches_naive(a in arb_vec(), b in arb_vec()) {
            prop_assert_eq!(
                Seq::from(a.clone()).is_disjoint(&Seq::from(b.clone())),
                naive::is_disjoint(&a, &b)
            );
        }

        #[test]
        fn dedup_append_matches_naive(seqs in proptest::collection::vec(arb_vec(), 0..5)) {
            let indexed = dedup_append(seqs.iter().cloned().map(Seq::from));
            prop_assert_eq!(indexed.as_slice(), naive::dedup_append(&seqs).as_slice());
        }

        #[test]
        fn dedup_keep_first_matches_naive(a in arb_vec()) {
            let indexed = Seq::from(a.clone()).dedup_keep_first();
            prop_assert_eq!(indexed.as_slice(), naive::dedup_keep_first(&a).as_slice());
        }

        #[test]
        fn common_prefix_matches_naive(a in arb_vec(), b in arb_vec()) {
            let indexed = Seq::from(a.clone()).common_prefix(&Seq::from(b.clone()));
            prop_assert_eq!(indexed.as_slice(), naive::common_prefix(&a, &b).as_slice());
        }

        #[test]
        fn contains_and_position_match_naive(a in arb_vec(), probe in 0u8..12) {
            let seq = Seq::from(a.clone());
            prop_assert_eq!(seq.contains(&probe), naive::contains(&a, &probe));
            prop_assert_eq!(seq.position(&probe), naive::position(&a, &probe));
        }

        /// `common_prefix_all` equals repeated pairwise naive common_prefix.
        #[test]
        fn common_prefix_all_matches_naive(seqs in proptest::collection::vec(arb_vec(), 1..5)) {
            let indexed = common_prefix_all(
                seqs.iter().cloned().map(Seq::from).collect::<Vec<_>>().iter()
            );
            let mut expected = seqs[0].clone();
            for s in &seqs[1..] {
                expected = naive::common_prefix(&expected, s);
            }
            prop_assert_eq!(indexed.as_slice(), expected.as_slice());
        }

        /// The index survives mixed mutation: push / extend / split_prefix /
        /// clear keep `contains`/`position` consistent with a naive scan.
        #[test]
        fn index_stays_consistent_under_mutation(
            a in arb_vec(),
            b in arb_vec(),
            cut in 0usize..20,
            probe in 0u8..12,
        ) {
            let mut seq = Seq::from(a.clone());
            seq.extend(b.clone());
            let mut model: Vec<u8> = a;
            model.extend(b);
            let prefix = seq.split_prefix(cut.min(model.len()));
            let model_prefix: Vec<u8> = model.drain(..cut.min(model.len())).collect();
            prop_assert_eq!(prefix.as_slice(), model_prefix.as_slice());
            prop_assert_eq!(seq.as_slice(), model.as_slice());
            prop_assert_eq!(seq.position(&probe), naive::position(&model, &probe));
            prop_assert_eq!(prefix.position(&probe), naive::position(&model_prefix, &probe));
        }
    }
}

#[cfg(test)]
mod cost_tests {
    //! The asymptotic gap between the indexed algebra and the [`naive`]
    //! reference, counted instead of timed: an element that counts every
    //! `Eq` and `Hash` call it takes part in shows the indexed operators
    //! linear in |a| + |b| and the naive scans quadratic, at a size (4 096)
    //! past the largest the benchmark's `sequence.*_ns` rows time (512).
    //! Counts are exact in any build and on any host.

    use super::*;
    use std::cell::Cell;

    thread_local! {
        static CALLS: Cell<u64> = const { Cell::new(0) };
    }

    fn count_call() {
        CALLS.with(|calls| calls.set(calls.get() + 1));
    }

    /// A `u64` whose `==` and `hash` each count one call.
    #[derive(Clone)]
    struct Counted(u64);

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            count_call();
            self.0 == other.0
        }
    }

    impl Eq for Counted {}

    impl Hash for Counted {
        fn hash<H: Hasher>(&self, state: &mut H) {
            count_call();
            self.0.hash(state);
        }
    }

    /// The `Eq` and `Hash` calls `f` makes.
    fn calls<R>(f: impl FnOnce() -> R) -> u64 {
        CALLS.with(|calls| calls.set(0));
        std::hint::black_box(f());
        CALLS.with(Cell::get)
    }

    /// |a| = |b| = number of probes.
    const N: u64 = 4_096;

    /// Calls per input element a linear pass may make: a probe of the other
    /// side's index, the push into the result's, and the rehashes of a
    /// growing result (`dedup_append` makes 3.0 per element, the most).
    const PER_ELEMENT: u64 = 4;

    #[test]
    fn indexed_operators_are_linear_and_the_naive_ones_quadratic() {
        // Half of each side is in the other, as in an epoch's
        // `O_delivered` against a lagging replica's.
        let a: Seq<Counted> = (0..N).map(Counted).collect();
        let b: Seq<Counted> = (N / 2..N * 3 / 2).map(Counted).collect();
        let misses: Vec<Counted> = (N * 2..N * 3).map(Counted).collect();
        let (av, bv) = (a.as_slice().to_vec(), b.as_slice().to_vec());
        let (seqs, vecs) = ([a.clone(), b.clone()], [av.clone(), bv.clone()]);
        let measured = [
            (
                "subtract",
                calls(|| a.subtract(&b)),
                calls(|| naive::subtract(&av, &bv)),
            ),
            (
                "intersection",
                calls(|| a.intersection(&b)),
                calls(|| naive::intersection(&av, &bv)),
            ),
            (
                "dedup_append",
                calls(|| dedup_append(seqs)),
                calls(|| naive::dedup_append(&vecs)),
            ),
            (
                "contains (miss)",
                calls(|| misses.iter().filter(|m| a.contains(m)).count()),
                calls(|| misses.iter().filter(|m| naive::contains(&av, m)).count()),
            ),
        ];
        for (op, indexed, naive) in measured {
            assert!(
                indexed <= PER_ELEMENT * (N + N),
                "{op}: {indexed} calls at n = m = {N} is not linear"
            );
            assert!(
                naive >= N * N / 4,
                "{op}: the naive reference made only {naive} calls at n = m = {N}"
            );
        }
    }
}
