//! A fixed-capacity vector stored inline, for per-record scratch whose
//! size has a small static bound.
//!
//! The simulator's per-cycle paths build short lists — a log entry's data
//! words, its encoder choices, one encoded segment per word, a segment's
//! cell states — whose lengths are bounded by the record format. Keeping
//! them in an [`ArrayVec`] instead of a `Vec` keeps those paths free of
//! heap allocation.

use std::ops::{Deref, DerefMut};

/// Up to `N` elements of a `Copy` type, stored inline. Dereferences to the
/// slice of elements in use.
///
/// # Example
///
/// ```
/// use morlog_sim_core::array_vec::ArrayVec;
///
/// let mut v: ArrayVec<u8, 4> = ArrayVec::new();
/// v.push(7);
/// v.push(9);
/// assert_eq!(&v[..], &[7, 9]);
/// assert_eq!(v.iter().sum::<u8>(), 16);
/// ```
#[derive(Clone, Copy)]
pub struct ArrayVec<T: Copy + Default, const N: usize> {
    items: [T; N],
    len: usize,
}

impl<T: Copy + Default, const N: usize> ArrayVec<T, N> {
    /// An empty vector.
    pub fn new() -> Self {
        ArrayVec {
            items: [T::default(); N],
            len: 0,
        }
    }

    /// The first `len` elements of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `len > N`.
    pub fn from_prefix(items: [T; N], len: usize) -> Self {
        assert!(len <= N, "ArrayVec capacity {N} exceeded");
        ArrayVec { items, len }
    }

    /// Appends `item`.
    ///
    /// # Panics
    ///
    /// Panics if the vector already holds `N` elements.
    pub fn push(&mut self, item: T) {
        assert!(self.len < N, "ArrayVec capacity {N} exceeded");
        self.items[self.len] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for ArrayVec<T, N> {
    fn default() -> Self {
        ArrayVec::new()
    }
}

impl<T: Copy + Default, const N: usize> Deref for ArrayVec<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len]
    }
}

impl<T: Copy + Default, const N: usize> DerefMut for ArrayVec<T, N> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.items[..self.len]
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for ArrayVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for ArrayVec<T, N> {}

impl<T: Copy + Default + std::fmt::Debug, const N: usize> std::fmt::Debug for ArrayVec<T, N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for ArrayVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = ArrayVec::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a ArrayVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_debug_see_only_the_pushed_elements() {
        let full: ArrayVec<u8, 3> = [1, 2, 0].into_iter().collect();
        let short: ArrayVec<u8, 3> = [1, 2].into_iter().collect();
        assert_ne!(
            full, short,
            "a pushed zero is an element, not spare capacity"
        );
        assert_eq!(short, [1, 2].into_iter().collect());
        assert_eq!(format!("{short:?}"), "[1, 2]");
    }

    #[test]
    #[should_panic(expected = "capacity 2 exceeded")]
    fn push_past_capacity_panics() {
        let mut v: ArrayVec<u8, 2> = ArrayVec::new();
        for i in 0..3 {
            v.push(i);
        }
    }
}
