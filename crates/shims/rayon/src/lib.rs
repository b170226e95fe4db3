//! Minimal offline shim for the subset of `rayon` this workspace uses:
//! `slice.par_iter().map(f).collect::<Vec<_>>()`.
//!
//! Unlike a sequential fallback, `collect` here really fans the map out
//! across `std::thread::scope` workers (one chunk per available core), so
//! the Fig. 15b multi-core block-indexing experiment still measures a real
//! parallel speed-up.

/// Re-exported traits, mirroring `rayon::prelude::*`.
pub mod prelude {
    pub use crate::{IntoParallelRefIterator, ParMap, ParSliceIter};
}

/// `.par_iter()` entry point for slice-like containers.
pub trait IntoParallelRefIterator<'a> {
    /// Element type yielded by reference.
    type Item: Sync + 'a;

    /// Returns a parallel iterator over `&self`.
    fn par_iter(&'a self) -> ParSliceIter<'a, Self::Item>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = T;

    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = T;

    fn par_iter(&'a self) -> ParSliceIter<'a, T> {
        ParSliceIter { items: self }
    }
}

/// Borrowed parallel iterator over a slice.
pub struct ParSliceIter<'a, T> {
    items: &'a [T],
}

impl<'a, T: Sync> ParSliceIter<'a, T> {
    /// Maps each element; evaluation happens at `collect`.
    pub fn map<U, F>(self, f: F) -> ParMap<'a, T, F>
    where
        F: Fn(&'a T) -> U + Sync,
        U: Send,
    {
        ParMap {
            items: self.items,
            f,
        }
    }
}

/// A mapped parallel iterator; only `collect` into `Vec` (or anything
/// `FromIterator`) is supported.
pub struct ParMap<'a, T, F> {
    items: &'a [T],
    f: F,
}

impl<'a, T, U, F> ParMap<'a, T, F>
where
    T: Sync,
    U: Send,
    F: Fn(&'a T) -> U + Sync,
{
    /// Evaluates the map across threads and collects the results in input
    /// order.
    pub fn collect<C: FromIterator<U>>(self) -> C {
        let n = self.items.len();
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(n.max(1));
        if workers <= 1 || n < 2 {
            return self.items.iter().map(&self.f).collect();
        }
        let chunk = n.div_ceil(workers);
        let f = &self.f;
        let mut results: Vec<Vec<U>> = Vec::with_capacity(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .items
                .chunks(chunk)
                .map(|c| scope.spawn(move || c.iter().map(f).collect::<Vec<U>>()))
                .collect();
            for h in handles {
                results.push(h.join().expect("rayon-shim worker panicked"));
            }
        });
        results.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn parallel_map_preserves_order() {
        let xs: Vec<u64> = (0..10_000).collect();
        let doubled: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        assert_eq!(doubled.len(), xs.len());
        for (i, d) in doubled.iter().enumerate() {
            assert_eq!(*d, 2 * i as u64);
        }
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        let out: Vec<u32> = none.par_iter().map(|&x| x).collect();
        assert!(out.is_empty());
        let one = [41u32];
        let out: Vec<u32> = one.par_iter().map(|&x| x + 1).collect();
        assert_eq!(out, vec![42]);
    }
}
