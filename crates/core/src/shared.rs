//! A raw shared slice for disjoint-write parallel algorithms.
//!
//! The parallel list-ranking and connected-components codes write into
//! shared arrays from several threads, where the *algorithm* (not the type
//! system) guarantees each element is written by at most one thread
//! between synchronization points. [`SharedSlice`] is the minimal unsafe
//! escape hatch for that idiom: a `Send + Sync` view of a mutable slice
//! whose `read`/`write` are `unsafe fn`s, putting the disjointness proof
//! obligation at the call site where the algorithm argument lives.
//!
//! For racy-by-design algorithms (Shiloach–Vishkin's concurrent grafts),
//! use atomics instead — this type is strictly for provably disjoint
//! access patterns.
//!
//! Reached by: `archperf`'s native-kernels `listrank` op (through `listrank::hj`).

use std::marker::PhantomData;

/// A `Send + Sync` pointer-and-length view of a mutable slice.
///
/// Created from an exclusive borrow, so for its lifetime no other safe
/// alias exists; all concurrency discipline is delegated to the unsafe
/// accessors' contracts.
#[derive(Debug)]
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// Safety: SharedSlice hands out elements only through unsafe accessors
// whose contracts forbid data races; the view itself is just a pointer.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

// The view is a pointer + length: copying it never touches T, so the
// impls must not require `T: Copy` (what a derive would demand).
impl<T> Clone for SharedSlice<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap an exclusive slice borrow.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// True when the slice is empty.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write `value` to index `i`.
    ///
    /// # Safety
    /// `i < len`, and no other thread may concurrently read or write
    /// element `i` between the caller's synchronization points.
    #[inline]
    pub unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = value;
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// `i < len`, and no other thread may concurrently write element `i`.
    #[inline]
    pub unsafe fn read(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_roundtrip() {
        let mut v = vec![0u32; 8];
        let s = SharedSlice::new(&mut v);
        assert_eq!(s.len(), 8);
        assert!(!s.is_empty());
        unsafe {
            s.write(3, 42);
            assert_eq!(s.read(3), 42);
        }
        assert_eq!(v[3], 42);
    }

    #[test]
    fn empty_slice() {
        let mut v: Vec<u32> = vec![];
        let s = SharedSlice::new(&mut v);
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn disjoint_parallel_writes() {
        let n = 10_000;
        let mut v = vec![0usize; n];
        let s = SharedSlice::new(&mut v);
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    // Thread t writes indices with i % threads == t.
                    let mut i = t;
                    while i < n {
                        unsafe { s.write(i, i * 2) };
                        i += threads;
                    }
                });
            }
        });
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * 2);
        }
    }

    #[test]
    fn copy_view_shares_storage() {
        let mut v = vec![1u8; 4];
        let s = SharedSlice::new(&mut v);
        let s2 = s; // Copy
        unsafe {
            s.write(0, 9);
            assert_eq!(s2.read(0), 9);
        }
    }
}
