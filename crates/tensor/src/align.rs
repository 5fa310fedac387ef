//! 64-byte-aligned growable buffers backing [`crate::Tensor`] data and the
//! convolution's nonzero-pass words.
//!
//! The SIMD kernels in [`crate::simd`] issue 256-bit vector loads; keeping
//! every arena buffer on a 64-byte (cache-line) boundary means a vector that
//! starts at a row boundary never splits a line, and the buffers the
//! [`crate::Workspace`] freelist recycles stay aligned across reuse.
//!
//! A plain `Vec<f32>` cannot be coerced to a stricter alignment soundly (the
//! deallocation layout must match the allocation layout), so [`AlignedVec`]
//! owns a `Vec` of 64-byte lanes and exposes the logical prefix as `&[f32]`
//! via `Deref`. Lane padding is always initialized (lanes are only created
//! whole and zero-filled), which is what makes the slice view sound. This is
//! the single place in the crate where `unsafe` touches memory layout; the
//! two pointer casts are documented invariant-by-invariant below.

/// Stamps an aligned growable buffer type over a 64-byte lane of `$elem`.
macro_rules! aligned_buffer {
    ($(#[$doc:meta])* $name:ident, $lane:ident, $elem:ty, $lane_len:expr, $zero:expr) => {
        #[repr(C, align(64))]
        #[derive(Clone, Copy)]
        struct $lane([$elem; $lane_len]);

        impl $lane {
            const ZERO: $lane = $lane([$zero; $lane_len]);
        }

        $(#[$doc])*
        #[derive(Default)]
        pub struct $name {
            lanes: Vec<$lane>,
            len: usize,
        }

        #[allow(unsafe_code)]
        impl $name {
            /// Elements per 64-byte lane.
            const LANE: usize = $lane_len;

            /// An empty buffer with no allocation.
            pub fn new() -> Self {
                $name { lanes: Vec::new(), len: 0 }
            }

            /// An empty buffer with room for at least `cap` elements
            /// (rounded up to a whole lane).
            pub fn with_capacity(cap: usize) -> Self {
                $name { lanes: Vec::with_capacity(cap.div_ceil(Self::LANE)), len: 0 }
            }

            /// A zero-filled buffer of `len` elements.
            pub fn zeroed(len: usize) -> Self {
                $name { lanes: vec![$lane::ZERO; len.div_ceil(Self::LANE)], len }
            }

            /// Copies a slice into a fresh aligned buffer.
            pub fn from_slice(s: &[$elem]) -> Self {
                let mut v = Self::with_capacity(s.len());
                v.extend_from_slice(s);
                v
            }

            /// Number of logical elements.
            pub fn len(&self) -> usize {
                self.len
            }

            /// Whether the buffer holds no elements.
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Capacity in elements (always a whole number of lanes).
            pub fn capacity(&self) -> usize {
                self.lanes.capacity() * Self::LANE
            }

            /// Drops all elements, keeping capacity.
            pub fn clear(&mut self) {
                self.len = 0;
            }

            fn ensure_lanes(&mut self, elems: usize) {
                let need = elems.div_ceil(Self::LANE);
                if self.lanes.len() < need {
                    self.lanes.resize(need, $lane::ZERO);
                }
            }

            /// Every initialized element, including lane padding past `len`.
            /// All lanes are created whole (zero-filled), so the full region
            /// is always initialized — the invariant both casts rely on.
            fn full_slice_mut(&mut self) -> &mut [$elem] {
                let n = self.lanes.len() * Self::LANE;
                // SAFETY: `lanes` owns `n` contiguous initialized elements
                // (lanes are plain arrays, created only via whole zeroed
                // lanes); the cast pointer is valid for `n` reads/writes and
                // more than sufficiently aligned for the element type.
                unsafe { std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast(), n) }
            }

            /// `Vec::resize` semantics: grow with `value`, or truncate.
            pub fn resize(&mut self, new_len: usize, value: $elem) {
                if new_len > self.len {
                    self.ensure_lanes(new_len);
                    let start = self.len;
                    self.full_slice_mut()[start..new_len].fill(value);
                }
                self.len = new_len;
            }

            /// Sets the length without writing an element: those past the
            /// old length read as whatever the lanes last held (zero if
            /// never written). Safe because every lane is initialized.
            pub fn set_len(&mut self, new_len: usize) {
                self.ensure_lanes(new_len);
                self.len = new_len;
            }

            /// Appends one element.
            pub fn push(&mut self, value: $elem) {
                self.ensure_lanes(self.len + 1);
                let i = self.len;
                self.len += 1;
                self.full_slice_mut()[i] = value;
            }

            /// Appends a slice.
            pub fn extend_from_slice(&mut self, s: &[$elem]) {
                let new_len = self.len + s.len();
                self.ensure_lanes(new_len);
                let start = self.len;
                self.len = new_len;
                self.full_slice_mut()[start..new_len].copy_from_slice(s);
            }

            /// The logical elements as a slice (64-byte aligned at index 0).
            pub fn as_slice(&self) -> &[$elem] {
                // SAFETY: same invariant as `full_slice_mut` (all lanes fully
                // initialized, `len <= lanes.len() * LANE`); an empty Vec's
                // dangling pointer is non-null and lane-aligned, which
                // `from_raw_parts` with length 0 permits.
                unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast(), self.len) }
            }

            /// The logical elements as a mutable slice.
            pub fn as_mut_slice(&mut self) -> &mut [$elem] {
                let len = self.len;
                &mut self.full_slice_mut()[..len]
            }

            /// Copies the elements into a plain `Vec`.
            pub fn to_vec(&self) -> Vec<$elem> {
                self.as_slice().to_vec()
            }
        }

        impl Clone for $name {
            /// Copies the lanes holding the logical elements, not all capacity.
            fn clone(&self) -> Self {
                $name { lanes: self.lanes[..self.len.div_ceil(Self::LANE)].to_vec(), len: self.len }
            }
        }

        impl std::ops::Deref for $name {
            type Target = [$elem];
            fn deref(&self) -> &[$elem] {
                self.as_slice()
            }
        }

        impl std::ops::DerefMut for $name {
            fn deref_mut(&mut self) -> &mut [$elem] {
                self.as_mut_slice()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                self.as_slice().fmt(f)
            }
        }

        impl PartialEq for $name {
            fn eq(&self, other: &Self) -> bool {
                self.as_slice() == other.as_slice()
            }
        }

        impl From<Vec<$elem>> for $name {
            fn from(v: Vec<$elem>) -> Self {
                Self::from_slice(&v)
            }
        }

        impl FromIterator<$elem> for $name {
            fn from_iter<I: IntoIterator<Item = $elem>>(iter: I) -> Self {
                let it = iter.into_iter();
                let mut v = Self::with_capacity(it.size_hint().0);
                for x in it {
                    v.push(x);
                }
                v
            }
        }

        impl<'a> IntoIterator for &'a $name {
            type Item = &'a $elem;
            type IntoIter = std::slice::Iter<'a, $elem>;
            fn into_iter(self) -> Self::IntoIter {
                self.as_slice().iter()
            }
        }
    };
}

aligned_buffer!(
    /// A growable `f32` buffer whose data starts on a 64-byte boundary —
    /// the backing store of every [`crate::Tensor`] and every
    /// [`crate::Workspace`] arena buffer. Dereferences to `&[f32]` /
    /// `&mut [f32]`, so kernels and call sites treat it exactly like a
    /// `Vec<f32>`.
    AlignedVec,
    LaneF32,
    f32,
    16,
    0.0f32
);

aligned_buffer!(
    /// A growable `u64` buffer on a 64-byte boundary — the convolution's
    /// nonzero-pass words, read by the scatter kernels beside the
    /// cache-line-aligned rows they describe.
    AlignedWords,
    LaneU64,
    u64,
    8,
    0u64
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_pointer_is_64_byte_aligned() {
        // The satellite invariant: every buffer (fresh, grown, recycled
        // capacity) starts on a cache-line boundary.
        for n in [1usize, 7, 16, 17, 100, 4096] {
            let v = AlignedVec::zeroed(n);
            assert_eq!(v.as_slice().as_ptr() as usize % 64, 0, "zeroed({n})");
            let mut g = AlignedVec::new();
            g.resize(n, 1.5);
            assert_eq!(g.as_slice().as_ptr() as usize % 64, 0, "grown({n})");
            let w = AlignedWords::zeroed(n);
            assert_eq!(w.as_slice().as_ptr() as usize % 64, 0, "words({n})");
        }
    }

    #[test]
    fn behaves_like_vec() {
        let mut v = AlignedVec::new();
        assert!(v.is_empty());
        v.push(1.0);
        v.extend_from_slice(&[2.0, 3.0]);
        assert_eq!(&v[..], &[1.0, 2.0, 3.0]);
        v.resize(5, 9.0);
        assert_eq!(&v[..], &[1.0, 2.0, 3.0, 9.0, 9.0]);
        v.resize(2, 0.0);
        assert_eq!(&v[..], &[1.0, 2.0]);
        // regrowing after truncation fills with the new value, like Vec
        v.resize(4, 0.0);
        assert_eq!(&v[..], &[1.0, 2.0, 0.0, 0.0]);
        v.clear();
        assert!(v.is_empty());
        assert!(v.capacity() >= 5);
    }

    #[test]
    fn capacity_is_whole_lanes() {
        let v = AlignedVec::with_capacity(10);
        assert_eq!(v.capacity() % 16, 0);
        assert!(v.capacity() >= 16);
        let w = AlignedWords::with_capacity(3);
        assert_eq!(w.capacity() % 8, 0);
    }

    #[test]
    fn from_and_to_vec_round_trip() {
        let v: AlignedVec = vec![1.0f32, -2.0, 3.5].into();
        assert_eq!(v.to_vec(), vec![1.0, -2.0, 3.5]);
        let it: AlignedVec = (0..40).map(|x| x as f32).collect();
        assert_eq!(it.len(), 40);
        assert_eq!(it[39], 39.0);
        assert_eq!(it.as_slice().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn clone_copies_the_logical_length_only() {
        let mut v: AlignedVec = (0..1000).map(|x| x as f32).collect();
        v.set_len(37);
        let c = v.clone();
        assert_eq!(c, v);
        assert_eq!(c.as_slice(), &v[..37]);
        assert!(c.capacity() < c.len() + 16, "capacity {}", c.capacity());
        assert_eq!(c.as_slice().as_ptr() as usize % 64, 0);
        let mut w: AlignedWords = (0..100u64).collect();
        w.set_len(9);
        let cw = w.clone();
        assert_eq!(cw.as_slice(), &w[..9]);
        assert!(cw.capacity() < cw.len() + 8);
        assert!(AlignedVec::new().clone().is_empty());
    }

    #[test]
    fn mutation_through_deref() {
        let mut v = AlignedVec::zeroed(20);
        for (i, x) in v.iter_mut().enumerate() {
            *x = i as f32;
        }
        assert_eq!(v[19], 19.0);
        let sum: f32 = (&v).into_iter().sum();
        assert_eq!(sum, 190.0);
    }
}
