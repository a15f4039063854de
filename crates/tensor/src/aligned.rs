//! 64-byte-aligned `f32` heap buffer.
//!
//! `Vec<f32>` only guarantees 4-byte alignment; the blocked GEMM micro-kernel
//! and the streaming elementwise kernels in `micdnn-kernels` want rows to
//! start on cache-line boundaries so that 512-bit vector loads never split a
//! line. [`AlignedBuf`] is a minimal owned buffer with that guarantee.

use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

/// Cache-line alignment used for all tensor storage, in bytes.
pub(crate) const ALIGN: usize = 64;

/// An owned, fixed-length, 64-byte-aligned `f32` buffer.
///
/// The length is fixed at construction; this is storage, not a growable
/// vector. Dereferences to `[f32]`.
pub(crate) struct AlignedBuf {
    ptr: std::ptr::NonNull<f32>,
    len: usize,
}

// SAFETY: AlignedBuf uniquely owns its allocation; f32 is Send + Sync.
unsafe impl Send for AlignedBuf {}
unsafe impl Sync for AlignedBuf {}

impl AlignedBuf {
    /// Allocates a zero-initialized buffer of `len` elements.
    ///
    /// A zero-length buffer performs no allocation.
    pub(crate) fn zeroed(len: usize) -> Self {
        if len == 0 {
            return AlignedBuf {
                ptr: std::ptr::NonNull::dangling(),
                len: 0,
            };
        }
        let layout = Self::layout(len);
        // SAFETY: layout has non-zero size (len > 0 checked above).
        let raw = unsafe { alloc_zeroed(layout) } as *mut f32;
        let Some(ptr) = std::ptr::NonNull::new(raw) else {
            handle_alloc_error(layout);
        };
        AlignedBuf { ptr, len }
    }

    /// Builds a buffer by copying `src`.
    pub(crate) fn from_slice(src: &[f32]) -> Self {
        let mut buf = Self::zeroed(src.len());
        buf.as_mut_slice().copy_from_slice(src);
        buf
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len * std::mem::size_of::<f32>(), ALIGN)
            .expect("AlignedBuf: layout overflow")
    }

    /// Immutable view of the contents.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[f32] {
        // SAFETY: ptr is valid for len elements (or dangling with len == 0).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    /// Mutable view of the contents.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: unique ownership; ptr valid for len elements.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Drop for AlignedBuf {
    fn drop(&mut self) {
        if self.len != 0 {
            // SAFETY: allocated with the identical layout in `zeroed`.
            unsafe { dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.len)) };
        }
    }
}

impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        Self::from_slice(self.as_slice())
    }
}

impl std::ops::Deref for AlignedBuf {
    type Target = [f32];
    #[inline]
    fn deref(&self) -> &[f32] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        self.as_mut_slice()
    }
}

impl std::fmt::Debug for AlignedBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AlignedBuf")
            .field("len", &self.len)
            .finish()
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_is_zero_and_aligned() {
        for len in [1usize, 3, 16, 17, 1024, 4097] {
            let buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&x| x == 0.0));
            assert_eq!(buf.as_slice().as_ptr() as usize % ALIGN, 0);
        }
    }

    #[test]
    fn zero_len_allocates_nothing_but_works() {
        let buf = AlignedBuf::zeroed(0);
        assert!(buf.is_empty());
        assert_eq!(buf.as_slice(), &[] as &[f32]);
        let c = buf.clone();
        assert!(c.is_empty());
    }

    #[test]
    fn from_slice_round_trips() {
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        let buf = AlignedBuf::from_slice(&data);
        assert_eq!(buf.as_slice(), data.as_slice());
    }

    #[test]
    fn clone_is_deep() {
        let mut a = AlignedBuf::from_slice(&[1.0, 2.0]);
        let b = a.clone();
        a.as_mut_slice()[0] = 9.0;
        assert_eq!(b.as_slice(), &[1.0, 2.0]);
        assert_eq!(a.as_slice(), &[9.0, 2.0]);
    }

    #[test]
    fn mutation_through_deref() {
        let mut buf = AlignedBuf::zeroed(4);
        buf[2] = 7.0;
        assert_eq!(&*buf, &[0.0, 0.0, 7.0, 0.0]);
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AlignedBuf>();
    }
}
