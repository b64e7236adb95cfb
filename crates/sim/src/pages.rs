//! Zeroed, lazily committed memory taken straight from the kernel and
//! returned whole on drop: what a simulated machine's *own* memory —
//! fiber stacks, a rank's multi-MiB I/O scratch buffers — is made of.
//!
//! Such memory is big, mostly untouched, and lives exactly as long as
//! one world. Taken from `malloc` it lands wherever glibc's moving
//! mmap threshold puts it: mapped for the first world of a process,
//! carved from the brk heap once a freed mapping has raised the
//! threshold past its size. A zeroed buffer is then lazily zero pages
//! or a `memset` of recycled ones, and an untouched stack is refilled
//! by whatever was freed before it — so the peak RSS of the same job
//! depended on the heap the previous jobs left behind (b_eff_io on 64
//! ranks: 373–434 MB from one process to the next). A [`Pages`] costs
//! what it touches, every time.
//!
//! Linux only; elsewhere the allocator has to do.

use std::ops::{Deref, DerefMut};

/// `len` bytes, zero until written, page-aligned (Linux) or 64-aligned.
pub struct Pages {
    base: *mut u8,
    len: usize,
}

// SAFETY: plain owned memory, like a `Box<[u8]>`.
unsafe impl Send for Pages {}
// SAFETY: as above — shared access is `&[u8]`, or the raw `base`
// pointer whose users carry their own contract.
unsafe impl Sync for Pages {}

impl Pages {
    pub fn zeroed(len: usize) -> Self {
        Self { base: os::map(len.max(1)), len }
    }

    /// The first byte, without forming a reference to the rest (a
    /// fiber stack is written through raw pointers while shared).
    pub fn base(&self) -> *mut u8 {
        self.base
    }

    /// Size in bytes; like [`base`](Self::base), forms no reference.
    pub fn size(&self) -> usize {
        self.len
    }
}

impl Deref for Pages {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        // SAFETY: `base` is a live, initialized (zeroed) region of at
        // least `len` bytes owned by `self`.
        unsafe { std::slice::from_raw_parts(self.base, self.len) }
    }
}

impl DerefMut for Pages {
    fn deref_mut(&mut self) -> &mut [u8] {
        // SAFETY: as in `deref`, and `&mut self` makes it exclusive.
        unsafe { std::slice::from_raw_parts_mut(self.base, self.len) }
    }
}

impl Drop for Pages {
    fn drop(&mut self) {
        // SAFETY: exactly the region `os::map` returned, released once.
        unsafe { os::unmap(self.base, self.len.max(1)) };
    }
}

#[cfg(target_os = "linux")]
mod os {
    use std::ffi::c_void;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 0x02;
    const MAP_ANONYMOUS: i32 = 0x20;

    unsafe extern "C" {
        fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub fn map(len: usize) -> *mut u8 {
        let (prot, flags) = (PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS);
        // SAFETY: a fresh private anonymous mapping at an address of
        // the kernel's choosing aliases nothing.
        let base = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, -1, 0) };
        // MAP_FAILED is (void *) -1.
        assert!(base as isize != -1, "mapping {len} bytes failed");
        base as *mut u8
    }

    /// # Safety
    /// `base` came from [`map`] with this `len` and is not used again.
    pub unsafe fn unmap(base: *mut u8, len: usize) {
        // SAFETY: caller contract — exactly the mapping `map` made.
        let rc = unsafe { munmap(base as *mut c_void, len) };
        debug_assert_eq!(rc, 0, "munmap failed");
    }
}

#[cfg(not(target_os = "linux"))]
mod os {
    use std::alloc::{alloc_zeroed, dealloc, handle_alloc_error, Layout};

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(len, 64).expect("region layout")
    }

    pub fn map(len: usize) -> *mut u8 {
        // SAFETY: `len` ≥ 1 (the caller rounds up) and the alignment
        // is valid; null is handled on the next line.
        let base = unsafe { alloc_zeroed(layout(len)) };
        if base.is_null() {
            handle_alloc_error(layout(len));
        }
        base
    }

    /// # Safety
    /// `base` came from [`map`] with this `len` and is not used again.
    pub unsafe fn unmap(base: *mut u8, len: usize) {
        // SAFETY: caller contract — same layout, freed once.
        unsafe { dealloc(base, layout(len)) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_writable_and_sized() {
        let mut p = Pages::zeroed(3 * 4096 + 8);
        assert_eq!(p.len(), 3 * 4096 + 8);
        assert!(p.iter().all(|&b| b == 0));
        p.fill(7);
        assert_eq!(p[p.len() - 1], 7);
        assert_eq!(p.base(), p.as_mut_ptr());
    }

    #[test]
    fn empty_region_is_an_empty_slice() {
        assert!(Pages::zeroed(0).is_empty());
    }
}
