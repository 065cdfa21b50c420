//! Read-only whole-file byte access: `mmap(2)` with a block-read fallback.
//!
//! The streaming loaders ([`super::stream`]) want the entire input as one
//! `&[u8]` so newline-aligned chunks can be handed to parser workers
//! without copying. On 64-bit Unix we memory-map the file (`PROT_READ` /
//! `MAP_PRIVATE`, declared directly against libc — no new crates); when
//! mapping is unavailable (empty file, non-Unix or 32-bit target, exotic
//! filesystem) we fall back to a single `read_to_end` into an owned
//! buffer. Either way the caller sees a plain byte slice.
//!
//! The mapping path is gated to `target_pointer_width = "64"`: the
//! hand-declared `mmap` signature takes a 64-bit `off_t`, which is the
//! raw symbol's ABI only on 64-bit platforms (32-bit libcs expose the
//! 64-bit offset entry point as `mmap64`/`mmap2`). 32-bit targets just
//! use the block-read fallback — correctness first, the mapping is only
//! an optimization.

use std::fs::File;
use std::io::{self, Read};
use std::ops::Deref;
use std::path::Path;

#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// An owned read-only mapping, unmapped on drop.
    pub struct Mapping {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: a `Mapping` owns its region outright: the pointer is not
    // shared with any other value, nothing in this module ever writes
    // through it, and the one `munmap` runs in `drop`, which needs the
    // value by `&mut`. Moving that ownership to another thread is fine.
    unsafe impl Send for Mapping {}
    // SAFETY: `&Mapping` only hands out `&[u8]` over `PROT_READ` memory
    // (`as_slice`), and read-only bytes may be read from any number of
    // threads at once; sharing them with the parser workers is the
    // point of the mapping.
    unsafe impl Sync for Mapping {}

    impl Mapping {
        /// Map `len` bytes of `file` read-only. `len` must be nonzero
        /// (POSIX rejects zero-length mappings).
        pub fn map(file: &File, len: usize) -> io::Result<Mapping> {
            debug_assert!(len > 0);
            // SAFETY: a null hint lets the kernel choose the address, so
            // no existing mapping can be replaced; the descriptor is open
            // for reading and borrowed for the whole call; a zero `len`
            // only makes the call fail with `EINVAL`, which is checked
            // below. The mapping stays valid after the `File` closes.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Mapping { ptr, len })
        }

        pub fn as_slice(&self) -> &[u8] {
            // SAFETY: `ptr` came from a successful `mmap` of `len` bytes,
            // so it is non-null and the whole range is one readable
            // mapping (`len` ≤ `isize::MAX`, or the kernel would have
            // refused it), and `u8` needs no alignment. The region lives
            // until `drop`, which cannot run while this borrow of `self`
            // lasts, and the process never writes it (`PROT_READ`). Like
            // every mmap-backed reader, this assumes no other process
            // truncates or rewrites the input file while it is mapped:
            // the loaders map graph files that are only read.
            unsafe { std::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    impl Drop for Mapping {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly the region `map` obtained,
            // unmapped here once; every slice into it borrowed `self`, so
            // none outlives this call.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

/// The contents of a file, either memory-mapped or owned. Dereferences
/// to `&[u8]` so parsers never care which variant they got.
pub enum InputBytes {
    /// A live `mmap(2)` mapping (Unix only).
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::Mapping),
    /// A heap buffer filled by a single block read.
    Owned(Vec<u8>),
}

impl Deref for InputBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            InputBytes::Mapped(m) => m.as_slice(),
            InputBytes::Owned(v) => v,
        }
    }
}

impl InputBytes {
    /// Whether the bytes come from a live mapping (false: owned buffer).
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(all(unix, target_pointer_width = "64"))]
            InputBytes::Mapped(_) => true,
            InputBytes::Owned(_) => false,
        }
    }
}

/// Read a whole file: mmap when possible, block-read otherwise.
pub fn read_bytes<P: AsRef<Path>>(path: P) -> io::Result<InputBytes> {
    let mut file = File::open(path.as_ref())?;
    let len = file.metadata()?.len();
    #[cfg(all(unix, target_pointer_width = "64"))]
    if len > 0 && len <= usize::MAX as u64 {
        if let Ok(m) = sys::Mapping::map(&file, len as usize) {
            return Ok(InputBytes::Mapped(m));
        }
    }
    let mut buf = Vec::with_capacity(len.min(1 << 30) as usize);
    file.read_to_end(&mut buf)?;
    Ok(InputBytes::Owned(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("lfpr_mmap_{}_{name}", std::process::id()));
        std::fs::write(&p, contents).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let p = tmp("basic", b"0 1\n1 2\n");
        let bytes = read_bytes(&p).unwrap();
        assert_eq!(&*bytes, b"0 1\n1 2\n");
        #[cfg(all(unix, target_pointer_width = "64"))]
        assert!(bytes.is_mapped());
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_file_yields_empty_slice() {
        let p = tmp("empty", b"");
        let bytes = read_bytes(&p).unwrap();
        assert!(bytes.is_empty());
        assert!(!bytes.is_mapped()); // zero-length mappings are invalid
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_file_errors() {
        assert!(read_bytes("/nonexistent/definitely/missing.bin").is_err());
    }
}
