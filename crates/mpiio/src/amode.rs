//! File access modes (the subset of `MPI_MODE_*` b_eff_io needs).
//!
//! Note the paper's §5.4 point on `MPI_MODE_UNIQUE_OPEN`: the benchmark
//! must *not* set it even though files are opened uniquely, because it
//! would allow an implementation to defer `sync` to close. The modes
//! here have no such flag.

/// Access mode flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AMode {
    pub read: bool,
    pub write: bool,
    pub create: bool,
    /// Truncate existing contents at open.
    pub truncate: bool,
    pub delete_on_close: bool,
}

impl AMode {
    /// `MPI_MODE_CREATE | MPI_MODE_WRONLY` with truncation — the
    /// "initial write" access method.
    pub const fn create_write() -> Self {
        Self {
            read: false,
            write: true,
            create: true,
            truncate: true,
            delete_on_close: false,
        }
    }

    /// `MPI_MODE_WRONLY` on an existing file — the "rewrite" method.
    pub const fn write_only() -> Self {
        Self {
            read: false,
            write: true,
            create: false,
            truncate: false,
            delete_on_close: false,
        }
    }

    /// `MPI_MODE_RDONLY` — the "read" method.
    pub const fn read_only() -> Self {
        Self {
            read: true,
            write: false,
            create: false,
            truncate: false,
            delete_on_close: false,
        }
    }

    /// Read+write, creating if necessary.
    pub const fn read_write_create() -> Self {
        Self {
            read: true,
            write: true,
            create: true,
            truncate: false,
            delete_on_close: false,
        }
    }

    pub fn with_delete_on_close(mut self) -> Self {
        self.delete_on_close = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_modes_are_consistent() {
        let w = AMode::create_write();
        assert!(w.write && w.create && w.truncate && !w.read);
        let r = AMode::read_only();
        assert!(r.read && !r.write && !r.create);
        let rw = AMode::read_write_create();
        assert!(rw.read && rw.write && rw.create && !rw.truncate);
    }

    #[test]
    fn builders_set_flags() {
        let m = AMode::read_only().with_delete_on_close();
        assert!(m.delete_on_close);
    }
}
