//! A [`Vfs`] wrapper that counts and times what the durable path does
//! to storage: writes, reads, bytes and the wall time spent in each.

use relstore::Vfs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Storage traffic seen by one [`CountingVfs`].
#[derive(Debug, Clone, Copy, Default)]
pub struct IoCounts {
    /// `write` calls, including failed ones.
    pub writes: u64,
    /// Bytes handed to `write`.
    pub bytes_written: u64,
    /// Time in `write`, `rename` and `create_dir_all`: the commit side.
    pub write_time: Duration,
    /// `read` calls that returned data.
    pub reads: u64,
    /// Bytes returned by `read`.
    pub bytes_read: u64,
    /// Time in `read`.
    pub read_time: Duration,
}

/// Counts and times every call before passing it to the inner [`Vfs`].
#[derive(Debug, Default)]
pub struct CountingVfs<V: Vfs> {
    inner: V,
    /// What has gone through so far.
    pub counts: IoCounts,
}

impl<V: Vfs> CountingVfs<V> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: V) -> Self {
        CountingVfs {
            inner,
            counts: IoCounts::default(),
        }
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn write(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.write(path, bytes);
        self.counts.write_time += t.elapsed();
        self.counts.writes += 1;
        self.counts.bytes_written += bytes.len() as u64;
        r
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        let t = Instant::now();
        let r = self.inner.read(path);
        self.counts.read_time += t.elapsed();
        if let Ok(bytes) = &r {
            self.counts.reads += 1;
            self.counts.bytes_read += bytes.len() as u64;
        }
        r
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.rename(from, to);
        self.counts.write_time += t.elapsed();
        r
    }

    fn create_dir_all(&mut self, path: &Path) -> io::Result<()> {
        let t = Instant::now();
        let r = self.inner.create_dir_all(path);
        self.counts.write_time += t.elapsed();
        r
    }
}
