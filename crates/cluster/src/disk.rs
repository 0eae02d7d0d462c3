//! The file system under [`AppendLogBackend`](crate::storage::AppendLogBackend).
//!
//! The log does all of its file I/O through one seam: a [`LogDisk`]
//! (open, rename, remove, directory sync, and what a crash does) and the
//! [`LogFile`]s it opens (length, positional read and write, data sync,
//! truncate). The operating system implements it by forwarding each call
//! to `std::fs`; [`SimFs`] implements it in memory, deterministically, with
//! a real disk's crash semantics and seeded faults, and is what the DST
//! storage axis runs the shipped log on.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::detmap::splitmix64;
use crate::storage::is_zero;
use crate::sync::Mutex;

/// One open file of the log.
pub trait LogFile: Send + Sync + fmt::Debug {
    /// The file's length in bytes.
    fn size(&self) -> io::Result<u64>;

    /// Fills `buf` from offset `at`; fails if the file ends first.
    fn read_exact_at(&self, buf: &mut [u8], at: u64) -> io::Result<()>;

    /// [`read_exact_at`](Self::read_exact_at) of a payload the log
    /// serves: where [`SimFs`] injects its read faults. Replay and
    /// compaction read with `read_exact_at`.
    fn read_payload(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        self.read_exact_at(buf, at)
    }

    /// Writes all of `buf` at offset `at`, growing the file if it ends
    /// before.
    fn write_all_at(&self, buf: &[u8], at: u64) -> io::Result<()>;

    /// Makes the file's data survive a crash (`fdatasync`).
    fn sync_data(&self) -> io::Result<()>;

    /// Cuts or zero-extends the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
}

/// The directory operations of the log, and what a crash does to them.
pub trait LogDisk: Send + Sync + fmt::Debug {
    /// Opens `path` to read and write, creating it if it is absent;
    /// `truncate` empties it.
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Arc<dyn LogFile>>;

    /// Renames `from` over `to`.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Makes the entries of `dir` that were created, renamed or removed
    /// survive a crash.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// The machine crashed, and the disk lost what it never made
    /// durable. The default keeps everything: on the OS disk a crashed
    /// process restarts, and the kernel still holds its writes.
    fn crash(&self) {}

    /// Drains the virtual ticks that slow reads cost since the last call
    /// (0 on a disk without slow reads).
    fn take_stall_ticks(&self) -> u64 {
        0
    }
}

/// The directory holding `path`'s entry.
pub(crate) fn dir_of(path: &Path) -> &Path {
    let dir = path.parent().unwrap_or(path);
    if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }
}

/// The operating system's file system: every call forwards to `std::fs`.
#[derive(Debug)]
pub(crate) struct OsDisk;

impl LogDisk for OsDisk {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Arc<dyn LogFile>> {
        std::fs::create_dir_all(dir_of(path))?;
        let mut options = OpenOptions::new();
        let options = options.read(true).write(true).create(true);
        Ok(Arc::new(options.truncate(truncate).open(path)?))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

impl LogFile for File {
    fn size(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        FileExt::read_exact_at(self, buf, at)
    }

    fn write_all_at(&self, buf: &[u8], at: u64) -> io::Result<()> {
        FileExt::write_all_at(self, buf, at)
    }

    fn sync_data(&self) -> io::Result<()> {
        File::sync_data(self)
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        File::set_len(self, len)
    }
}

/// A fault mix a [`SimFs`] runs once [armed](SimFs::arm): the odds, in
/// 256ths, of a failed sync, a slow payload read (1 to 3 virtual ticks),
/// a flipped bit and a misdirected read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimFsFaults([u8; 4]);

impl SimFsFaults {
    /// About 1 sync in 128 fails, which poisons the log (fail-stop until
    /// its next crash-restart), and 1 payload read in 8 is slow.
    pub const AGGRESSIVE: Self = SimFsFaults([2, 32, 0, 0]);
    /// About 1 payload read in 26 serves one flipped bit and 1 in 51
    /// another offset's bytes; the stored bytes stay intact.
    pub const CORRUPTING: Self = SimFsFaults([0, 0, 10, 5]);
}

/// What a [`SimFs`] did to the files on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimFsStats {
    /// Payload reads served with a flipped bit or another offset's bytes.
    pub corrupted_reads: u64,
    /// Crashes that dropped or tore a write that was never synced.
    pub lossy_crashes: u64,
    /// Files cut shorter: on the log, replays that truncated a torn tail.
    pub truncations: u64,
    /// Crashes of a file whose sync had failed: on the log, a poisoned
    /// log replayed.
    pub poisoned_replays: u64,
}

/// Writes `buf` at `at` into `image`, growing it with zeros as needed
/// (by copying a zeroed allocation: `resize` fills byte by byte in a
/// debug build, and DST grows a 1 MiB extent per log).
fn write(image: &mut Vec<u8>, at: u64, buf: &[u8]) {
    let (at, end) = (at as usize, at as usize + buf.len());
    if buf.is_empty() {
        return;
    }
    if image.len() < end {
        image.extend_from_slice(&vec![0; end - image.len()]);
    }
    image[at..end].copy_from_slice(buf);
}

/// One file: what reads see, what a crash keeps for sure, the writes in
/// between, and whether a sync failed since the last crash.
#[derive(Debug, Default)]
struct Inode {
    live: Vec<u8>,
    synced: Vec<u8>,
    pending: Vec<(u64, Vec<u8>)>,
    sync_failed: bool,
}

impl Inode {
    fn sync(&mut self) {
        for (at, buf) in std::mem::take(&mut self.pending) {
            write(&mut self.synced, at, &buf);
        }
    }

    /// Cuts or zero-extends the file, durably at once and with every
    /// write before it: the log syncs each cut straight after, so the
    /// crash between the two is left out of the model.
    fn set_len(&mut self, len: usize) {
        self.sync();
        self.synced.resize(len, 0);
        self.live.clone_from(&self.synced);
    }
}

#[derive(Debug, Default)]
struct FsState {
    rng: u64,
    faults: Option<SimFsFaults>,
    /// The directory as reads see it, and as a crash keeps it.
    names: BTreeMap<PathBuf, usize>,
    durable: BTreeMap<PathBuf, usize>,
    /// Every file ever created, named or not, by number.
    inodes: Vec<Inode>,
    stall_ticks: u64,
    stats: SimFsStats,
}

/// The next choice of the stream `rng`.
fn draw(rng: &mut u64) -> u64 {
    *rng = rng.wrapping_add(1);
    splitmix64(*rng)
}

impl FsState {
    /// Whether fault `which` of the armed mix strikes.
    fn strikes(&mut self, which: usize) -> bool {
        let odds = self.faults.map_or(0, |f| f.0[which]);
        odds > 0 && draw(&mut self.rng) % 256 < u64::from(odds)
    }
}

/// A deterministic in-memory disk with one directory.
///
/// * Each file holds what reads see and what a crash keeps; a file
///   sync makes the first into the second.
/// * A created, renamed or removed entry is durable only once the
///   directory is synced.
/// * On a [`crash`](LogDisk::crash), the directory reverts to its last
///   sync, and each file's unsynced writes land on what it kept, in
///   order: each whole 2 times in 4, not at all 1 in 4, and torn (a
///   prefix of it lands) 1 in 4. Later writes landing where earlier
///   ones did not is the reordered writeback a crash can leave. A cut
///   ([`LogFile::set_len`]) is durable at once.
/// * [Armed](SimFs::arm) with a [`SimFsFaults`] mix, a sync may fail and
///   a payload read may be slow or serve a flipped bit or another
///   offset's bytes; the stored bytes are never touched.
///
/// Every choice comes from one seeded SplitMix64 stream: a run replays
/// bit for bit.
#[derive(Debug, Default)]
pub struct SimFs {
    state: Arc<Mutex<FsState>>,
}

/// A [`LogFile`] on a [`SimFs`].
#[derive(Debug)]
struct SimFile {
    state: Arc<Mutex<FsState>>,
    ino: usize,
}

impl SimFs {
    /// An empty, unarmed disk whose choices are seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        let disk = SimFs::default();
        disk.state.lock().rng = seed;
        disk
    }

    /// Starts injecting `faults` (or, with `None`, stops).
    pub fn arm(&self, faults: Option<SimFsFaults>) {
        self.state.lock().faults = faults;
    }

    /// What the disk did so far.
    pub fn stats(&self) -> SimFsStats {
        self.state.lock().stats
    }
}

impl LogDisk for SimFs {
    fn open(&self, path: &Path, truncate: bool) -> io::Result<Arc<dyn LogFile>> {
        let mut guard = self.state.lock();
        let fs = &mut *guard;
        let ino = *fs.names.entry(path.to_path_buf()).or_insert_with(|| {
            fs.inodes.push(Inode::default());
            fs.inodes.len() - 1
        });
        if truncate {
            fs.inodes[ino].set_len(0);
        }
        let state = Arc::clone(&self.state);
        Ok(Arc::new(SimFile { state, ino }))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut fs = self.state.lock();
        let ino = fs.names.remove(from).ok_or(io::ErrorKind::NotFound)?;
        fs.names.insert(to.to_path_buf(), ino);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let removed = self.state.lock().names.remove(path);
        Ok(removed.map(drop).ok_or(io::ErrorKind::NotFound)?)
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mut fs = self.state.lock();
        fs.durable = fs.names.clone();
        Ok(())
    }

    fn crash(&self) {
        let mut guard = self.state.lock();
        let fs = &mut *guard;
        let failed = fs.names.values().any(|&ino| fs.inodes[ino].sync_failed);
        fs.stats.poisoned_replays += u64::from(failed);
        fs.names.clone_from(&fs.durable);
        let mut lost = false;
        for &ino in fs.names.values() {
            let inode = &mut fs.inodes[ino];
            for (at, buf) in std::mem::take(&mut inode.pending) {
                let keep = match draw(&mut fs.rng) % 4 {
                    2 => 0,
                    3 => (draw(&mut fs.rng) % (buf.len() as u64 + 1)) as usize,
                    _ => buf.len(),
                };
                lost |= !is_zero(&buf[keep..]);
                write(&mut inode.synced, at, &buf[..keep]);
            }
            inode.live.clone_from(&inode.synced);
            inode.sync_failed = false;
        }
        fs.stats.lossy_crashes += u64::from(lost);
    }

    fn take_stall_ticks(&self) -> u64 {
        std::mem::take(&mut self.state.lock().stall_ticks)
    }
}

impl LogFile for SimFile {
    fn size(&self) -> io::Result<u64> {
        Ok(self.state.lock().inodes[self.ino].live.len() as u64)
    }

    fn read_exact_at(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        let fs = self.state.lock();
        let at = at as usize;
        let bytes = fs.inodes[self.ino].live.get(at..at + buf.len());
        buf.copy_from_slice(bytes.ok_or(io::ErrorKind::UnexpectedEof)?);
        Ok(())
    }

    fn read_payload(&self, buf: &mut [u8], at: u64) -> io::Result<()> {
        self.read_exact_at(buf, at)?;
        let mut fs = self.state.lock();
        if fs.strikes(1) {
            fs.stall_ticks += 1 + draw(&mut fs.rng) % 3;
        }
        let wanted = buf.to_vec();
        if !buf.is_empty() && fs.strikes(2) {
            let bit = draw(&mut fs.rng) % (buf.len() as u64 * 8);
            buf[(bit / 8) as usize] ^= 1 << (bit % 8);
        } else if at > 0 && fs.strikes(3) {
            let from = (draw(&mut fs.rng) % at) as usize;
            buf.copy_from_slice(&fs.inodes[self.ino].live[from..from + buf.len()]);
        }
        fs.stats.corrupted_reads += u64::from(*buf != wanted[..]);
        Ok(())
    }

    fn write_all_at(&self, buf: &[u8], at: u64) -> io::Result<()> {
        let inode = &mut self.state.lock().inodes[self.ino];
        write(&mut inode.live, at, buf);
        inode.pending.push((at, buf.to_vec()));
        Ok(())
    }

    fn sync_data(&self) -> io::Result<()> {
        let mut fs = self.state.lock();
        if fs.strikes(0) {
            fs.inodes[self.ino].sync_failed = true;
            return Err(io::Error::other("simulated fsync failure"));
        }
        fs.inodes[self.ino].sync();
        Ok(())
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        let mut fs = self.state.lock();
        fs.stats.truncations += 1;
        fs.inodes[self.ino].set_len(len as usize);
        Ok(())
    }
}
