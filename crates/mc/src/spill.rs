//! Spill files for the out-of-core explorer: an RAII temp directory
//! plus a prefix-compressed codec for sorted runs of fixed-width state
//! words.
//!
//! ## Directory lifecycle
//!
//! All spill traffic for one exploration lives under a single
//! [`SpillDir`], created lazily on the first spill and removed —
//! recursively, best-effort — when the exploration ends, whether it
//! returned normally, hit its state budget, or unwound through a
//! panic (`Drop` runs on unwind). Nothing inside the directory is
//! reused across runs, so removal can never destroy user data; the
//! cleanup tests in `tests/out_of_core.rs` pin the guarantee.
//!
//! ## Run format
//!
//! A run is a strictly sorted sequence of fixed-width words (the
//! big-endian byte encoding of a packed state, so lexicographic byte
//! order equals word order). The codec exploits sortedness: each word
//! is written as one byte holding the length of the prefix it shares
//! with its predecessor, followed by the remaining suffix bytes.
//! Dense sorted runs share long prefixes, so 16-byte packed states
//! compress to a few bytes each. One file may hold several runs back to
//! back: [`RunWriter::end_run`] closes a run and restarts the prefix
//! chain, so each run decodes on its own. A run's byte offset
//! ([`RunWriter::offset`] before its first word) and its word count
//! travel out-of-band in the engine's in-memory run directory, and
//! [`RunReader::open_at`] takes both back. The format itself needs no
//! framing or length table, and the reader stays allocation-free per
//! word.
//!
//! Spilling is a pure storage decision: the byte sequences that go in
//! come back verbatim, so no reported statistic other than the spill
//! accounting itself can depend on whether a run was hot or cold — the
//! determinism argument in DESIGN.md §16 leans on exactly this.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Capacity of the buffered reader/writer wrapped around each spill
/// file. Exposed so the engine can account the I/O buffers against its
/// memory gauge.
pub const IO_BUF_BYTES: usize = 64 * 1024;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// An exploration-scoped temp directory, removed recursively on drop.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
    file_seq: AtomicU64,
}

impl SpillDir {
    /// Create a fresh, uniquely named directory under `base` (the OS
    /// temp dir when `None`).
    pub fn create(base: Option<&Path>) -> io::Result<SpillDir> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let nonce = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = base.join(format!(
            "ccsql-spill-{}-{}-{nonce}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        fs::create_dir_all(&path)?;
        Ok(SpillDir {
            path,
            file_seq: AtomicU64::new(0),
        })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh unique file path inside the directory (not yet created).
    pub fn next_file(&self, tag: &str) -> PathBuf {
        let n = self.file_seq.fetch_add(1, Ordering::Relaxed);
        self.path.join(format!("{tag}-{n}.run"))
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best effort: a failed removal must not turn a completed run
        // into a panic (and a panicking run into an abort).
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Streaming writer for sorted runs of `width`-byte words, each
/// optionally followed by `extra` uncompressed payload bytes (the
/// engine uses the payload slot for parent links; it is zero-width on
/// the plain state path). A file holds one run, or several separated
/// by [`RunWriter::end_run`].
pub struct RunWriter {
    out: BufWriter<File>,
    prev: Vec<u8>,
    width: usize,
    extra: usize,
    /// Words in the open run; 0 makes the next word start a new prefix
    /// chain.
    count: u64,
    bytes: u64,
}

impl RunWriter {
    /// Create the file at `path` and begin a run of `width`-byte words
    /// (`1 ..= 255`) each carrying `extra` payload bytes.
    pub fn create(path: &Path, width: usize, extra: usize) -> io::Result<RunWriter> {
        assert!((1..=255).contains(&width), "run word width {width}");
        Ok(RunWriter {
            out: BufWriter::with_capacity(IO_BUF_BYTES, File::create(path)?),
            prev: vec![0u8; width],
            width,
            extra,
            count: 0,
            bytes: 0,
        })
    }

    /// Append one word (exactly `width` bytes) and its payload (exactly
    /// `extra` bytes). Words must arrive in ascending order for
    /// compression to work; the codec itself is order-agnostic.
    // Inlined, like `RunReader::next_into`, into the engine's per-word
    // loops, which sit in other codegen units: that measured faster
    // merge and maintain phases.
    #[inline]
    pub fn push(&mut self, word: &[u8], extra: &[u8]) -> io::Result<()> {
        debug_assert_eq!(word.len(), self.width);
        debug_assert_eq!(extra.len(), self.extra);
        let shared = if self.count == 0 {
            0
        } else {
            self.prev
                .iter()
                .zip(word)
                .take_while(|(a, b)| a == b)
                .count()
        };
        self.out.write_all(&[shared as u8])?;
        self.out.write_all(&word[shared..])?;
        self.out.write_all(extra)?;
        self.bytes += 1 + (self.width - shared) as u64 + self.extra as u64;
        self.prev.copy_from_slice(word);
        self.count += 1;
        Ok(())
    }

    /// Bytes written so far: the offset at which the next run starts
    /// once the open one is ended.
    pub fn offset(&self) -> u64 {
        self.bytes
    }

    /// End the open run and return its word count. The next word starts
    /// a new run, written whole, so that run decodes from its own
    /// offset.
    pub fn end_run(&mut self) -> u64 {
        std::mem::take(&mut self.count)
    }

    /// Flush and close, returning the word count of the open run (0
    /// right after [`RunWriter::end_run`]) and the encoded bytes of the
    /// whole file.
    pub fn finish(mut self) -> io::Result<(u64, u64)> {
        self.out.flush()?;
        Ok((self.count, self.bytes))
    }
}

/// Streaming reader for a run written by [`RunWriter`].
pub struct RunReader {
    inp: BufReader<File>,
    prev: Vec<u8>,
    width: usize,
    extra: usize,
    remaining: u64,
}

impl RunReader {
    /// Open the run at the start of `path`; see [`RunReader::open_at`].
    pub fn open(path: &Path, width: usize, extra: usize, count: u64) -> io::Result<RunReader> {
        RunReader::open_at(path, width, extra, 0, count)
    }

    /// Open the run of `count` words of `width` bytes each, with `extra`
    /// payload bytes per word, that starts `offset` bytes into `path`.
    pub fn open_at(
        path: &Path,
        width: usize,
        extra: usize,
        offset: u64,
        count: u64,
    ) -> io::Result<RunReader> {
        let mut file = File::open(path)?;
        file.seek(SeekFrom::Start(offset))?;
        Ok(RunReader {
            inp: BufReader::with_capacity(IO_BUF_BYTES, file),
            prev: vec![0u8; width],
            width,
            extra,
            remaining: count,
        })
    }

    /// Decode the next word (and its payload) into `word` / `extra`;
    /// returns `false` at end of run.
    #[inline]
    pub fn next_into(&mut self, word: &mut [u8], extra: &mut [u8]) -> io::Result<bool> {
        debug_assert_eq!(word.len(), self.width);
        debug_assert_eq!(extra.len(), self.extra);
        if self.remaining == 0 {
            return Ok(false);
        }
        let mut shared = [0u8; 1];
        self.inp.read_exact(&mut shared)?;
        let shared = shared[0] as usize;
        if shared > self.width {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "corrupt spill run: shared prefix exceeds word width",
            ));
        }
        self.inp.read_exact(&mut self.prev[shared..])?;
        word.copy_from_slice(&self.prev);
        self.inp.read_exact(extra)?;
        self.remaining -= 1;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(n: u128, step: u128) -> Vec<[u8; 16]> {
        (0..n).map(|i| (i * step).to_be_bytes()).collect()
    }

    #[test]
    fn roundtrip_preserves_every_word() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("t");
        let ws = words(1000, 0x1234_5678_9abc);
        let mut w = RunWriter::create(&path, 16, 0).unwrap();
        for word in &ws {
            w.push(word, &[]).unwrap();
        }
        let (count, bytes) = w.finish().unwrap();
        assert_eq!(count, 1000);
        assert!(
            bytes < 1000 * 16 / 2,
            "sorted dense runs should compress at least 2x, got {bytes}"
        );
        let mut r = RunReader::open(&path, 16, 0, count).unwrap();
        let mut buf = [0u8; 16];
        for word in &ws {
            assert!(r.next_into(&mut buf, &mut []).unwrap());
            assert_eq!(&buf, word);
        }
        assert!(!r.next_into(&mut buf, &mut []).unwrap());
    }

    #[test]
    fn empty_run_roundtrips() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("t");
        let (count, bytes) = RunWriter::create(&path, 16, 0).unwrap().finish().unwrap();
        assert_eq!((count, bytes), (0, 0));
        let mut r = RunReader::open(&path, 16, 0, 0).unwrap();
        assert!(!r.next_into(&mut [0u8; 16], &mut []).unwrap());
    }

    #[test]
    fn wide_words_with_payload_roundtrip() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("t");
        let mut ws: Vec<[u8; 32]> = (0..200u32)
            .map(|i| {
                let mut w = [0u8; 32];
                w[..4].copy_from_slice(&i.to_be_bytes());
                w[31] = (i % 7) as u8;
                w
            })
            .collect();
        ws.sort();
        let mut w = RunWriter::create(&path, 32, 4).unwrap();
        for (i, word) in ws.iter().enumerate() {
            w.push(word, &(i as u32).to_be_bytes()).unwrap();
        }
        let (count, _) = w.finish().unwrap();
        let mut r = RunReader::open(&path, 32, 4, count).unwrap();
        let mut buf = [0u8; 32];
        let mut extra = [0u8; 4];
        for (i, word) in ws.iter().enumerate() {
            assert!(r.next_into(&mut buf, &mut extra).unwrap());
            assert_eq!(&buf, word);
            assert_eq!(u32::from_be_bytes(extra), i as u32);
        }
        assert!(!r.next_into(&mut buf, &mut extra).unwrap());
    }

    #[test]
    fn runs_sharing_a_file_decode_from_their_own_offsets() {
        // Run 1 ends on a word whose first 15 bytes run 2's first word
        // repeats: unless `end_run` restarts the prefix chain, that word
        // is written as a one-byte suffix no reader at run 2's offset
        // can decode.
        let dir = SpillDir::create(None).unwrap();
        let path = dir.next_file("t");
        let runs: [Vec<[u8; 16]>; 3] = [
            (0..50u8)
                .map(|i| [0xA5, 0x5A, i, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 1])
                .collect(),
            (0..50u8)
                .map(|i| [0xA5, 0x5A, 49, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 2 + i])
                .collect(),
            vec![[0x33; 16]],
        ];
        let mut w = RunWriter::create(&path, 16, 2).unwrap();
        let mut dirents = Vec::new();
        for (r, run) in runs.iter().enumerate() {
            let offset = w.offset();
            for word in run {
                w.push(word, &[r as u8, word[15]]).unwrap();
            }
            dirents.push((offset, w.end_run()));
        }
        let (open, bytes) = w.finish().unwrap();
        assert_eq!(open, 0, "every run was ended");
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        // Read the runs back out of order, each from its own offset.
        for r in [2, 0, 1] {
            let (offset, count) = dirents[r];
            assert_eq!(count, runs[r].len() as u64);
            let mut rd = RunReader::open_at(&path, 16, 2, offset, count).unwrap();
            let (mut buf, mut extra) = ([0u8; 16], [0u8; 2]);
            for word in &runs[r] {
                assert!(rd.next_into(&mut buf, &mut extra).unwrap());
                assert_eq!(&buf, word, "run {r}");
                assert_eq!(extra, [r as u8, word[15]], "run {r}");
            }
            assert!(!rd.next_into(&mut buf, &mut extra).unwrap());
        }
    }

    #[test]
    fn dir_is_removed_on_drop() {
        let path = {
            let dir = SpillDir::create(None).unwrap();
            let f = dir.next_file("t");
            let mut w = RunWriter::create(&f, 16, 0).unwrap();
            w.push(&[0u8; 16], &[]).unwrap();
            w.finish().unwrap();
            assert!(dir.path().is_dir());
            dir.path().to_path_buf()
        };
        assert!(!path.exists(), "spill dir survived drop: {path:?}");
    }

    #[test]
    fn dir_is_removed_when_a_run_panics() {
        let observed = std::sync::Arc::new(std::sync::Mutex::new(PathBuf::new()));
        let obs2 = std::sync::Arc::clone(&observed);
        let result = std::panic::catch_unwind(move || {
            let dir = SpillDir::create(None).unwrap();
            *obs2.lock().unwrap() = dir.path().to_path_buf();
            let f = dir.next_file("t");
            let mut w = RunWriter::create(&f, 16, 0).unwrap();
            w.push(&[1u8; 16], &[]).unwrap();
            panic!("worker died mid-spill");
        });
        assert!(result.is_err());
        let path = observed.lock().unwrap().clone();
        assert!(!path.exists(), "spill dir survived a panic: {path:?}");
    }
}
