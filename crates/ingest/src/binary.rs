//! Streaming reader for the `LEASTDAT` binary record format
//! (layout: `least_data::io`). One pass, `O(chunk·d)` memory, with the
//! trailing FNV-1a-64 checksum verified incrementally as the payload
//! streams through — a torn or bit-flipped file is detected by the end of
//! the very pass that would have consumed it, never by a panic.

use crate::source::ChunkSource;
use least_data::io::{io_err, BINARY_MAGIC, BINARY_VERSION};
use least_linalg::serialize::Fnv1a64;
use least_linalg::{DenseMatrix, LinalgError, Result};
use std::fs::File;
use std::io::{BufReader, Read};
use std::path::Path;

/// Sanity cap on a single column-name length (the format allows u32::MAX;
/// anything near it is corruption, not a schema).
const MAX_NAME_BYTES: u32 = 1 << 20;

/// A `LEASTDAT` binary dataset streamed row-chunk by row-chunk.
#[derive(Debug)]
pub struct BinaryReader<R> {
    input: R,
    hasher: Fnv1a64,
    names: Vec<String>,
    d: usize,
    /// Rows the header declares but the reader has not yet returned.
    remaining_rows: u64,
    /// Rows returned so far.
    rows_read: u64,
    /// Set once the checksum trailer has been verified.
    verified: bool,
}

impl BinaryReader<BufReader<File>> {
    /// Open a `LEASTDAT` file and parse its header.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_reader(BufReader::new(File::open(&path).map_err(io_err)?))
    }
}

fn truncated(what: &str) -> LinalgError {
    LinalgError::InvalidArgument(format!("truncated LEASTDAT stream: {what}"))
}

impl<R: Read> BinaryReader<R> {
    /// Wrap any byte stream and parse the header.
    pub fn from_reader(mut input: R) -> Result<Self> {
        let mut hasher = Fnv1a64::new();
        let mut read_hashed = |buf: &mut [u8], what: &str| -> Result<()> {
            input.read_exact(buf).map_err(|_| truncated(what))?;
            hasher.update(buf);
            Ok(())
        };

        let mut magic = [0u8; 8];
        read_hashed(&mut magic, "magic")?;
        if &magic != BINARY_MAGIC {
            return Err(LinalgError::InvalidArgument(
                "not a LEASTDAT stream (bad magic)".into(),
            ));
        }
        let mut u32buf = [0u8; 4];
        read_hashed(&mut u32buf, "version")?;
        let version = u32::from_le_bytes(u32buf);
        if version != BINARY_VERSION {
            return Err(LinalgError::InvalidArgument(format!(
                "unsupported LEASTDAT version {version}"
            )));
        }
        let mut u64buf = [0u8; 8];
        read_hashed(&mut u64buf, "column count")?;
        let d = usize::try_from(u64::from_le_bytes(u64buf))
            .map_err(|_| LinalgError::InvalidArgument("d exceeds the word size".into()))?;
        if d == 0 {
            return Err(LinalgError::InvalidArgument(
                "LEASTDAT stream declares zero columns".into(),
            ));
        }
        read_hashed(&mut u64buf, "row count")?;
        let n = u64::from_le_bytes(u64buf);

        let mut names = Vec::with_capacity(d);
        for i in 0..d {
            read_hashed(&mut u32buf, "column-name length")?;
            let len = u32::from_le_bytes(u32buf);
            if len > MAX_NAME_BYTES {
                return Err(LinalgError::InvalidArgument(format!(
                    "column name {i} declares {len} bytes (corrupt header?)"
                )));
            }
            let mut name = vec![0u8; len as usize];
            read_hashed(&mut name, "column name")?;
            names.push(String::from_utf8(name).map_err(|_| {
                LinalgError::InvalidArgument(format!("column name {i} is not valid utf-8"))
            })?);
        }

        Ok(Self {
            input,
            hasher,
            names,
            d,
            remaining_rows: n,
            rows_read: 0,
            verified: false,
        })
    }

    /// After the last row: read the 8-byte trailer, compare with the
    /// running digest, and require EOF.
    fn verify_trailer(&mut self) -> Result<()> {
        if self.verified {
            return Ok(());
        }
        let mut trailer = [0u8; 8];
        self.input
            .read_exact(&mut trailer)
            .map_err(|_| truncated("checksum trailer"))?;
        let declared = u64::from_le_bytes(trailer);
        if declared != self.hasher.finish() {
            return Err(LinalgError::InvalidArgument(
                "LEASTDAT checksum mismatch (corrupt or torn file)".into(),
            ));
        }
        let mut extra = [0u8; 1];
        if self.input.read(&mut extra).map_err(io_err)? != 0 {
            return Err(LinalgError::InvalidArgument(
                "trailing bytes after the LEASTDAT checksum".into(),
            ));
        }
        self.verified = true;
        Ok(())
    }
}

impl<R: Read> ChunkSource for BinaryReader<R> {
    fn num_vars(&self) -> usize {
        self.d
    }

    fn column_names(&self) -> Option<&[String]> {
        Some(&self.names)
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<DenseMatrix>> {
        if self.remaining_rows == 0 {
            self.verify_trailer()?;
            return Ok(None);
        }
        if max_rows == 0 {
            // Rows remain: the trailer is not next in the stream, so a
            // zero-row request must not try to verify (and misalign) it.
            return Ok(None);
        }
        let rows = usize::try_from(self.remaining_rows.min(max_rows as u64)).expect("bounded");
        let bytes = rows
            .checked_mul(self.d)
            .and_then(|c| c.checked_mul(8))
            .ok_or_else(|| LinalgError::InvalidArgument("chunk byte count overflows".into()))?;
        let mut buf = vec![0u8; bytes];
        self.input
            .read_exact(&mut buf)
            .map_err(|_| truncated("row payload"))?;
        self.hasher.update(&buf);
        let values: Vec<f64> = buf
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect();
        // Like the CSV reader, refuse NaN and ±inf: the statistics (and the
        // exactness of the tiled Gram kernels) assume finite samples.
        if let Some(at) = values.iter().position(|v| !v.is_finite()) {
            return Err(LinalgError::InvalidArgument(format!(
                "LEASTDAT row {}, column {}: {} is not finite",
                self.rows_read + (at / self.d) as u64,
                at % self.d,
                values[at]
            )));
        }
        self.remaining_rows -= rows as u64;
        self.rows_read += rows as u64;
        // Validate the trailer eagerly on the final chunk so a caller that
        // stops at the row count still gets integrity checking.
        if self.remaining_rows == 0 {
            self.verify_trailer()?;
        }
        Ok(Some(DenseMatrix::from_vec(rows, self.d, values)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use least_data::{export_binary, io::write_binary, Dataset};
    use least_linalg::Xoshiro256pp;
    use std::io::Cursor;

    fn sample_bytes(n: usize, d: usize, seed: u64) -> (Dataset, Vec<u8>) {
        let mut rng = Xoshiro256pp::new(seed);
        let data = Dataset::new(DenseMatrix::from_fn(n, d, |_, _| rng.gaussian()));
        let mut bytes = Vec::new();
        write_binary(&data, &mut bytes).unwrap();
        (data, bytes)
    }

    #[test]
    fn streams_rows_bit_exactly() {
        let (data, bytes) = sample_bytes(23, 4, 31);
        let mut r = BinaryReader::from_reader(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.num_vars(), 4);
        assert_eq!(r.column_names().unwrap().len(), 4);
        let mut rows = Vec::new();
        while let Some(chunk) = r.next_chunk(7).unwrap() {
            for row in chunk.rows_iter() {
                rows.push(row.to_vec());
            }
        }
        assert_eq!(rows.len(), 23);
        for (s, row) in rows.iter().enumerate() {
            for (a, b) in row.iter().zip(data.matrix().row(s)) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn truncation_anywhere_is_an_error_not_a_panic() {
        let (_, bytes) = sample_bytes(5, 3, 32);
        for cut in [
            0,
            4,
            11,
            25,
            bytes.len() / 2,
            bytes.len() - 9,
            bytes.len() - 1,
        ] {
            let result = BinaryReader::from_reader(Cursor::new(&bytes[..cut])).and_then(|mut r| {
                while r.next_chunk(2)?.is_some() {}
                Ok(())
            });
            assert!(result.is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let (_, mut bytes) = sample_bytes(8, 2, 33);
        let payload_at = bytes.len() - 20; // inside the row payload
        bytes[payload_at] ^= 0x01;
        let result = BinaryReader::from_reader(Cursor::new(&bytes[..])).and_then(|mut r| {
            while r.next_chunk(100)?.is_some() {}
            Ok(())
        });
        let err = result.unwrap_err().to_string();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let (_, mut bytes) = sample_bytes(3, 2, 34);
        bytes.push(0xEE);
        let result = BinaryReader::from_reader(Cursor::new(&bytes[..])).and_then(|mut r| {
            while r.next_chunk(100)?.is_some() {}
            Ok(())
        });
        assert!(result.is_err());
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let (_, bytes) = sample_bytes(2, 2, 35);
        let mut wrong = bytes.clone();
        wrong[0] = b'Z';
        assert!(BinaryReader::from_reader(Cursor::new(&wrong[..])).is_err());
        let mut newer = bytes;
        newer[8] = 9; // version field (checksum never reached: header rejects first)
        assert!(BinaryReader::from_reader(Cursor::new(&newer[..])).is_err());
    }

    #[test]
    fn zero_row_request_mid_stream_is_benign() {
        let (_, bytes) = sample_bytes(6, 2, 37);
        let mut r = BinaryReader::from_reader(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(r.next_chunk(2).unwrap().unwrap().rows(), 2);
        // Rows remain: a zero-row request must not consume (or verify
        // against) payload bytes as if they were the trailer.
        assert!(r.next_chunk(0).unwrap().is_none());
        let mut rows = 2;
        while let Some(chunk) = r.next_chunk(3).unwrap() {
            rows += chunk.rows();
        }
        assert_eq!(rows, 6);
    }

    #[test]
    fn non_finite_samples_are_typed_errors_naming_row_and_column() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            // The writer refuses non-finite values: patch one into a
            // finite file and re-seal the checksum.
            let (data, mut bytes) = sample_bytes(9, 3, 38);
            let good = data.matrix()[(6, 2)].to_le_bytes();
            let at = bytes.windows(8).position(|w| w == good).unwrap();
            bytes[at..at + 8].copy_from_slice(&bad.to_le_bytes());
            let sealed = bytes.len() - 8;
            let mut hasher = Fnv1a64::new();
            hasher.update(&bytes[..sealed]);
            bytes[sealed..].copy_from_slice(&hasher.finish().to_le_bytes());
            let mut r = BinaryReader::from_reader(Cursor::new(&bytes[..])).unwrap();
            assert_eq!(r.next_chunk(4).unwrap().unwrap().rows(), 4);
            match r.next_chunk(4) {
                Err(LinalgError::InvalidArgument(msg)) => {
                    assert!(msg.contains("row 6, column 2"), "{bad}: {msg}");
                    assert!(msg.contains("not finite"), "{bad}: {msg}");
                }
                other => panic!("{bad}: expected a typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_reads_from_disk() {
        let (data, _) = sample_bytes(6, 3, 36);
        let path = std::env::temp_dir().join("least_ingest_binary_open_test.dat");
        export_binary(&data, &path).unwrap();
        let mut r = BinaryReader::open(&path).unwrap();
        let chunk = r.next_chunk(100).unwrap().unwrap();
        assert_eq!(chunk.shape(), (6, 3));
        assert!(r.next_chunk(100).unwrap().is_none());
        std::fs::remove_file(&path).ok();
    }
}
