//! Streaming CSV reader: header + numeric rows, bounded memory.
//!
//! Counterpart of `least_data::io::write_csv`. The reader never holds more
//! than one chunk of rows; malformed input (ragged rows, non-numeric or
//! non-finite fields, missing header, stray blank lines) is reported as an
//! error with a line number — never a panic.
//!
//! Rows are read as bytes. A field in the plain decimal form the writer
//! prints is converted straight from them ([`crate::decimal`], exact);
//! any other field goes through `str::trim` and `str::parse::<f64>`, and a
//! row that fails either way is re-read as text, field by field, so the
//! accepted language, every value and every error are those of the
//! line-by-line `str` reader (DESIGN.md §9.1). Once a row is mostly
//! fields of other forms, the reader parses the rows after it as text
//! directly, which costs what the line reader cost.

use crate::decimal;
use crate::source::ChunkSource;
use least_data::io::io_err;
use least_linalg::{DenseMatrix, LinalgError, Result};
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// A CSV dataset streamed row-chunk by row-chunk.
#[derive(Debug)]
pub struct CsvReader<R> {
    input: R,
    names: Vec<String>,
    /// 1-based line number of the next line to read (line 1 = header).
    line: u64,
    /// Set once the logical end of data is reached.
    done: bool,
    /// The line being read, reused from row to row.
    bytes: Vec<u8>,
    /// Set once a row had more fields outside the byte path's form than
    /// in it (a file written in exponent notation, say): later rows go
    /// straight to the text parser, at the line reader's cost, instead of
    /// trying every field in bytes first.
    text_rows: bool,
}

impl CsvReader<BufReader<File>> {
    /// Open a CSV file and parse its header line.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_reader(BufReader::new(File::open(&path).map_err(io_err)?))
    }
}

/// `line` as text, or the error reading it as text gives.
fn as_text(line: &[u8]) -> Result<&str> {
    std::str::from_utf8(line).map_err(|_| {
        io_err(io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        ))
    })
}

/// Whether `line` is blank (`str::trim` leaves nothing of it).
fn is_blank(line: &[u8]) -> Result<bool> {
    Ok(as_text(line)?.trim().is_empty())
}

impl<R: BufRead> CsvReader<R> {
    /// Wrap any buffered reader and parse the header line.
    pub fn from_reader(mut input: R) -> Result<Self> {
        let mut header = String::new();
        let read = input.read_line(&mut header).map_err(io_err)?;
        if read == 0 || header.trim().is_empty() {
            return Err(LinalgError::InvalidArgument(
                "CSV is empty (missing header line)".into(),
            ));
        }
        let names: Vec<String> = header.trim_end().split(',').map(str::to_string).collect();
        if names.iter().any(|n| n.trim().is_empty()) {
            return Err(LinalgError::InvalidArgument(
                "CSV header contains an empty column name".into(),
            ));
        }
        Ok(Self {
            input,
            names,
            line: 2,
            done: false,
            bytes: Vec::new(),
            text_rows: false,
        })
    }

    /// Read the next line into `self.bytes`; `false` at the end of input.
    fn read_line(&mut self) -> Result<bool> {
        self.bytes.clear();
        let read = self.input.read_until(b'\n', &mut self.bytes);
        Ok(read.map_err(io_err)? > 0)
    }

    /// Append the values of `line` (terminators stripped) to `out`, and
    /// return how many fields were not plain decimals. Plain decimals
    /// convert from the bytes; other fields go through `str::parse`. A
    /// row that fails either way, or has the wrong number of fields, is
    /// handed whole to [`Self::parse_text_row`], which reports the error.
    fn parse_row(&self, line: &[u8], out: &mut Vec<f64>) -> Result<usize> {
        let d = self.names.len();
        let start = out.len();
        let mut rest = line;
        let mut fallbacks = 0;
        for field in 1..=d {
            let (v, len) = match decimal::parse_field(rest) {
                Some(parsed) => parsed,
                None => {
                    fallbacks += 1;
                    let len = rest.iter().position(|&b| b == b',').unwrap_or(rest.len());
                    let parsed = std::str::from_utf8(&rest[..len])
                        .ok()
                        .and_then(|text| text.trim().parse::<f64>().ok())
                        .filter(|v| v.is_finite());
                    match parsed {
                        Some(v) => (v, len),
                        None => break,
                    }
                }
            };
            out.push(v);
            match rest.get(len) {
                None if field == d => return Ok(fallbacks),
                Some(_) if field < d => rest = &rest[len + 1..],
                _ => break,
            }
        }
        out.truncate(start);
        self.parse_text_row(as_text(line)?, out)?;
        Ok(d)
    }

    /// The row parser on text: the reference for [`Self::parse_row`],
    /// and the one that words its errors.
    fn parse_text_row(&self, line: &str, out: &mut Vec<f64>) -> Result<()> {
        let mut fields = 0usize;
        for field in line.split(',') {
            fields += 1;
            if fields > self.names.len() {
                break; // arity error reported below
            }
            let v: f64 = field.trim().parse().map_err(|_| {
                LinalgError::InvalidArgument(format!(
                    "line {}: field {fields} ({:?}) is not a number",
                    self.line, field
                ))
            })?;
            if !v.is_finite() {
                return Err(LinalgError::InvalidArgument(format!(
                    "line {}: field {fields} is not finite",
                    self.line
                )));
            }
            out.push(v);
        }
        if fields != self.names.len() {
            return Err(LinalgError::InvalidArgument(format!(
                "line {}: {} fields, header declares {}",
                self.line,
                fields,
                self.names.len()
            )));
        }
        Ok(())
    }
}

impl<R: BufRead> ChunkSource for CsvReader<R> {
    fn num_vars(&self) -> usize {
        self.names.len()
    }

    fn column_names(&self) -> Option<&[String]> {
        Some(&self.names)
    }

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<DenseMatrix>> {
        if self.done || max_rows == 0 {
            return Ok(None);
        }
        let d = self.names.len();
        let mut values: Vec<f64> = Vec::with_capacity(max_rows.min(1 << 16) * d);
        let mut rows = 0usize;
        while rows < max_rows {
            if !self.read_line()? {
                self.done = true;
                break;
            }
            // A row that starts with a digit or '-' is not blank: the
            // common case skips the UTF-8 pass `is_blank` makes.
            let starts_number = matches!(self.bytes.first(), Some(b'0'..=b'9' | b'-'));
            if !starts_number && is_blank(&self.bytes)? {
                // Blank lines are legal only as trailing padding: anything
                // non-blank after one is malformed, not a resumption. Scan
                // forward line by line (bounded memory — the remainder may
                // be most of the file) and fail on the first non-blank.
                while self.read_line()? {
                    if !is_blank(&self.bytes)? {
                        return Err(LinalgError::InvalidArgument(format!(
                            "line {}: blank line in the middle of the data",
                            self.line
                        )));
                    }
                }
                self.done = true;
                break;
            }
            let end = self
                .bytes
                .iter()
                .rposition(|&b| b != b'\n' && b != b'\r')
                .map_or(0, |i| i + 1);
            let line = &self.bytes[..end];
            if self.text_rows {
                self.parse_text_row(as_text(line)?, &mut values)?;
            } else {
                self.text_rows = 2 * self.parse_row(line, &mut values)? > d;
            }
            self.line += 1;
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(DenseMatrix::from_vec(rows, d, values)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn reader(text: &str) -> Result<CsvReader<Cursor<&[u8]>>> {
        CsvReader::from_reader(Cursor::new(text.as_bytes()))
    }

    #[test]
    fn parses_header_and_rows_in_chunks() {
        let mut r = reader("a,b\n1,2\n3,4\n5,6\n").unwrap();
        assert_eq!(r.num_vars(), 2);
        assert_eq!(r.column_names().unwrap(), &["a".to_string(), "b".into()]);
        let c1 = r.next_chunk(2).unwrap().unwrap();
        assert_eq!(c1.shape(), (2, 2));
        assert_eq!(c1[(1, 0)], 3.0);
        let c2 = r.next_chunk(2).unwrap().unwrap();
        assert_eq!(c2.shape(), (1, 2));
        assert!(r.next_chunk(2).unwrap().is_none());
    }

    #[test]
    fn tolerates_crlf_and_trailing_blank_lines() {
        let mut r = reader("a,b\r\n1,2\r\n\n\n").unwrap();
        let c = r.next_chunk(10).unwrap().unwrap();
        assert_eq!(c.shape(), (1, 2));
        assert!(r.next_chunk(10).unwrap().is_none());
    }

    #[test]
    fn ragged_row_is_an_error() {
        let mut r = reader("a,b\n1,2\n3\n").unwrap();
        let err = match r.next_chunk(10) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("ragged row accepted"),
        };
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn extra_fields_are_an_error() {
        let mut r = reader("a,b\n1,2,3\n").unwrap();
        assert!(r.next_chunk(10).is_err());
    }

    #[test]
    fn non_numeric_field_is_an_error() {
        let mut r = reader("a,b\n1,oops\n").unwrap();
        let err = r.next_chunk(10).unwrap_err().to_string();
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn non_finite_field_is_an_error() {
        let mut r = reader("a,b\n1,NaN\n").unwrap();
        assert!(r.next_chunk(10).is_err());
        let mut r = reader("a,b\n1,inf\n").unwrap();
        assert!(r.next_chunk(10).is_err());
    }

    #[test]
    fn interior_blank_line_is_an_error() {
        let mut r = reader("a,b\n1,2\n\n3,4\n").unwrap();
        assert!(r.next_chunk(10).is_err());
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(reader("").is_err());
        assert!(reader("\n").is_err());
    }

    #[test]
    fn empty_header_name_is_an_error() {
        assert!(reader("a,,c\n1,2,3\n").is_err());
    }
}
