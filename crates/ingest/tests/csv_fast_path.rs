//! `CsvReader` against the line-by-line `str` reader it replaced.
//!
//! `CsvReader` reads rows as bytes and converts plain decimal fields
//! itself; it promises the values and errors of the reader that read each
//! line into a `String`, split it on commas and ran `str::parse` on every
//! trimmed field. The reference below is that reader, kept verbatim apart
//! from its name.
//!
//! Pass rule: both readers drain the same input in the same chunk sizes;
//! every chunk's values have identical bits, and where one fails the
//! other fails with the same message (line number included) at the same
//! point.

use least_data::io::io_err;
use least_ingest::{ChunkSource, CsvReader};
use least_linalg::{DenseMatrix, LinalgError, Result, Xoshiro256pp};
use std::fmt::Write as _;
use std::io::{BufRead, Cursor};

// ---------------------------------------------------------------------
// Reference: the `String` line reader, verbatim apart from its name.
// ---------------------------------------------------------------------

#[derive(Debug)]
pub struct RefCsvReader<R> {
    input: R,
    names: Vec<String>,
    /// 1-based line number of the next line to read (line 1 = header).
    line: u64,
    /// Set once the logical end of data is reached.
    done: bool,
}

impl<R: BufRead> RefCsvReader<R> {
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
        })
    }

    fn parse_row(&self, line: &str, out: &mut Vec<f64>) -> Result<()> {
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

    fn next_chunk(&mut self, max_rows: usize) -> Result<Option<DenseMatrix>> {
        if self.done || max_rows == 0 {
            return Ok(None);
        }
        let d = self.names.len();
        let mut values: Vec<f64> = Vec::with_capacity(max_rows.min(1 << 16) * d);
        let mut rows = 0usize;
        let mut line = String::new();
        while rows < max_rows {
            line.clear();
            let read = self.input.read_line(&mut line).map_err(io_err)?;
            if read == 0 {
                self.done = true;
                break;
            }
            if line.trim().is_empty() {
                // Blank lines are legal only as trailing padding: anything
                // non-blank after one is malformed, not a resumption. Scan
                // forward line by line (bounded memory — the remainder may
                // be most of the file) and fail on the first non-blank.
                loop {
                    line.clear();
                    if self.input.read_line(&mut line).map_err(io_err)? == 0 {
                        break;
                    }
                    if !line.trim().is_empty() {
                        return Err(LinalgError::InvalidArgument(format!(
                            "line {}: blank line in the middle of the data",
                            self.line
                        )));
                    }
                }
                self.done = true;
                break;
            }
            self.parse_row(line.trim_end_matches(['\n', '\r']), &mut values)?;
            self.line += 1;
            rows += 1;
        }
        if rows == 0 {
            return Ok(None);
        }
        Ok(Some(DenseMatrix::from_vec(rows, d, values)?))
    }
}

// ---------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------

/// Everything a reader returns for `input` read in chunks of `chunk_rows`:
/// each chunk's shape and value bits, then the error that ended it, if any.
#[derive(Debug, PartialEq)]
struct Drained {
    chunks: Vec<((usize, usize), Vec<u64>)>,
    error: Option<String>,
}

fn record(chunks: &mut Vec<((usize, usize), Vec<u64>)>, chunk: DenseMatrix) {
    let bits = chunk.as_slice().iter().map(|v| v.to_bits()).collect();
    chunks.push((chunk.shape(), bits));
}

fn drain_new(input: &[u8], chunk_rows: usize) -> Drained {
    let mut chunks = Vec::new();
    let error = match CsvReader::from_reader(Cursor::new(input)) {
        Err(e) => Some(e.to_string()),
        Ok(mut reader) => loop {
            match reader.next_chunk(chunk_rows) {
                Ok(Some(chunk)) => record(&mut chunks, chunk),
                Ok(None) => break None,
                Err(e) => break Some(e.to_string()),
            }
        },
    };
    Drained { chunks, error }
}

fn drain_reference(input: &[u8], chunk_rows: usize) -> Drained {
    let mut chunks = Vec::new();
    let error = match RefCsvReader::from_reader(Cursor::new(input)) {
        Err(e) => Some(e.to_string()),
        Ok(mut reader) => loop {
            match reader.next_chunk(chunk_rows) {
                Ok(Some(chunk)) => record(&mut chunks, chunk),
                Ok(None) => break None,
                Err(e) => break Some(e.to_string()),
            }
        },
    };
    Drained { chunks, error }
}

/// Both readers agree on `input` at a few chunk sizes; returns what they
/// read at the last.
fn assert_same(input: &[u8]) -> Drained {
    let mut want = None;
    for chunk_rows in [1, 3, 8192] {
        let reference = drain_reference(input, chunk_rows);
        let got = drain_new(input, chunk_rows);
        assert!(
            got == reference,
            "readers disagree at chunk_rows {chunk_rows} on {:?}:\n new {:?}\n ref {:?}",
            String::from_utf8_lossy(&input[..input.len().min(200)]),
            got.error,
            reference.error
        );
        want = Some(reference);
    }
    want.expect("three chunk sizes")
}

/// A CSV of `fields` laid out `d` to a row under a header `c0,…`.
fn csv(d: usize, fields: &[String]) -> String {
    let names: Vec<String> = (0..d).map(|j| format!("c{j}")).collect();
    let mut text = names.join(",") + "\n";
    for row in fields.chunks(d) {
        text += &row.join(",");
        text.push('\n');
    }
    text
}

// ---------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------

#[test]
fn random_doubles_as_written_read_back_the_same() {
    // 10⁶ values, magnitudes 1e-30..1e30 log-uniform, both signs, with
    // some ±0, printed as the CSV writer prints them (`{v}`).
    let mut rng = Xoshiro256pp::new(0xC5F);
    let mut text = (0..8)
        .map(|j| format!("c{j}"))
        .collect::<Vec<_>>()
        .join(",")
        + "\n";
    for i in 0..1_000_000usize {
        let v = match rng.next_u64() % 1000 {
            0 => 0.0,
            1 => -0.0,
            _ => {
                let sign = if rng.bernoulli(0.5) { -1.0 } else { 1.0 };
                sign * 10f64.powf(rng.uniform(-30.0, 30.0))
            }
        };
        write!(text, "{v}").unwrap();
        text.push(if i % 8 == 7 { '\n' } else { ',' });
    }
    let drained = assert_same(text.as_bytes());
    assert_eq!(drained.error, None);
    let values: usize = drained.chunks.iter().map(|(_, bits)| bits.len()).sum();
    assert_eq!(values, 1_000_000);
}

#[test]
fn random_digit_strings_with_random_points_read_back_the_same() {
    let mut rng = Xoshiro256pp::new(0xD16);
    let fields: Vec<String> = (0..200_000)
        .map(|_| {
            let len = 1 + rng.next_u64() as usize % 20;
            let mut s: String = (0..len)
                .map(|_| char::from(b'0' + (rng.next_u64() % 10) as u8))
                .collect();
            let dot = rng.next_u64() as usize % (len + 1);
            if dot > 0 && dot < len {
                s.insert(dot, '.');
            }
            if rng.bernoulli(0.5) {
                s.insert(0, '-');
            }
            s
        })
        .collect();
    let drained = assert_same(csv(5, &fields).as_bytes());
    assert_eq!(drained.error, None);
}

#[test]
fn edge_fields_read_back_the_same() {
    let nineteen = "1234567890123456789";
    let twenty = "12345678901234567891";
    let frac = |digits: usize| format!("0.{}", "3".repeat(digits));
    let fields: Vec<String> = [
        "-0",
        "0",
        "007",
        "-007.50",
        "1.",
        ".5",
        "-.5",
        "+1",
        "1e5",
        "1E-5",
        "-2.5e+300",
        " 1.5 ",
        "\t2",
        "1.5\r",
        "9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "0.0000000000000000000000000001",
        "00000000000000000000000000000001.25",
        nineteen,
        twenty,
        &format!("-{nineteen}"),
        &format!("{}.{}", &nineteen[..9], &nineteen[9..]),
        &format!("{}.{}", &twenty[..9], &twenty[9..]),
        &frac(27),
        &frac(28),
        &format!("1.{}", "0".repeat(26)),
        &format!("1.{}", "0".repeat(27)),
        "1e308",
        "4.9406564584124654e-324",
        "2.2250738585072011e-308",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for field in &fields {
        // Each field alone, first and last in a row, and as every field.
        let drained = assert_same(csv(1, std::slice::from_ref(field)).as_bytes());
        assert_eq!(drained.error, None, "{field:?}");
        let row = [field.clone(), "1.5".into(), field.clone()];
        assert_same(csv(3, &row).as_bytes());
    }
    assert_same(csv(4, &fields[..fields.len() / 4 * 4]).as_bytes());
}

#[test]
fn exponent_rows_read_back_the_same() {
    // Rows in exponent notation take the text parser; the reader stays on
    // it once a row is mostly such fields, whatever the later rows hold.
    let mut rng = Xoshiro256pp::new(0xE);
    let mut row = |exponent: bool| -> Vec<String> {
        (0..8)
            .map(|_| {
                let v = rng.gaussian() * 10f64.powf(rng.uniform(-5.0, 5.0));
                if exponent {
                    format!("{v:e}")
                } else {
                    format!("{v}")
                }
            })
            .collect()
    };
    let plain: Vec<String> = (0..300).flat_map(|_| row(false)).collect();
    let exponent: Vec<String> = (0..300).flat_map(|_| row(true)).collect();
    let mixed: Vec<String> = (0..300).flat_map(|i| row(i % 3 == 0)).collect();
    for fields in [
        [plain.clone(), exponent.clone()].concat(),
        [exponent.clone(), plain.clone()].concat(),
        [exponent.clone(), mixed.clone(), plain.clone()].concat(),
    ] {
        let drained = assert_same(csv(8, &fields).as_bytes());
        assert_eq!(drained.error, None);
    }
    // A bad row after the switch fails as the line reader fails.
    let mut text = csv(8, &exponent);
    text += "1e0,2,3,4,5,6,7,NaN\n";
    let drained = assert_same(text.as_bytes());
    assert!(drained.error.unwrap().contains("line 302"));
}

#[test]
fn line_endings_and_padding_read_back_the_same() {
    for text in [
        "a,b\n1,2\n3,4",
        "a,b\n1,2\n3,4\n",
        "a,b\r\n1,2\r\n3,4\r\n",
        "a,b\n1,2\r\r\n3,4\n\n\n",
        "a,b\n1,2\n \t\n\u{b}\n",
        "a,b\n1,2\n\u{a0}\n\u{2003}\r\n",
        "a,b\n\n",
        "a,b\n",
        "a\n-1\n-\n",
        "a\n1,\n",
        "a,b\n,\n",
    ] {
        assert_same(text.as_bytes());
    }
}

// ---------------------------------------------------------------------
// Hostile input: the same error at the same line
// ---------------------------------------------------------------------

#[test]
fn hostile_input_fails_the_same_way_at_the_same_line() {
    let long_digits = "7".repeat(100_000);
    let long_zeros = format!("0.{}1", "0".repeat(100_000));
    let cases: Vec<Vec<u8>> = vec![
        b"a,b\n1,2\n3,\xff\n".to_vec(),
        b"a,b\n1,2\n\xff3,4\n".to_vec(),
        b"a,b\n1,2\n3,4\xc3\n".to_vec(),
        b"a,b\n1,2\nx,\xff\n".to_vec(),
        b"a,b\n1,2\n3,4,\xff\n".to_vec(),
        b"a,b\n1,2\n\n3,\xff\n".to_vec(),
        b"a,b\n1,2\n\n\xff\n".to_vec(),
        b"a,b\n1,2\n3,\x004\n".to_vec(),
        b"a,b\n1,\x00\n".to_vec(),
        b"a,b\n\x00,1\n".to_vec(),
        format!("a,b\n1,2\n3,{long_digits}\n").into_bytes(),
        format!("a,b\n1,2\n3,{long_digits}{long_digits}{long_digits}4\n").into_bytes(),
        b"a,b\n1,NaN\n".to_vec(),
        b"a,b\n1,2\n-inf,3\n".to_vec(),
        b"a,b\n1,infinity\n".to_vec(),
        b"a,b\n1,2\n\n3,4\n".to_vec(),
        b"a,b\n1,2\n\r\n \n5,6\n".to_vec(),
        b"a,b\n1,2\n3\n".to_vec(),
        b"a,b\n1,2,3\n".to_vec(),
        b"a,b\n1,2\n3,4,\n".to_vec(),
        b"a,b\n1,oops\n".to_vec(),
        b"a,b\n1,2\n3,1.5.2\n".to_vec(),
        b"a,b\n1,2\n3,--4\n".to_vec(),
        b"a,b\n1,2\n3,\xef\xbc\x91\n".to_vec(),
        b"a,,c\n1,2,3\n".to_vec(),
        b"".to_vec(),
        b"\n".to_vec(),
        b"\xff,b\n1,2\n".to_vec(),
    ];
    for case in &cases {
        let drained = assert_same(case);
        let text = String::from_utf8_lossy(&case[..case.len().min(40)]).into_owned();
        assert!(drained.error.is_some(), "{text:?} was accepted");
    }
    // A 10⁵-digit field that is a number (it rounds to 0) is read alike.
    let drained = assert_same(format!("a,b\n1,2\n3,{long_zeros}\n").as_bytes());
    assert_eq!(drained.error, None);
    // The errors name the line they are on.
    let drained = assert_same(b"a,b\n1,2\n3,4\n5,\xff\n");
    assert!(drained.error.unwrap().contains("UTF-8"));
    let drained = assert_same(format!("a,b\n1,2\n3,4\n5,{long_digits}\n").as_bytes());
    assert!(drained.error.unwrap().contains("line 4"));
}
