//! Versioned binary model artifacts: persist a fitted linear-Gaussian BN.
//!
//! The paper's system is *deployed* — learned structures feed downstream
//! recommendation, monitoring and gene-analysis consumers — so a fitted
//! model must outlive the training process. An artifact packages the
//! weight matrix (dense or CSR), per-node intercepts and noise variances,
//! and provenance metadata into one self-validating byte stream.
//!
//! ## Format (version 1, all scalars little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LEASTMDL"
//! 8       4     format version        u32 (= 1)
//! 12      4     backend tag           u32 (0 = dense, 1 = csr)
//! 16      8     d (node count)        u64
//! 24      8     edge threshold        f64 bit pattern
//! 32      4     fingerprint length F  u32
//! 36      F     solver fingerprint    utf-8 bytes
//! ..      d·8   intercepts            f64 bit patterns
//! ..      d·8   noise variances       f64 bit patterns
//! ..      ..    weights payload       least_linalg::serialize encoding
//! ..      8     FNV-1a-64 checksum    u64 over every preceding byte
//! ```
//!
//! Floats are stored as raw bit patterns, so save → load → save reproduces
//! the original byte stream **exactly** (`-0.0`, subnormals and NaN
//! payloads included). The checksum makes truncation and single-byte
//! corruption loud instead of silently serving a wrong model.

use crate::error::{Result, ServeError};
use least_core::FittedSem;
use least_linalg::serialize::{
    read_csr, read_dense, write_csr, write_dense, write_f64, write_f64_slice, write_u32, write_u64,
    ByteReader,
};
use least_linalg::{CsrMatrix, DenseMatrix};
use std::path::Path;

/// Artifact magic bytes.
pub const MAGIC: &[u8; 8] = b"LEASTMDL";

/// Current artifact format version.
pub const FORMAT_VERSION: u32 = 1;

/// Fitted edge weights in either backend representation.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightMatrix {
    /// Dense `d × d` weights (LEAST-TF regime).
    Dense(DenseMatrix),
    /// CSR `d × d` weights (LEAST-SP regime, large sparse graphs).
    Sparse(CsrMatrix),
}

impl WeightMatrix {
    /// Node count (matrices are square by construction).
    pub fn dim(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.rows(),
            WeightMatrix::Sparse(m) => m.rows(),
        }
    }

    /// Stored nonzero count (dense counts entries with `|w| > 0`).
    pub fn nnz(&self) -> usize {
        match self {
            WeightMatrix::Dense(m) => m.count_nonzero(0.0),
            WeightMatrix::Sparse(m) => m.nnz(),
        }
    }

    /// Backend label used in listings and wire responses.
    pub fn backend(&self) -> &'static str {
        match self {
            WeightMatrix::Dense(_) => "dense",
            WeightMatrix::Sparse(_) => "csr",
        }
    }
}

/// Provenance metadata carried alongside the parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMeta {
    /// Edge threshold τ the structure was binarized at (paper's
    /// post-optimization thresholding step).
    pub threshold: f64,
    /// Free-form solver configuration fingerprint (config summary,
    /// library version, ...), recorded for reproducibility audits.
    pub fingerprint: String,
}

/// A persistable fitted linear-Gaussian Bayesian network.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Provenance metadata.
    pub meta: ModelMeta,
    /// Edge weights: `weights[u, v] ≠ 0` means `u → v`.
    pub weights: WeightMatrix,
    /// Per-node intercepts of the structural equations.
    pub intercepts: Vec<f64>,
    /// Per-node additive-noise variances.
    pub noise_vars: Vec<f64>,
}

impl ModelArtifact {
    /// Assemble an artifact, validating internal consistency.
    pub fn new(
        weights: WeightMatrix,
        intercepts: Vec<f64>,
        noise_vars: Vec<f64>,
        meta: ModelMeta,
    ) -> Result<Self> {
        let d = weights.dim();
        let square = match &weights {
            WeightMatrix::Dense(m) => m.rows() == m.cols(),
            WeightMatrix::Sparse(m) => m.rows() == m.cols(),
        };
        if !square {
            return Err(ServeError::Malformed("weight matrix is not square".into()));
        }
        if intercepts.len() != d || noise_vars.len() != d {
            return Err(ServeError::Malformed(format!(
                "parameter lengths (intercepts {}, noise {}) do not match d = {d}",
                intercepts.len(),
                noise_vars.len()
            )));
        }
        // A NaN weight would silently drop its edge (parent lists keep
        // `|w| > tol`) and an infinite one would turn answers into inf/NaN.
        let weights_finite = match &weights {
            WeightMatrix::Dense(m) => m.as_slice().iter().all(|v| v.is_finite()),
            WeightMatrix::Sparse(m) => m.values().iter().all(|v| v.is_finite()),
        };
        if !weights_finite {
            return Err(ServeError::Malformed("weights must be finite".into()));
        }
        // Finite intercepts also let inference skip the exact-zero terms of
        // nodes outside a query's closure (`query` module doc).
        if intercepts.iter().any(|v| !v.is_finite()) {
            return Err(ServeError::Malformed("intercepts must be finite".into()));
        }
        if noise_vars.iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(ServeError::Malformed(
                "noise variances must be finite and non-negative".into(),
            ));
        }
        Ok(Self {
            meta,
            weights,
            intercepts,
            noise_vars,
        })
    }

    /// Package a [`FittedSem`] (per-node OLS on a learned structure) as a
    /// dense-backend artifact.
    pub fn from_fitted(sem: &FittedSem, threshold: f64, fingerprint: &str) -> Result<Self> {
        Self::new(
            WeightMatrix::Dense(sem.weights().clone()),
            sem.intercepts().to_vec(),
            sem.noise_variances().to_vec(),
            ModelMeta {
                threshold,
                fingerprint: fingerprint.to_string(),
            },
        )
    }

    /// Number of variables.
    pub fn dim(&self) -> usize {
        self.weights.dim()
    }

    /// Serialize to the versioned byte format, checksum included.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.dim() * 16);
        out.extend_from_slice(MAGIC);
        write_u32(&mut out, FORMAT_VERSION);
        write_u32(
            &mut out,
            match self.weights {
                WeightMatrix::Dense(_) => 0,
                WeightMatrix::Sparse(_) => 1,
            },
        );
        write_u64(&mut out, self.dim() as u64);
        write_f64(&mut out, self.meta.threshold);
        write_u32(&mut out, self.meta.fingerprint.len() as u32);
        out.extend_from_slice(self.meta.fingerprint.as_bytes());
        write_f64_slice(&mut out, &self.intercepts);
        write_f64_slice(&mut out, &self.noise_vars);
        match &self.weights {
            WeightMatrix::Dense(m) => write_dense(&mut out, m),
            WeightMatrix::Sparse(m) => write_csr(&mut out, m),
        }
        let checksum = fnv1a64(&out);
        write_u64(&mut out, checksum);
        out
    }

    /// Deserialize and validate a byte stream produced by
    /// [`Self::to_bytes`]. Checks magic, version, checksum, payload
    /// consistency, and that the declared backend matches the payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 8 {
            return Err(ServeError::Malformed(
                "shorter than the fixed header".into(),
            ));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(ServeError::BadMagic);
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(ServeError::ChecksumMismatch { stored, computed });
        }
        let mut r = ByteReader::new(&body[MAGIC.len()..]);
        let version = r.read_u32().map_err(malformed)?;
        if version != FORMAT_VERSION {
            return Err(ServeError::UnsupportedVersion(version));
        }
        let backend = r.read_u32().map_err(malformed)?;
        let d = r.read_u64().map_err(malformed)? as usize;
        let threshold = r.read_f64().map_err(malformed)?;
        let fp_len = r.read_u32().map_err(malformed)? as usize;
        let fingerprint = String::from_utf8(r.read_bytes(fp_len).map_err(malformed)?.to_vec())
            .map_err(|_| ServeError::Malformed("fingerprint is not valid utf-8".into()))?;
        let intercepts = r.read_f64_vec(d).map_err(malformed)?;
        let noise_vars = r.read_f64_vec(d).map_err(malformed)?;
        let weights = match backend {
            0 => WeightMatrix::Dense(read_dense(&mut r).map_err(malformed)?),
            1 => WeightMatrix::Sparse(read_csr(&mut r).map_err(malformed)?),
            tag => return Err(ServeError::Malformed(format!("unknown backend tag {tag}"))),
        };
        if r.remaining() != 0 {
            return Err(ServeError::Malformed(format!(
                "{} trailing bytes after the payload",
                r.remaining()
            )));
        }
        if weights.dim() != d {
            return Err(ServeError::Malformed(format!(
                "declared d = {d} does not match weight matrix dimension {}",
                weights.dim()
            )));
        }
        Self::new(
            weights,
            intercepts,
            noise_vars,
            ModelMeta {
                threshold,
                fingerprint,
            },
        )
    }

    /// Write the artifact to a file.
    pub fn save_to_path(&self, path: impl AsRef<Path>) -> Result<()> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Read and validate an artifact from a file.
    pub fn load_from_path(path: impl AsRef<Path>) -> Result<Self> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

fn malformed(e: least_linalg::LinalgError) -> ServeError {
    ServeError::Malformed(e.to_string())
}

/// The workspace-shared FNV-1a 64-bit integrity hash (re-exported here for
/// the artifact format's historical call sites; the implementation now
/// lives with the rest of the codec in `least_linalg::serialize`).
pub use least_linalg::serialize::fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;
    use least_linalg::Coo;

    fn dense_artifact() -> ModelArtifact {
        let mut w = DenseMatrix::zeros(3, 3);
        w[(0, 1)] = 1.5;
        w[(1, 2)] = -0.75;
        ModelArtifact::new(
            WeightMatrix::Dense(w),
            vec![0.1, -0.0, f64::MIN_POSITIVE],
            vec![1.0, 0.5, 2.0],
            ModelMeta {
                threshold: 0.3,
                fingerprint: "least-dense seed=7 λ=0.1".into(),
            },
        )
        .unwrap()
    }

    fn sparse_artifact() -> ModelArtifact {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 3, -1.25).unwrap();
        coo.push(2, 3, 0.5).unwrap();
        ModelArtifact::new(
            WeightMatrix::Sparse(coo.to_csr()),
            vec![0.0; 4],
            vec![1.0; 4],
            ModelMeta {
                threshold: 0.1,
                fingerprint: "least-sparse".into(),
            },
        )
        .unwrap()
    }

    #[test]
    fn dense_round_trip_is_bit_exact() {
        let a = dense_artifact();
        let bytes = a.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "resave must reproduce the stream");
        assert_eq!(back.meta, a.meta);
        let (WeightMatrix::Dense(orig), WeightMatrix::Dense(reloaded)) =
            (&a.weights, &back.weights)
        else {
            panic!("backend changed");
        };
        for (x, y) in orig.as_slice().iter().zip(reloaded.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn sparse_round_trip_is_bit_exact() {
        let a = sparse_artifact();
        let bytes = a.to_bytes();
        let back = ModelArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.weights.backend(), "csr");
        assert_eq!(back.weights.nnz(), 3);
    }

    #[test]
    fn checksum_catches_every_single_byte_flip_in_header() {
        let bytes = dense_artifact().to_bytes();
        for pos in 0..bytes.len().min(64) {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                ModelArtifact::from_bytes(&corrupt).is_err(),
                "flip at byte {pos} accepted"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = sparse_artifact().to_bytes();
        for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
            assert!(ModelArtifact::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn wrong_magic_and_version_are_distinct_errors() {
        let mut bytes = dense_artifact().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ModelArtifact::from_bytes(&bytes),
            Err(ServeError::BadMagic)
        ));

        let mut versioned = dense_artifact().to_bytes();
        versioned[8] = 99; // version field; fix the checksum up.
        let n = versioned.len();
        let sum = fnv1a64(&versioned[..n - 8]);
        versioned[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            ModelArtifact::from_bytes(&versioned),
            Err(ServeError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn file_round_trip() {
        let a = sparse_artifact();
        let path = std::env::temp_dir().join("least_serve_artifact_test.bin");
        a.save_to_path(&path).unwrap();
        let back = ModelArtifact::load_from_path(&path).unwrap();
        assert_eq!(back, a);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validation_rejects_inconsistent_parameters() {
        let w = WeightMatrix::Dense(DenseMatrix::zeros(3, 3));
        let meta = ModelMeta {
            threshold: 0.0,
            fingerprint: String::new(),
        };
        assert!(ModelArtifact::new(w.clone(), vec![0.0; 2], vec![1.0; 3], meta.clone()).is_err());
        assert!(ModelArtifact::new(w.clone(), vec![0.0; 3], vec![-1.0; 3], meta.clone()).is_err());
        assert!(ModelArtifact::new(w, vec![0.0; 3], vec![f64::NAN; 3], meta).is_err());
    }

    #[test]
    fn validation_rejects_non_finite_intercepts() {
        let meta = ModelMeta {
            threshold: 0.0,
            fingerprint: String::new(),
        };
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let w = WeightMatrix::Dense(DenseMatrix::zeros(2, 2));
            let err = ModelArtifact::new(w, vec![0.0, bad], vec![1.0; 2], meta.clone());
            assert!(matches!(err, Err(ServeError::Malformed(_))), "{bad}");
        }
    }

    #[test]
    fn validation_rejects_non_finite_weights() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut dense = dense_artifact();
            let WeightMatrix::Dense(w) = &mut dense.weights else {
                unreachable!()
            };
            w[(0, 1)] = bad;
            let mut sparse = sparse_artifact();
            let WeightMatrix::Sparse(w) = &mut sparse.weights else {
                unreachable!()
            };
            w.values_mut()[1] = bad;
            for a in [dense, sparse] {
                let backend = a.weights.backend();
                let direct = ModelArtifact::new(
                    a.weights.clone(),
                    a.intercepts.clone(),
                    a.noise_vars.clone(),
                    a.meta.clone(),
                );
                assert!(
                    matches!(direct, Err(ServeError::Malformed(_))),
                    "{backend} {bad}: new accepted it"
                );
                // A stream with a valid checksum around the bad weight.
                let loaded = ModelArtifact::from_bytes(&a.to_bytes());
                assert!(
                    matches!(loaded, Err(ServeError::Malformed(_))),
                    "{backend} {bad}: from_bytes accepted it"
                );
            }
        }
    }

    #[test]
    fn fnv_vector() {
        // Known FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
