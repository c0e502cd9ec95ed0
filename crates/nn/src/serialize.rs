//! Checkpointing building blocks: extract and restore parameter
//! values for any [`Layer`] tree, and the crash-safe on-disk container
//! every checkpoint is stored in.
//!
//! Layers are trait objects, so instead of serializing whole layers we
//! capture an ordered *state dict* of parameter values. Restoring walks
//! the same parameter order and verifies shapes. Gradients are never
//! stored (every training step zeroes them before `backward`), and the
//! optimizer state a resume needs lives in
//! [`crate::optim::AdamState`]. The one on-disk artifact that combines
//! them is `selective::CheckpointBundle`.
//!
//! # On-disk container format (v2)
//!
//! Checkpoints are the long-lived asset a serving fleet trusts on
//! disk, so `selective::CheckpointBundle::save` writes a
//! self-validating container through [`save_json_container`] and
//! [`atomic_write`] — a crash at any instant leaves either the complete
//! old file or the complete new file, never a torn hybrid:
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"WMSERL2\0"
//! 8       4     container version (u32 LE, currently 2)
//! 12      8     payload length     (u64 LE)
//! 20      4     CRC32 of payload   (u32 LE, IEEE polynomial)
//! 24      n     payload            (JSON of the serialized value)
//! ```
//!
//! [`read_container`] verifies the magic, version, length, and
//! checksum before a single payload byte is parsed, and classifies
//! every failure as a typed [`LoadError`] — [`LoadError::Truncated`],
//! [`LoadError::ChecksumMismatch`], [`LoadError::UnsupportedVersion`],
//! or [`LoadError::Malformed`] — never a panic and never a
//! silently-wrong value. A file that does not begin with the magic is
//! [`LoadError::Malformed`].

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::{Layer, Param, Tensor};

/// Magic bytes opening every v2 serialization container.
pub const CONTAINER_MAGIC: [u8; 8] = *b"WMSERL2\0";

/// Container layout version written by [`write_container`], and the
/// only one [`read_container`] accepts.
///
/// Version history:
/// - **1** — bare JSON with no header; no longer read.
/// - **2** — magic + version + payload length + CRC32 header, written
///   atomically.
pub const CONTAINER_FORMAT_VERSION: u32 = 2;

/// Size of the fixed v2 container header in bytes.
pub const CONTAINER_HEADER_LEN: usize = 24;

// ---------------------------------------------------------------------------
// CRC32 + atomic writes
// ---------------------------------------------------------------------------

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC32 (IEEE 802.3 polynomial) of `bytes` — the checksum stored in
/// and verified against the v2 container header.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Write `bytes` to `path` crash-safely: the bytes go to a temporary
/// sibling file first, are fsynced, and the temporary is renamed over
/// `path` (a single atomic filesystem operation on POSIX). The
/// containing directory is fsynced afterwards so the rename itself is
/// durable. A crash at any point leaves either the old file or the
/// new file — never a partial write under the final name.
///
/// # Errors
///
/// Propagates filesystem errors; the temporary file is removed on
/// failure (best effort).
pub fn atomic_write<P: AsRef<Path>>(path: P, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write;

    let path = path.as_ref();
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf);
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("path {} has no file name", path.display()),
            )
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let tmp_path = dir.join(tmp_name);

    let result = (|| -> std::io::Result<()> {
        let mut tmp = std::fs::File::create(&tmp_path)?;
        tmp.write_all(bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, path)?;
        // Make the rename durable. Directory fsync is a POSIX-ism;
        // where directories cannot be opened (e.g. Windows) the rename
        // is already as durable as the platform offers.
        if let Ok(dir_handle) = std::fs::File::open(&dir) {
            let _ = dir_handle.sync_all();
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

// ---------------------------------------------------------------------------
// Typed load errors
// ---------------------------------------------------------------------------

/// Why a checkpoint artifact could not be loaded. Every corruption
/// mode maps to a variant — loading garbage is an error, never a
/// panic and never a silently mis-parsed value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The underlying filesystem read failed (file missing, permission
    /// denied, interrupted, …). The original error is summarized by
    /// kind and message so `LoadError` stays comparable in tests.
    Io {
        /// Kind of the underlying I/O error.
        kind: std::io::ErrorKind,
        /// Display form of the underlying error.
        message: String,
    },
    /// The file ends before the container header or the declared
    /// payload — the classic torn write.
    Truncated {
        /// Bytes the container declares (or minimally requires).
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload bytes do not hash to the checksum in the header —
    /// silent corruption between write and read.
    ChecksumMismatch {
        /// CRC32 stored in the header.
        expected: u32,
        /// CRC32 of the payload as read.
        found: u32,
    },
    /// The container layout version, or the schema version of the
    /// artifact inside it, is one this build does not read.
    UnsupportedVersion {
        /// Version found in the file.
        found: u32,
        /// Newest version this build reads.
        supported: u32,
    },
    /// The bytes passed every structural check but do not parse as
    /// the expected value (bad JSON, wrong schema, trailing garbage).
    Malformed(String),
}

impl LoadError {
    fn malformed_json(e: impl fmt::Display) -> Self {
        LoadError::Malformed(format!("payload is not valid JSON for the expected type: {e}"))
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io { kind: e.kind(), message: e.to_string() }
    }
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io { kind, message } => write!(f, "i/o error ({kind:?}): {message}"),
            LoadError::Truncated { expected, found } => {
                write!(f, "file truncated: {found} bytes present, {expected} expected")
            }
            LoadError::ChecksumMismatch { expected, found } => write!(
                f,
                "payload checksum mismatch: header says {expected:#010x}, payload hashes to \
                 {found:#010x}"
            ),
            LoadError::UnsupportedVersion { found, supported } => {
                write!(f, "unsupported format version {found} (this build reads <= {supported})")
            }
            LoadError::Malformed(why) => write!(f, "malformed file: {why}"),
        }
    }
}

impl std::error::Error for LoadError {}

// ---------------------------------------------------------------------------
// Container read/write
// ---------------------------------------------------------------------------

/// Wrap `payload` in a v2 container (magic, version, length, CRC32)
/// and write it to `path` through [`atomic_write`].
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_container<P: AsRef<Path>>(path: P, payload: &[u8]) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(CONTAINER_HEADER_LEN + payload.len());
    bytes.extend_from_slice(&CONTAINER_MAGIC);
    bytes.extend_from_slice(&CONTAINER_FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    atomic_write(path, &bytes)
}

/// Read a serialization container written by [`write_container`] and
/// return its payload (the JSON of the serialized value).
///
/// Validation order: magic → container version → declared length →
/// checksum. The payload is returned only once every check passes, so
/// a caller never parses bytes the header does not vouch for.
///
/// # Errors
///
/// [`LoadError::Io`] for filesystem failures, [`LoadError::Truncated`]
/// when the file ends early (including mid-magic),
/// [`LoadError::Malformed`] when it does not open with
/// [`CONTAINER_MAGIC`] or runs past the declared payload, and
/// [`LoadError::UnsupportedVersion`] / [`LoadError::ChecksumMismatch`]
/// for the corresponding header violations.
pub fn read_container<P: AsRef<Path>>(path: P) -> Result<Vec<u8>, LoadError> {
    let mut bytes = std::fs::read(path)?;
    // A prefix of the magic is a container cut mid-header; the empty
    // file is one too.
    let magic = bytes.len().min(CONTAINER_MAGIC.len());
    if bytes[..magic] != CONTAINER_MAGIC[..magic] {
        return Err(LoadError::Malformed("file does not start with the container magic".into()));
    }
    if bytes.len() < CONTAINER_HEADER_LEN {
        return Err(LoadError::Truncated {
            expected: CONTAINER_HEADER_LEN as u64,
            found: bytes.len() as u64,
        });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 header bytes"));
    if version != CONTAINER_FORMAT_VERSION {
        return Err(LoadError::UnsupportedVersion {
            found: version,
            supported: CONTAINER_FORMAT_VERSION,
        });
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 header bytes"));
    let expected_total = (CONTAINER_HEADER_LEN as u64).saturating_add(payload_len);
    let found_total = bytes.len() as u64;
    if found_total < expected_total {
        return Err(LoadError::Truncated { expected: expected_total, found: found_total });
    }
    if found_total > expected_total {
        return Err(LoadError::Malformed(format!(
            "{} trailing bytes after the declared payload",
            found_total - expected_total
        )));
    }
    let stored_crc = u32::from_le_bytes(bytes[20..24].try_into().expect("4 header bytes"));
    let actual_crc = crc32(&bytes[CONTAINER_HEADER_LEN..]);
    if stored_crc != actual_crc {
        return Err(LoadError::ChecksumMismatch { expected: stored_crc, found: actual_crc });
    }
    bytes.drain(..CONTAINER_HEADER_LEN);
    Ok(bytes)
}

/// Serialize `value` as JSON and write it to `path` inside a v2
/// container, atomically — the save path of
/// `selective::CheckpointBundle`.
///
/// # Errors
///
/// Propagates serialization and filesystem errors.
pub fn save_json_container<P: AsRef<Path>, T: Serialize + ?Sized>(
    path: P,
    value: &T,
) -> Result<(), std::io::Error> {
    let json = serde_json::to_string(value).map_err(std::io::Error::other)?;
    write_container(path, json.as_bytes())
}

/// Load a JSON value from the v2 container at `path` — the load path
/// of `selective::CheckpointBundle`.
///
/// # Errors
///
/// Every structural violation surfaces as the corresponding typed
/// [`LoadError`] from [`read_container`]; payloads that clear the
/// header checks but fail to parse are [`LoadError::Malformed`].
pub fn load_json_container<P: AsRef<Path>, T: Deserialize>(path: P) -> Result<T, LoadError> {
    let payload = read_container(path)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| LoadError::Malformed(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text).map_err(LoadError::malformed_json)
}

/// Check that `tensors` match the parameters of `layer` one for one,
/// in count and in shape (visit order).
pub(crate) fn check_shapes(layer: &mut dyn Layer, tensors: &[Tensor]) -> Result<(), RestoreError> {
    let mut shapes: Vec<Vec<usize>> = Vec::new();
    layer.visit_params(&mut |p: &mut Param| shapes.push(p.value.shape().to_vec()));
    if shapes.len() != tensors.len() {
        return Err(RestoreError::CountMismatch { expected: shapes.len(), found: tensors.len() });
    }
    for (index, (shape, tensor)) in shapes.into_iter().zip(tensors).enumerate() {
        if shape != tensor.shape() {
            return Err(RestoreError::ShapeMismatch {
                index,
                expected: shape,
                found: tensor.shape().to_vec(),
            });
        }
    }
    Ok(())
}

/// Ordered snapshot of every parameter value in a layer tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDict {
    entries: Vec<Tensor>,
}

impl StateDict {
    /// Capture the current parameter values of `layer` in visitation
    /// order.
    #[must_use]
    pub fn capture(layer: &mut dyn Layer) -> Self {
        let mut entries = Vec::new();
        layer.visit_params(&mut |p: &mut Param| entries.push(p.value.clone()));
        StateDict { entries }
    }

    /// Number of parameters captured.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Restore this snapshot's values into `layer`. Gradients are left
    /// as they are.
    ///
    /// # Errors
    ///
    /// Returns [`RestoreError`] if the parameter count or any shape
    /// does not match the target layer; `layer` is then unchanged.
    pub fn restore(&self, layer: &mut dyn Layer) -> Result<(), RestoreError> {
        check_shapes(layer, &self.entries)?;
        let mut entries = self.entries.iter();
        layer.visit_params(&mut |p: &mut Param| {
            p.value.data_mut().copy_from_slice(entries.next().expect("count checked").data());
        });
        Ok(())
    }

    /// The parameter values, in visitation order.
    #[must_use]
    pub fn values(&self) -> Vec<&Tensor> {
        self.entries.iter().collect()
    }
}

/// Error restoring a [`StateDict`] (or checking optimizer moments)
/// against an incompatible layer tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot holds a different number of tensors than the layer
    /// has parameters.
    CountMismatch {
        /// Parameters in the target layer.
        expected: usize,
        /// Parameters in the snapshot.
        found: usize,
    },
    /// A parameter's shape disagrees.
    ShapeMismatch {
        /// Parameter index in visitation order.
        index: usize,
        /// Shape in the target layer.
        expected: Vec<usize>,
        /// Shape in the snapshot.
        found: Vec<usize>,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::CountMismatch { expected, found } => {
                write!(f, "snapshot has {found} tensors, layer has {expected} params")
            }
            RestoreError::ShapeMismatch { index, expected, found } => {
                write!(f, "param {index} shape mismatch: layer {expected:?} vs snapshot {found:?}")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;
    use crate::layers::{Linear, Relu};
    use crate::Sequential;

    fn temp_path(dir_tag: &str, file: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(dir_tag);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        dir.join(file)
    }

    #[test]
    fn capture_restore_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Relu::new());
        let snap = StateDict::capture(&mut a);
        assert_eq!(snap.len(), 2);

        let mut b = Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Relu::new());
        snap.restore(&mut b).expect("compatible shapes");
        let x = Tensor::randn(&[2, 4], 1.0, &mut rng);
        assert_eq!(a.forward(&x).data(), b.forward(&x).data());
    }

    #[test]
    fn restore_rejects_wrong_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng));
        let snap = StateDict::capture(&mut a);
        let mut b =
            Sequential::new().with(Linear::new(4, 3, &mut rng)).with(Linear::new(3, 2, &mut rng));
        assert!(matches!(snap.restore(&mut b), Err(RestoreError::CountMismatch { .. })));
    }

    #[test]
    fn restore_rejects_wrong_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut a = Sequential::new().with(Linear::new(4, 3, &mut rng));
        let snap = StateDict::capture(&mut a);
        let mut b = Sequential::new().with(Linear::new(5, 3, &mut rng));
        assert!(matches!(snap.restore(&mut b), Err(RestoreError::ShapeMismatch { .. })));
    }

    #[test]
    fn file_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Sequential::new().with(Linear::new(3, 2, &mut rng));
        let snap = StateDict::capture(&mut net);
        let path = temp_path("nn_statedict_test", "ckpt.bin");
        save_json_container(&path, &snap).expect("save");
        let loaded: StateDict = load_json_container(&path).expect("load");
        assert_eq!(snap, loaded);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn container_roundtrip_and_header_layout() {
        let path = temp_path("nn_container_test", "payload.bin");
        write_container(&path, b"hello payload").expect("write");
        let bytes = std::fs::read(&path).expect("read raw");
        assert_eq!(&bytes[..8], &CONTAINER_MAGIC);
        assert_eq!(bytes.len(), CONTAINER_HEADER_LEN + 13);
        assert_eq!(&bytes[8..12], &CONTAINER_FORMAT_VERSION.to_le_bytes());
        assert_eq!(read_container(&path).expect("read"), b"hello payload");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn container_corruptions_yield_typed_errors() {
        let path = temp_path("nn_container_corrupt_test", "victim.bin");
        let payload = b"{\"k\": [1, 2, 3]}";
        write_container(&path, payload).expect("write");
        let intact = std::fs::read(&path).expect("read");

        // Truncation inside the magic.
        std::fs::write(&path, &intact[..4]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // A file without the magic — e.g. bare JSON, the retired v1
        // format — is refused at the header.
        std::fs::write(&path, payload).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Malformed(_))));

        // Truncation inside the header.
        std::fs::write(&path, &intact[..CONTAINER_HEADER_LEN - 2]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // Truncation inside the payload.
        std::fs::write(&path, &intact[..intact.len() - 3]).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Truncated { .. })));

        // A flipped payload bit fails the checksum.
        let mut flipped = intact.clone();
        flipped[CONTAINER_HEADER_LEN + 2] ^= 0x10;
        std::fs::write(&path, &flipped).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::ChecksumMismatch { .. })));

        // A future container version is refused before any payload
        // parsing.
        let mut future = intact.clone();
        future[8..12].copy_from_slice(&(CONTAINER_FORMAT_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &future).expect("write");
        assert!(matches!(
            read_container(&path),
            Err(LoadError::UnsupportedVersion { supported: CONTAINER_FORMAT_VERSION, .. })
        ));

        // Trailing garbage after the declared payload.
        let mut trailing = intact.clone();
        trailing.extend_from_slice(b"junk");
        std::fs::write(&path, &trailing).expect("write");
        assert!(matches!(read_container(&path), Err(LoadError::Malformed(_))));

        // A missing file is an I/O error, not a panic.
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            read_container(&path),
            Err(LoadError::Io { kind: std::io::ErrorKind::NotFound, .. })
        ));
    }

    #[test]
    fn atomic_write_replaces_existing_content_and_leaves_no_temp() {
        let path = temp_path("nn_atomic_write_test", "target.bin");
        atomic_write(&path, b"first").expect("write 1");
        atomic_write(&path, b"second generation").expect("write 2");
        assert_eq!(std::fs::read(&path).expect("read"), b"second generation");
        let dir = path.parent().expect("parent");
        let leftovers: Vec<_> = std::fs::read_dir(dir)
            .expect("read dir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        let _ = std::fs::remove_file(&path);
    }
}
