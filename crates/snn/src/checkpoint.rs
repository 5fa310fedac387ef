//! Saving and restoring a trained network's persistent state.
//!
//! The format is a small self-describing little-endian binary: a magic
//! string, the slot count, then each slot's rank, dimensions and `f32` data
//! in [`Snn::visit_state`] order, then a 64-bit checksum (FNV-1a) of every
//! byte before it. A slot is a learnable parameter or a buffer (BatchNorm's
//! running mean and variance, stored as rank-1 tensors), so a loaded network
//! reproduces the saved one's Eval outputs bitwise. Loading validates the
//! whole file — magic, counts, ranks, sizes, checksum and shapes — against
//! the receiving network before touching a single value,
//! and every failure mode is a typed [`CheckpointError`] (never a panic,
//! never a half-restored network), so callers can distinguish a corrupted
//! file from an architecture mismatch. A damaged value byte is caught by the
//! checksum: without it, a flipped value loaded as a silently different
//! network.

use crate::layer::State;
use crate::network::Snn;
use crate::{Result, SnnError};
use std::fmt;
use std::io::{Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"DTSNN03\n";
/// The second format's magic: the same body, no checksum.
const MAGIC_V2: &[u8; 8] = b"DTSNN02\n";
/// The first format's magic: parameters only, no running statistics.
const MAGIC_V1: &[u8; 8] = b"DTSNN01\n";
/// Bytes of the trailing checksum.
const CHECKSUM_LEN: usize = 8;
/// Ranks above this are treated as corruption, not data.
const MAX_RANK: usize = 8;

/// Typed failure modes of checkpoint I/O. Corrupted, truncated and hostile
/// files all map to a precise variant; loading never panics and never
/// allocates based on unvalidated sizes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The underlying filesystem operation failed.
    Io {
        /// Operation that failed (`"create"`, `"write"`, `"open"`, `"read"`).
        op: &'static str,
        /// The OS error rendered as text.
        message: String,
    },
    /// The file does not start with the DT-SNN checkpoint magic.
    BadMagic,
    /// The file is a first-format (`DTSNN01`) checkpoint. It stores the
    /// parameters only, and without BatchNorm's running statistics it cannot
    /// restore the saved network's Eval behaviour.
    MissingNormStats,
    /// The file is a second-format (`DTSNN02`) checkpoint. It carries no
    /// checksum, so damage to its values cannot be detected; re-save the
    /// network.
    MissingChecksum,
    /// The trailing checksum disagrees with the bytes before it: the file
    /// was damaged after it was written.
    ChecksumMismatch {
        /// The checksum stored in the file.
        stored: u64,
        /// The checksum of the bytes as read.
        computed: u64,
    },
    /// The file ends before the declared data (or the checksum after it)
    /// does.
    Truncated {
        /// Byte offset at which the read was attempted.
        offset: usize,
        /// Bytes the decoder needed there.
        needed: usize,
        /// Bytes actually available: in the whole file for the checksum,
        /// before the checksum for the slots.
        available: usize,
    },
    /// A slot declares a rank beyond anything the tensor library
    /// produces — corruption, not a real shape.
    ImplausibleRank {
        /// Slot index within the checkpoint.
        param: usize,
        /// The declared rank.
        rank: usize,
    },
    /// A slot's declared dimensions overflow when multiplied — a
    /// hostile or corrupted size field, rejected before any allocation.
    OversizedTensor {
        /// Slot index within the checkpoint.
        param: usize,
        /// The declared dimensions.
        dims: Vec<usize>,
    },
    /// Decoding consumed the declared slots but bytes remain — the
    /// file does not parse as exactly one checkpoint.
    TrailingBytes {
        /// Unconsumed bytes after the last slot.
        extra: usize,
    },
    /// The checkpoint stores a different number of state slots than the
    /// receiving network owns.
    ParamCountMismatch {
        /// Slots in the checkpoint.
        checkpoint: usize,
        /// Slots in the network.
        network: usize,
    },
    /// A slot's stored shape disagrees with the receiving network's —
    /// restoring into a different architecture.
    ShapeMismatch {
        /// Slot index ([`Snn::visit_state`] order).
        param: usize,
        /// Shape stored in the checkpoint.
        checkpoint: Vec<usize>,
        /// Shape the network expects.
        network: Vec<usize>,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { op, message } => {
                write!(f, "checkpoint {op} failed: {message}")
            }
            CheckpointError::BadMagic => write!(f, "not a DT-SNN checkpoint (bad magic)"),
            CheckpointError::MissingNormStats => {
                write!(f, "a DTSNN01 checkpoint stores no BatchNorm running statistics")
            }
            CheckpointError::MissingChecksum => {
                write!(f, "a DTSNN02 checkpoint carries no checksum; re-save it")
            }
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "damaged checkpoint: checksum {computed:#018x} of its bytes, {stored:#018x} stored"
            ),
            CheckpointError::Truncated { offset, needed, available } => write!(
                f,
                "truncated checkpoint: needed {needed} bytes at offset {offset}, {available} in file"
            ),
            CheckpointError::ImplausibleRank { param, rank } => {
                write!(f, "parameter {param}: implausible tensor rank {rank}")
            }
            CheckpointError::OversizedTensor { param, dims } => {
                write!(f, "parameter {param}: dimensions {dims:?} overflow the address space")
            }
            CheckpointError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the last parameter")
            }
            CheckpointError::ParamCountMismatch { checkpoint, network } => write!(
                f,
                "checkpoint has {checkpoint} state slots, network has {network}"
            ),
            CheckpointError::ShapeMismatch { param, checkpoint, network } => write!(
                f,
                "parameter {param}: checkpoint shape {checkpoint:?} vs network {network:?}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// A slot's stored shape and its values: a parameter's tensor, or a buffer
/// as a rank-1 tensor.
fn slot(state: State<'_>) -> (Vec<usize>, &mut [f32]) {
    match state {
        State::Param(p) => (p.value.dims().to_vec(), p.value.data_mut()),
        State::Buffer(b) => (vec![b.len()], b),
    }
}

/// The 64-bit FNV-1a hash of `bytes`: every byte changes the state through a
/// bijection, so any one damaged byte changes the result.
fn checksum(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Serializes every persistent-state slot of `network` to `path`.
///
/// # Errors
///
/// Returns [`SnnError::Checkpoint`] wrapping [`CheckpointError::Io`] on any
/// filesystem failure.
pub fn save_params(network: &mut Snn, path: impl AsRef<Path>) -> Result<()> {
    let mut blob: Vec<u8> = Vec::new();
    blob.extend_from_slice(MAGIC);
    let mut count: u32 = 0;
    network.visit_state(&mut |_| count += 1);
    blob.extend_from_slice(&count.to_le_bytes());
    network.visit_state(&mut |s| {
        let (dims, data) = slot(s);
        blob.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for d in dims {
            blob.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in data.iter() {
            blob.extend_from_slice(&v.to_le_bytes());
        }
    });
    blob.extend_from_slice(&checksum(&blob).to_le_bytes());
    let io = |op: &'static str| {
        move |e: std::io::Error| {
            SnnError::Checkpoint(CheckpointError::Io { op, message: e.to_string() })
        }
    };
    let mut file = std::fs::File::create(path.as_ref()).map_err(io("create"))?;
    file.write_all(&blob).map_err(io("write"))?;
    Ok(())
}

/// Restores the state saved by [`save_params`] into `network`.
///
/// The entire file is validated before any value is written — its
/// structure, then its checksum, then its shapes against `network` — so on
/// error the network is untouched.
///
/// # Errors
///
/// Returns [`SnnError::Checkpoint`] with the precise [`CheckpointError`]
/// variant: `Io` for filesystem failures, `MissingNormStats` for a
/// first-format file, `MissingChecksum` for a second-format one,
/// `ChecksumMismatch` for a damaged file, `BadMagic`/`Truncated`/
/// `ImplausibleRank`/`OversizedTensor`/`TrailingBytes` for malformed files,
/// `ParamCountMismatch`/`ShapeMismatch` for architecture disagreements.
pub fn load_params(network: &mut Snn, path: impl AsRef<Path>) -> Result<()> {
    let mut blob = Vec::new();
    let io = |op: &'static str| {
        move |e: std::io::Error| {
            SnnError::Checkpoint(CheckpointError::Io { op, message: e.to_string() })
        }
    };
    std::fs::File::open(path.as_ref())
        .map_err(io("open"))?
        .read_to_end(&mut blob)
        .map_err(io("read"))?;
    let mut cursor = Cursor { blob: &blob, pos: 0 };
    match cursor.take(MAGIC.len())? {
        m if m == MAGIC => {}
        m if m == MAGIC_V2 => return Err(CheckpointError::MissingChecksum.into()),
        m if m == MAGIC_V1 => return Err(CheckpointError::MissingNormStats.into()),
        _ => return Err(CheckpointError::BadMagic.into()),
    }
    // the slots end where the checksum starts: a file cut short reports
    // the slot it cuts into as `Truncated`
    let body_len = blob.len().checked_sub(CHECKSUM_LEN).filter(|&n| n >= MAGIC.len()).ok_or(
        CheckpointError::Truncated {
            offset: MAGIC.len(),
            needed: CHECKSUM_LEN,
            available: blob.len(),
        },
    )?;
    let (body, stored) = blob.split_at(body_len);
    let mut cursor = Cursor { blob: body, pos: MAGIC.len() };
    let count = cursor.u32()? as usize;
    let mut expected = 0usize;
    network.visit_state(&mut |_| expected += 1);
    if count != expected {
        return Err(
            CheckpointError::ParamCountMismatch { checkpoint: count, network: expected }.into()
        );
    }
    // decode every slot first so a truncated file cannot leave the network
    // half-restored
    let mut decoded: Vec<(Vec<usize>, Vec<f32>)> = Vec::with_capacity(count);
    for param in 0..count {
        let rank = cursor.u32()? as usize;
        if rank > MAX_RANK {
            return Err(CheckpointError::ImplausibleRank { param, rank }.into());
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(cursor.u32()? as usize);
        }
        // size fields are untrusted: reject overflow before computing a byte
        // count, and locate the bytes before allocating for them
        let n = dims
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .and_then(|n| n.checked_mul(4).map(|_| n))
            .ok_or(CheckpointError::OversizedTensor { param, dims: dims.clone() })?;
        let bytes = cursor.take(n * 4)?;
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        decoded.push((dims, data));
    }
    if cursor.pos != body.len() {
        return Err(CheckpointError::TrailingBytes { extra: body.len() - cursor.pos }.into());
    }
    // well-formed, but a damaged value byte would still decode
    let stored = u64::from_le_bytes(stored.try_into().expect("CHECKSUM_LEN bytes"));
    let computed = checksum(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed }.into());
    }
    // shape check against the live network
    let mut idx = 0;
    let mut shape_err: Option<CheckpointError> = None;
    network.visit_state(&mut |s| {
        if shape_err.is_some() {
            return;
        }
        let (dims, _) = &decoded[idx];
        let (network_dims, _) = slot(s);
        if network_dims != *dims {
            shape_err = Some(CheckpointError::ShapeMismatch {
                param: idx,
                checkpoint: dims.clone(),
                network: network_dims,
            });
        }
        idx += 1;
    });
    if let Some(e) = shape_err {
        return Err(e.into());
    }
    // commit
    let mut idx = 0;
    network.visit_state(&mut |s| {
        slot(s).1.copy_from_slice(&decoded[idx].1);
        idx += 1;
    });
    Ok(())
}

struct Cursor<'a> {
    blob: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> std::result::Result<&[u8], CheckpointError> {
        if self.pos.checked_add(n).is_none_or(|end| end > self.blob.len()) {
            return Err(CheckpointError::Truncated {
                offset: self.pos,
                needed: n,
                available: self.blob.len(),
            });
        }
        let s = &self.blob[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> std::result::Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear};
    use crate::lif::{LifConfig, LifNeuron};
    use crate::Mode;
    use dtsnn_tensor::{Tensor, TensorRng};

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dtsnn-ckpt-{name}-{}", std::process::id()))
    }

    fn net(seed: u64) -> Snn {
        let mut rng = TensorRng::seed_from(seed);
        Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 6, &mut rng)),
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(6, 3, &mut rng)),
        ])
    }

    fn params(net: &mut Snn) -> Vec<Tensor> {
        let mut out = Vec::new();
        net.visit_params(&mut |p| out.push(p.value.clone()));
        out
    }

    /// `body` (magic and slots) with its checksum appended: a well-formed
    /// file of whatever the body says.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = checksum(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    /// Unwraps the checkpoint variant or panics with the actual error.
    fn checkpoint_err(r: Result<()>) -> CheckpointError {
        match r {
            Err(SnnError::Checkpoint(e)) => e,
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_restores_behaviour() {
        let path = tmp("roundtrip");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut b = net(2); // different init
        let x = Tensor::randn(&[1, 1, 2, 2], 0.5, 0.5, &mut TensorRng::seed_from(3));
        let before = b.forward_timestep(&x, Mode::Eval).unwrap();
        b.reset_state();
        load_params(&mut b, &path).unwrap();
        let after = b.forward_timestep(&x, Mode::Eval).unwrap();
        b.reset_state();
        let mut a2 = net(99);
        load_params(&mut a2, &path).unwrap();
        let reference = a2.forward_timestep(&x, Mode::Eval).unwrap();
        assert_ne!(before, after, "load must change a differently-initialized net");
        assert_eq!(after, reference, "restored nets must agree");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_wrong_architecture_with_shape_mismatch() {
        let path = tmp("wrong-arch");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut rng = TensorRng::seed_from(4);
        let mut other = Snn::from_layers(vec![
            Box::new(Flatten::new()),
            Box::new(Linear::new(4, 8, &mut rng)), // different width
            Box::new(LifNeuron::new(LifConfig::default())),
            Box::new(Linear::new(8, 3, &mut rng)),
        ]);
        let before = params(&mut other);
        match checkpoint_err(load_params(&mut other, &path)) {
            CheckpointError::ShapeMismatch { param, checkpoint, network } => {
                assert_eq!(param, 0);
                assert_eq!(checkpoint, vec![6, 4]);
                assert_eq!(network, vec![8, 4]);
            }
            e => panic!("wrong variant: {e:?}"),
        }
        assert_eq!(before, params(&mut other), "failed load must not touch the network");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let mut a = net(1);
        match checkpoint_err(load_params(&mut a, "/nonexistent/dir/ckpt.bin")) {
            CheckpointError::Io { op, .. } => assert_eq!(op, "open"),
            e => panic!("wrong variant: {e:?}"),
        }
    }

    #[test]
    fn garbage_is_bad_magic() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let mut a = net(1);
        assert_eq!(checkpoint_err(load_params(&mut a, &path)), CheckpointError::BadMagic);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn first_format_file_is_missing_norm_stats() {
        // a complete DTSNN01 file of net(1): its parameters, nothing else
        let path = tmp("v1");
        let mut a = net(1);
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC_V1);
        let values = params(&mut a);
        blob.extend_from_slice(&(values.len() as u32).to_le_bytes());
        for v in &values {
            blob.extend_from_slice(&(v.dims().len() as u32).to_le_bytes());
            for &d in v.dims() {
                blob.extend_from_slice(&(d as u32).to_le_bytes());
            }
            for &x in v.data() {
                blob.extend_from_slice(&x.to_le_bytes());
            }
        }
        std::fs::write(&path, &blob).unwrap();
        let mut b = net(2);
        let before = params(&mut b);
        assert_eq!(checkpoint_err(load_params(&mut b, &path)), CheckpointError::MissingNormStats);
        assert_eq!(before, params(&mut b), "a rejected file must not touch the network");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn second_format_file_is_missing_checksum() {
        // a DTSNN02 file is a DTSNN03 one with the old magic and no checksum
        let path = tmp("v2");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut blob = std::fs::read(&path).unwrap();
        blob.truncate(blob.len() - CHECKSUM_LEN);
        blob[..MAGIC.len()].copy_from_slice(MAGIC_V2);
        std::fs::write(&path, &blob).unwrap();
        let mut b = net(2);
        let before = params(&mut b);
        assert_eq!(checkpoint_err(load_params(&mut b, &path)), CheckpointError::MissingChecksum);
        assert_eq!(before, params(&mut b), "a rejected file must not touch the network");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_value_is_checksum_mismatch() {
        // one flipped bit in the last value: well-formed, and a different net
        let path = tmp("flip");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut blob = std::fs::read(&path).unwrap();
        let body = blob.len() - CHECKSUM_LEN;
        let saved = checksum(&blob[..body]);
        blob[body - 1] ^= 0x01;
        std::fs::write(&path, &blob).unwrap();
        let mut b = net(2);
        let before = params(&mut b);
        let damaged =
            CheckpointError::ChecksumMismatch { stored: saved, computed: checksum(&blob[..body]) };
        assert_eq!(checkpoint_err(load_params(&mut b, &path)), damaged);
        assert_eq!(before, params(&mut b), "a rejected file must not touch the network");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn short_file_is_truncated() {
        let path = tmp("short");
        // magic + count, then nothing: the first rank read trips
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&4u32.to_le_bytes());
        std::fs::write(&path, sealed(blob)).unwrap();
        let mut a = net(1);
        match checkpoint_err(load_params(&mut a, &path)) {
            CheckpointError::Truncated { offset, needed, available } => {
                assert_eq!((offset, needed, available), (12, 4, 12));
            }
            e => panic!("wrong variant: {e:?}"),
        }
        // a file cut mid-data also reports truncation
        let mut full = Vec::new();
        let mut b = net(1);
        let path2 = tmp("cut");
        save_params(&mut b, &path2).unwrap();
        full.extend_from_slice(&std::fs::read(&path2).unwrap());
        std::fs::write(&path2, &full[..full.len() - 5]).unwrap();
        assert!(matches!(
            checkpoint_err(load_params(&mut a, &path2)),
            CheckpointError::Truncated { .. }
        ));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn absurd_rank_is_implausible() {
        let path = tmp("rank");
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&4u32.to_le_bytes()); // matches net(1)'s count
        blob.extend_from_slice(&9u32.to_le_bytes()); // rank 9 > MAX_RANK
        std::fs::write(&path, sealed(blob)).unwrap();
        let mut a = net(1);
        assert_eq!(
            checkpoint_err(load_params(&mut a, &path)),
            CheckpointError::ImplausibleRank { param: 0, rank: 9 }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overflowing_dims_are_rejected_before_allocation() {
        // a hostile size field must not trigger a huge allocation (or an
        // arithmetic overflow panic under test profiles): 4 × u32::MAX dims
        let path = tmp("oversize");
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&4u32.to_le_bytes());
        blob.extend_from_slice(&4u32.to_le_bytes()); // rank 4
        for _ in 0..4 {
            blob.extend_from_slice(&u32::MAX.to_le_bytes());
        }
        std::fs::write(&path, sealed(blob)).unwrap();
        let mut a = net(1);
        match checkpoint_err(load_params(&mut a, &path)) {
            CheckpointError::OversizedTensor { param: 0, dims } => {
                assert_eq!(dims, vec![u32::MAX as usize; 4]);
            }
            e => panic!("wrong variant: {e:?}"),
        }
        // a size that multiplies fine but exceeds the file reports Truncated
        // without allocating the declared amount first
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&4u32.to_le_bytes());
        blob.extend_from_slice(&2u32.to_le_bytes()); // rank 2
        blob.extend_from_slice(&1_000_000u32.to_le_bytes());
        blob.extend_from_slice(&1_000u32.to_le_bytes()); // 4 GB declared
        std::fs::write(&path, sealed(blob)).unwrap();
        assert!(matches!(
            checkpoint_err(load_params(&mut a, &path)),
            CheckpointError::Truncated { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_count_is_param_count_mismatch() {
        let path = tmp("count");
        let mut blob = Vec::new();
        blob.extend_from_slice(MAGIC);
        blob.extend_from_slice(&7u32.to_le_bytes());
        std::fs::write(&path, sealed(blob)).unwrap();
        let mut a = net(1);
        assert_eq!(
            checkpoint_err(load_params(&mut a, &path)),
            CheckpointError::ParamCountMismatch { checkpoint: 7, network: 4 }
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let path = tmp("trailing");
        let mut a = net(1);
        save_params(&mut a, &path).unwrap();
        let mut blob = std::fs::read(&path).unwrap();
        blob.extend_from_slice(&[0xAB; 3]);
        std::fs::write(&path, &blob).unwrap();
        let before = params(&mut a);
        assert_eq!(
            checkpoint_err(load_params(&mut a, &path)),
            CheckpointError::TrailingBytes { extra: 3 }
        );
        assert_eq!(before, params(&mut a));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_error_display_and_conversion() {
        let e = CheckpointError::ShapeMismatch {
            param: 2,
            checkpoint: vec![3, 4],
            network: vec![4, 3],
        };
        assert!(e.to_string().contains("parameter 2"));
        let wrapped = SnnError::from(e.clone());
        assert!(matches!(&wrapped, SnnError::Checkpoint(inner) if *inner == e));
        assert!(wrapped.to_string().contains("checkpoint"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }
}
