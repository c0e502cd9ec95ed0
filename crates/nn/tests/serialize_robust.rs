//! Property-based corruption tests for the v2 serialization
//! container every checkpoint bundle is stored in: whatever a crash or
//! bit rot does to the file, reading it returns a *typed*
//! [`LoadError`] — never a panic, never a silently wrong value.

use std::path::PathBuf;

use faultsim::{flip_bit_at, truncate_at};
use nn::layers::{Linear, Relu};
use nn::serialize::{
    load_json_container, read_container, save_json_container, LoadError, StateDict,
    CONTAINER_HEADER_LEN, CONTAINER_MAGIC,
};
use nn::Sequential;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_path(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join("nn_serialize_robust");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir.join(format!("{tag}_{}_{case}.json", std::process::id()))
}

fn sample_state(seed: u64, width: usize) -> StateDict {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Sequential::new().with(Linear::new(width, width + 1, &mut rng)).with(Relu::new());
    StateDict::capture(&mut net)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Save → load is the identity, for any parameter contents.
    #[test]
    fn roundtrip_is_identity(seed in any::<u64>(), width in 1usize..7) {
        let state = sample_state(seed, width);
        let path = temp_path("roundtrip", seed);
        save_json_container(&path, &state).expect("save");
        let loaded: StateDict = load_json_container(&path).expect("pristine file loads");
        prop_assert_eq!(&state, &loaded);
        let _ = std::fs::remove_file(&path);
    }

    /// Truncation anywhere — mid-magic, mid-header, mid-payload —
    /// yields a typed error, classified by how much of the container
    /// survived. It never panics and never yields a value.
    #[test]
    fn any_truncation_is_a_typed_error(seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        let state = sample_state(seed, 4);
        let path = temp_path("trunc", seed);
        save_json_container(&path, &state).expect("save");
        let len = std::fs::metadata(&path).expect("meta").len();
        let cut = ((cut_frac * len as f64) as u64).min(len - 1);
        truncate_at(&path, cut).expect("inject");
        let err = read_container(&path).expect_err("corrupted file must not load");
        let magic = CONTAINER_MAGIC.len() as u64;
        match (cut, &err) {
            // Cut inside the magic: the remaining prefix is still
            // recognized as a torn header.
            (c, LoadError::Truncated { .. }) if c < magic => {}
            (c, _) if c < magic => panic!("cut {c} in magic gave {err:?}"),
            // Cut past the magic: always Truncated, with an honest
            // byte accounting.
            (c, LoadError::Truncated { expected, found }) => {
                prop_assert_eq!(*found, c);
                prop_assert!(*expected > *found, "expected {} > found {}", expected, found);
            }
            (c, other) => panic!("cut {c} gave {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A single flipped bit anywhere in the file is always caught:
    /// the error class depends on which header region the bit hit,
    /// and a payload flip is caught by the checksum.
    #[test]
    fn any_bit_flip_is_a_typed_error(
        seed in any::<u64>(),
        offset_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let state = sample_state(seed, 4);
        let path = temp_path("flip", seed);
        save_json_container(&path, &state).expect("save");
        let len = std::fs::metadata(&path).expect("meta").len();
        let offset = ((offset_frac * len as f64) as u64).min(len - 1);
        flip_bit_at(&path, offset, bit).expect("inject");
        let err = read_container(&path).expect_err("corrupted file must not load");
        let header = CONTAINER_HEADER_LEN as u64;
        match offset {
            // Magic damaged: refused by the header check, before any
            // payload byte is parsed.
            o if o < 8 => prop_assert!(
                matches!(&err, LoadError::Malformed(why) if why.contains("magic")),
                "magic flip at {} gave {:?}", o, err
            ),
            o if o < 12 => prop_assert!(
                matches!(err, LoadError::UnsupportedVersion { .. }),
                "version flip at {} gave {:?}", o, err
            ),
            // Length field: the declared and actual sizes disagree in
            // one direction or the other.
            o if o < 20 => prop_assert!(
                matches!(err, LoadError::Truncated { .. } | LoadError::Malformed(_)),
                "length flip at {} gave {:?}", o, err
            ),
            o if o < header => prop_assert!(
                matches!(err, LoadError::ChecksumMismatch { .. }),
                "crc flip at {} gave {:?}", o, err
            ),
            o => prop_assert!(
                matches!(err, LoadError::ChecksumMismatch { .. }),
                "payload flip at {} gave {:?}", o, err
            ),
        }
        let _ = std::fs::remove_file(&path);
    }
}
