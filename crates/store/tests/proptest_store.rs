//! Property and corruption tests of the snapshot store.
//!
//! The load-bearing claims: (1) snapshot → bytes → file → restore is the
//! identity on counts, record totals, schema, spec and app state, for
//! every `ProtocolSpec` shape; (2) merging persisted snapshots sums
//! counts exactly; (3) *no* corrupt input — truncations, bit flips,
//! foreign files — ever panics or silently round-trips: every one maps to
//! a typed [`StoreError`].

use mdrr_data::{Attribute, AttributeKind, Schema};
use mdrr_protocols::{AdjustmentConfig, Clustering, ProtocolSpec, RandomizationLevel};
use mdrr_store::{crc64, merge_snapshot_files, merge_snapshots, Snapshot, Storage, StoreError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

mod format_doc;
use format_doc::{drift, layout_rows, two_channel_snapshot, Code, FORMAT_MD, POLY};

/// A small schema with 3 attributes of cardinalities 2–4.
fn schema_strategy() -> impl Strategy<Value = Schema> {
    prop::collection::vec(2usize..5, 3..4).prop_map(|cards| {
        let attrs = cards
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                Attribute::new(
                    format!("A{i}"),
                    AttributeKind::Nominal,
                    (0..c).map(|k| k.to_string()).collect(),
                )
                .unwrap()
            })
            .collect();
        Schema::new(attrs).unwrap()
    })
}

/// All four `ProtocolSpec` shapes over a 3-attribute schema.
fn all_four_specs(schema: &Schema) -> Vec<ProtocolSpec> {
    let m = schema.len();
    let level = RandomizationLevel::KeepProbability(0.6);
    vec![
        ProtocolSpec::independent(level.clone()),
        ProtocolSpec::Joint {
            level: level.clone(),
            max_domain: None,
            equivalent_risk: false,
        },
        ProtocolSpec::Clusters {
            level: level.clone(),
            clustering: Clustering::new(vec![vec![0, 1], (2..m).collect()], m).unwrap(),
            equivalent_risk: false,
        },
        ProtocolSpec::Adjusted {
            base: Box::new(ProtocolSpec::independent(level)),
            config: AdjustmentConfig::default(),
        },
    ]
}

/// Random records for a schema, from a deterministic seed.
fn records(schema: &Schema, n: usize, seed: u64) -> Vec<Vec<u32>> {
    let cards = schema.cardinalities();
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            cards
                .iter()
                .map(|&c| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) % c as u64) as u32
                })
                .collect()
        })
        .collect()
}

/// Tallies `records` through the spec's protocol into per-channel counts.
fn tally(spec: &ProtocolSpec, schema: &Schema, records: &[Vec<u32>], seed: u64) -> Vec<Vec<u64>> {
    let protocol = spec.build(schema).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts: Vec<Vec<u64>> = protocol
        .channel_sizes()
        .iter()
        .map(|&s| vec![0u64; s])
        .collect();
    for record in records {
        let codes = protocol.encode_record(record, &mut rng).unwrap();
        for (channel, &code) in counts.iter_mut().zip(codes.iter()) {
            channel[code as usize] += 1;
        }
    }
    counts
}

/// CRC-64/XZ one bit at a time, straight from the definition (reflected
/// [`POLY`], init and xorout `!0`) with no table: the oracle the
/// slice-by-16 [`crc64`] must reproduce exactly.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= u64::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// `n` pseudo-random bytes from `seed` (an LCG; only variety matters).
fn noise(n: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

fn scratch_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "mdrr-store-prop-{tag}-{}-{case}.mdrrsnap",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// snapshot → bytes → file → restore is the identity, for all four
    /// protocol spec shapes, with byte-identical counts.
    #[test]
    fn file_round_trip_is_identity(
        schema in schema_strategy(),
        n in 30usize..120,
        seed in any::<u64>(),
    ) {
        for (i, spec) in all_four_specs(&schema).iter().enumerate() {
            let counts = tally(spec, &schema, &records(&schema, n, seed), seed ^ 1);
            let mut snapshot =
                Snapshot::new(schema.clone(), spec.clone(), counts.clone(), n as u64).unwrap();
            snapshot.set_app_state(Some(format!("{{\"case\":{seed}}}")));

            // In-memory byte round trip, and determinism of the encoding.
            let bytes = snapshot.to_bytes().unwrap();
            prop_assert_eq!(&bytes, &snapshot.to_bytes().unwrap());
            let back = Snapshot::from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &snapshot);

            // Through the filesystem, with the atomic writer.
            let path = scratch_path("rt", seed.wrapping_add(i as u64));
            Storage::os().write_snapshot(&path, &snapshot).unwrap();
            let restored = Storage::os().read_snapshot(&path).unwrap();
            std::fs::remove_file(&path).ok();
            prop_assert_eq!(restored.counts(), &counts[..]);
            prop_assert_eq!(restored.n_reports(), n as u64);
            prop_assert_eq!(restored.schema(), &schema);
            prop_assert_eq!(restored.spec(), spec);
            prop_assert_eq!(restored.app_state(), snapshot.app_state());
        }
    }

    /// A k-way merge of persisted part-snapshots equals tallying the whole
    /// stream in one process: counts sum exactly, estimates match to
    /// 1e-12, for every spec that can estimate from counts.
    #[test]
    fn kway_persisted_merge_equals_single_pass(
        schema in schema_strategy(),
        n in 40usize..120,
        k in 2usize..5,
        seed in any::<u64>(),
    ) {
        let all = records(&schema, n, seed);
        for (i, spec) in all_four_specs(&schema).iter().enumerate() {
            // One logical report stream, tallied in one pass…
            let pooled_counts = tally(spec, &schema, &all, seed ^ 2);
            let pooled =
                Snapshot::new(schema.clone(), spec.clone(), pooled_counts, n as u64).unwrap();
            // …and the same randomized codes split across k "machines".
            // Encoding is per-record with one shared RNG, so tallying the
            // k chunks with checkpointed RNG hand-off means partitioning
            // the identical code stream.
            let protocol = spec.build(&schema).unwrap();
            let mut rng = StdRng::seed_from_u64(seed ^ 2);
            let chunk_size = n.div_ceil(k);
            let mut paths = Vec::new();
            for (c, chunk) in all.chunks(chunk_size).enumerate() {
                let mut counts: Vec<Vec<u64>> = protocol
                    .channel_sizes()
                    .iter()
                    .map(|&s| vec![0u64; s])
                    .collect();
                for record in chunk {
                    let codes = protocol.encode_record(record, &mut rng).unwrap();
                    for (channel, &code) in counts.iter_mut().zip(codes.iter()) {
                        channel[code as usize] += 1;
                    }
                }
                let part = Snapshot::new(
                    schema.clone(),
                    spec.clone(),
                    counts,
                    chunk.len() as u64,
                )
                .unwrap();
                let path = scratch_path("kw", seed.wrapping_add((i * 10 + c) as u64));
                Storage::os().write_snapshot(&path, &part).unwrap();
                paths.push(path);
            }
            let merged = merge_snapshot_files(&paths).unwrap();
            for path in &paths {
                std::fs::remove_file(path).ok();
            }
            prop_assert_eq!(merged.counts(), pooled.counts());
            prop_assert_eq!(merged.n_reports(), pooled.n_reports());
            // Estimates from the merged file match the single-pass
            // estimates exactly (RR-Adjustment cannot estimate from
            // counts; its typed refusal is equality too).
            match (merged.release(), pooled.release()) {
                (Ok(a), Ok(b)) => {
                    for j in 0..schema.len() {
                        let (ma, mb) = (a.marginal(j).unwrap(), b.marginal(j).unwrap());
                        for (x, y) in ma.iter().zip(mb.iter()) {
                            prop_assert!((x - y).abs() <= 1e-12);
                        }
                    }
                }
                (Err(_), Err(_)) => {
                    prop_assert!(matches!(spec, ProtocolSpec::Adjusted { .. }));
                }
                _ => prop_assert!(false, "merge changed estimability"),
            }
        }
    }

    /// Truncating a valid snapshot at any length always yields a typed
    /// error, never a panic and never a silent success.
    #[test]
    fn every_truncation_is_a_typed_error(
        schema in schema_strategy(),
        n in 10usize..40,
        seed in any::<u64>(),
    ) {
        let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.6));
        let counts = tally(&spec, &schema, &records(&schema, n, seed), seed);
        let snapshot = Snapshot::new(schema, spec, counts, n as u64).unwrap();
        let bytes = snapshot.to_bytes().unwrap();
        for cut in 0..bytes.len() {
            prop_assert!(Snapshot::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Slice-by-16 equals the bit-at-a-time definition at every length
    /// 0..=64 (empty, tail-only, one block plus every tail, several
    /// blocks) and at random lengths up to 8 KiB.
    #[test]
    fn crc64_equals_the_bitwise_definition(
        seed in any::<u64>(),
        bytes in prop::collection::vec(any::<u8>(), 0..8192),
    ) {
        let short = noise(64, seed);
        for len in 0..=short.len() {
            prop_assert_eq!(crc64(&short[..len]), crc64_bitwise(&short[..len]), "len {}", len);
        }
        prop_assert_eq!(crc64(&bytes), crc64_bitwise(&bytes));
    }

    /// The same at every start offset 0..16 into a larger buffer, so each
    /// alignment of the 16-byte blocks and every tail length is hit.
    #[test]
    fn crc64_equals_the_bitwise_definition_at_every_offset(
        bytes in prop::collection::vec(any::<u8>(), 16..600),
    ) {
        for start in 0..16 {
            let slice = &bytes[start..];
            prop_assert_eq!(crc64(slice), crc64_bitwise(slice), "start {}", start);
        }
    }
}

/// One buffer the size of a full 4096-report batch frame body (131,112
/// bytes: 8,194 blocks of 16 plus an 8-byte tail).
#[test]
fn crc64_equals_the_bitwise_definition_on_a_batch_frame_sized_buffer() {
    let mut frame = noise(131_112, 0x5EED);
    frame[..8].copy_from_slice(b"MDRRWIRE");
    assert_eq!(crc64(&frame), crc64_bitwise(&frame));
}

#[test]
fn every_single_bit_flip_is_detected() {
    let schema = Schema::new(vec![
        Attribute::indexed("A", 3).unwrap(),
        Attribute::indexed("B", 2).unwrap(),
    ])
    .unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let counts = tally(&spec, &schema, &records(&schema, 50, 9), 9);
    let snapshot = Snapshot::new(schema, spec, counts, 50).unwrap();
    let bytes = snapshot.to_bytes().unwrap();
    for i in 0..bytes.len() {
        for bit in 0..8 {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << bit;
            // CRC-64 detects every single-bit error; flips in the magic,
            // version or length fields are caught even earlier.  Either
            // way: a typed error, never a panic, never an accidental Ok.
            assert!(
                Snapshot::from_bytes(&corrupt).is_err(),
                "flip of bit {bit} at byte {i} went undetected"
            );
        }
    }
}

#[test]
fn spec_mismatch_and_overflow_are_typed_on_files() {
    let schema = Schema::new(vec![Attribute::indexed("A", 2).unwrap()]).unwrap();
    let spec_a = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let spec_b = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.5));
    let a = Snapshot::new(schema.clone(), spec_a, vec![vec![3, 1]], 4).unwrap();
    let b = Snapshot::new(schema, spec_b, vec![vec![1, 1]], 2).unwrap();
    let dir = std::env::temp_dir().join(format!("mdrr-store-mismatch-{}", std::process::id()));
    let paths = [dir.join("a.mdrrsnap"), dir.join("b.mdrrsnap")];
    Storage::os().write_snapshot(&paths[0], &a).unwrap();
    Storage::os().write_snapshot(&paths[1], &b).unwrap();
    assert!(matches!(
        merge_snapshot_files(&paths),
        Err(StoreError::SpecMismatch { .. })
    ));
    std::fs::remove_dir_all(&dir).ok();
    // In-memory sibling: overflow stays typed.
    let big = Snapshot::new(
        a.schema().clone(),
        a.spec().clone(),
        vec![vec![u64::MAX, 0]],
        u64::MAX,
    )
    .unwrap();
    assert!(matches!(
        merge_snapshots([&big, &big]),
        Err(StoreError::CountOverflow { .. })
    ));
}

/// `docs/FORMAT.md` agrees with the code on every constant, offset and
/// byte of the worked example, and is sufficient for an external reader:
/// a real two-channel snapshot hand-decodes at the offsets it gives.  On
/// a deliberate format change, the failure message prints the
/// regenerated worked-example dump to paste into the doc.  The mutation
/// suite in `rules_fire.rs` proves each field's check live.
#[test]
fn format_md_offsets_hand_decode_a_real_snapshot() {
    let drift = drift(FORMAT_MD, &Code::real());
    assert!(
        drift.is_empty(),
        "docs/FORMAT.md drifted:\n{}",
        drift.join("\n")
    );

    let (counts, bytes) = two_channel_snapshot();
    let offset = |field: &str| {
        layout_rows(FORMAT_MD)
            .into_iter()
            .find(|row| row.0 == field)
            .unwrap()
            .1
    };
    let at = offset("header length");
    let header_len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    let at = offset("header JSON");

    // FORMAT.md §header: UTF-8 JSON with schema, spec and app_state.
    let header = std::str::from_utf8(&bytes[at..at + header_len]).unwrap();
    assert!(header.contains("\"schema\""));
    assert!(header.contains("\"spec\""));
    assert!(header.contains("\"app_state\""));

    // FORMAT.md §channel blocks: u32 length then that many u64 counts.
    let mut pos = at + header_len;
    for expected in &counts {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        assert_eq!(len, expected.len());
        pos += 4;
        for &want in expected {
            let got = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            assert_eq!(got, want);
            pos += 8;
        }
    }

    // FORMAT.md §checksum: trailing CRC-64/XZ over everything before it.
    let stored = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
    assert_eq!(stored, crc64(&bytes[..pos]));
    assert_eq!(pos + 8, bytes.len());
}
