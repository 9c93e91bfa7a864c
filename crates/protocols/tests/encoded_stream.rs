//! The encoded report stream, pinned.
//!
//! The proptests compare the encode paths with each other, so a change of
//! draw order that hits every path at once would pass them.  These tests
//! pin the stream itself: an FNV-1a-64 hash over the `encode_batch` codes of
//! synthetic Adult records for each of the four `ProtocolSpec` shapes, and
//! check that `encode_record` and `encode_tally` agree with it.  A change
//! that alters the randomized stream on purpose re-captures the constants.
//! `release_is_pinned` does the same for the collector side: the estimates,
//! query answers, ledger and randomized microdata of every release path.

use mdrr_data::{adult_schema, AdultSynthesizer, Attribute, Dataset, RecordsView, Schema};
use mdrr_protocols::{
    AdjustmentConfig, Clustering, Protocol, ProtocolSpec, RRClusters, RandomizationLevel, Release,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The four `ProtocolSpec` shapes over the Adult schema: per-attribute,
/// one channel over the whole joint domain, attribute pairs, and
/// RR-Adjustment over a clustering with a three-attribute cluster.
fn specs(schema: &Schema) -> Vec<ProtocolSpec> {
    let m = schema.len();
    let pairs = Clustering::new((0..m / 2).map(|k| vec![2 * k, 2 * k + 1]).collect(), m).unwrap();
    let mut mixed: Vec<Vec<usize>> = vec![vec![0, 1, 2], vec![3]];
    mixed.extend((4..m).step_by(2).map(|a| (a..(a + 2).min(m)).collect()));
    let mixed = Clustering::new(mixed, m).unwrap();
    vec![
        ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7)),
        ProtocolSpec::Joint {
            level: RandomizationLevel::EpsilonPerAttribute(0.5),
            max_domain: Some(usize::MAX),
            equivalent_risk: true,
        },
        ProtocolSpec::Clusters {
            level: RandomizationLevel::KeepProbability(0.5),
            clustering: pairs,
            equivalent_risk: false,
        },
        ProtocolSpec::clusters(RandomizationLevel::EpsilonPerAttribute(1.0), mixed)
            .adjusted(AdjustmentConfig::default()),
    ]
}

/// FNV-1a-64, fed one little-endian `u32` code at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn code(&mut self, code: u32) {
        for byte in code.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        self.code(word as u32);
        self.code((word >> 32) as u32);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Consecutive chunks of `n` records whose sizes cycle through `sizes`.
fn chunks(n: usize, sizes: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for &size in sizes.iter().cycle() {
        if start >= n {
            break;
        }
        let end = (start + size).min(n);
        out.push(start..end);
        start = end;
    }
    out
}

fn empty_tallies(protocol: &dyn Protocol) -> Vec<Vec<u64>> {
    protocol
        .channel_sizes()
        .iter()
        .map(|&s| vec![0u64; s])
        .collect()
}

/// Hashes the `encode_batch` codes record-major (record `i`'s channels in
/// channel order) and counts them per channel.
fn batch_hash(
    protocol: &dyn Protocol,
    view: &RecordsView<'_>,
    ranges: &[std::ops::Range<usize>],
    seed: u64,
) -> (u64, Vec<Vec<u64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut hash = Fnv::new();
    let mut counts = empty_tallies(protocol);
    let mut out: Vec<Vec<u32>> = vec![Vec::new(); counts.len()];
    for range in ranges {
        out.iter_mut().for_each(Vec::clear);
        let chunk = view.slice(range.clone()).unwrap();
        protocol.encode_batch(&chunk, &mut rng, &mut out).unwrap();
        for i in 0..chunk.n_records() {
            for (channel, tally) in out.iter().zip(counts.iter_mut()) {
                hash.code(channel[i]);
                tally[channel[i] as usize] += 1;
            }
        }
    }
    (hash.0, counts)
}

/// `ENCODED_STREAM[spec][seed]`: the batch hash of spec `spec` (in
/// [`specs`] order) under seeds 1 and 42.
const ENCODED_STREAM: [[u64; 2]; 4] = [
    [0x3055_1728_32ab_00e4, 0x2c13_cc1d_62d8_cafd],
    [0x37ea_3f3c_42d3_3a06, 0x1361_6d19_f6b4_5c92],
    [0x4338_f141_d171_600c, 0x8bab_ad35_ebee_0e83],
    [0xe086_2611_f92d_3869, 0xc504_f48e_b168_0e58],
];

#[test]
fn encoded_stream_is_pinned() {
    let schema = adult_schema();
    let synthesizer = AdultSynthesizer::new(20_000).unwrap();
    let ranges = chunks(20_000, &[1, 999, 8193, 37, 4096]);
    for (s, &seed) in [1u64, 42].iter().enumerate() {
        let dataset = synthesizer.generate(&mut StdRng::seed_from_u64(seed));
        let view = dataset.view();
        for (p, spec) in specs(&schema).iter().enumerate() {
            let protocol = spec.build(&schema).unwrap();
            let (hash, counts) = batch_hash(&*protocol, &view, &ranges, seed);
            assert_eq!(hash, ENCODED_STREAM[p][s], "{} seed {seed}", spec.label());

            let mut rng = StdRng::seed_from_u64(seed);
            let mut per_record = Fnv::new();
            let mut row = Vec::new();
            for i in 0..view.n_records() {
                view.read_record(i, &mut row).unwrap();
                for code in protocol.encode_record(&row, &mut rng).unwrap() {
                    per_record.code(code);
                }
            }
            assert_eq!(per_record.0, hash, "encode_record, {}", spec.label());

            let mut rng = StdRng::seed_from_u64(seed);
            let mut tallies = empty_tallies(&*protocol);
            for range in &ranges {
                let chunk = view.slice(range.clone()).unwrap();
                protocol
                    .encode_tally(&chunk, &mut rng, &mut tallies)
                    .unwrap();
            }
            assert_eq!(tallies, counts, "encode_tally, {}", spec.label());
        }
    }
}

/// Hashes what a release publishes: the bits of every marginal, the bits
/// of every single-attribute query and of one pair query per attribute
/// pair, the ledger's text and, when present, the randomized microdata
/// column by column.
fn release_hash(release: &dyn Release, schema: &Schema) -> u64 {
    let mut hash = Fnv::new();
    hash.word(release.record_count() as u64);
    let cards = schema.cardinalities();
    for (a, &ca) in cards.iter().enumerate() {
        for p in release.marginal(a).unwrap() {
            hash.word(p.to_bits());
        }
        for va in 0..ca as u32 {
            hash.word(release.frequency(&[(a, va)]).unwrap().to_bits());
        }
        for (b, &cb) in cards.iter().enumerate().skip(a + 1) {
            let query = [(a, (a % ca) as u32), (b, (cb - 1) as u32)];
            hash.word(release.frequency(&query).unwrap().to_bits());
        }
    }
    hash.bytes(release.accountant().to_string().as_bytes());
    if let Some(randomized) = release.randomized() {
        for column in randomized.view().columns() {
            column.iter().for_each(|&code| hash.code(code));
        }
    }
    hash.0
}

/// `RELEASES[spec]`: the [`release_hash`] of spec `spec` (in [`specs`]
/// order) through `release_from_counts`, `release_from_randomized` and
/// `run`.  RR-Adjustment estimates from microdata only, so its
/// `release_from_counts` entry is 0 and the call must fail.
const RELEASES: [[u64; 3]; 4] = [
    [
        0xa584_87a8_caa4_98cc,
        0xf139_3a0a_5130_8119,
        0x5f0a_2fbd_f118_da34,
    ],
    [
        0xbadc_a5f1_89ee_6d50,
        0xd062_56eb_b14a_1e96,
        0x0c58_8950_a3f0_051f,
    ],
    [
        0x4863_1f47_bf8d_bffe,
        0x87fa_5a4b_c84e_86a2,
        0xe752_babb_83db_3856,
    ],
    [0, 0x85e4_9abd_252e_8320, 0xbccf_02a3_6fcf_d48d],
];

#[test]
fn release_is_pinned() {
    const N: usize = 4_000;
    const SEED: u64 = 5;
    let schema = adult_schema();
    let dataset = AdultSynthesizer::new(N)
        .unwrap()
        .generate(&mut StdRng::seed_from_u64(SEED));
    let view = dataset.view();
    for (p, spec) in specs(&schema).iter().enumerate() {
        let protocol = spec.build(&schema).unwrap();
        let label = spec.label();

        // The randomized reports of the first half of the records, as
        // counts and as microdata.
        let mut out: Vec<Vec<u32>> = vec![Vec::new(); protocol.channel_sizes().len()];
        let half = view.slice(0..N / 2).unwrap();
        protocol
            .encode_batch(&half, &mut StdRng::seed_from_u64(SEED), &mut out)
            .unwrap();
        let mut counts = empty_tallies(&*protocol);
        let mut records = Vec::with_capacity(N / 2);
        for i in 0..N / 2 {
            let codes: Vec<u32> = out.iter().map(|channel| channel[i]).collect();
            for (tally, &code) in counts.iter_mut().zip(&codes) {
                tally[code as usize] += 1;
            }
            records.push(protocol.decode_report(&codes).unwrap());
        }
        let randomized = Dataset::from_records(schema.clone(), &records).unwrap();

        let from_counts = match protocol.release_from_counts(&counts, N / 2) {
            Ok(release) => release_hash(&*release, &schema),
            Err(_) => 0,
        };
        let from_randomized = release_hash(
            &*protocol.release_from_randomized(randomized).unwrap(),
            &schema,
        );
        let run = protocol
            .run(&dataset, &mut StdRng::seed_from_u64(SEED + 1))
            .unwrap();
        let hashes = [from_counts, from_randomized, release_hash(&*run, &schema)];
        assert_eq!(hashes, RELEASES[p], "{label}");
    }
}

/// Two attributes of the given cardinalities, labelled by index.
fn pair_schema(a: usize, b: usize) -> Schema {
    Schema::new(vec![
        Attribute::indexed("A", a).unwrap(),
        Attribute::indexed("B", b).unwrap(),
    ])
    .unwrap()
}

/// Channel codes are `u32`: a channel over more than 2³² combinations
/// would be truncated on encode, so it is refused at construction.
#[test]
fn channels_above_two_to_the_32_are_rejected() {
    let joint = |schema: &Schema| {
        ProtocolSpec::Joint {
            level: RandomizationLevel::KeepProbability(0.5),
            max_domain: Some(usize::MAX),
            equivalent_risk: false,
        }
        .build(schema)
    };
    let clusters = |schema: Schema| {
        RRClusters::with_keep_probability(
            schema,
            Clustering::new(vec![vec![0, 1]], 2).unwrap(),
            1.0,
        )
    };

    let fits = pair_schema(65_536, 65_536);
    assert_eq!(joint(&fits).unwrap().channel_sizes(), vec![1 << 32]);
    let protocol = clusters(fits).unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    let top = protocol.encode_record(&[65_535, 65_535], &mut rng).unwrap();
    assert_eq!(top, vec![u32::MAX]);
    assert_eq!(protocol.decode_report(&top).unwrap(), vec![65_535, 65_535]);

    let too_big = pair_schema(65_536, 65_537);
    assert!(joint(&too_big).is_err());
    assert!(clusters(too_big).is_err());
}

/// The heavy sweep: for the four specs, seeds 1, 7 and 42 and 1M records
/// each, `encode_record`, `encode_batch` over random chunk sizes and
/// `encode_tally` over another random split agree cell for cell.
/// Run with `cargo test --release -p mdrr-protocols -- --ignored`.
#[test]
#[ignore = "heavy: 12M per-record encodes, several seconds in release"]
fn encode_paths_agree_on_a_million_records() {
    const N: usize = 1_000_000;
    let schema = adult_schema();
    let synthesizer = AdultSynthesizer::new(N).unwrap();
    for seed in [1u64, 7, 42] {
        let dataset = synthesizer.generate(&mut StdRng::seed_from_u64(seed));
        let view = dataset.view();
        let mut split = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut random_ranges = |max: usize| {
            let sizes: Vec<usize> = (0..64).map(|_| split.gen_range(1..=max)).collect();
            chunks(N, &sizes)
        };
        for spec in specs(&schema) {
            let protocol = spec.build(&schema).unwrap();
            let label = spec.label();

            let mut record_rng = StdRng::seed_from_u64(seed);
            let mut batch_rng = StdRng::seed_from_u64(seed);
            let mut counts = empty_tallies(&*protocol);
            let mut out: Vec<Vec<u32>> = vec![Vec::new(); counts.len()];
            let mut row = Vec::new();
            for range in random_ranges(20_000) {
                out.iter_mut().for_each(Vec::clear);
                let chunk = view.slice(range.clone()).unwrap();
                protocol
                    .encode_batch(&chunk, &mut batch_rng, &mut out)
                    .unwrap();
                for (i, record) in range.enumerate() {
                    view.read_record(record, &mut row).unwrap();
                    let codes = protocol.encode_record(&row, &mut record_rng).unwrap();
                    for (k, &code) in codes.iter().enumerate() {
                        assert_eq!(out[k][i], code, "{label} seed {seed} record {record}");
                        counts[k][code as usize] += 1;
                    }
                }
            }

            let mut rng = StdRng::seed_from_u64(seed);
            let mut tallies = empty_tallies(&*protocol);
            for range in random_ranges(50_000) {
                let chunk = view.slice(range).unwrap();
                protocol
                    .encode_tally(&chunk, &mut rng, &mut tallies)
                    .unwrap();
            }
            assert_eq!(tallies, counts, "{label} seed {seed}");
        }
    }
}
