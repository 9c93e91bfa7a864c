//! Adversarial wire-protocol tests, mirroring the snapshot store's
//! corruption corpus (`crates/store/tests/proptest_store.rs`).
//!
//! The load-bearing claims:
//!
//! 1. *every* truncation of a valid frame — all lengths from 0 to one
//!    byte short — decodes to a typed [`WireError`], never a panic;
//! 2. *every* single-bit flip of a valid frame is detected (the CRC-64
//!    trailer covers header and payload, and CRC-64 detects all
//!    single-bit errors) and decodes to a typed error;
//! 3. a hand-crafted corpus of hostile frames — wrong magic, future
//!    version, unknown type, reserved bits, lying length fields,
//!    overflowing batch dimensions, code widths outside {1, 2, 4}, a
//!    width table cut short — each maps to the *specific* typed error,
//!    and an oversized declared length is rejected before any buffer is
//!    sized from it;
//! 4. a live server answers hostile bytes — a version-1 peer included —
//!    with typed `error` frames and keeps serving well-formed clients
//!    afterwards.
//!
//! The generated frames draw each channel's codes from the `u8`, `u16`
//! or `u32` range, so claims 1 and 2 cover every code width and the
//! width table.

mod common;

use mdrr_obs::MonotonicClock;
use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
use mdrr_serve::ServeConfig;
use mdrr_stream::wire::{
    self, decode_frame, decode_header, encode_frame, error_code, Hello, BATCH_PAYLOAD_HEADER_LEN,
    WIRE_HEADER_LEN,
};
use mdrr_stream::{
    BatchView, ClientConfig, FrameType, ReportBatch, WireClient, WireError, MAX_WIRE_PAYLOAD,
    WIRE_MAGIC,
};
use proptest::prelude::*;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A valid batch frame with proptest-chosen dimensions and codes.  Each
/// channel draws its codes from the `u8`, `u16` or `u32` range, so its
/// lane goes at 1, 2 or 4 bytes.
fn batch_frame_strategy() -> impl Strategy<Value = Vec<u8>> {
    (1usize..4, 0usize..12, any::<u64>(), any::<u32>()).prop_flat_map(
        |(n_channels, n_reports, seq, shard)| {
            (
                prop::collection::vec(0usize..3, n_channels),
                prop::collection::vec(any::<u32>(), n_channels * n_reports),
            )
                .prop_map(move |(ranges, codes)| {
                    let mut batch = ReportBatch::new(n_channels).unwrap();
                    for (c, channel) in batch.channels_mut().iter_mut().enumerate() {
                        let mask = [0xFF, 0xFFFF, u32::MAX][ranges[c]];
                        channel.extend((0..n_reports).map(|i| codes[c * n_reports + i] & mask));
                    }
                    let payload = wire::encode_batch_payload(seq, shard, &batch).unwrap();
                    encode_frame(FrameType::Batch, &payload).unwrap()
                })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 1: every truncation of every valid frame is a typed error.
    #[test]
    fn every_truncation_is_a_typed_error(frame in batch_frame_strategy()) {
        for keep in 0..frame.len() {
            let truncated = &frame[..keep];
            let decoded = decode_frame(truncated);
            prop_assert!(
                decoded.is_err(),
                "truncation to {keep}/{} bytes decoded successfully",
                frame.len()
            );
        }
        // The untruncated frame still round-trips.
        prop_assert!(decode_frame(&frame).is_ok());
    }

    /// Claim 2: every single-bit flip of every valid frame is detected.
    #[test]
    fn every_single_bit_flip_is_detected(frame in batch_frame_strategy()) {
        let mut flipped = frame.clone();
        for byte in 0..frame.len() {
            for bit in 0..8u8 {
                flipped[byte] ^= 1 << bit;
                let decoded = decode_frame(&flipped);
                prop_assert!(
                    decoded.is_err(),
                    "flipping bit {bit} of byte {byte} went undetected"
                );
                // Batch *payload* decoding after a flip in the payload must
                // also never panic (it runs before CRC rejection on the
                // server only for valid frames, but the decoder itself must
                // hold on arbitrary bytes).
                let mut out = ReportBatch::new(3).unwrap();
                let _ = wire::decode_batch_payload(wire::frame_payload(&flipped), &mut out);
                for n_channels in 1..4 {
                    let _ = BatchView::parse(wire::frame_payload(&flipped), n_channels);
                }
                flipped[byte] ^= 1 << bit; // restore
            }
        }
        prop_assert_eq!(&flipped, &frame);
    }

    /// The batch-payload decoder holds on arbitrary bytes: typed error or
    /// clean decode, never a panic, never an unchecked allocation.
    #[test]
    fn arbitrary_batch_payloads_never_panic(payload in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut out = ReportBatch::new(3).unwrap();
        let _ = wire::decode_batch_payload(&payload, &mut out);
    }
}

/// Claim 3: the hand-crafted hostile corpus maps to field-specific errors.
#[test]
fn hostile_corpus_yields_field_specific_errors() {
    let valid = encode_frame(FrameType::Goodbye, &[]).unwrap();

    // Empty and sub-header inputs.
    assert!(matches!(
        decode_frame(&[]),
        Err(WireError::Truncated { .. })
    ));
    assert!(matches!(
        decode_frame(&valid[..WIRE_HEADER_LEN - 1]),
        Err(WireError::Truncated { .. })
    ));

    // Wrong magic.
    let mut bad = valid.clone();
    bad[..8].copy_from_slice(b"NOTMDRR!");
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::BadMagic { .. })
    ));

    // Future version.
    let mut bad = valid.clone();
    bad[8..12].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::UnsupportedVersion { found: 99, .. })
    ));

    // Unknown frame type.
    let mut bad = valid.clone();
    bad[12] = 0xEE;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::UnknownFrameType { found: 0xEE })
    ));

    // Reserved bytes must be zero.
    let mut bad = valid.clone();
    bad[14] = 7;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::ReservedNonZero { .. })
    ));

    // Declared length beyond the cap: rejected at the *header*, before
    // any payload bytes exist to buffer — the cap-before-alloc property.
    let mut header = valid[..WIRE_HEADER_LEN].to_vec();
    header[16..20].copy_from_slice(&(MAX_WIRE_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        decode_header(&header),
        Err(WireError::Oversized { .. })
    ));
    // Same lying header inside a short frame: still Oversized, not an
    // attempt to read (or allocate) 16 MiB.
    assert!(matches!(
        decode_frame(&header),
        Err(WireError::Oversized { .. })
    ));

    // Trailing bytes after the trailer.
    let mut bad = valid.clone();
    bad.push(0);
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::Malformed { .. })
    ));

    // Corrupted CRC trailer.
    let mut bad = valid.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(
        decode_frame(&bad),
        Err(WireError::ChecksumMismatch { .. })
    ));

    // Zero-length payload where JSON is required.
    assert!(matches!(
        wire::decode_json::<Hello>("hello", &[]),
        Err(WireError::Malformed { .. })
    ));

    // Batch dimensions that lie: counts whose product overflows.
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // n_channels
    payload.extend_from_slice(&u32::MAX.to_le_bytes()); // n_reports
    let mut out = ReportBatch::new(3).unwrap();
    assert!(wire::decode_batch_payload(&payload, &mut out).is_err());

    // Batch that declares more code bytes than it carries.
    let mut prefix = Vec::new();
    prefix.extend_from_slice(&1u64.to_le_bytes());
    prefix.extend_from_slice(&0u32.to_le_bytes());
    prefix.extend_from_slice(&3u32.to_le_bytes());
    prefix.extend_from_slice(&1000u32.to_le_bytes());
    let mut payload = prefix.clone();
    payload.extend_from_slice(&[4, 2, 1]);
    payload.extend_from_slice(&[0u8; 8]); // far fewer than 1000*(4+2+1) bytes
    assert!(matches!(
        wire::decode_batch_payload(&payload, &mut out),
        Err(WireError::Malformed { .. })
    ));

    // Code widths other than 1, 2 or 4 bytes, in any channel, with code
    // bytes that would fit the declared widths.
    for width in [0u8, 3, 8, 255] {
        for channel in 0..3 {
            let mut widths = [1u8; 3];
            widths[channel] = width;
            let mut payload = prefix.clone();
            payload.extend_from_slice(&widths);
            payload.resize(payload.len() + 1000 * (2 + width as usize), 0);
            assert!(
                matches!(
                    BatchView::parse(&payload, 3),
                    Err(WireError::Malformed { .. })
                ),
                "width {width} in channel {channel}"
            );
            assert!(matches!(
                wire::decode_batch_payload(&payload, &mut out),
                Err(WireError::Malformed { .. })
            ));
        }
    }

    // A width table cut short: the payload ends inside it.
    for kept in 0..3 {
        let mut payload = prefix.clone();
        payload.extend_from_slice(&[1, 1, 1][..kept]);
        assert!(
            matches!(
                BatchView::parse(&payload, 3),
                Err(WireError::Truncated { .. })
            ),
            "{kept} of 3 width bytes"
        );
    }

    // Channel-count mismatch against the receiver's protocol shape.
    let mut one_channel = ReportBatch::new(1).unwrap();
    one_channel.channels_mut()[0].push(0);
    let payload = wire::encode_batch_payload(9, 0, &one_channel).unwrap();
    assert!(matches!(
        wire::decode_batch_payload(&payload, &mut out),
        Err(WireError::SpecMismatch { .. })
    ));

    // The prefix, one width byte, one 1-byte code.
    assert_eq!(
        payload.len(),
        BATCH_PAYLOAD_HEADER_LEN + 1 + 1,
        "batch payload layout drifted from docs/WIRE.md"
    );
}

/// Reads one reply frame from a raw socket, polling with a short read
/// timeout and bounded patience.
fn read_reply(stream: &mut TcpStream) -> Result<Option<(FrameType, Vec<u8>)>, WireError> {
    stream
        .set_read_timeout(Some(Duration::from_millis(20)))
        .unwrap();
    let mut polls = 0u32;
    let mut wait = move |_: usize| -> Result<(), WireError> {
        polls += 1;
        if polls > 500 {
            return Err(WireError::timeout("no reply within 10s"));
        }
        Ok(())
    };
    let mut buf = Vec::new();
    let got = wire::read_frame(stream, &mut buf, &mut wait)?;
    Ok(got.map(|frame_type| (frame_type, wire::frame_payload(&buf).to_vec())))
}

/// Claim 4a: garbage bytes on the socket get a typed `error` frame and
/// the server keeps serving fresh, well-formed clients.
#[test]
fn server_survives_garbage_and_keeps_serving() {
    let schema = common::schema();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let (server, obs) = common::start_server(&schema, &spec, ServeConfig::default());
    let addr = server.local_addr();

    // A client that opens with bytes that are not even a frame header.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n____").unwrap();
    raw.flush().unwrap();
    let reply = read_reply(&mut raw).unwrap();
    let (frame_type, payload) = reply.expect("server should answer before closing");
    assert_eq!(frame_type, FrameType::Error);
    let (code, message) = wire::decode_error_payload(&payload).unwrap();
    assert_eq!(code, error_code::MALFORMED, "unexpected message: {message}");
    drop(raw);

    // A client that speaks a different spec gets a spec_mismatch error.
    let other_spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.9));
    let refused = WireClient::connect(
        addr,
        schema.clone(),
        other_spec,
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    );
    match refused {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, error_code::SPEC_MISMATCH),
        other => panic!("expected a remote spec_mismatch refusal, got {other:?}"),
    }

    // A batch with out-of-range codes is refused with a typed error…
    let protocol = spec.build_arc(&schema).unwrap();
    let mut client = WireClient::connect(
        addr,
        schema.clone(),
        spec.clone(),
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .unwrap();
    let mut hostile = ReportBatch::new(protocol.channel_sizes().len()).unwrap();
    for channel in hostile.channels_mut() {
        channel.push(u32::MAX); // far out of every channel's range
    }
    client.send_batch(0, &hostile).unwrap();
    match client.flush() {
        Err(WireError::Remote { code, .. }) => assert_eq!(code, error_code::MALFORMED),
        other => panic!("expected a remote refusal of hostile codes, got {other:?}"),
    }

    // …and the server is still healthy: a well-formed client round-trips.
    let mut good = WireClient::connect(
        addr,
        schema.clone(),
        spec.clone(),
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .unwrap();
    let batch = common::deterministic_batch(&protocol.channel_sizes(), 1, 20);
    good.send_batch(0, &batch).unwrap();
    good.flush().unwrap();
    assert_eq!(good.acked_reports(), 20);
    assert_eq!(good.close().unwrap(), 20);

    let snap = obs.registry().snapshot();
    let rejects: u64 = ["malformed", "spec_mismatch", "protocol", "bad_magic"]
        .iter()
        .filter_map(|reason| snap.counter_value("serve_rejects_total", &[("reason", reason)]))
        .sum();
    assert!(rejects >= 3, "expected the hostile attempts to be metered");

    let drained = server.drain().unwrap();
    assert_eq!(drained.acked_reports, 20);
}

/// Claim 4c: a version-1 peer's `Hello` is refused with a typed `error`
/// frame naming the version, and the connection is closed.
#[test]
fn a_version_1_hello_is_refused_typed_and_the_connection_closed() {
    let schema = common::schema();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let (server, obs) = common::start_server(&schema, &spec, ServeConfig::default());

    // A well-formed version-1 frame: header, JSON hello, CRC.
    let hello = wire::encode_json(
        "hello",
        &Hello {
            schema: schema.clone(),
            spec: spec.clone(),
        },
    )
    .unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&WIRE_MAGIC);
    frame.extend_from_slice(&1u32.to_le_bytes());
    frame.push(FrameType::Hello.as_byte());
    frame.extend_from_slice(&[0u8; 3]);
    frame.extend_from_slice(&(hello.len() as u32).to_le_bytes());
    frame.extend_from_slice(&hello);
    let crc = mdrr_store::crc64(&frame);
    frame.extend_from_slice(&crc.to_le_bytes());

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    let (frame_type, payload) = read_reply(&mut raw)
        .unwrap()
        .expect("server should refuse version 1 with an error frame");
    assert_eq!(frame_type, FrameType::Error);
    let (code, message) = wire::decode_error_payload(&payload).unwrap();
    assert_eq!(code, error_code::MALFORMED, "{message}");
    assert!(
        message.contains("unsupported wire version 1"),
        "unexpected message: {message}"
    );
    // The server closed after one header: a clean EOF, or a reset when
    // the rest of the frame was still unread in its receive buffer.
    let after = read_reply(&mut raw);
    assert!(
        match &after {
            Ok(None) => true,
            Err(WireError::Io { source, .. }) => {
                source.kind() == std::io::ErrorKind::ConnectionReset
            }
            _ => false,
        },
        "the server should close after refusing: {after:?}"
    );
    let refused = obs
        .registry()
        .snapshot()
        .counter_value("serve_rejects_total", &[("reason", "unsupported_version")]);
    assert_eq!(refused, Some(1));

    drop(raw);
    let drained = server.drain().unwrap();
    assert_eq!(drained.acked_reports, 0);
}

/// Claim 4b: a frame whose *header* declares an oversized payload is cut
/// off at the header — the server never tries to read (or allocate) the
/// declared 16 MiB+.
#[test]
fn oversized_declared_length_is_refused_at_the_header() {
    let schema = common::schema();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    // The global cap, then a daemon's own tighter cap.  A lone header
    // above the cap, with no payload byte behind it, must be refused at
    // once: a daemon that waited for the payload would answer `TIMEOUT`
    // only after its 30 s mid-frame budget, long after `read_reply` gives
    // up (10 s).
    let tight = ServeConfig {
        max_payload: 1024,
        frame_budget_nanos: 30_000_000_000,
        ..ServeConfig::default()
    };
    for (config, declared) in [
        (ServeConfig::default(), MAX_WIRE_PAYLOAD + 1),
        (tight, 1025),
    ] {
        let (server, _obs) = common::start_server(&schema, &spec, config);

        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&WIRE_MAGIC);
        header.extend_from_slice(&mdrr_stream::WIRE_VERSION.to_le_bytes());
        header.push(0x01); // hello
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&declared.to_le_bytes());
        raw.write_all(&header).unwrap();
        raw.flush().unwrap();

        let reply = read_reply(&mut raw).unwrap();
        let (frame_type, payload) = reply.expect("server should refuse the header with an error");
        assert_eq!(frame_type, FrameType::Error);
        let (code, _) = wire::decode_error_payload(&payload).unwrap();
        assert_eq!(code, error_code::MALFORMED, "declared {declared}");

        drop(raw);
        let drained = server.drain().unwrap();
        assert_eq!(drained.acked_reports, 0);
    }
}
