//! Executable proof that `docs/WIRE.md` is sufficient for an external
//! implementer: a real frame is hand-decoded using nothing but the byte
//! offsets documented there, and the doc's worked example is pinned to
//! the bytes the codec writes.

mod common;

use mdrr_store::crc64;
use mdrr_stream::wire::{self, WIRE_HEADER_LEN, WIRE_TRAILER_LEN};
use mdrr_stream::{FrameType, ReportBatch, WIRE_MAGIC, WIRE_VERSION};

/// The doc's reference frame: a batch with `seq` 7, shard hint 2, two
/// channels of three reports each, the first at 1 byte per code and the
/// second (whose largest code is 300) at 2.
fn reference_frame() -> Vec<u8> {
    let mut batch = ReportBatch::new(2).unwrap();
    batch.channels_mut()[0].extend([1u32, 0, 2]);
    batch.channels_mut()[1].extend([300u32, 1, 0]);
    let payload = wire::encode_batch_payload(7, 2, &batch).unwrap();
    wire::encode_frame(FrameType::Batch, &payload).unwrap()
}

/// Hand-decodes [`reference_frame`] by the WIRE.md offset table alone,
/// and pins the doc's worked example to it byte for byte.  On a
/// deliberate wire change, the failure message prints the regenerated
/// dump to paste into the doc.
#[test]
fn wire_md_offsets_hand_decode_a_real_frame() {
    let frame = reference_frame();
    let doc = include_str!("../../../docs/WIRE.md");
    assert!(
        dump_after(doc, "## Worked example") == Some(frame.clone())
            && doc.contains(&format!("exactly these {} bytes", frame.len())),
        "docs/WIRE.md's worked example drifted; the reference frame is these {} bytes:\n{}",
        frame.len(),
        hexdump(&frame)
    );

    // WIRE.md §framing: fixed 20-byte header.
    assert_eq!(&frame[0..8], &WIRE_MAGIC, "[0,8) magic");
    let version = u32::from_le_bytes(frame[8..12].try_into().unwrap());
    assert_eq!(version, WIRE_VERSION, "[8,12) version");
    assert_eq!(frame[12], 0x03, "[12] frame type = batch");
    assert_eq!(&frame[13..16], &[0, 0, 0], "[13,16) reserved, must be zero");
    let payload_len = u32::from_le_bytes(frame[16..20].try_into().unwrap()) as usize;
    assert_eq!(
        frame.len(),
        WIRE_HEADER_LEN + payload_len + WIRE_TRAILER_LEN,
        "[16,20) payload length frames the rest"
    );

    // WIRE.md §batch payload: 20-byte batch header, a C-byte width table,
    // then each channel's R codes at its width, channel-major.
    let payload = &frame[WIRE_HEADER_LEN..WIRE_HEADER_LEN + payload_len];
    let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
    assert_eq!(seq, 7, "payload [0,8) sequence number");
    let shard = u32::from_le_bytes(payload[8..12].try_into().unwrap());
    assert_eq!(shard, 2, "payload [8,12) shard hint");
    let n_channels = u32::from_le_bytes(payload[12..16].try_into().unwrap());
    assert_eq!(n_channels, 2, "payload [12,16) channel count");
    let n_reports = u32::from_le_bytes(payload[16..20].try_into().unwrap());
    assert_eq!(n_reports, 3, "payload [16,20) report count");
    let widths = &payload[20..22];
    assert_eq!(widths, [1, 2], "payload [20,22) code widths");
    let channel_0: Vec<u32> = payload[22..25].iter().map(|&b| u32::from(b)).collect();
    assert_eq!(
        channel_0,
        vec![1, 0, 2],
        "payload [22,25) channel 0, 1 byte each"
    );
    let channel_1: Vec<u32> = payload[25..31]
        .chunks_exact(2)
        .map(|c| u32::from(u16::from_le_bytes(c.try_into().unwrap())))
        .collect();
    assert_eq!(
        channel_1,
        vec![300, 1, 0],
        "payload [25,31) channel 1, 2 bytes each"
    );
    assert_eq!(payload.len(), 20 + 2 + 3 * (1 + 2), "20 + C + R·Σw");

    // WIRE.md §integrity: trailing CRC-64/XZ over everything before it.
    let body_len = frame.len() - WIRE_TRAILER_LEN;
    let stored = u64::from_le_bytes(frame[body_len..].try_into().unwrap());
    assert_eq!(stored, crc64(&frame[..body_len]), "trailer CRC-64/XZ");

    // And the reference decoder agrees end to end.
    let (frame_type, decoded_payload) = wire::decode_frame(&frame).unwrap();
    assert_eq!(frame_type, FrameType::Batch);
    let mut out = ReportBatch::new(2).unwrap();
    let header = wire::decode_batch_payload(decoded_payload, &mut out).unwrap();
    assert_eq!((header.seq, header.shard), (7, 2));
    assert_eq!(out.channels(), [vec![1, 0, 2], vec![300, 1, 0]]);
}

/// WIRE.md documents every frame-type discriminant; pin them here so a
/// renumbering cannot slip through as a silent wire break.
#[test]
fn frame_type_discriminants_match_wire_md() {
    let documented: [(FrameType, u8); 11] = [
        (FrameType::Hello, 0x01),
        (FrameType::HelloAck, 0x02),
        (FrameType::Batch, 0x03),
        (FrameType::BatchAck, 0x04),
        (FrameType::StatsQuery, 0x05),
        (FrameType::Stats, 0x06),
        (FrameType::SnapshotQuery, 0x07),
        (FrameType::Snapshot, 0x08),
        (FrameType::Goodbye, 0x09),
        (FrameType::GoodbyeAck, 0x0A),
        (FrameType::Error, 0x0B),
    ];
    assert_eq!(documented.len(), FrameType::ALL.len());
    for (frame_type, byte) in documented {
        assert_eq!(frame_type.as_byte(), byte, "{frame_type} renumbered");
        assert_eq!(FrameType::from_byte(byte), Some(frame_type));
    }
}

/// `bytes` in the `hexdump -C` layout of the doc's worked example.
fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::new();
    for (i, chunk) in bytes.chunks(16).enumerate() {
        let hex: Vec<String> = chunk.iter().map(|b| format!("{b:02x}")).collect();
        let ascii: String = chunk
            .iter()
            .map(|&b| {
                if (0x20..0x7f).contains(&b) {
                    b as char
                } else {
                    '.'
                }
            })
            .collect();
        out += &format!("{:08x}  {:<47}  |{ascii}|\n", i * 16, hex.join(" "));
    }
    out
}

/// The bytes of the first `text` block after `heading` in `doc`, read as
/// a hexdump: per line, the hex columns between the offset and the `|`.
fn dump_after(doc: &str, heading: &str) -> Option<Vec<u8>> {
    let block = doc.split_once(heading)?.1.split_once("```text\n")?.1;
    let block = block.split_once("```")?.0;
    block
        .lines()
        .flat_map(|line| {
            line.split('|')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .skip(1)
        })
        .map(|byte| u8::from_str_radix(byte, 16).ok())
        .collect()
}
