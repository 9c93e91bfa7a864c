//! The client-encoder SDK: `encode → frame → send` against a collector
//! daemon, with windowed backpressure and retrying reconnect.
//!
//! A [`WireClient`] owns one TCP connection to an `mdrr-serve` collector.
//! It dials with the storage layer's bounded-backoff
//! [`RetryPolicy`] (connection-refused and timeouts are transient —
//! the server may still be binding), handshakes schema + spec, then
//! pipelines [`ReportBatch`] frames up to the server-advertised
//! backpressure *window*: at most `window` batches may be in flight
//! (sent but unacknowledged) at once, so a slow collector throttles the
//! client instead of buffering unboundedly on either side.  All waiting
//! — dial backoff, ack deadlines — goes through an injected
//! [`Clock`], never ambient time.
//!
//! An acknowledgement is the server's promise that the batch's reports
//! are counted in the collector (and therefore present in any later
//! drain checkpoint); [`WireClient::acked_reports`] is the client-side
//! ledger the fault tests audit against restored checkpoints.

// No panic on a misbehaving server: every failure is a typed error.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use crate::batch::ReportBatch;
use crate::wire::{self, FrameType, Hello, HelloAck, StatsReply, WireError};
use mdrr_data::Schema;
use mdrr_obs::Clock;
use mdrr_protocols::ProtocolSpec;
use mdrr_store::{RetryPolicy, StoreError};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Tuning knobs for a [`WireClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// How dialing (and [`WireClient::reconnect`]) retries transient
    /// connect failures.
    pub retry: RetryPolicy,
    /// Budget for any single server reply (handshake, ack, stats), in
    /// injected-clock nanoseconds.
    pub ack_timeout_nanos: u64,
    /// Socket poll granularity: how long a blocking read waits before
    /// the deadline is re-checked.
    pub poll_interval_nanos: u64,
}

impl Default for ClientConfig {
    /// Default-policy dialing, a 5 s reply budget and 10 ms polls.
    fn default() -> Self {
        ClientConfig {
            retry: RetryPolicy::default(),
            ack_timeout_nanos: 5_000_000_000,
            poll_interval_nanos: 10_000_000,
        }
    }
}

/// One batch sent but not yet acknowledged.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    seq: u64,
    reports: u64,
}

/// A connection to a collector daemon (see [`crate::wire`] for the frame
/// format and `docs/WIRE.md` for the byte-level contract).
#[derive(Debug)]
pub struct WireClient {
    stream: TcpStream,
    addr: SocketAddr,
    hello: Hello,
    config: ClientConfig,
    clock: Arc<dyn Clock>,
    window: u32,
    n_shards: usize,
    next_seq: u64,
    inflight: VecDeque<InFlight>,
    acked_reports: u64,
    server_total: u64,
    buf: Vec<u8>,
    /// The outgoing batch frame, reused for every send.
    frame: Vec<u8>,
}

fn store_to_wire(e: StoreError) -> WireError {
    match e {
        StoreError::Io {
            context, source, ..
        } => WireError::Io { context, source },
        other => WireError::io("dial collector", io::Error::other(other.to_string())),
    }
}

fn dial(
    addr: &SocketAddr,
    retry: &RetryPolicy,
    clock: &dyn Clock,
    poll_interval_nanos: u64,
) -> Result<TcpStream, WireError> {
    let (result, _attempts) = retry.run(clock, || {
        TcpStream::connect(addr).map_err(|e| match e.kind() {
            io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut => StoreError::io_transient("dial collector", e),
            _ => StoreError::io_permanent("dial collector", e),
        })
    });
    let stream = result.map_err(store_to_wire)?;
    stream
        .set_nodelay(true)
        .map_err(|e| WireError::io("set nodelay", e))?;
    stream
        .set_read_timeout(Some(Duration::from_nanos(poll_interval_nanos.max(1))))
        .map_err(|e| WireError::io("set read timeout", e))?;
    Ok(stream)
}

impl WireClient {
    /// Dials `addr` (retrying transient failures under
    /// `config.retry` with backoff on `clock`), then handshakes the
    /// given schema and spec.  Fails with [`WireError::Remote`] if the
    /// server speaks a different spec, [`WireError::Io`] if dialing is
    /// exhausted.
    pub fn connect(
        addr: SocketAddr,
        schema: Schema,
        spec: ProtocolSpec,
        config: ClientConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, WireError> {
        let stream = dial(
            &addr,
            &config.retry,
            clock.as_ref(),
            config.poll_interval_nanos,
        )?;
        let mut client = WireClient {
            stream,
            addr,
            hello: Hello { schema, spec },
            config,
            clock,
            window: 1,
            n_shards: 1,
            next_seq: 0,
            inflight: VecDeque::new(),
            acked_reports: 0,
            server_total: 0,
            buf: Vec::new(),
            frame: Vec::new(),
        };
        client.handshake()?;
        Ok(client)
    }

    fn handshake(&mut self) -> Result<(), WireError> {
        let payload = wire::encode_json("hello", &self.hello)?;
        wire::write_frame(&mut self.stream, FrameType::Hello, &payload)?;
        self.expect_frame("awaiting hello ack", FrameType::HelloAck)?;
        let ack: HelloAck = wire::decode_json("hello ack", wire::frame_payload(&self.buf))?;
        self.window = ack.window.max(1);
        self.n_shards = ack.n_shards.max(1);
        Ok(())
    }

    /// Drops the broken connection, re-dials under the retry policy and
    /// re-handshakes.  Any unacknowledged batches are forgotten — they
    /// were never promised durable, and the caller owns re-sending them.
    pub fn reconnect(&mut self) -> Result<(), WireError> {
        self.stream = dial(
            &self.addr,
            &self.config.retry,
            self.clock.as_ref(),
            self.config.poll_interval_nanos,
        )?;
        self.inflight.clear();
        self.handshake()
    }

    /// The server-advertised backpressure window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The server's shard count, from the handshake.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Total reports in batches the server has acknowledged to *this*
    /// client — the audit ledger for zero-accepted-loss checks.
    pub fn acked_reports(&self) -> u64 {
        self.acked_reports
    }

    /// The server's running report total as of the last acknowledgement.
    pub fn server_total(&self) -> u64 {
        self.server_total
    }

    /// Batches currently in flight (sent, not yet acknowledged).
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Reads one server reply within the ack budget, surfacing a peer
    /// [`FrameType::Error`] frame as [`WireError::Remote`] and anything
    /// other than `want` as [`WireError::UnexpectedFrame`].
    fn expect_frame(&mut self, context: &str, want: FrameType) -> Result<(), WireError> {
        let deadline = self
            .clock
            .now_nanos()
            .saturating_add(self.config.ack_timeout_nanos);
        let clock = Arc::clone(&self.clock);
        let ctx = context.to_string();
        let mut wait = move |_bytes: usize| {
            if clock.now_nanos() >= deadline {
                Err(WireError::timeout(ctx.clone()))
            } else {
                Ok(())
            }
        };
        let frame_type = match wire::read_frame(&mut self.stream, &mut self.buf, &mut wait)? {
            Some(frame_type) => frame_type,
            None => return Err(WireError::closed(format!("server closed while {context}"))),
        };
        if frame_type == FrameType::Error {
            let (code, message) = wire::decode_error_payload(wire::frame_payload(&self.buf))?;
            return Err(WireError::Remote { code, message });
        }
        if frame_type != want {
            return Err(WireError::unexpected(context, frame_type));
        }
        Ok(())
    }

    /// Blocks (draining acks) until the window has room for one more
    /// in-flight batch.
    fn await_window(&mut self) -> Result<(), WireError> {
        while self.inflight.len() >= self.window as usize {
            self.wait_ack()?;
        }
        Ok(())
    }

    /// Encodes and sends one batch with the given shard hint, first
    /// draining acknowledgements until the window has room.  Returns the
    /// batch's sequence number.
    pub fn send_batch(&mut self, shard: u32, batch: &ReportBatch) -> Result<u64, WireError> {
        wire::encode_batch_frame_into(&mut self.frame, self.next_seq, shard, batch)?;
        self.await_window()?;
        wire::write_raw_frame(&mut self.stream, &self.frame)?;
        self.note_sent(batch.n_reports() as u64)
    }

    fn note_sent(&mut self, reports: u64) -> Result<u64, WireError> {
        let seq = self.next_seq;
        self.inflight.push_back(InFlight { seq, reports });
        self.next_seq = self.next_seq.wrapping_add(1);
        Ok(seq)
    }

    /// Waits for the next acknowledgement (oldest in-flight batch) and
    /// returns its sequence number.  Acks arrive strictly in send order;
    /// anything else is [`WireError::Malformed`].
    pub fn wait_ack(&mut self) -> Result<u64, WireError> {
        self.expect_frame("awaiting batch ack", FrameType::BatchAck)?;
        let (seq, total) = wire::decode_batch_ack(wire::frame_payload(&self.buf))?;
        let head = self
            .inflight
            .pop_front()
            .ok_or_else(|| WireError::malformed("ack arrived with nothing in flight"))?;
        if head.seq != seq {
            return Err(WireError::malformed(format!(
                "ack for seq {seq}, expected {}",
                head.seq
            )));
        }
        self.acked_reports = self.acked_reports.saturating_add(head.reports);
        self.server_total = total;
        Ok(seq)
    }

    /// Drains every outstanding acknowledgement.
    pub fn flush(&mut self) -> Result<(), WireError> {
        while !self.inflight.is_empty() {
            self.wait_ack()?;
        }
        Ok(())
    }

    /// Queries the server's ingestion stats (flushing outstanding acks
    /// first, since replies are processed in order).
    pub fn stats(&mut self) -> Result<StatsReply, WireError> {
        self.flush()?;
        wire::write_frame(&mut self.stream, FrameType::StatsQuery, &[])?;
        self.expect_frame("awaiting stats", FrameType::Stats)?;
        wire::decode_json("stats", wire::frame_payload(&self.buf))
    }

    /// Fetches a point-in-time snapshot of the server's merged
    /// accumulator as `mdrr-store` snapshot bytes (parse with
    /// `mdrr_store::Snapshot::from_bytes`).
    pub fn snapshot_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        self.flush()?;
        wire::write_frame(&mut self.stream, FrameType::SnapshotQuery, &[])?;
        self.expect_frame("awaiting snapshot", FrameType::Snapshot)?;
        Ok(wire::frame_payload(&self.buf).to_vec())
    }

    /// Closes the session cleanly: flushes acknowledgements, says
    /// goodbye, and returns the server's final report total.
    pub fn close(mut self) -> Result<u64, WireError> {
        self.flush()?;
        wire::write_frame(&mut self.stream, FrameType::Goodbye, &[])?;
        self.expect_frame("awaiting goodbye ack", FrameType::GoodbyeAck)?;
        wire::decode_goodbye_ack(wire::frame_payload(&self.buf))
    }
}
