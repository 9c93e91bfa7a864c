//! The two socket workloads: `wire_bulk` (closed loop, saturating) and
//! `wire_paced` (open loop at a fixed offered rate, with an analyst
//! reading estimates beside the writer).
//!
//! Both drive an in-process `mdrr-serve` daemon on 127.0.0.1 through the
//! `WireClient` SDK, exactly as a client device would: each batch of true
//! records is randomized with `Protocol::encode_batch` and handed to
//! `WireClient::send_batch`, which frames, checksums and writes it.  The
//! benchmark reads every acknowledgement itself (`WireClient::wait_ack`),
//! so each batch's latency is known exactly.

use crate::openloop::{OpenLoop, Slots};
use crate::trace::{ThreadTrace, Tracer};
use crate::{derive_seed, window, Capture, Ctx, Pass, SETUPS};
use mdrr_data::{adult_schema, AdultSynthesizer, RecordsBuffer, Schema};
use mdrr_obs::{Clock, MonotonicClock};
use mdrr_protocols::{Protocol, ProtocolSpec, RandomizationLevel};
use mdrr_serve::{CollectorServer, ServeConfig, ServeObs};
use mdrr_store::Snapshot;
use mdrr_stream::wire::{self, BATCH_PAYLOAD_HEADER_LEN};
use mdrr_stream::{ClientConfig, ReportBatch, ShardedCollector, WireClient};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

/// Keep probability of every workload's mechanism (as in `stream_sim`).
pub const KEEP_PROBABILITY: f64 = 0.7;

/// `wire_bulk`: reports per batch frame.
const BULK_BATCH: usize = 4096;
/// `wire_bulk`: true records per connection in the pool (re-randomized on
/// every pass).
const BULK_POOL_PER_CONN: usize = 16 * BULK_BATCH;
/// `wire_bulk`: how long the analyst keeps obtaining estimates from the
/// final snapshot after the collection job ends.
const BULK_RELEASE_NS: u64 = 1_000_000_000;

/// `wire_paced`: reports per batch frame.
pub const PACED_BATCH: usize = 64;
/// `wire_paced`: the offered load, in batch frames per second.
pub const PACED_FRAMES_PER_S: u64 = 2_000;
/// `wire_paced`: true records in the writer's pool.
const PACED_POOL: usize = 1024 * PACED_BATCH;
/// `wire_paced`: the analyst asks for estimates this often.  The period
/// is no multiple of the writer's, so the analyst's queries fall at every
/// phase of the writer's schedule over a run rather than at one phase
/// fixed by start-up jitter.
const ANALYST_PERIOD_NS: u64 = 10_137_000;
/// `wire_paced`: the attributes RR-Joint runs over (a 1008-cell domain).
const JOINT_ATTRIBUTES: [usize; 3] = [0, 1, 2];

/// Batches (and their sequence numbers and shard hints) kept from a
/// traced pass for the replay loops, bounded by reports.
const CAPTURE_REPORTS: usize = 64 * 1024;

/// Which socket workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Closed loop, RR-Independent over the full Adult schema.
    Bulk,
    /// Open loop, RR-Joint over Adult attributes 0–2, plus an analyst.
    Paced,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Bulk => "wire_bulk",
            Mode::Paced => "wire_paced",
        }
    }

    fn batch(self) -> usize {
        match self {
            Mode::Bulk => BULK_BATCH,
            Mode::Paced => PACED_BATCH,
        }
    }

    fn pool_per_conn(self) -> usize {
        match self {
            Mode::Bulk => BULK_POOL_PER_CONN,
            Mode::Paced => PACED_POOL,
        }
    }

    /// The mechanism and the schema it runs over.
    fn spec(self) -> Result<(ProtocolSpec, Schema), String> {
        let level = RandomizationLevel::KeepProbability(KEEP_PROBABILITY);
        match self {
            Mode::Bulk => Ok((ProtocolSpec::independent(level), adult_schema())),
            Mode::Paced => Ok((
                ProtocolSpec::Joint {
                    level,
                    max_domain: None,
                    equivalent_risk: false,
                },
                adult_schema()
                    .project(&JOINT_ATTRIBUTES)
                    .map_err(|e| e.to_string())?,
            )),
        }
    }
}

/// Everything one set-up built: the daemon, the dialled connections and
/// the writers' record pools.
struct Rig {
    spec: ProtocolSpec,
    schema: Schema,
    protocol: Arc<dyn Protocol>,
    pools: Vec<RecordsBuffer>,
    obs: Arc<ServeObs>,
    server: CollectorServer,
    writers: Vec<WireClient>,
    analyst: Option<WireClient>,
    dir: PathBuf,
}

impl Rig {
    /// Set-up: protocol build, record pool generation, daemon bind, dial
    /// and handshake of every connection, checkpoint directory creation.
    fn build(ctx: &Ctx, mode: Mode, k: usize, trace: &mut ThreadTrace) -> Result<Rig, String> {
        let (spec, schema) = mode.spec()?;
        let protocol = spec.build_arc(&schema).map_err(|e| e.to_string())?;
        let writers = match mode {
            Mode::Bulk => ctx.load_threads(),
            Mode::Paced => 1,
        };
        let synth = AdultSynthesizer::paper_sized();
        let arity = schema.len();
        let mut pools = Vec::with_capacity(writers);
        for c in 0..writers {
            let n = mode.pool_per_conn();
            let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, 100 + c as u64));
            let mut pool = RecordsBuffer::new(arity).map_err(|e| e.to_string())?;
            trace.begin("data.generate", c as u64);
            for _ in 0..n {
                let mut record = synth.sample_record(&mut rng);
                record.truncate(arity);
                pool.push_record(&record).map_err(|e| e.to_string())?;
            }
            trace.end(n as u64);
            pools.push(pool);
        }
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let obs = ServeObs::new(Arc::clone(&clock));
        let config = ServeConfig {
            n_shards: ctx.load_threads(),
            ..ServeConfig::default()
        };
        let server = CollectorServer::bind(
            "127.0.0.1:0",
            &schema,
            &spec,
            config,
            Arc::clone(&clock),
            Some(Arc::clone(&obs)),
        )
        .map_err(|e| format!("cannot bind the collector daemon: {e}"))?;
        let dial = || {
            WireClient::connect(
                server.local_addr(),
                schema.clone(),
                spec.clone(),
                ClientConfig::default(),
                Arc::clone(&clock),
            )
            .map_err(|e| format!("cannot dial the collector daemon: {e}"))
        };
        let writer_clients = (0..writers)
            .map(|_| dial())
            .collect::<Result<Vec<_>, _>>()?;
        let analyst = match mode {
            Mode::Paced => Some(dial()?),
            Mode::Bulk => None,
        };
        let dir = ctx.scratch_dir(mode.name(), k);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Rig {
            spec,
            schema,
            protocol,
            pools,
            obs,
            server,
            writers: writer_clients,
            analyst,
            dir,
        })
    }

    /// Tears down a discarded set-up.
    fn discard(self) -> Result<(), String> {
        for client in self.writers.into_iter().chain(self.analyst) {
            client.close().map_err(|e| e.to_string())?;
        }
        self.server.drain().map_err(|e| e.to_string())?;
        std::fs::remove_dir_all(&self.dir).map_err(|e| e.to_string())
    }
}

/// What one writer connection did in the timed section.
#[derive(Debug, Default)]
struct WriterOutcome {
    batches: u64,
    reports: u64,
    bytes: u64,
    acked: u64,
    window_full: u64,
    queries: u64,
    acks: Vec<(u64, u64)>,
    late_ns: Vec<u64>,
    unsent: u64,
    captured: Vec<(u64, u32, ReportBatch)>,
}

/// One writer connection: randomizes batches from its pool and sends
/// them through the SDK, reading every acknowledgement itself.
struct Writer<'a> {
    ctx: &'a Ctx,
    client: WireClient,
    protocol: &'a dyn Protocol,
    pool: &'a RecordsBuffer,
    batch_size: usize,
    rng: StdRng,
    batch: ReportBatch,
    /// Slots in flight, oldest first (acknowledgements arrive in order).
    in_flight: VecDeque<u64>,
    /// Reports acknowledged so far, across writers (read by the sampler).
    done: &'a AtomicU64,
    capture: bool,
    out: WriterOutcome,
    trace: ThreadTrace<'a>,
}

impl<'a> Writer<'a> {
    fn new(
        ctx: &'a Ctx,
        protocol: &'a dyn Protocol,
        pool: &'a RecordsBuffer,
        client: WireClient,
        (mode, conn): (Mode, usize),
        done: &'a AtomicU64,
        trace: ThreadTrace<'a>,
    ) -> Self {
        Writer {
            ctx,
            client,
            protocol,
            pool,
            batch_size: mode.batch(),
            rng: StdRng::seed_from_u64(writer_seed(ctx.seed, conn)),
            batch: ReportBatch::for_protocol(protocol),
            in_flight: VecDeque::new(),
            done,
            capture: trace.enabled(),
            out: WriterOutcome::default(),
            trace,
        }
    }

    /// Reads one acknowledgement, noting when it was observed.
    fn read_ack(&mut self, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        self.client.wait_ack().map_err(|e| format!("ack: {e}"))?;
        let at = self.ctx.now();
        let slot = self
            .in_flight
            .pop_front()
            .ok_or("acknowledgement with nothing in flight")?;
        acks.push((slot, at));
        self.done
            .fetch_add(self.batch_size as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Randomizes batch `slot` from the pool and sends it, first making
    /// room in the window.
    fn send_slot(&mut self, slot: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        let n_chunks = (self.pool.n_records() / self.batch_size) as u64;
        let start = ((slot % n_chunks) as usize) * self.batch_size;
        let view = self.pool.view();
        let chunk = view
            .slice(start..start + self.batch_size)
            .map_err(|e| e.to_string())?;
        self.trace.begin("protocols.encode_batch", slot);
        self.batch.clear();
        let encoded = self
            .protocol
            .encode_batch(&chunk, &mut self.rng, self.batch.channels_mut());
        self.trace.end(self.batch_size as u64);
        encoded.map_err(|e| format!("encode_batch: {e}"))?;
        let window = self.client.window() as usize;
        if self.client.in_flight() >= window {
            self.out.window_full += 1;
            self.trace.begin("stream.client.ack_wait", slot);
            let waited = (|| {
                while self.client.in_flight() >= window {
                    self.read_ack(acks)?;
                }
                Ok::<(), String>(())
            })();
            self.trace.end(0);
            waited?;
        }
        let shard = (slot % self.client.n_shards() as u64) as u32;
        self.in_flight.push_back(slot);
        self.trace.begin("stream.client.send", slot);
        let sent = self.client.send_batch(shard, &self.batch);
        self.trace.end(self.batch_size as u64);
        let seq = sent.map_err(|e| format!("send_batch: {e}"))?;
        if self.capture && self.out.captured.len() * self.batch_size < CAPTURE_REPORTS {
            self.out.captured.push((seq, shard, self.batch.clone()));
        }
        self.out.batches += 1;
        self.out.reports += self.batch_size as u64;
        self.out.bytes += wire::frame_len(
            BATCH_PAYLOAD_HEADER_LEN + self.batch.n_channels() * self.batch_size * 4,
        ) as u64;
        Ok(())
    }

    fn read_all(&mut self, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        self.trace.begin("stream.client.ack_wait", u64::MAX);
        let mut result = Ok(());
        while result.is_ok() && self.client.in_flight() > 0 {
            result = self.read_ack(acks);
        }
        self.trace.end(0);
        result
    }

    /// The closed loop: batch after batch until the deadline.  A batch is
    /// due when it is handed to the SDK, so its latency runs from its
    /// send call to its acknowledgement.
    fn run_closed(&mut self, deadline: u64) -> Result<(), String> {
        let mut acks = Vec::new();
        let mut due_at = Vec::new();
        let mut slot = 0u64;
        while self.ctx.now() < deadline {
            due_at.push(self.ctx.now());
            self.send_slot(slot, &mut acks)?;
            slot += 1;
        }
        self.read_all(&mut acks)?;
        for (slot, at) in acks {
            let due = due_at.get(slot as usize).copied().unwrap_or(at);
            self.out.acks.push((at, at.saturating_sub(due)));
        }
        // Each writer reads the daemon's merged counts once before it
        // leaves, so the query path is timed in place on this workload too.
        let bytes = self
            .trace
            .span("stream.client.snapshot_query", u64::MAX, 1, || {
                self.client.snapshot_bytes()
            })
            .map_err(|e| format!("snapshot query: {e}"))?;
        self.out.queries += 1;
        let snapshot = Snapshot::from_bytes(&bytes).map_err(|e| format!("snapshot decode: {e}"))?;
        if snapshot.n_reports() < self.out.reports {
            return Err(format!(
                "snapshot holds {} reports, this writer alone had {} acknowledged",
                snapshot.n_reports(),
                self.out.reports
            ));
        }
        Ok(())
    }

    /// Closes the connection and hands back the outcome.
    fn finish(mut self) -> Result<WriterOutcome, String> {
        self.out.acked = self.client.acked_reports();
        self.client.close().map_err(|e| format!("close: {e}"))?;
        self.trace.finish();
        Ok(self.out)
    }
}

impl Slots for Writer<'_> {
    fn now(&self) -> u64 {
        self.ctx.now()
    }

    fn idle_until(&mut self, t: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        // Read acknowledgements as they come while the next slot is not
        // yet due, then sleep out the rest of the period.
        if self.client.in_flight() > 0 && self.ctx.now() < t {
            self.trace.begin("stream.client.ack_wait", u64::MAX);
            let mut result = Ok(());
            while result.is_ok() && self.client.in_flight() > 0 && self.ctx.now() < t {
                result = self.read_ack(acks);
            }
            self.trace.end(0);
            result?;
        }
        let now = self.ctx.now();
        if now < t {
            self.trace.begin("load.idle", u64::MAX);
            std::thread::sleep(std::time::Duration::from_nanos(t - now));
            self.trace.end(0);
        }
        Ok(())
    }

    fn send(&mut self, slot: u64, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        self.send_slot(slot, acks)
    }

    fn flush(&mut self, acks: &mut Vec<(u64, u64)>) -> Result<(), String> {
        self.read_all(acks)
    }
}

/// The RNG stream of writer connection `conn`.
fn writer_seed(seed: u64, conn: usize) -> u64 {
    derive_seed(seed, 200 + conn as u64)
}

/// What the analyst connection of `wire_paced` did.
#[derive(Debug, Default)]
struct AnalystOutcome {
    queries: u64,
    releases: Vec<(u64, u64)>,
    last_snapshot: Vec<u8>,
}

/// The analyst: at a fixed cadence, fetch a snapshot over the wire,
/// decode it, release estimates and compute every one-way marginal.
fn analyst(
    ctx: &Ctx,
    client: &mut WireClient,
    start: u64,
    deadline: u64,
    trace: &mut ThreadTrace,
) -> Result<AnalystOutcome, String> {
    let mut out = AnalystOutcome::default();
    let mut last_reports = 0u64;
    trace.begin("load.analyst", 0);
    let result = (|| {
        for j in 1.. {
            let due = start + j * ANALYST_PERIOD_NS;
            if due >= deadline {
                break;
            }
            let now = ctx.now();
            if now < due {
                trace.span("load.idle", j, 0, || {
                    std::thread::sleep(std::time::Duration::from_nanos(due - now))
                });
            }
            let t0 = ctx.now();
            trace.begin("load.release", j);
            let bytes = trace
                .span("stream.client.snapshot_query", j, 1, || {
                    client.snapshot_bytes()
                })
                .map_err(|e| format!("snapshot query: {e}"))?;
            let snapshot = trace
                .span("store.snapshot_decode", j, 1, || {
                    Snapshot::from_bytes(&bytes)
                })
                .map_err(|e| format!("snapshot decode: {e}"))?;
            let release = trace
                .span("protocols.release_from_counts", j, 1, || snapshot.release())
                .map_err(|e| format!("release: {e}"))?;
            let m = snapshot.schema().len();
            trace
                .span("protocols.marginals", j, 1, || {
                    (0..m).try_for_each(|a| release.marginal(a).map(drop))
                })
                .map_err(|e| format!("marginal: {e}"))?;
            trace.end(0);
            let t1 = ctx.now();
            out.releases.push((t1, t1 - t0));
            out.queries += 1;
            if snapshot.n_reports() < last_reports {
                return Err(format!(
                    "snapshot went backwards: {} reports after {last_reports}",
                    snapshot.n_reports()
                ));
            }
            last_reports = snapshot.n_reports();
            out.last_snapshot = bytes;
        }
        Ok(())
    })();
    trace.end(0);
    result.map(|()| out)
}

/// Runs one timed pass of a socket workload.
pub fn run(ctx: &Ctx, mode: Mode, tracer: Option<&Tracer>) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut setup_trace = ThreadTrace::on(tracer, "setup");
    let mut rig = None;
    for k in 0..SETUPS {
        let t0 = ctx.now();
        // Only the kept set-up is traced, so the ledger counts one pool.
        let built = if k + 1 == SETUPS {
            Rig::build(ctx, mode, k, &mut setup_trace)
        } else {
            Rig::build(ctx, mode, k, &mut ThreadTrace::off())
        }?;
        pass.setup_ns.push(ctx.now() - t0);
        if k + 1 == SETUPS {
            rig = Some(built);
        } else {
            built.discard()?;
        }
    }
    setup_trace.finish();
    let rig = rig.ok_or("no set-up ran")?;
    let Rig {
        spec,
        schema,
        protocol,
        pools,
        obs,
        server,
        writers,
        analyst: analyst_client,
        dir,
    } = rig;
    let span_ns = (ctx.seconds * 1e9) as u64;
    let n_writers = writers.len();
    let barrier = Barrier::new(n_writers + 2 + usize::from(analyst_client.is_some()));
    let done = AtomicU64::new(0);
    let mut main_trace = ThreadTrace::on(tracer, "main");

    let cpu0 = crate::sys::process_cpu_nanos()?;
    let (start, writer_results, analyst_result, bounds) = std::thread::scope(|s| {
        let writer_handles: Vec<_> = writers
            .into_iter()
            .zip(pools.iter())
            .enumerate()
            .map(|(c, (client, pool))| {
                let (barrier, done) = (&barrier, &done);
                let protocol: &dyn Protocol = &*protocol;
                s.spawn(move || {
                    let trace = ThreadTrace::on(tracer, format!("writer-{c}"));
                    let mut w = Writer::new(ctx, protocol, pool, client, (mode, c), done, trace);
                    barrier.wait();
                    let start = ctx.now();
                    w.trace.begin("load.writer", c as u64);
                    let result = match mode {
                        Mode::Bulk => w.run_closed(start + span_ns),
                        Mode::Paced => {
                            let schedule = OpenLoop {
                                start,
                                period: 1_000_000_000 / PACED_FRAMES_PER_S,
                            };
                            // A backlog still unsent after twice the run
                            // length is abandoned and counted.
                            schedule
                                .run(start + span_ns, start + 2 * span_ns, &mut w)
                                .map(|o| {
                                    w.out.acks = o.acks;
                                    w.out.late_ns = o.late_ns;
                                    w.out.unsent = o.unsent;
                                })
                        }
                    };
                    let reports = w.out.reports;
                    w.trace.end(reports);
                    result.and_then(|()| w.finish())
                })
            })
            .collect();
        let analyst_handle = analyst_client.map(|mut client| {
            let barrier = &barrier;
            s.spawn(move || {
                let mut trace = ThreadTrace::on(tracer, "analyst");
                barrier.wait();
                let start = ctx.now();
                let out = analyst(ctx, &mut client, start, start + span_ns, &mut trace);
                trace.finish();
                let closed = client.close().map_err(|e| format!("analyst close: {e}"));
                out.and_then(|o| closed.map(|_| o))
            })
        });
        let sampler = s.spawn(|| {
            barrier.wait();
            window::sample(ctx, ctx.now(), span_ns, &done)
        });
        barrier.wait();
        let start = ctx.now();
        let writers: Vec<Result<WriterOutcome, String>> = writer_handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a writer thread panicked".into()))
            })
            .collect();
        let analyst = analyst_handle.map(|h| {
            h.join()
                .unwrap_or_else(|_| Err("the analyst thread panicked".into()))
        });
        let bounds = sampler
            .join()
            .unwrap_or_else(|_| Err("the sampler thread panicked".into()));
        (start, writers, analyst, bounds)
    });

    // The collection job is done once its data is durable: drain the
    // daemon and checkpoint what it acknowledged (the two halves of
    // `CollectorServer::drain_to_checkpoint`, timed apart).
    main_trace.begin("load.durable", 0);
    let drained = main_trace.span("serve.drain", 0, 0, || server.drain());
    let drained = drained.map_err(|e| format!("drain: {e}"))?;
    let manifest = main_trace.span(
        "store.checkpoint",
        0,
        drained.collector.total_reports(),
        || drained.checkpoint(&dir, None),
    );
    main_trace.end(0);
    let mut bounds = bounds?;
    bounds.push(window::boundary(ctx, &done)?);
    let end = ctx.now();
    let cpu1 = crate::sys::process_cpu_nanos()?;
    main_trace.finish();
    pass.bounds = bounds;

    pass.wall_ns = end - start;
    pass.cpu_ns = cpu1.saturating_sub(cpu0);
    pass.load_threads = n_writers + usize::from(analyst_result.is_some());

    let mut outcomes = Vec::new();
    for (c, r) in writer_results.into_iter().enumerate() {
        match r {
            Ok(o) => outcomes.push(o),
            Err(e) => pass.fail(format!("writer {c}: {e}")),
        }
    }
    if let Some(r) = analyst_result {
        match r {
            Ok(a) => {
                pass.attempted += a.queries;
                pass.releases = a.releases;
                pass.capture_snapshot = a.last_snapshot;
            }
            Err(e) => pass.fail(format!("analyst: {e}")),
        }
    }
    let manifest = match manifest {
        Ok(m) => Some(m),
        Err(e) => {
            pass.fail(format!("checkpoint: {e}"));
            None
        }
    };
    pass.attempted += 1; // the drain checkpoint

    let sent: u64 = outcomes.iter().map(|o| o.reports).sum();
    let batches: u64 = outcomes.iter().map(|o| o.batches).sum();
    let client_acked: u64 = outcomes.iter().map(|o| o.acked).sum();
    let bytes: u64 = outcomes.iter().map(|o| o.bytes).sum();
    let window_full: u64 = outcomes.iter().map(|o| o.window_full).sum();
    let unsent: u64 = outcomes.iter().map(|o| o.unsent).sum();
    pass.attempted += batches + outcomes.iter().map(|o| o.queries).sum::<u64>();
    pass.reports = client_acked;
    for o in &mut outcomes {
        pass.acks.append(&mut o.acks);
        pass.late_ns.append(&mut o.late_ns);
    }

    // Correctness gate: every report sent was acknowledged to its client,
    // acknowledged by the server, drained and made durable, exactly.
    let server_total = drained.collector.total_reports();
    let checks = [
        ("client-acked", client_acked),
        ("server-acked", drained.acked_reports),
        ("drained", server_total),
        (
            "checkpointed",
            manifest.as_ref().map_or(0, |m| m.total_reports),
        ),
    ];
    for (what, n) in checks {
        if n != sent {
            pass.fail(format!("{what} reports {n} != sent {sent}"));
        }
    }
    let registry = obs.registry().snapshot();
    let sum_counter = |name: &str| -> u64 {
        registry
            .counters
            .iter()
            .filter(|c| c.id.name == name)
            .map(|c| c.value)
            .sum()
    };
    let rejects = sum_counter("serve_rejects_total");
    if rejects != 0 {
        pass.failed += rejects;
        pass.problems
            .push(format!("the daemon rejected {rejects} frames"));
    }
    // The drained counts must equal a reference tally recomputed from the
    // same seeds, cell for cell.
    let reference = reference_tally(ctx, &*protocol, &pools, mode, &outcomes)?;
    match drained.collector.merged() {
        Ok(merged) if merged.counts() == reference.as_slice() => {}
        Ok(_) => pass.fail("drained counts differ from the reference tally".to_string()),
        Err(e) => pass.fail(format!("merge: {e}")),
    }
    // The durable checkpoint must restore to the drained shards.
    match ShardedCollector::restore(&dir) {
        Ok(restored) if restored.collector.shards() == drained.collector.shards() => {}
        Ok(_) => pass.fail("restored checkpoint differs from the drained shards".to_string()),
        Err(e) => pass.fail(format!("restore: {e}")),
    }

    if mode == Mode::Bulk {
        // The analyst of a finished job: estimates from the final
        // snapshot, as the daemon serves it to a `SnapshotQuery` — decode,
        // release, every one-way marginal.
        let bytes = snapshot_bytes(&schema, &spec, &drained.collector)?;
        let mut trace = ThreadTrace::on(tracer, "after-job");
        let until = ctx.now() + BULK_RELEASE_NS;
        for j in 0.. {
            if ctx.now() >= until {
                break;
            }
            let t0 = ctx.now();
            trace.begin("load.release", j);
            let released = (|| {
                let snapshot = trace
                    .span("store.snapshot_decode", j, 1, || {
                        Snapshot::from_bytes(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                let release = trace
                    .span("protocols.release_from_counts", j, 1, || snapshot.release())
                    .map_err(|e| e.to_string())?;
                trace
                    .span("protocols.marginals", j, 1, || {
                        (0..schema.len()).try_for_each(|a| release.marginal(a).map(drop))
                    })
                    .map_err(|e| e.to_string())
            })();
            trace.end(0);
            pass.attempted += 1;
            match released {
                Ok(()) => {
                    let t1 = ctx.now();
                    pass.releases.push((t1, t1 - t0));
                }
                Err(e) => pass.fail(format!("release after drain: {e}")),
            }
        }
        trace.finish();
        pass.capture_snapshot = bytes;
    }

    pass.figures = vec![
        (
            "stream.wire.bytes_per_report",
            bytes as f64 / sent.max(1) as f64,
            "B",
        ),
        (
            "stream.client.window_full_frac",
            window_full as f64 / batches.max(1) as f64,
            "fraction",
        ),
        (
            "serve.frames_total",
            sum_counter("serve_frames_total") as f64,
            "count",
        ),
        (
            "serve.bytes_read_total",
            sum_counter("serve_bytes_read_total") as f64,
            "count",
        ),
        ("serve.rejects_total", rejects as f64, "count"),
        ("load.batches_sent", batches as f64, "count"),
        ("load.batches_unsent", unsent as f64, "count"),
        ("load.batch_reports", mode.batch() as f64, "count"),
    ];
    if tracer.is_some() {
        let mut batches = Vec::new();
        for o in &mut outcomes {
            batches.append(&mut o.captured);
        }
        let collector = drained.collector.clone();
        if pass.capture_snapshot.is_empty() {
            pass.capture_snapshot = snapshot_bytes(&schema, &spec, &collector)?;
        }
        pass.capture = Some(Capture {
            spec,
            schema,
            protocol,
            records: pools.into_iter().next().ok_or("no pool")?,
            batches,
            collector,
        });
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    Ok(pass)
}

/// The merged counts of a collector as durable snapshot bytes — what the
/// daemon answers a `SnapshotQuery` with.
pub fn snapshot_bytes(
    schema: &Schema,
    spec: &ProtocolSpec,
    collector: &ShardedCollector,
) -> Result<Vec<u8>, String> {
    let merged = collector.merged().map_err(|e| e.to_string())?;
    Snapshot::new(
        schema.clone(),
        spec.clone(),
        merged.counts().to_vec(),
        merged.n_reports(),
    )
    .and_then(|s| s.to_bytes())
    .map_err(|e| e.to_string())
}

/// Re-randomizes every batch each writer sent, from the same seeds and
/// pool chunks, and counts the codes: the tally the daemon must hold.
fn reference_tally(
    ctx: &Ctx,
    protocol: &dyn Protocol,
    pools: &[RecordsBuffer],
    mode: Mode,
    outcomes: &[WriterOutcome],
) -> Result<Vec<Vec<u64>>, String> {
    let sizes = protocol.channel_sizes();
    let batch_size = mode.batch();
    let partials: Vec<Result<Vec<Vec<u64>>, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = outcomes
            .iter()
            .zip(pools)
            .enumerate()
            .map(|(c, (o, pool))| {
                let sizes = &sizes;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(writer_seed(ctx.seed, c));
                    let mut tally: Vec<Vec<u64>> = sizes.iter().map(|&n| vec![0u64; n]).collect();
                    let mut batch = ReportBatch::for_protocol(protocol);
                    let n_chunks = (pool.n_records() / batch_size) as u64;
                    let view = pool.view();
                    for slot in 0..o.batches {
                        let start = ((slot % n_chunks) as usize) * batch_size;
                        let chunk = view
                            .slice(start..start + batch_size)
                            .map_err(|e| e.to_string())?;
                        batch.clear();
                        protocol
                            .encode_batch(&chunk, &mut rng, batch.channels_mut())
                            .map_err(|e| e.to_string())?;
                        for (counts, codes) in tally.iter_mut().zip(batch.channels()) {
                            for &code in codes {
                                let cell = counts
                                    .get_mut(code as usize)
                                    .ok_or_else(|| format!("code {code} out of range"))?;
                                *cell += 1;
                            }
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a reference thread panicked".into()))
            })
            .collect()
    });
    let mut total: Vec<Vec<u64>> = sizes.iter().map(|&n| vec![0u64; n]).collect();
    for partial in partials {
        for (t, p) in total.iter_mut().zip(partial?) {
            for (a, b) in t.iter_mut().zip(p) {
                *a += b;
            }
        }
    }
    Ok(total)
}
