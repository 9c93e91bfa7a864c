//! `docs/OBSERVABILITY.md`'s metric catalog against the instruments the
//! code registers.
//!
//! The four catalog tables (streaming, store, daemon, query path) must
//! name exactly the metrics — with their kinds and label keys — that
//! `StreamObs::new` (which registers the store's `StoreObs` alongside),
//! `ServeObs::new` and `QueryObs::new` register, in both directions: a
//! metric the code registers but the doc omits fails, and so does a row
//! naming a metric nothing registers.

use mdrr_data::{Attribute, Schema};
use mdrr_eval::QueryObs;
use mdrr_obs::{MetricsSnapshot, MonotonicClock, NullClock, Registry};
use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
use mdrr_serve::{CollectorServer, ServeConfig, ServeObs};
use mdrr_stream::wire::WIRE_HEADER_LEN;
use mdrr_stream::{ClientConfig, StreamObs, WireClient};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// One catalog entry: metric name, kind and label keys.
type Entry = (String, String, Vec<String>);

const CATALOG: &str = include_str!("../docs/OBSERVABILITY.md");

/// The rows of every table under `## Metric catalog`.  A row's metric
/// cell may list several metrics separated by ` / `, with one kind each
/// (or one kind for all); `{a, b}` after a name lists its label keys.
fn documented() -> BTreeSet<Entry> {
    let section = CATALOG
        .split("\n## ")
        .find(|s| s.starts_with("Metric catalog"))
        .expect("docs/OBSERVABILITY.md has a `## Metric catalog` section");
    let mut entries = BTreeSet::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split(" | ").collect();
        let names: Vec<&str> = cells[0].trim_start_matches("| ").split(" / ").collect();
        let kinds: Vec<&str> = cells[1].split(" / ").collect();
        assert!(
            kinds.len() == 1 || kinds.len() == names.len(),
            "row {row:?}: {} metrics but {} kinds",
            names.len(),
            kinds.len()
        );
        for (i, name) in names.iter().enumerate() {
            let name = name.trim_matches('`');
            let (name, labels) = match name.split_once('{') {
                Some((name, labels)) => (
                    name,
                    labels
                        .trim_end_matches('}')
                        .split(',')
                        .map(|l| l.trim().to_string())
                        .collect(),
                ),
                None => (name, Vec::new()),
            };
            let kind = kinds[if kinds.len() == 1 { 0 } else { i }];
            entries.insert((name.to_string(), kind.to_string(), labels));
        }
    }
    entries
}

/// Every instrument in `snapshot`, one entry per metric name (the label
/// values, e.g. one series per shard, collapse).
fn registered(snapshot: &MetricsSnapshot, into: &mut BTreeSet<Entry>) {
    let ids = snapshot
        .counters
        .iter()
        .map(|c| (&c.id, "counter"))
        .chain(snapshot.gauges.iter().map(|g| (&g.id, "gauge")))
        .chain(snapshot.histograms.iter().map(|h| (&h.id, "histogram")));
    for (id, kind) in ids {
        let labels = id.labels.iter().map(|(k, _)| k.clone()).collect();
        into.insert((id.name.clone(), kind.to_string(), labels));
    }
}

/// A daemon whose `serve_frames_total{type}` and
/// `serve_rejects_total{reason}` series have each been hit once — they
/// register lazily, on first use: one client's hello frame (metered
/// before the server acknowledges it, so `connect` returning orders it)
/// and one connection that opens with a bad magic (metered before the
/// server answers and closes, so reading to the end orders it).
fn exercised_serve_obs() -> Arc<ServeObs> {
    let schema = Schema::new(vec![
        Attribute::indexed("A", 3).unwrap(),
        Attribute::indexed("B", 2).unwrap(),
    ])
    .unwrap();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
    let clock = Arc::new(MonotonicClock::new());
    let obs = ServeObs::new(clock.clone());
    let server = CollectorServer::bind(
        "127.0.0.1:0",
        &schema,
        &spec,
        ServeConfig::default(),
        clock.clone(),
        Some(obs.clone()),
    )
    .unwrap();
    let client = WireClient::connect(
        server.local_addr(),
        schema,
        spec,
        ClientConfig::default(),
        clock,
    )
    .unwrap();
    let mut hostile = TcpStream::connect(server.local_addr()).unwrap();
    hostile
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    hostile.write_all(&[0xAB; WIRE_HEADER_LEN]).unwrap();
    let _ = hostile.read_to_end(&mut Vec::new());
    drop((client, hostile));
    server.drain().unwrap();
    obs
}

#[test]
fn metric_catalog_matches_the_registered_instruments() {
    let mut code = BTreeSet::new();
    registered(
        &StreamObs::new(Arc::new(NullClock), 2).registry().snapshot(),
        &mut code,
    );
    registered(&exercised_serve_obs().registry().snapshot(), &mut code);
    let query = Registry::new();
    let _ = QueryObs::new(Arc::new(NullClock), &query);
    registered(&query.snapshot(), &mut code);

    let doc = documented();
    let undocumented: Vec<_> = code.difference(&doc).collect();
    let unregistered: Vec<_> = doc.difference(&code).collect();
    assert!(
        undocumented.is_empty() && unregistered.is_empty(),
        "docs/OBSERVABILITY.md drifted from the code\n\
         registered but not in the catalog: {undocumented:?}\n\
         in the catalog but not registered: {unregistered:?}"
    );
}
