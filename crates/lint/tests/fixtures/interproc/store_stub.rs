// Mini mdrr-store stub (loaded in-memory as crates/store/src/lib.rs).
// `Snapshot::new`, `Snapshot::to_bytes`, `Storage::atomic_write` and
// `Storage::write_snapshot` are privacy-taint sinks by catalog; the stub
// gives the resolver real definitions to land on.
pub struct Snapshot;

impl Snapshot {
    pub fn new(counts: &[u64]) -> Snapshot {
        let _ = counts;
        Snapshot
    }
    pub fn to_bytes(&self) -> Vec<u8> {
        Vec::new()
    }
}

pub struct Storage;

impl Storage {
    pub fn atomic_write(&self, bytes: &[u8]) {
        let _ = bytes;
    }
    pub fn write_snapshot(&self, snap: &Snapshot) {
        let _ = snap;
    }
}
