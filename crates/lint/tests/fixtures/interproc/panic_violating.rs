// Helper reachable from a public mdrr-store API (loaded as
// crates/math/src/lib.rs): the `.unwrap()` here is outside the
// scope of clippy's panic deny list, so only the interprocedural
// rule can see that the store's no-panic promise reaches it.
pub fn checked_div(a: u64, b: u64) -> u64 {
    a.checked_div(b).unwrap()
}
