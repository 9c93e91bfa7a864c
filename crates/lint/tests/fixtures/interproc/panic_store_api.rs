// A public mdrr-store API (loaded as crates/store/src/api.rs): the
// reachability root.  Its own `.unwrap()` belongs to clippy's
// `unwrap_used` deny, NOT to panic-reachability — asserting the
// interprocedural rule skips it pins the no-double-reporting contract.
use mdrr_math::checked_div;

pub fn load(n: u64) -> u64 {
    let half = checked_div(n, 2);
    let parsed: u64 = "0".parse().unwrap();
    half + parsed
}
