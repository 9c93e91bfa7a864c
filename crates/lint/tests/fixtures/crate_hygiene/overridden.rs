//! Fixture lib.rs: `#![deny(missing_docs)]` followed by a crate-level
//! `#![warn(missing_docs)]`. The later attribute wins, so undocumented
//! public items only warn.

#![deny(missing_docs)]
#![warn(missing_docs)]

/// A documented item; the crate's error handling is out of scope here.
pub fn documented() {}
