//! Error type of the streaming subsystem.
//!
//! The streaming layer reports the same [`MdrrError`] as the protocol layer
//! it sits on — shape violations (zero shards, a report that does not match
//! the protocol's channels, mismatched accumulator layouts) surface as
//! [`MdrrError::InvalidConfiguration`], and protocol errors propagate
//! unchanged through `?` with no wrapping.

pub use mdrr_protocols::MdrrError;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_errors_are_mdrr_errors() {
        // One error type across the layers: the streaming layer's error is
        // the protocol layer's, so protocol errors flow into streaming
        // signatures without conversion.
        let e: MdrrError = mdrr_protocols::MdrrError::config("zero shards");
        assert!(e.to_string().contains("zero shards"));
        let p: MdrrError = mdrr_protocols::ProtocolError::config("bad");
        assert!(p.to_string().contains("bad"));
    }
}
