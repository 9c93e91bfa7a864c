//! # mdrr-data
//!
//! Categorical microdata model for the multi-dimensional randomized-response
//! (MDRR) library:
//!
//! * [`schema`] — attributes (name, ordinal/nominal kind, category labels)
//!   and schemas;
//! * [`dataset`] — column-major record storage with the marginal/joint
//!   frequency counting primitives the estimators need;
//! * [`domain`] — the mixed-radix codec that lets RR-Joint and RR-Clusters
//!   treat a Cartesian product of attributes as one categorical attribute;
//! * [`view`] — borrowed ([`RecordsView`]) and owned ([`RecordsBuffer`])
//!   columnar record batches, the zero-copy currency of the batched
//!   encode → ingest pipeline;
//! * [`csv`] — minimal CSV import/export so the real UCI Adult file (or any
//!   categorical CSV) can be used instead of the synthetic generator;
//! * [`adult`] — the synthetic Adult generator used by the experiment
//!   harness (same schema and dependence structure as the paper's data set;
//!   see `DESIGN.md` §4 at the repository root for the substitution
//!   argument).
//!
//! ## Example
//!
//! Build a two-attribute dataset and count joint frequencies through the
//! mixed-radix joint domain:
//!
//! ```
//! use mdrr_data::{Attribute, AttributeKind, Dataset, Schema};
//!
//! let schema = Schema::new(vec![
//!     Attribute::new("smoker", AttributeKind::Nominal,
//!                    vec!["no".into(), "yes".into()])?,
//!     Attribute::new("band", AttributeKind::Ordinal,
//!                    vec!["low".into(), "mid".into(), "high".into()])?,
//! ])?;
//! let mut dataset = Dataset::empty(schema);
//! dataset.push_record(&[0, 2])?;
//! dataset.push_record(&[1, 0])?;
//! dataset.push_record(&[0, 2])?;
//!
//! assert_eq!(dataset.marginal_counts(0)?, vec![2, 1]);
//! let (domain, joint) = dataset.joint_counts(&[0, 1])?;
//! assert_eq!(joint[domain.encode(&[0, 2])?], 2);
//! # Ok::<(), mdrr_data::DataError>(())
//! ```

// No explicit panic on the store and checkpoint path, which reaches this
// crate: a malformed snapshot is a typed error, never an abort.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

pub mod adult;
pub mod csv;
pub mod dataset;
pub mod domain;
pub mod error;
pub mod schema;
pub mod view;

pub use adult::{adult_schema, AdultAttribute, AdultSynthesizer, ADULT_RECORD_COUNT};
pub use dataset::Dataset;
pub use domain::JointDomain;
pub use error::DataError;
pub use schema::{Attribute, AttributeKind, Schema};
pub use view::{RecordsBuffer, RecordsView};
