//! # mdrr-eval
//!
//! Evaluation harness for the MDRR library:
//!
//! * [`queries`] — the coverage-σ count-query workload of Section 6.5;
//! * [`metrics`] — absolute/relative count-query errors (Expression (16))
//!   and the median-over-runs summaries the paper reports;
//! * [`report`] — serializable series/table containers plus plain-text
//!   rendering used by the experiment binaries and EXPERIMENTS.md;
//! * [`obs`] — opt-in query-path instrumentation: [`ObservedEstimator`]
//!   wraps any estimator to count estimates served and time each query
//!   through an injected `mdrr_obs` clock, without changing any answer;
//! * [`experiments`] — one driver per table and figure of the paper
//!   (Figure 1, Figure 2, Table 1, Figure 3, Table 2), plus the Section 3.3
//!   analytic accuracy comparison and the Proposition 1 covariance
//!   attenuation check.
//!
//! ## Example
//!
//! Evaluate one method at reduced scale, exactly as the experiment binaries
//! do:
//!
//! ```
//! use mdrr_eval::{evaluate_method, ExperimentConfig, MethodSpec};
//!
//! let mut config = ExperimentConfig::quick();
//! config.records = 1_000;
//! config.runs = 4;
//! let dataset = config.adult()?;
//!
//! let summary = evaluate_method(
//!     &dataset,
//!     &MethodSpec::Independent { p: 0.7 },
//!     0.1,
//!     config.runs,
//!     config.seed,
//! )?;
//! assert!(summary.median_absolute >= 0.0);
//! # Ok::<(), mdrr_protocols::ProtocolError>(())
//! ```

pub mod experiments;
pub mod metrics;
pub mod obs;
pub mod queries;
pub mod report;

pub use experiments::{
    build_clustering, evaluate_method, run_method_once, ExperimentConfig, MethodSpec,
};
pub use metrics::{absolute_error, median, quantile, relative_error, ErrorSummary};
pub use obs::{ObservedEstimator, QueryObs};
pub use queries::CountQuery;
pub use report::{render_panel, render_table, FigurePanel, Series, TableResult};
