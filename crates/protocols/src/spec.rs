//! Declarative, serde-able protocol configuration.
//!
//! A [`ProtocolSpec`] is a plain data value describing *which* protocol to
//! run and *how strongly* to randomize — the whole configuration surface of
//! the paper's four mechanisms in one `Serialize`/`Deserialize` enum.
//! Experiments, the streaming simulator and examples select protocols by
//! deserializing a spec (from JSON, a config file, a CLI flag) and calling
//! [`ProtocolSpec::build`], instead of hard-coding per-protocol
//! constructor calls:
//!
//! ```
//! use mdrr_data::{Attribute, Schema};
//! use mdrr_protocols::{ProtocolSpec, RandomizationLevel};
//!
//! let schema = Schema::new(vec![
//!     Attribute::indexed("A", 3)?,
//!     Attribute::indexed("B", 2)?,
//! ])?;
//! let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7));
//!
//! // Specs round-trip through JSON…
//! let json = serde_json::to_string(&spec).expect("serializable");
//! let restored: ProtocolSpec = serde_json::from_str(&json).expect("deserializable");
//! assert_eq!(spec, restored);
//!
//! // …and build ready-to-run trait objects.
//! let protocol = restored.build(&schema)?;
//! assert_eq!(protocol.name(), "RR-Independent");
//! assert_eq!(protocol.channel_sizes(), vec![3, 2]);
//! # Ok::<(), mdrr_protocols::MdrrError>(())
//! ```

use crate::adjustment::{AdjustmentConfig, RRAdjustment};
use crate::clustering::Clustering;
use crate::clusters::RRClusters;
use crate::error::MdrrError;
use crate::protocol::{Protocol, RandomizationLevel};
use mdrr_data::Schema;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A declarative description of one of the paper's protocols, constructible
/// from configuration data.
///
/// The [`RandomizationLevel`] of every variant names the *per-attribute*
/// randomization strength RR-Independent would use.  `Joint` and `Clusters`
/// spend those budgets jointly through the Section 6.3.2 equivalent-risk
/// construction by default (`equivalent_risk: true`), so one level buys the
/// same total differential-privacy guarantee under every protocol; with
/// `equivalent_risk: false` they instead apply the keep-probability
/// mechanism directly over each joint domain (the paper's ablation shape).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProtocolSpec {
    /// Protocol 1: per-attribute randomized response.
    Independent {
        /// Strength of the per-attribute randomization.
        level: RandomizationLevel,
    },
    /// Protocol 2: a single randomized response over the full joint domain.
    Joint {
        /// Strength of the randomization (see the enum docs for how the
        /// per-attribute level maps onto the joint matrix).
        level: RandomizationLevel,
        /// Cap on the joint-domain size
        /// ([`crate::DEFAULT_MAX_JOINT_DOMAIN`] when `None`).
        max_domain: Option<usize>,
        /// `true`: equivalent-risk matrix for `Σ_A ε_A` (Section 6.3.2);
        /// `false`: the level's mechanism applied directly over the joint
        /// domain.
        equivalent_risk: bool,
    },
    /// RR-Clusters: RR-Joint within each cluster of a fixed clustering.
    Clusters {
        /// Strength of the randomization.
        level: RandomizationLevel,
        /// The attribute clustering (explicit; derive one with
        /// [`crate::cluster_attributes`] before building the spec).
        clustering: Clustering,
        /// `true`: per-cluster equivalent-risk matrices (Section 6.3.2);
        /// `false`: the keep-probability mechanism directly over each
        /// cluster's joint domain.
        equivalent_risk: bool,
    },
    /// Algorithm 2: any base protocol followed by RR-Adjustment.
    Adjusted {
        /// The protocol whose release is adjusted.
        base: Box<ProtocolSpec>,
        /// Termination parameters of the iterative fitting.
        config: AdjustmentConfig,
    },
}

impl ProtocolSpec {
    /// Spec for RR-Independent at `level`.
    pub fn independent(level: RandomizationLevel) -> Self {
        ProtocolSpec::Independent { level }
    }

    /// Spec for equivalent-risk RR-Joint at `level` with the default
    /// domain cap.
    pub fn joint(level: RandomizationLevel) -> Self {
        ProtocolSpec::Joint {
            level,
            max_domain: None,
            equivalent_risk: true,
        }
    }

    /// Spec for equivalent-risk RR-Clusters at `level` over `clustering`.
    pub fn clusters(level: RandomizationLevel, clustering: Clustering) -> Self {
        ProtocolSpec::Clusters {
            level,
            clustering,
            equivalent_risk: true,
        }
    }

    /// Spec for RR-Adjustment stacked on `self`.
    #[must_use]
    pub fn adjusted(self, config: AdjustmentConfig) -> Self {
        ProtocolSpec::Adjusted {
            base: Box::new(self),
            config,
        }
    }

    /// Display label of the described protocol (without building it).
    pub fn label(&self) -> String {
        match self {
            ProtocolSpec::Independent { .. } => "RR-Independent".to_string(),
            ProtocolSpec::Joint { .. } => "RR-Joint".to_string(),
            ProtocolSpec::Clusters { .. } => "RR-Clusters".to_string(),
            ProtocolSpec::Adjusted { base, .. } => format!("{} + RR-Adjustment", base.label()),
        }
    }

    /// Builds the described protocol for `schema` as a boxed trait object.
    ///
    /// # Errors
    /// Propagates the constructor errors of the concrete protocol
    /// (invalid level, domain cap exceeded, clustering/schema mismatch, …).
    pub fn build(&self, schema: &Schema) -> Result<Box<dyn Protocol>, MdrrError> {
        match self {
            ProtocolSpec::Independent { level } => {
                Ok(Box::new(RRClusters::independent(schema.clone(), level)?))
            }
            ProtocolSpec::Joint {
                level,
                max_domain,
                equivalent_risk,
            } => {
                let joint = if *equivalent_risk {
                    RRClusters::joint(schema.clone(), level, *max_domain)?
                } else {
                    match level {
                        RandomizationLevel::KeepProbability(p) => {
                            RRClusters::joint_with_keep_probability(
                                schema.clone(),
                                *p,
                                *max_domain,
                            )?
                        }
                        RandomizationLevel::EpsilonPerAttribute(eps) => {
                            RRClusters::joint_with_epsilon(schema.clone(), *eps, *max_domain)?
                        }
                        RandomizationLevel::Epsilons(_) => {
                            return Err(MdrrError::config(
                                "per-attribute budget lists require equivalent_risk: true \
                                 for RR-Joint (a direct joint matrix has a single budget)",
                            ));
                        }
                    }
                };
                Ok(Box::new(joint))
            }
            ProtocolSpec::Clusters {
                level,
                clustering,
                equivalent_risk,
            } => {
                let clusters = if *equivalent_risk {
                    RRClusters::with_level(schema.clone(), clustering.clone(), level)?
                } else {
                    match level {
                        RandomizationLevel::KeepProbability(p) => {
                            RRClusters::with_keep_probability(
                                schema.clone(),
                                clustering.clone(),
                                *p,
                            )?
                        }
                        _ => {
                            return Err(MdrrError::config(
                                "equivalent_risk: false for RR-Clusters requires a \
                                 KeepProbability level (the direct mechanism is the \
                                 per-cluster uniform-keep ablation)",
                            ));
                        }
                    }
                };
                Ok(Box::new(clusters))
            }
            ProtocolSpec::Adjusted { base, config } => {
                if matches!(**base, ProtocolSpec::Adjusted { .. }) {
                    // An adjusted release already matches its targets, so a
                    // second adjustment could never run; fail at build time
                    // instead of on the first run().
                    return Err(MdrrError::config(
                        "RR-Adjustment cannot stack on an already-adjusted protocol; \
                         adjust the base protocol once",
                    ));
                }
                let base = base.build_arc(schema)?;
                Ok(Box::new(RRAdjustment::new(base, *config)))
            }
        }
    }

    /// Builds the described protocol as an `Arc<dyn Protocol>` — the shape
    /// the sharded streaming collector and other shared consumers take.
    ///
    /// # Errors
    /// Same conditions as [`ProtocolSpec::build`].
    pub fn build_arc(&self, schema: &Schema) -> Result<Arc<dyn Protocol>, MdrrError> {
        Ok(Arc::from(self.build(schema)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::Attribute;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
            Attribute::indexed("C", 2).unwrap(),
        ])
        .unwrap()
    }

    fn clustering() -> Clustering {
        Clustering::new(vec![vec![0, 1], vec![2]], 3).unwrap()
    }

    #[test]
    fn specs_build_every_protocol_shape() {
        let s = schema();
        let level = RandomizationLevel::KeepProbability(0.7);

        let independent = ProtocolSpec::independent(level.clone()).build(&s).unwrap();
        assert_eq!(independent.channel_sizes(), vec![3, 2, 2]);

        let joint = ProtocolSpec::joint(level.clone()).build(&s).unwrap();
        assert_eq!(joint.channel_sizes(), vec![12]);

        let clusters = ProtocolSpec::clusters(level.clone(), clustering())
            .build(&s)
            .unwrap();
        assert_eq!(clusters.channel_sizes(), vec![6, 2]);

        let adjusted = ProtocolSpec::independent(level.clone())
            .adjusted(AdjustmentConfig::default())
            .build(&s)
            .unwrap();
        assert_eq!(adjusted.name(), "RR-Independent + RR-Adjustment");
        assert_eq!(adjusted.channel_sizes(), vec![3, 2, 2]);

        // Every build branch names its protocol as the spec labels it and
        // spends one budget per channel.
        let specs = [
            ProtocolSpec::independent(level.clone()),
            ProtocolSpec::joint(level.clone()),
            ProtocolSpec::Joint {
                level: level.clone(),
                max_domain: None,
                equivalent_risk: false,
            },
            ProtocolSpec::Joint {
                level: RandomizationLevel::EpsilonPerAttribute(1.0),
                max_domain: None,
                equivalent_risk: false,
            },
            ProtocolSpec::clusters(level.clone(), clustering()),
            ProtocolSpec::Clusters {
                level: level.clone(),
                clustering: clustering(),
                equivalent_risk: false,
            },
            ProtocolSpec::independent(level).adjusted(AdjustmentConfig::default()),
        ];
        for spec in specs {
            let protocol = spec.build(&s).unwrap();
            assert_eq!(protocol.name(), spec.label());
            assert_eq!(
                protocol.epsilons().len(),
                protocol.channel_sizes().len(),
                "{}",
                spec.label()
            );
        }
    }

    #[test]
    fn equivalent_risk_specs_spend_the_independent_budget() {
        let s = schema();
        let level = RandomizationLevel::KeepProbability(0.7);
        let independent = ProtocolSpec::independent(level.clone()).build(&s).unwrap();
        let joint = ProtocolSpec::joint(level.clone()).build(&s).unwrap();
        let clusters = ProtocolSpec::clusters(level, clustering())
            .build(&s)
            .unwrap();
        let total = independent.total_epsilon();
        assert!((joint.total_epsilon() - total).abs() < 1e-9);
        assert!((clusters.total_epsilon() - total).abs() < 1e-9);
    }

    #[test]
    fn direct_specs_match_the_legacy_constructors() {
        let s = schema();
        let spec = ProtocolSpec::Joint {
            level: RandomizationLevel::KeepProbability(0.5),
            max_domain: None,
            equivalent_risk: false,
        };
        let direct = spec.build(&s).unwrap();
        let legacy = RRClusters::joint_with_keep_probability(s.clone(), 0.5, None).unwrap();
        assert_eq!(direct.epsilons(), Protocol::epsilons(&legacy));

        let spec = ProtocolSpec::Clusters {
            level: RandomizationLevel::KeepProbability(0.5),
            clustering: clustering(),
            equivalent_risk: false,
        };
        let direct = spec.build(&s).unwrap();
        let legacy = RRClusters::with_keep_probability(s, clustering(), 0.5).unwrap();
        assert_eq!(direct.epsilons(), Protocol::epsilons(&legacy));
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let s = schema();
        // Budget lists cannot drive a direct joint matrix.
        assert!(ProtocolSpec::Joint {
            level: RandomizationLevel::Epsilons(vec![1.0, 1.0, 1.0]),
            max_domain: None,
            equivalent_risk: false,
        }
        .build(&s)
        .is_err());
        // Direct clusters require a keep probability.
        assert!(ProtocolSpec::Clusters {
            level: RandomizationLevel::EpsilonPerAttribute(1.0),
            clustering: clustering(),
            equivalent_risk: false,
        }
        .build(&s)
        .is_err());
        // Domain caps still apply.
        assert!(ProtocolSpec::Joint {
            level: RandomizationLevel::KeepProbability(0.5),
            max_domain: Some(5),
            equivalent_risk: true,
        }
        .build(&s)
        .is_err());
        // Constructor validation propagates.
        assert!(
            ProtocolSpec::independent(RandomizationLevel::KeepProbability(1.5))
                .build(&s)
                .is_err()
        );
        // Double adjustment can never produce a release; rejected at build.
        let config = AdjustmentConfig::default();
        assert!(
            ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.5))
                .adjusted(config)
                .adjusted(config)
                .build(&s)
                .is_err()
        );
    }

    #[test]
    fn labels_describe_the_stack() {
        let spec = ProtocolSpec::clusters(RandomizationLevel::KeepProbability(0.7), clustering())
            .adjusted(AdjustmentConfig::default());
        assert_eq!(spec.label(), "RR-Clusters + RR-Adjustment");
    }

    #[test]
    fn json_round_trip_preserves_nested_specs() {
        let spec = ProtocolSpec::clusters(
            RandomizationLevel::Epsilons(vec![0.5, 1.0, 2.0]),
            clustering(),
        )
        .adjusted(AdjustmentConfig::new(25, 1e-8).unwrap());
        let json = serde_json::to_string(&spec).unwrap();
        let restored: ProtocolSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, restored);
    }
}
