//! Re-creating synthetic microdata from an estimated joint distribution.
//!
//! Sections 1 and 3.2 of the paper note that once the joint distribution of
//! the true data has been estimated from the randomized responses, anyone
//! can materialise a synthetic data set by repeating each value combination
//! according to its estimated frequency.  This example does exactly that
//! for the {Marital-status, Relationship, Sex} cluster of the synthetic
//! Adult and then verifies that the synthetic data preserve the
//! within-cluster dependence structure.
//!
//! ```text
//! cargo run --release --example synthetic_regeneration
//! ```

use mdrr::math::ContingencyTable;
use mdrr::prelude::*;
use mdrr::protocols::synthesize_deterministic;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(11);
    let dataset = AdultSynthesizer::new(32_561)?.generate(&mut rng);
    let schema = dataset.schema().clone();

    // The cluster we release jointly: Marital-status (7) × Relationship (6) × Sex (2).
    let cluster = vec![2usize, 4, 6];
    let names: Vec<&str> = cluster
        .iter()
        .map(|&a| schema.attribute(a).unwrap().name())
        .collect();
    println!(
        "releasing cluster {{{}}} with RR-Joint at p = 0.7",
        names.join(", ")
    );

    // Run RR-Clusters with this single explicit cluster plus singletons for the rest.
    let mut clusters: Vec<Vec<usize>> = vec![cluster.clone()];
    for a in 0..schema.len() {
        if !cluster.contains(&a) {
            clusters.push(vec![a]);
        }
    }
    let clustering = Clustering::new(clusters, schema.len())?;
    let level = RandomizationLevel::KeepProbability(0.7);
    let protocol = RRClusters::with_level(schema.clone(), clustering, &level)?;
    let release = protocol.run(&dataset, &mut rng)?;

    // Estimated joint distribution of the cluster (the release's first
    // adjustment target) → synthetic microdata.
    let estimated = &release.adjustment_targets()?[0].distribution;
    let synthetic = synthesize_deterministic(&schema, &cluster, estimated, dataset.n_records())?;
    println!(
        "synthesized {} records over the projected schema ({} attributes, joint domain {})",
        synthetic.n_records(),
        synthetic.n_attributes(),
        synthetic.schema().joint_domain_size().unwrap()
    );

    // Compare the dependence structure of the true projection vs the synthetic one.
    let true_projection = dataset.project(&cluster)?;
    let v = |ds: &Dataset, i: usize, j: usize| -> f64 {
        let ci = ds.schema().attribute(i).unwrap().cardinality();
        let cj = ds.schema().attribute(j).unwrap().cardinality();
        ContingencyTable::from_codes(ds.column(i).unwrap(), ds.column(j).unwrap(), ci, cj)
            .unwrap()
            .cramers_v()
    };
    println!("\nCramér's V inside the cluster (true vs synthetic):");
    for (i, j, label) in [
        (0usize, 1usize, "Marital × Relationship"),
        (1, 2, "Relationship × Sex"),
        (0, 2, "Marital × Sex"),
    ] {
        println!(
            "  {:<24} true = {:.3}   synthetic = {:.3}",
            label,
            v(&true_projection, i, j),
            v(&synthetic, i, j)
        );
    }

    // Marginals are preserved as well.
    println!("\nMarital-status marginal (true vs synthetic):");
    let true_marginal = true_projection.marginal_distribution(0)?;
    let synthetic_marginal = synthetic.marginal_distribution(0)?;
    for (code, (t, s)) in true_marginal
        .iter()
        .zip(synthetic_marginal.iter())
        .enumerate()
    {
        let label = schema.attribute(2)?.label(code as u32)?;
        println!("  {label:<24} {t:>8.4} {s:>8.4}");
    }

    println!(
        "\nThe synthetic microdata can be shared and analysed like the original cluster while\n\
         every individual response stays protected by the randomized-response mechanism."
    );
    Ok(())
}
