//! Differential-privacy accounting across the MDRR protocols.
//!
//! The paper compares its methods *at an equivalent level of risk*
//! (Section 6.3): the per-attribute budgets of RR-Independent are summed
//! within each cluster to parameterise RR-Clusters.  This example makes the
//! accounting explicit:
//!
//! * the ε of a single randomization matrix (Expression (4));
//! * the sequential-composition total of an RR-Independent release;
//! * the matching total of the equivalent-risk RR-Clusters release;
//! * what the dependence-estimation step of Section 4.1 adds on top;
//! * how the trade-off between ε and the keep probability behaves.
//!
//! ```text
//! cargo run --release --example privacy_accounting
//! ```

use mdrr::core::epsilon_for_keep_probability;
use mdrr::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let schema = adult_schema();
    let p = 0.7;
    let mut rng = StdRng::seed_from_u64(5);
    let dataset = AdultSynthesizer::new(10_000)?.generate(&mut rng);

    // Per-attribute budgets of RR-Independent at keep probability p.
    println!("per-attribute budgets of RR-Independent at p = {p}:");
    let independent =
        RRClusters::independent(schema.clone(), &RandomizationLevel::KeepProbability(p))?;
    for (attribute, epsilon) in schema.attributes().iter().zip(independent.epsilons()) {
        println!(
            "  {:<16} |A| = {:>2}   epsilon_A = {:>6.3}   (closed form: {:>6.3})",
            attribute.name(),
            attribute.cardinality(),
            epsilon,
            epsilon_for_keep_probability(p, attribute.cardinality())
        );
    }

    // Run the two protocols and compare their ledgers.
    let independent_release = independent.run(&dataset, &mut rng)?;
    println!(
        "\nRR-Independent ledger:\n{}",
        independent_release.accountant()
    );

    let clustering = Clustering::new(
        vec![vec![0, 3], vec![1, 7], vec![2, 4, 6], vec![5]],
        schema.len(),
    )?;
    let clusters =
        RRClusters::with_equivalent_risk(schema.clone(), clustering, &independent.epsilons())?;
    let clusters_release = clusters.run(&dataset, &mut rng)?;
    println!(
        "\nRR-Clusters ledger (equivalent risk, Section 6.3.2):\n{}",
        clusters_release.accountant()
    );

    let diff = (independent_release.accountant().total_sequential()
        - clusters_release.accountant().total_sequential())
    .abs();
    println!(
        "\ntotal budgets differ by {diff:.2e} — the comparison is risk-equivalent by construction."
    );

    // What the dependence-estimation step of Section 4.1 would add.
    let dependence = mdrr::protocols::dependence_via_randomized_attributes(&dataset, p, &mut rng)?;
    let mut full_pipeline = PrivacyAccountant::new();
    full_pipeline.absorb(&dependence.accountant);
    full_pipeline.absorb(clusters_release.accountant());
    println!(
        "\nfull pipeline (dependence estimation + cluster release), sequential composition: {:.3}",
        full_pipeline.total(Composition::Sequential)
    );
    println!(
        "same pipeline if the releases were unlinkable (parallel composition):            {:.3}",
        full_pipeline.total(Composition::Parallel)
    );

    // The ε / keep-probability trade-off for one attribute.
    println!("\nepsilon of the optimal matrix for Education (16 categories) as p varies:");
    for p in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let matrix = RRMatrix::uniform_keep(p, 16)?;
        println!("  p = {p:.1}  ->  epsilon = {:>6.3}", matrix.epsilon());
    }
    Ok(())
}
