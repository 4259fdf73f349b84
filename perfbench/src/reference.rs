//! The stored pedestrian reference and its generator.
//!
//! The pedestrian has no closed-form posterior, so its bounds are
//! checked against an importance-sampling estimate computed once,
//! offline, and stored here with a tolerance: no Monte-Carlo runs inside
//! a measured run. Regenerate with
//! `perfbench --make-reference --samples 200000` (eight independent
//! replicates of that many likelihood-weighted runs; the value is their
//! mean, the tolerance five standard errors plus 0.002).

use bench::models;
use gubpi_inference::{importance_sample, ImportanceOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::Answer;

/// `(estimate, tolerance)` of `P(start ∈ [1, 1.25] | distance observed)`.
pub const POSTERIOR: (f64, f64) = (0.099815, 0.009434);

/// `(estimate, tolerance)` of the posterior mass of each bin of the
/// 12-bin histogram of `start` on `[0, 3]`.
pub const BINS: [(f64, f64); 12] = [
    (0.182394, 0.011358),
    (0.213202, 0.008657),
    (0.245639, 0.008680),
    (0.256475, 0.009424),
    (0.099815, 0.009434),
    (0.002475, 0.002349),
    (0.000001, 0.002000),
    (0.000000, 0.002000),
    (0.000000, 0.002000),
    (0.000000, 0.002000),
    (0.000000, 0.002000),
    (0.000000, 0.002000),
];

/// The pedestrian checks: finite bounds that contain the reference.
pub fn check_pedestrian(label: &str, a: &Answer) -> Vec<String> {
    let mut out = Vec::new();
    let contain = |what: String, (lo, hi): (f64, f64), (r, tol): (f64, f64)| {
        if !(lo.is_finite() && hi.is_finite()) {
            Some(format!(
                "{label}: {what} bounds [{lo}, {hi}] are not finite"
            ))
        } else if !(lo - tol <= r && r <= hi + tol) {
            Some(format!(
                "{label}: {what} bounds [{lo}, {hi}] exclude the reference {r} ± {tol}"
            ))
        } else {
            None
        }
    };
    match a {
        Answer::Bounds(lo, hi) => out.extend(contain("posterior".into(), (*lo, *hi), POSTERIOR)),
        Answer::Histogram(h) => {
            let (_, z_hi) = h.z_bounds();
            if !z_hi.is_finite() {
                out.push(format!("{label}: Z upper bound {z_hi} is not finite"));
            }
            let bins = h.normalized();
            if bins.len() != BINS.len() {
                out.push(format!(
                    "{label}: {} bins, expected {}",
                    bins.len(),
                    BINS.len()
                ));
            }
            for (i, (b, &r)) in bins.iter().zip(&BINS).enumerate() {
                out.extend(contain(format!("bin {i}"), (b.lo, b.hi), r));
            }
        }
    }
    out
}

/// Prints freshly estimated `POSTERIOR` and `BINS` constants.
pub fn make(samples: usize) {
    const REPLICATES: u64 = 8;
    let program = gubpi_lang::parse(models::PEDESTRIAN).expect("pedestrian parses");
    let mut posterior = Vec::new();
    let mut bins: Vec<Vec<f64>> = vec![Vec::new(); BINS.len()];
    for r in 0..REPLICATES {
        let mut rng = StdRng::seed_from_u64(0x9ed0_0000 + r);
        let ws = importance_sample(&program, samples, ImportanceOptions::default(), &mut rng);
        posterior.push(ws.probability_in(1.0, 1.25));
        for (i, m) in ws.histogram(0.0, 3.0, BINS.len()).into_iter().enumerate() {
            bins[i].push(m);
        }
    }
    let summary = |xs: &[f64]| {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        (mean, 5.0 * (var / n).sqrt() + 0.002)
    };
    let (m, tol) = summary(&posterior);
    println!("pub const POSTERIOR: (f64, f64) = ({m:.6}, {tol:.6});");
    println!("pub const BINS: [(f64, f64); 12] = [");
    for b in &bins {
        let (m, tol) = summary(b);
        println!("    ({m:.6}, {tol:.6}),");
    }
    println!("];");
}
