//! The benchmark model zoo: every program used by the paper's evaluation
//! (§7), re-modelled in our SPCF surface syntax.
//!
//! The original sources of \[56\] and the PSI repository are not all
//! published; models marked "re-modelled" are reconstructed from the
//! papers' prose and parameters are chosen to reproduce the *shape* of
//! the reported results (see EXPERIMENTS.md for per-benchmark notes).

use gubpi_interval::Interval;

/// A probability-estimation benchmark (Table 1 / Table 4).
#[derive(Clone, Debug)]
pub struct ProbBenchmark {
    /// Benchmark name as in Table 1.
    pub name: &'static str,
    /// Query label (Table 4).
    pub query_label: &'static str,
    /// SPCF source; the program returns an indicator (1 = event).
    pub source: &'static str,
    /// The query set on the returned value.
    pub u: Interval,
    /// Fixpoint unfolding budget suitable for the model.
    pub unfold: u32,
}

/// The Table 1 / Table 4 suite (benchmarks of Sankaranarayanan et al.,
/// re-modelled).
pub fn table1() -> Vec<ProbBenchmark> {
    let event = Interval::new(0.5, 1.5); // indicator == 1
    vec![
        ProbBenchmark {
            name: "tug-of-war",
            query_label: "total_a_b < total_t_s",
            // Teams with asymmetric strength priors; laziness halves a
            // pull with probability 1/4 (re-modelled).
            source: r#"
                let a = sample uniform(0, 1.2) in
                let b = sample uniform(0, 1.2) in
                let t = sample uniform(0, 1) in
                let s = sample uniform(0, 1) in
                let pull_ts = if sample <= 0.25 then t / 2 + s else t + s in
                let pull_ab = if sample <= 0.25 then a / 2 + b else a + b in
                if pull_ts < pull_ab then 1 else 0"#,
            u: event,
            unfold: 4,
        },
        ProbBenchmark {
            name: "tug-of-war",
            query_label: "total_a_s < total_b_t",
            source: r#"
                let a = sample uniform(0, 1.2) in
                let b = sample uniform(0, 1.2) in
                let t = sample uniform(0, 1) in
                let s = sample uniform(0, 1) in
                let pull_as = if sample <= 0.25 then a / 2 + s else a + s in
                let pull_bt = if sample <= 0.25 then b / 2 + t else b + t in
                if pull_as < pull_bt then 1 else 0"#,
            u: event,
            unfold: 4,
        },
        ProbBenchmark {
            name: "beauquier-3",
            query_label: "count < 1",
            // Token ring with 3 processes: legitimate iff the first two
            // bits differ; count = daemon steps to stabilise
            // (re-modelled).
            source: r#"
                let b1 = flip(0.5) in
                let b2 = flip(0.5) in
                let rec stabilise c =
                  if c >= 3 then c else
                  if sample <= 0.5 then stabilise (c + 1) else c
                in
                let count = if b1 + b2 >= 2 then stabilise 1 else
                            if b1 + b2 <= 0 then stabilise 1 else 0 in
                if count < 1 then 1 else 0"#,
            u: event,
            unfold: 8,
        },
        ProbBenchmark {
            name: "ex-book-s",
            query_label: "count >= 2",
            // Number of heads in five fair flips.
            source: r#"
                let count = flip(0.5) + flip(0.5) + flip(0.5) + flip(0.5) + flip(0.5) in
                if count >= 2 then 1 else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "ex-book-s",
            query_label: "count >= 4",
            source: r#"
                let count = flip(0.5) + flip(0.5) + flip(0.5) + flip(0.5) + flip(0.5) in
                if count >= 4 then 1 else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "ex-cart",
            query_label: "count >= 1",
            // A cart advances by uniform(0.3, 0.7) per step until it
            // passes 1 (re-modelled).
            source: r#"
                let rec go x =
                  if x >= 1 then 0 else 1 + go (x + sample uniform(0.3, 0.7))
                in
                let count = go 0 in
                if count >= 1 then 1 else 0"#,
            u: event,
            unfold: 8,
        },
        ProbBenchmark {
            name: "ex-cart",
            query_label: "count >= 2",
            source: r#"
                let rec go x =
                  if x >= 1 then 0 else 1 + go (x + sample uniform(0.3, 0.7))
                in
                let count = go 0 in
                if count >= 2 then 1 else 0"#,
            u: event,
            unfold: 8,
        },
        ProbBenchmark {
            name: "ex-cart",
            query_label: "count >= 4",
            source: r#"
                let rec go x =
                  if x >= 1 then 0 else 1 + go (x + sample uniform(0.3, 0.7))
                in
                let count = go 0 in
                if count >= 4 then 1 else 0"#,
            u: event,
            unfold: 8,
        },
        ProbBenchmark {
            name: "ex-ckd-epi-s",
            query_label: "f1 <= 4.4 and f >= 4.6",
            // Simplified eGFR-style formula on log scale: two correlated
            // nonlinear functions of creatinine and age (re-modelled).
            source: r#"
                let scr = sample uniform(0.6, 1.4) in
                let age = sample uniform(20, 80) in
                let f1 = 5 - 0.8 * log(scr) - 0.009 * age in
                let f = 5 - 1.2 * log(scr) - 0.007 * age in
                if f1 <= 4.4 then (if f >= 4.6 then 1 else 0) else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "ex-ckd-epi-s",
            query_label: "f1 >= 4.6 and f <= 4.4",
            source: r#"
                let scr = sample uniform(0.6, 1.4) in
                let age = sample uniform(20, 80) in
                let f1 = 5 - 0.8 * log(scr) - 0.009 * age in
                let f = 5 - 1.2 * log(scr) - 0.007 * age in
                if f1 >= 4.6 then (if f <= 4.4 then 1 else 0) else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "ex-fig6",
            query_label: "c <= 1",
            source: fig6_source(1),
            u: event,
            unfold: 10,
        },
        ProbBenchmark {
            name: "ex-fig6",
            query_label: "c <= 2",
            source: fig6_source(2),
            u: event,
            unfold: 10,
        },
        ProbBenchmark {
            name: "ex-fig6",
            query_label: "c <= 5",
            source: fig6_source(5),
            u: event,
            unfold: 10,
        },
        ProbBenchmark {
            name: "ex-fig6",
            query_label: "c <= 8",
            source: fig6_source(8),
            u: event,
            unfold: 16,
        },
        ProbBenchmark {
            name: "ex-fig7",
            query_label: "x <= 1000",
            // Geometric doubling: x ≤ 1000 unless ten doublings happen.
            source: r#"
                let rec grow x =
                  if x > 1000 then x else
                  if sample <= 0.5 then x else grow (2 * x)
                in
                let x = grow 1 in
                if x <= 1000 then 1 else 0"#,
            u: event,
            unfold: 14,
        },
        ProbBenchmark {
            name: "example4",
            query_label: "x + y > 14",
            source: r#"
                let x = sample uniform(0, 10) in
                let y = sample uniform(0, 10) in
                if x + y > 14 then 1 else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "example5",
            query_label: "x + y > z + 5",
            source: r#"
                let x = sample uniform(0, 10) in
                let y = sample uniform(0, 10) in
                let z = sample uniform(0, 10) in
                if x + y > z + 5 then 1 else 0"#,
            u: event,
            unfold: 2,
        },
        ProbBenchmark {
            name: "herman-3",
            query_label: "count < 1",
            // Herman's ring with 3 processes: stable iff not all three
            // coins agree (re-modelled; see EXPERIMENTS.md).
            source: r#"
                let b1 = flip(0.5) in
                let b2 = flip(0.5) in
                let b3 = flip(0.5) in
                let tokens = if b1 + b2 + b3 >= 3 then 3 else
                             if b1 + b2 + b3 <= 0 then 3 else 1 in
                if tokens <= 1 then 1 else 0"#,
            u: event,
            unfold: 2,
        },
    ]
}

fn fig6_source(c: usize) -> &'static str {
    // x starts uniform on [0, 10]; steps are uniform(0, 4); c counts the
    // steps needed to leave [0, 10].
    match c {
        1 => {
            r#"
            let rec go x = if x > 10 then 0 else 1 + go (x + sample uniform(0, 4)) in
            let c = go (sample uniform(0, 10)) in
            if c <= 1 then 1 else 0"#
        }
        2 => {
            r#"
            let rec go x = if x > 10 then 0 else 1 + go (x + sample uniform(0, 4)) in
            let c = go (sample uniform(0, 10)) in
            if c <= 2 then 1 else 0"#
        }
        5 => {
            r#"
            let rec go x = if x > 10 then 0 else 1 + go (x + sample uniform(0, 4)) in
            let c = go (sample uniform(0, 10)) in
            if c <= 5 then 1 else 0"#
        }
        _ => {
            r#"
            let rec go x = if x > 10 then 0 else 1 + go (x + sample uniform(0, 4)) in
            let c = go (sample uniform(0, 10)) in
            if c <= 8 then 1 else 0"#
        }
    }
}

/// A discrete exact-inference benchmark (Table 2): GuBPI must produce
/// (near-)tight bounds agreeing with the exact posterior probability of
/// the program returning 1.
#[derive(Clone, Debug)]
pub struct DiscreteBenchmark {
    /// Benchmark name as in Table 2.
    pub name: &'static str,
    /// SPCF source returning an indicator in {0, 1} (conditioning done
    /// with `fail`).
    pub source: &'static str,
    /// Exact posterior probability `P(result = 1)` as a rational
    /// `(num, den)` — derivations in `groundtruth`.
    pub exact: (i128, i128),
}

/// The Table 2 suite (discrete models from the PSI repository).
pub fn table2() -> Vec<DiscreteBenchmark> {
    vec![
        DiscreteBenchmark {
            name: "burglarAlarm",
            // burglary 1/8, earthquake 1/4; alarm iff burglary or
            // earthquake; observe alarm; posterior P(burglary | alarm).
            source: r#"
                let burglary = flip(0.125) in
                let earthquake = flip(0.25) in
                let alarm = max(burglary, earthquake) in
                if alarm >= 1 then burglary else fail"#,
            exact: crate::groundtruth::burglar_alarm(),
        },
        DiscreteBenchmark {
            name: "coins",
            // Two fair coins; observe at least one head; P(both heads).
            source: r#"
                let c1 = flip(0.5) in
                let c2 = flip(0.5) in
                if c1 + c2 >= 1 then (if c1 + c2 >= 2 then 1 else 0) else fail"#,
            exact: (1, 3),
        },
        DiscreteBenchmark {
            name: "twoCoins",
            // Observe the first coin is heads; P(second heads) = 1/2.
            source: r#"
                let c1 = flip(0.5) in
                let c2 = flip(0.5) in
                if c1 >= 1 then c2 else fail"#,
            exact: (1, 2),
        },
        DiscreteBenchmark {
            name: "grass",
            // Classic grass model: rain 1/2, sprinkler 3/10; grass wet if
            // rain (w.p. 9/10) or sprinkler (w.p. 8/10); observe wet;
            // P(rain | wet).
            source: r#"
                let rain = flip(0.5) in
                let sprinkler = flip(0.3) in
                let wet_rain = if rain >= 1 then flip(0.9) else 0 in
                let wet_spr = if sprinkler >= 1 then flip(0.8) else 0 in
                let wet = max(wet_rain, wet_spr) in
                if wet >= 1 then rain else fail"#,
            exact: crate::groundtruth::grass(),
        },
        DiscreteBenchmark {
            name: "noisyOr",
            // Two noisy causes of a symptom; observe symptom; P(cause1).
            source: r#"
                let cause1 = flip(0.4) in
                let cause2 = flip(0.3) in
                let s1 = if cause1 >= 1 then flip(0.7) else 0 in
                let s2 = if cause2 >= 1 then flip(0.6) else 0 in
                let symptom = max(s1, s2) in
                if symptom >= 1 then cause1 else fail"#,
            exact: crate::groundtruth::noisy_or(),
        },
        DiscreteBenchmark {
            name: "murderMystery",
            // Alice (prior 3/10) uses a gun w.p. 3/100; Bob (7/10) w.p.
            // 8/10. Observe a gun was used; P(alice).
            source: r#"
                let alice = flip(0.3) in
                let gun = if alice >= 1 then flip(0.03) else flip(0.8) in
                if gun >= 1 then alice else fail"#,
            exact: crate::groundtruth::murder_mystery(),
        },
        DiscreteBenchmark {
            name: "bertrand",
            // Bertrand's boxes: pick a box (gg, gs, ss), draw a coin;
            // observe gold; P(other coin gold).
            source: r#"
                let box = if sample <= 0.33333333333333333 then 0 else
                          if sample <= 0.5 then 1 else 2 in
                let draw_gold = if box <= 0 then 1 else
                                if box <= 1 then flip(0.5) else 0 in
                if draw_gold >= 1 then (if box <= 0 then 1 else 0) else fail"#,
            exact: (2, 3),
        },
        DiscreteBenchmark {
            name: "coinPattern",
            // Flip twice; observe not both tails; P(pattern HT).
            source: r#"
                let c1 = flip(0.5) in
                let c2 = flip(0.5) in
                if c1 + c2 >= 1 then
                  (if c1 >= 1 then (if c2 <= 0 then 1 else 0) else 0)
                else fail"#,
            exact: (1, 3),
        },
        DiscreteBenchmark {
            name: "ev-model1",
            // Mixture evidence model: z ~ flip(0.5); observation channel
            // depends on z; P(z | obs = 1).
            source: r#"
                let z = flip(0.5) in
                let obs = if z >= 1 then flip(0.9) else flip(0.2) in
                if obs >= 1 then z else fail"#,
            exact: (9, 11),
        },
        DiscreteBenchmark {
            name: "ev-model2",
            source: r#"
                let z = flip(0.25) in
                let obs = if z >= 1 then flip(0.8) else flip(0.4) in
                if obs >= 1 then z else fail"#,
            exact: (2, 5),
        },
        DiscreteBenchmark {
            name: "gossip",
            // Two gossip channels relay a bit with independent flips;
            // observe agreement; P(original bit = 1) stays 1/2 by
            // symmetry.
            source: r#"
                let bit = flip(0.5) in
                let relay1 = if flip(0.8) >= 1 then bit else 1 - bit in
                let relay2 = if flip(0.8) >= 1 then bit else 1 - bit in
                if relay1 >= relay2 then (if relay2 >= relay1 then bit else fail) else fail"#,
            exact: (1, 2),
        },
        DiscreteBenchmark {
            name: "coinBiasSmall",
            // Uniform prior on the bias, three observed heads; posterior
            // predictive P(next head) = 4/5 (rule of succession).
            source: r#"
                let bias = sample in
                score(bias); score(bias); score(bias);
                flip(bias)"#,
            exact: (4, 5),
        },
    ]
}

/// A plain geometric loop: stop with probability 1/2 per iteration,
/// return the iteration count. No scores, so the static per-unfolding
/// contraction is exactly the continue probability 1/2 — the canonical
/// model for the truncated-recursion tail enclosure (the tail
/// soundness suite).
pub const GEOMETRIC: &str = r#"
    let rec geo x =
      if sample <= 0.5 then x
      else geo (x + 1)
    in geo 0"#;

/// A *scored* unbounded loop: each iteration both continues with
/// probability 1/2 and pays a factor-1/2 soft conditioning score, so
/// the per-unfolding contraction is 1/4. Exercises the score-aware
/// side of the tail analysis (the geometric remainder must account for
/// the in-body `score`, not just the branch probability).
pub const SCORED_GEOMETRIC: &str = r#"
    let rec geo x =
      if sample <= 0.5 then x
      else (score(0.5); geo (x + 1))
    in geo 0"#;

/// A data-guarded countdown: the loop argument strictly decreases by 1
/// per unfolding, so it terminates deterministically within a bounded
/// number of steps — but there is *no* probabilistic contraction (the
/// recursing branch has continue mass 1), so the plain geometric tail
/// analysis cannot bound it. The ranking pass synthesizes a
/// bounded-prefix certificate instead: the entry value is at most
/// `2 + sample ≤ 3`, so the guard `x ≤ 0` must fail within a few
/// unfoldings. Since every path terminates with weight 1, `Z = 1`
/// exactly — the tail soundness suite pins the bounds against that.
pub const COUNTDOWN: &str = r#"
    let rec count x =
      if x <= 0 then 0
      else count (x - 1)
    in count (2 + sample)"#;

/// The pedestrian program of Example 1.1 (Fig. 1 / Fig. 7).
pub const PEDESTRIAN: &str = r#"
    let start = 3 * sample uniform(0, 1) in
    let rec walk x =
      if x <= 0 then 0 else
        let step = sample uniform(0, 1) in
        if sample <= 0.5 then step + walk (x + step)
        else step + walk (x - step)
    in
    let distance = walk start in
    observe distance from normal(1.1, 0.1);
    start"#;

/// A figure benchmark: a model with a histogram domain.
#[derive(Clone, Debug)]
pub struct FigureBenchmark {
    /// Figure id, e.g. "5c".
    pub id: &'static str,
    /// Human description from the figure caption.
    pub description: &'static str,
    /// SPCF source.
    pub source: &'static str,
    /// Histogram domain.
    pub domain: Interval,
    /// Bin count.
    pub bins: usize,
    /// Fixpoint unfolding budget.
    pub unfold: u32,
    /// Splits per boxed dimension / grid dimension.
    pub splits: usize,
}

/// The non-recursive figure models (Fig. 5).
pub fn figure5() -> Vec<FigureBenchmark> {
    vec![
        FigureBenchmark {
            id: "5a",
            description: "coinBias: beta(2,5) prior, 8 coin flips observed (5 heads)",
            source: r#"
                let p = sample in
                score(pdf_beta(2, 5, p));
                score(p); score(p); score(p); score(p); score(p);
                score(1 - p); score(1 - p); score(1 - p);
                p"#,
            domain: Interval::new(0.0, 1.0),
            bins: 20,
            unfold: 2,
            splits: 24,
        },
        FigureBenchmark {
            id: "5b",
            description: "max of two i.i.d. standard normal samples",
            source: "max(sample normal(0, 1), sample normal(0, 1))",
            domain: Interval::new(-3.0, 3.0),
            bins: 20,
            unfold: 2,
            splits: 48,
        },
        FigureBenchmark {
            id: "5c",
            description: "binary Gaussian mixture: modes near -2 and 2",
            source: r#"
                let x = if sample <= 0.5 then sample normal(0 - 2, 0.7)
                        else sample normal(2, 0.7) in
                observe 0.3 from normal(x, 2.5);
                x"#,
            domain: Interval::new(-5.0, 5.0),
            bins: 20,
            unfold: 2,
            splits: 48,
        },
        FigureBenchmark {
            id: "5d",
            description: "Neal's funnel: y ~ N(0,3), x ~ N(0, exp(y/4)); marginal of x",
            source: r#"
                let y = sample normal(0, 3) in
                let x = sample normal(0, 1) * exp(y / 4) in
                x"#,
            domain: Interval::new(-4.0, 4.0),
            bins: 16,
            unfold: 2,
            splits: 40,
        },
    ]
}

/// The recursive figure models (Fig. 6).
pub fn figure6() -> Vec<FigureBenchmark> {
    vec![
        FigureBenchmark {
            id: "6a",
            description: "cav-example-7: geometric accumulation, unbounded loop",
            source: r#"
                let rec go x =
                  if sample <= 0.6 then x else go (x + sample uniform(0, 1))
                in go 0"#,
            domain: Interval::new(0.0, 4.0),
            bins: 16,
            unfold: 6,
            splits: 16,
        },
        FigureBenchmark {
            id: "6b",
            description: "cav-example-5: unbounded loop with observation",
            source: r#"
                let rec go x =
                  if sample <= 0.5 then x else go (x + sample uniform(0, 1))
                in
                let v = go 0 in
                observe v from normal(1, 0.5);
                v"#,
            domain: Interval::new(0.0, 4.0),
            bins: 16,
            unfold: 6,
            splits: 16,
        },
        FigureBenchmark {
            id: "6c",
            description: "add_uniform_with_counter: steps to cross a threshold",
            source: r#"
                let rec count x =
                  if x >= 2 then 0 else 1 + count (x + sample uniform(0, 1))
                in count 0"#,
            domain: Interval::new(0.0, 10.0),
            bins: 10,
            unfold: 10,
            splits: 12,
        },
        FigureBenchmark {
            id: "6d",
            description: "random-box-walk: cumulative distance of a biased walk",
            source: r#"
                let rec walk pos acc =
                  if pos >= 1 then acc else
                    let s = sample uniform(0, 1) in
                    if s <= 0.5 then walk (pos - s / 4) (acc + s)
                    else walk (pos + s) (acc + s)
                in walk 0 0"#,
            domain: Interval::new(0.0, 5.0),
            bins: 16,
            unfold: 6,
            splits: 12,
        },
        FigureBenchmark {
            id: "6e",
            description: "growing-walk: step size grows with distance; observed at 3",
            source: r#"
                let rec walk x =
                  if sample <= 0.5 then x else walk (x + (0.5 + x / 2) * sample)
                in
                let d = walk 1 in
                observe d from normal(3, 1);
                d"#,
            domain: Interval::new(0.0, 8.0),
            bins: 16,
            unfold: 6,
            splits: 12,
        },
        FigureBenchmark {
            id: "6f",
            description: "param-estimation-recursive: posterior on step probability p",
            source: r#"
                let p = sample in
                let rec walk loc n =
                  if n <= 0 then loc else
                  if sample <= p then walk (loc - 1) (n - 1)
                  else walk (loc + 1) (n - 1)
                in
                let final = walk 0 4 in
                observe final from normal(1, 0.5);
                p"#,
            domain: Interval::new(0.0, 1.0),
            bins: 16,
            unfold: 6,
            splits: 16,
        },
    ]
}

/// Every built-in model as a `(label, source)` pair — the universe
/// `repro analyze` lints and the prune report sweeps. Labels are unique:
/// Table 1 entries carry their query label, figures their sub-figure id.
pub fn catalog() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for b in table1() {
        out.push((format!("table1/{} ({})", b.name, b.query_label), b.source));
    }
    for b in table2() {
        out.push((format!("table2/{}", b.name), b.source));
    }
    out.push(("pedestrian".to_owned(), PEDESTRIAN));
    out.push(("geometric".to_owned(), GEOMETRIC));
    out.push(("scored-geometric".to_owned(), SCORED_GEOMETRIC));
    for b in figure5().into_iter().chain(figure6()) {
        out.push((format!("fig{}", b.id), b.source));
    }
    out
}

#[cfg(test)]
mod tests {
    use gubpi_lang::{infer, parse};

    /// Every model in the zoo must parse and type-check.
    #[test]
    fn all_models_parse_and_typecheck() {
        let mut sources: Vec<String> = Vec::new();
        for b in super::table1() {
            sources.push(b.source.to_owned());
        }
        for b in super::table2() {
            sources.push(b.source.to_owned());
        }
        for b in super::figure5().into_iter().chain(super::figure6()) {
            sources.push(b.source.to_owned());
        }
        sources.push(super::PEDESTRIAN.to_owned());
        sources.push(super::GEOMETRIC.to_owned());
        sources.push(super::SCORED_GEOMETRIC.to_owned());
        for src in sources {
            let p = parse(&src).unwrap_or_else(|e| panic!("{}\n{src}", e.render(&src)));
            infer(&p).unwrap_or_else(|e| panic!("{}\n{src}", e.render(&src)));
        }
    }

    #[test]
    fn table_sizes_match_paper() {
        assert_eq!(super::table1().len(), 18, "Table 1 has 18 query rows");
        assert_eq!(super::table2().len(), 12, "Table 2 has 12 instances");
        assert_eq!(super::figure5().len(), 4);
        assert_eq!(super::figure6().len(), 6);
    }
}
