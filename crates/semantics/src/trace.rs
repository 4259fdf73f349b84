//! Traces and trace sources (§2.3).
//!
//! A *trace* `s = ⟨r₁, …, r_n⟩ ∈ ⋃_n [0,1]^n` predetermines every
//! probabilistic choice of an execution. The evaluator draws from a
//! [`TraceSource`], which either replays a fixed trace or samples fresh
//! values from an RNG while recording them.

/// A finite trace of uniform samples.
pub type Trace = Vec<f64>;

/// Where `sample` gets its values from during evaluation.
pub enum TraceSource<'a> {
    /// Replays a fixed trace; evaluation fails if the trace is too short
    /// and, per the paper's convention, a terminating run must consume the
    /// trace entirely.
    Replay {
        /// The predetermined samples.
        trace: &'a [f64],
        /// Cursor into `trace`.
        pos: usize,
    },
    /// Draws fresh uniform samples, recording them.
    Random {
        /// The random source.
        rng: &'a mut dyn FnMut() -> f64,
        /// All samples drawn so far.
        recorded: Trace,
    },
}

impl<'a> TraceSource<'a> {
    /// A replay source at position 0.
    pub fn replay(trace: &'a [f64]) -> TraceSource<'a> {
        TraceSource::Replay { trace, pos: 0 }
    }

    /// The next sample, or `None` when a replayed trace is exhausted.
    pub fn next_sample(&mut self) -> Option<f64> {
        match self {
            TraceSource::Replay { trace, pos } => {
                let v = trace.get(*pos).copied()?;
                *pos += 1;
                Some(v)
            }
            TraceSource::Random { rng, recorded } => {
                let v = rng();
                recorded.push(v);
                Some(v)
            }
        }
    }

    /// For replay sources: has every trace entry been consumed?
    pub fn fully_consumed(&self) -> bool {
        match self {
            TraceSource::Replay { trace, pos } => *pos == trace.len(),
            TraceSource::Random { .. } => true,
        }
    }

    /// Number of samples drawn so far.
    pub fn drawn(&self) -> usize {
        match self {
            TraceSource::Replay { pos, .. } => *pos,
            TraceSource::Random { recorded, .. } => recorded.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_consumes_in_order() {
        let t = [0.1, 0.2, 0.3];
        let mut src = TraceSource::replay(&t);
        assert_eq!(src.next_sample(), Some(0.1));
        assert_eq!(src.next_sample(), Some(0.2));
        assert!(!src.fully_consumed());
        assert_eq!(src.next_sample(), Some(0.3));
        assert!(src.fully_consumed());
        assert_eq!(src.next_sample(), None);
        assert_eq!(src.drawn(), 3);
    }

    #[test]
    fn random_records() {
        let mut k = 0usize;
        let mut gen = move || {
            k += 1;
            k as f64 / 10.0
        };
        let mut src = TraceSource::Random {
            rng: &mut gen,
            recorded: Vec::new(),
        };
        assert_eq!(src.next_sample(), Some(0.1));
        assert_eq!(src.next_sample(), Some(0.2));
        match src {
            TraceSource::Random { recorded, .. } => assert_eq!(recorded, vec![0.1, 0.2]),
            _ => unreachable!(),
        }
    }
}
