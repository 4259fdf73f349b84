//! The [`Threads`] knob: how wide a query may run on the worker pool.

/// Degree of parallelism for one analysis's per-path bounding (symbolic
/// execution always runs on the calling thread).
///
/// The default is [`Threads::Auto`]. `Auto` honours the `GUBPI_THREADS`
/// environment variable (`off`, `auto`, or a positive worker count) so
/// whole test suites and CI jobs can be pinned without code changes;
/// explicit `Fixed`/`Off` settings ignore the environment.
///
/// With the persistent executor ([`crate::WorkerPool`]) the setting no
/// longer spawns threads per call: it caps how many pool workers may
/// *participate* in a given query. Reported bounds are bit-identical
/// across every setting.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum Threads {
    /// Use `GUBPI_THREADS` if set, otherwise the available hardware
    /// parallelism.
    #[default]
    Auto,
    /// Exactly `n` workers (values of 0 and 1 both mean sequential).
    Fixed(usize),
    /// Sequential execution on the calling thread.
    Off,
}

impl Threads {
    /// Parses a `GUBPI_THREADS`-style string (`"off"`, `"auto"`, or a
    /// **positive** worker count).
    ///
    /// `"0"` is rejected rather than parsed as `Fixed(0)`: `Fixed(0)`
    /// silently clamps to one worker, so accepting it would make
    /// `GUBPI_THREADS=0` (or `repro --threads 0`) run sequentially while
    /// looking like a valid parallel setting. The CLI surfaces the
    /// `None` as an explicit error; the `GUBPI_THREADS` fallback inside
    /// [`Threads::worker_count`] degrades invalid values to sequential
    /// (never to full fan-out). Spell sequential as `off`.
    pub fn parse(s: &str) -> Option<Threads> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "seq" | "sequential" => Some(Threads::Off),
            "auto" | "" => Some(Threads::Auto),
            n => n
                .parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .map(Threads::Fixed),
        }
    }

    /// The number of workers to use for `jobs` independent units of
    /// work. Never exceeds `jobs` (a 1-job query on an 8-worker pool
    /// resolves to 1 and runs inline — the pool is not even woken).
    pub fn worker_count(self, jobs: usize) -> usize {
        let raw = match self {
            Threads::Off => 1,
            Threads::Fixed(n) => n.max(1),
            Threads::Auto => match std::env::var("GUBPI_THREADS") {
                Ok(v) => match Threads::parse(&v) {
                    Some(Threads::Auto) => hardware_threads(),
                    Some(Threads::Off) => 1,
                    Some(Threads::Fixed(n)) => n.max(1),
                    // An explicitly set but invalid GUBPI_THREADS
                    // (including "0") must not silently fan out to every
                    // core: degrade to sequential, the conservative
                    // reading of "the user tried to restrict threading".
                    None => 1,
                },
                Err(_) => hardware_threads(),
            },
        };
        raw.min(jobs.max(1))
    }
}

pub(crate) fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_count_resolution() {
        assert_eq!(Threads::Off.worker_count(100), 1);
        assert_eq!(Threads::Fixed(0).worker_count(100), 1);
        assert_eq!(Threads::Fixed(4).worker_count(100), 4);
        // Never more workers than jobs.
        assert_eq!(Threads::Fixed(16).worker_count(3), 3);
        assert_eq!(Threads::Fixed(8).worker_count(1), 1);
        assert!(Threads::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn parse_accepts_the_env_syntax() {
        assert_eq!(Threads::parse("off"), Some(Threads::Off));
        assert_eq!(Threads::parse("auto"), Some(Threads::Auto));
        assert_eq!(Threads::parse("4"), Some(Threads::Fixed(4)));
        assert_eq!(Threads::parse(" 2 "), Some(Threads::Fixed(2)));
        assert_eq!(Threads::parse("bogus"), None);
    }

    #[test]
    fn parse_rejects_zero_workers() {
        // Regression: "0" used to parse as Fixed(0), which worker_count
        // silently clamps to 1 — a parallel-looking setting that ran
        // sequentially. Zero must be an error; sequential is "off".
        assert_eq!(Threads::parse("0"), None);
        assert_eq!(Threads::parse(" 0 "), None);
        assert_eq!(Threads::parse("00"), None);
    }
}
