//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span open when it began (its
//! parent) and the id of the run it belongs to: one run per set-up
//! repetition and one per traced pass. Spans stay in memory until the
//! benchmark ends and are then written out with their self times. A
//! disabled recorder makes `enter`/`exit` no-ops, which is how the
//! untraced passes run with tracing off.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`core.simulate`, `experiments.figure.fig4a`).
    pub name: String,
    /// The run the span belongs to.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset of the start from the recorder's origin.
    pub start: Duration,
    /// Offset of the end from the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A span recorder for one thread.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    run: u32,
    next_run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            run: 0,
            next_run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts a new run and returns its id; later spans belong to it.
    pub fn begin_run(&mut self) -> u32 {
        self.run = self.next_run;
        self.next_run += 1;
        self.run
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name: name.to_string(),
            run: self.run,
            parent: self.open.last().copied(),
            start: self.origin.elapsed(),
            end: Duration::ZERO,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the time its direct children cover.
    /// Spans on one thread nest without overlapping, so the children's
    /// durations are disjoint parts of the parent's interval.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut own: Vec<Duration> = self.spans.iter().map(Span::duration).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration());
            }
        }
        own
    }

    /// Total seconds of the spans of `run` that `pick` selects by name.
    pub fn seconds(&self, run: u32, pick: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && pick(&s.name))
            .fold(0.0, |acc, s| acc + s.duration().as_secs_f64())
    }

    /// Total self seconds of the spans of `run` that `pick` selects.
    pub fn self_seconds(&self, run: u32, pick: impl Fn(&str) -> bool) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.run == run && pick(&s.name))
            .fold(0.0, |acc, (_, t)| acc + t.as_secs_f64())
    }

    /// Tab-separated dump, one span per line, times in microseconds.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("run\tid\tparent\tname\tstart_us\tend_us\tself_us\n");
        for (id, (s, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{id}\t{parent}\t{}\t{:.3}\t{:.3}\t{:.3}",
                s.run,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                own.as_secs_f64() * 1e6
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::new(true);
        let run = spans.begin_run();
        spans.time("outer", || std::thread::sleep(Duration::from_millis(2)));
        spans.enter("parent");
        spans.time("child", || std::thread::sleep(Duration::from_millis(5)));
        spans.exit();
        let own = spans.self_times();
        assert_eq!(spans.spans()[2].parent, Some(1));
        assert!(own[1] < spans.spans()[1].duration());
        assert!(own[1] + own[2] <= spans.spans()[1].duration() + Duration::from_micros(1));
        assert!(spans.seconds(run, |n| n == "child") >= 0.005);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut spans = Spans::new(false);
        spans.begin_run();
        spans.time("x", || ());
        assert!(spans.spans().is_empty());
    }
}
