//! Per-op spans: where one control op's time went, phase by phase,
//! under the op's trace id. A daemon keeps the spans and counts of its
//! last ops in a bounded ring (`farmctl trace`); the layers an op runs
//! through record into the [`SpanLog`] the daemon hands them, on the
//! daemon's clock. The log is also the one stopwatch of those layers:
//! every phase time they sample is a span's duration on its clock.

use std::time::{Duration, Instant};

/// One phase of an op, in µs from the moment the op was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// What a traced op recorded: its spans in the order they ended, and
/// its counts in the order first counted, one entry per name.
#[derive(Debug, Default)]
pub struct Recorded {
    pub spans: Vec<Span>,
    pub counts: Vec<(&'static str, u64)>,
}

/// Spans one op keeps at most; later ones are dropped.
const MAX_SPANS: usize = 64;

/// The clock of a log that times on the wall clock.
const WALL: &dyn Fn() -> Instant = &Instant::now;

/// A stopwatch on the clock its caller passes, which also keeps the
/// spans and counts of a traced op in the caller's [`Recorded`]. Every
/// span reads the clock at its start and its end, kept or not, and
/// [`SpanLog::end`] hands back its duration; an untraced log keeps
/// nothing.
pub struct SpanLog<'a> {
    clock: &'a dyn Fn() -> Instant,
    /// Where a traced log's spans count from, and where they go.
    kept: Option<(Instant, &'a mut Recorded)>,
}

impl SpanLog<'static> {
    /// An untraced log on the wall clock.
    pub fn wall() -> SpanLog<'static> {
        SpanLog::timing(WALL)
    }
}

impl<'a> SpanLog<'a> {
    /// A traced log timed on `clock`, appending to `kept` spans counted
    /// from `origin`.
    pub fn on(
        clock: &'a dyn Fn() -> Instant,
        origin: Instant,
        kept: &'a mut Recorded,
    ) -> SpanLog<'a> {
        SpanLog {
            clock,
            kept: Some((origin, kept)),
        }
    }

    /// An untraced log timed on `clock`: it keeps no span and no count.
    pub fn timing(clock: &'a dyn Fn() -> Instant) -> SpanLog<'a> {
        SpanLog { clock, kept: None }
    }

    /// When a span starts: the clock now.
    pub fn start(&self) -> Instant {
        (self.clock)()
    }

    /// Ends span `name`, which [`SpanLog::start`] began at `start`, and
    /// returns its duration. A traced log keeps the span unless it holds
    /// `MAX_SPANS` already.
    pub fn end(&mut self, name: &'static str, start: Instant) -> Duration {
        let end = (self.clock)();
        if let Some((origin, kept)) = &mut self.kept {
            if kept.spans.len() < MAX_SPANS {
                let us = |at: Instant| at.saturating_duration_since(*origin).as_micros() as u64;
                kept.spans.push(Span {
                    name,
                    start_us: us(start),
                    end_us: us(end),
                });
            }
        }
        end.saturating_duration_since(start)
    }

    /// Adds `n` to the op's count `name`; nothing for an untraced log.
    pub fn count(&mut self, name: &'static str, n: u64) {
        let Some((_, kept)) = &mut self.kept else {
            return;
        };
        match kept.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, total)) => *total += n,
            None => kept.counts.push((name, n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn a_log_keeps_its_spans_on_its_clock_up_to_the_cap() {
        let origin = Instant::now();
        let tick = Cell::new(0u64);
        let clock = || {
            tick.set(tick.get() + 1);
            origin + Duration::from_micros(10 * tick.get())
        };
        let mut kept = Recorded::default();
        let mut log = SpanLog::on(&clock, origin, &mut kept);
        let outer = log.start();
        let inner = log.start();
        assert_eq!(log.end("inner", inner), Duration::from_micros(10));
        assert_eq!(log.end("outer", outer), Duration::from_micros(30));
        for _ in 0..MAX_SPANS {
            let at = log.start();
            log.end("more", at);
        }
        log.count("warm", 1);
        log.count("steps", 2);
        log.count("warm", 1);
        assert_eq!(kept.spans.len(), MAX_SPANS);
        let span = |name, start_us, end_us| Span {
            name,
            start_us,
            end_us,
        };
        assert_eq!(
            kept.spans[..2],
            [span("inner", 20, 30), span("outer", 10, 40)]
        );
        assert_eq!(kept.counts, [("warm", 2), ("steps", 2)]);
    }

    #[test]
    fn an_untraced_log_times_on_its_clock_and_keeps_nothing() {
        let origin = Instant::now();
        let reads = Cell::new(0u64);
        let clock = || {
            reads.set(reads.get() + 1);
            origin + Duration::from_micros(7 * reads.get())
        };
        let mut log = SpanLog::timing(&clock);
        let at = log.start();
        assert_eq!(log.end("timed", at), Duration::from_micros(7));
        log.count("nothing", 1);
        assert_eq!(reads.get(), 2);
        assert!(log.kept.is_none());
        let mut wall = SpanLog::wall();
        let at = wall.start();
        wall.end("wall", at);
        assert!(wall.kept.is_none());
    }
}
