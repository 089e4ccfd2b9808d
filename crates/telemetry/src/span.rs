//! Per-op spans: where one control op's time went, phase by phase,
//! under the op's trace id. A daemon keeps the spans of its last ops in
//! a bounded ring (`farmctl trace`); the layers an op runs through
//! record into the [`SpanLog`] the daemon hands them, on the daemon's
//! clock.

use std::time::Instant;

/// One phase of an op, in µs from the moment the op was served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: u64,
    pub end_us: u64,
}

/// Spans one op keeps at most; later ones are dropped.
const MAX_SPANS: usize = 64;

/// Where a traced op's spans go, read on the clock its caller passes. A
/// log that is off reads no clock and keeps nothing, so an untraced call
/// pays one branch per span.
pub struct SpanLog<'a> {
    clock: Option<(&'a dyn Fn() -> Instant, Instant)>,
    spans: Vec<Span>,
}

impl SpanLog<'static> {
    /// A log that records nothing.
    pub fn off() -> SpanLog<'static> {
        SpanLog {
            clock: None,
            spans: Vec::new(),
        }
    }
}

impl<'a> SpanLog<'a> {
    /// A log timed on `clock`, its spans counted from `origin`.
    pub fn on(clock: &'a dyn Fn() -> Instant, origin: Instant) -> SpanLog<'a> {
        SpanLog {
            clock: Some((clock, origin)),
            spans: Vec::new(),
        }
    }

    /// When a span starts: the clock now, `None` for a log that is off.
    pub fn start(&self) -> Option<Instant> {
        self.clock.map(|(clock, _)| clock())
    }

    /// Ends span `name`, which [`SpanLog::start`] began at `start`.
    pub fn end(&mut self, name: &'static str, start: Option<Instant>) {
        let (Some((clock, origin)), Some(start)) = (self.clock, start) else {
            return;
        };
        if self.spans.len() >= MAX_SPANS {
            return;
        }
        let us = |at: Instant| at.saturating_duration_since(origin).as_micros() as u64;
        self.spans.push(Span {
            name,
            start_us: us(start),
            end_us: us(clock()),
        });
    }

    /// The spans in the order they ended.
    pub fn finish(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::time::Duration;

    #[test]
    fn a_log_keeps_its_spans_on_its_clock_up_to_the_cap() {
        let origin = Instant::now();
        let tick = Cell::new(0u64);
        let clock = || {
            tick.set(tick.get() + 1);
            origin + Duration::from_micros(10 * tick.get())
        };
        let mut log = SpanLog::on(&clock, origin);
        let outer = log.start();
        let inner = log.start();
        log.end("inner", inner);
        log.end("outer", outer);
        for _ in 0..MAX_SPANS {
            let at = log.start();
            log.end("more", at);
        }
        let spans = log.finish();
        assert_eq!(spans.len(), MAX_SPANS);
        let span = |name, start_us, end_us| Span {
            name,
            start_us,
            end_us,
        };
        assert_eq!(spans[..2], [span("inner", 20, 30), span("outer", 10, 40)]);
    }

    #[test]
    fn a_log_that_is_off_reads_no_clock() {
        let mut log = SpanLog::off();
        let at = log.start();
        assert!(at.is_none());
        log.end("nothing", at);
        assert_eq!(log.finish(), Vec::new());
    }
}
