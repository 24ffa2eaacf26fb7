//! Spans the harness records around its own calls into each layer.
//!
//! The program under test is not instrumented: every span here opens and
//! closes in a benchmark file, around a public function of the repository.
//! Spans stay in memory and are written once, when the workload ends.

use mpc_runtime::telemetry::json_string;
use std::time::Instant;

/// One timed interval: what ran, under which parent, in which pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one pass share a run id.
    pub run: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on the calling thread. A tracer that is off runs
/// the closure and nothing else, so untraced passes pay no clock reads.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    run: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            run: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Starts a new pass: later spans carry the returned run id.
    pub fn next_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    /// Runs `f` inside a span named `{kind}.{name}`.
    pub fn span<R>(&mut self, kind: &str, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run: self.run,
            name: format!("{kind}.{name}"),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// The id spans recorded now carry.
    pub fn run_id(&self) -> u32 {
        self.run
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order: its duration minus the part of
/// its interval that its direct children cover. Children are clipped to the
/// parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .map(|parent| {
            let mut kids: Vec<(u64, u64)> = spans
                .iter()
                .filter(|s| s.parent == Some(parent.id))
                .map(|s| {
                    (
                        s.start_ns.clamp(parent.start_ns, parent.end_ns),
                        s.end_ns.clamp(parent.start_ns, parent.end_ns),
                    )
                })
                .collect();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = parent.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Sum of the self times of the spans of pass `run` whose name `pick`
/// accepts, in seconds.
pub fn self_seconds(spans: &[Span], run: u32, pick: impl Fn(&str) -> bool) -> f64 {
    let selfs = self_times(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.run == run && pick(&s.name))
        .map(|(_, ns)| ns as f64 * 1e-9)
        .sum()
}

/// The spans as one JSON array, self time included.
pub fn to_json(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let rows: Vec<String> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_ns)| {
            format!(
                "{{\"id\": {}, \"parent\": {}, \"run\": {}, \"name\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.run,
                json_string(&s.name),
                s.start_ns,
                s.end_ns,
                self_ns
            )
        })
        .collect();
    format!("[\n  {}\n]\n", rows.join(",\n  "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            name: format!("s.{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // 0 [0,100) > 1 [10,60) > 2 [20,30); 0 > 3 [70,90)
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_cover_once() {
        // Children [10,50) and [30,70) overlap; [90,130) overhangs the parent.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_nests_and_numbers_runs() {
        let mut tr = Tracer::new(true);
        let run = tr.next_run();
        let v = tr.span("item", "a", |tr| tr.span("verify", "a", |_| 7));
        assert_eq!(v, 7);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name.as_str(), spans[0].parent), ("item.a", None));
        assert_eq!(
            (spans[1].name.as_str(), spans[1].parent),
            ("verify.a", Some(0))
        );
        assert!(spans.iter().all(|s| s.run == run));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let total: u64 = self_times(spans).iter().sum();
        assert_eq!(total, spans[0].duration_ns());
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("item", "a", |_| 3), 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn json_lists_every_span_with_its_self_time() {
        let spans = [span(0, None, 0, 100), span(1, Some(0), 10, 60)];
        let parsed = mpc_runtime::telemetry::parse_json(&to_json(&spans)).expect("valid JSON");
        let rows = parsed.as_arr().expect("array");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get("self_ns").and_then(|v| v.as_f64()), Some(50.0));
        assert_eq!(rows[1].get("parent").and_then(|v| v.as_f64()), Some(0.0));
    }
}
