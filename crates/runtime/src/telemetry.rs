//! Structured engine telemetry: trace events, sinks, and exporters.
//!
//! The round-counting model answers "how many rounds"; this module answers
//! **where the time went** — per machine, per round, per pool worker. The
//! [`Cluster`](crate::Cluster) records one [`TraceEvent::Round`] frame per
//! exchange behind a single `Option` check (see `Cluster::set_trace_sink`):
//! the round's totals plus one column per per-machine quantity (sent,
//! received, work, simulated seconds, capacity), so every consumer reads a
//! round from one event, with no ordering state. The execution engine adds
//! worker, wave and job events, and sinks turn the stream into something a
//! human or a tool can read:
//!
//! * [`RingSink`] — an in-memory ring buffer (tests, report building);
//! * [`JsonlSink`] — one JSON object per line, appended to a writer (the
//!   machine-readable trace CI validates against [`validate_jsonl_line`]);
//! * [`FanoutSink`] — duplicates events to several sinks;
//! * [`perfetto_export`] — a Chrome-trace/Perfetto JSON document with one
//!   track per simulated machine and one per pool worker, loadable at
//!   <https://ui.perfetto.dev>.
//!
//! Each event type's JSONL fields are named once, in the schema
//! [`validate_jsonl_line`] checks: an event lists only its values, in
//! schema order, and [`TraceEvent::to_json`] and the Perfetto instants
//! (whose args are the event's JSONL fields) take the names from there.
//!
//! **Overhead guarantee:** with no sink attached the hot path pays exactly
//! one branch per exchange and allocates nothing — every event struct,
//! column, string, and lock in this module is only touched when a sink is
//! present.
//! Sinks must be `Send + Sync` (pool workers may record concurrently) and
//! do their own locking internally.
//!
//! Timestamps come in two flavors, deliberately kept apart: machine-side
//! events carry **simulated** seconds (the [`CostModel`](crate::CostModel)
//! durations the barrier waits on), worker-side events carry **host**
//! nanoseconds. The Perfetto exporter lays them out as two separate
//! process groups so neither timeline lies about the other.

use crate::label::RoundLabel;
use crate::payload::MachineId;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Mutex;

/// One telemetry event. Variants cover the three layers of the stack:
/// cluster rounds (`Round`/`Violation`), the pool's workers
/// (`WorkerRound`), and the wave scheduler's instance lifecycle
/// (`MuxRound`/`InstanceRetired`), plus the service's job events and the
/// fault events.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// One exchange round, stated once: its totals, and one column entry
    /// per machine (entry `i` is machine `i`; every column has the
    /// cluster's machine count). Recorded by every exchange that returns
    /// `Ok`; a failed exchange records none. Σ `sent_words` is the round's
    /// total words.
    Round {
        /// Cluster round index (1-based, the value [`Cluster::rounds`]
        /// reports after the exchange).
        ///
        /// [`Cluster::rounds`]: crate::Cluster::rounds
        round: u64,
        /// The exchange label (interned; consumers render it).
        label: RoundLabel,
        /// Message count.
        messages: usize,
        /// Simulated round duration (the barrier waits for the slowest
        /// machine).
        makespan: f64,
        /// Words each machine sent.
        sent_words: Vec<usize>,
        /// Words addressed to each machine.
        recv_words: Vec<usize>,
        /// Local-computation words charged to each machine since the
        /// previous round.
        work: Vec<u64>,
        /// Simulated seconds each machine spent (wire + compute, before
        /// the barrier wait).
        seconds: Vec<f64>,
        /// Capacity each machine's traffic was checked against (scaled by
        /// the combined-round factor during multiplexed runs; headroom =
        /// `capacity - max(sent, recv)`).
        capacity: Vec<usize>,
    },
    /// A capacity-model violation was observed (any [`Enforcement`] mode
    /// that reports it — `Strict` before the error returns, `Record` when
    /// logged).
    ///
    /// [`Enforcement`]: crate::Enforcement
    Violation {
        /// Cluster round index at which the violation was observed.
        round: u64,
        /// Label of the offending exchange (the last exchange's label for
        /// memory violations declared between rounds).
        label: String,
        /// Violation kind (`send_overflow`, `recv_overflow`,
        /// `memory_overflow`, `unknown_machine`).
        kind: &'static str,
        /// Human-readable description.
        message: String,
    },
    /// One pool worker's accounting for one round: what it claimed, what
    /// it actually stepped, how long it waited at the round barrier, and
    /// how long it spent in the claim loop.
    WorkerRound {
        /// Driver round index.
        round: u64,
        /// Worker index within the pool.
        worker: usize,
        /// Machine indices this worker claimed off the shared counter.
        claimed: usize,
        /// Claimed machines that were active and actually stepped.
        stepped: usize,
        /// Claimed machines skipped because they were idle.
        idle_skips: usize,
        /// Host nanoseconds blocked at the round-start barrier.
        wait_ns: u64,
        /// Host nanoseconds spent in the claim loop (stepping + skipping).
        busy_ns: u64,
    },
    /// Per-machine instance attribution of a multiplexed (batched) round.
    MuxRound {
        /// Driver round index.
        round: u64,
        /// The machine.
        machine: MachineId,
        /// Instances that stepped on this machine this round.
        live: usize,
        /// Instances retired on this machine so far.
        retired: usize,
    },
    /// A multiplexed instance was retired by a controller on this machine
    /// (force-halted; its staged outbox was discarded).
    InstanceRetired {
        /// Driver round index.
        round: u64,
        /// The machine whose controller retired the instance.
        machine: MachineId,
        /// The retired instance's id.
        instance: u32,
    },
    /// A queued job was admitted into the running mixed wave by the
    /// service scheduler (its lanes installed on every machine).
    JobAdmitted {
        /// Driver round index at which the job's lanes start stepping.
        round: u64,
        /// Service-assigned job id (submission order).
        job: u64,
        /// Registry name of the admitted algorithm.
        name: String,
        /// Combined-round capacity shares this job holds while running.
        shares: usize,
    },
    /// A job's lanes were retired from the wave and its result extracted.
    JobCompleted {
        /// Driver round index at which the job was observed complete.
        round: u64,
        /// Service-assigned job id.
        job: u64,
        /// Driver rounds between admission and completion.
        rounds: u64,
        /// Whether result extraction failed (job-level algorithm error).
        failed: bool,
    },
    /// A running job was cancelled by the service: its lanes were force
    /// retired, its in-flight mail purged, and its capacity shares
    /// refunded to the admission queue (DESIGN.md §2.9).
    JobQuarantined {
        /// Service round index (monotone across wave restarts).
        round: u64,
        /// Service-assigned job id.
        job: u64,
        /// Why the job was pulled (`deadline`, or the engine error
        /// attributed to it).
        reason: String,
    },
    /// A quarantined job was resubmitted to the queue for another
    /// admission attempt (after its linear backoff elapses).
    JobRetried {
        /// Service round index the resubmission happened on.
        round: u64,
        /// Service-assigned job id.
        job: u64,
        /// The attempt the resubmission will consume (2-based: the first
        /// admission was attempt 1).
        attempt: u64,
    },
    /// A job exhausted its retry policy (or was admitted with a zero
    /// budget) and completed as failed; the run continued without it.
    JobFailed {
        /// Service round index of the terminal failure.
        round: u64,
        /// Service-assigned job id.
        job: u64,
        /// The underlying engine error, rendered.
        error: String,
    },
    /// A scheduled [`Fault`](crate::fault::Fault) fired during an exchange.
    FaultInjected {
        /// Cluster round index the fault fired on.
        round: u64,
        /// Fault kind (`crash`, `drop_exchange`, `delay_round`,
        /// `slowdown`).
        kind: &'static str,
        /// Human-readable fault description.
        detail: String,
    },
    /// A machine was quarantined after a crash: the driver has pulled it
    /// from the schedule pending shard recovery.
    MachineQuarantined {
        /// Cluster round index of the crashing exchange.
        round: u64,
        /// The quarantined machine.
        machine: MachineId,
    },
    /// One machine's shard was restored from a replica and its lost rounds
    /// replayed.
    RecoveryRound {
        /// Cluster round index the recovery exchange committed on.
        round: u64,
        /// The recovered machine.
        machine: MachineId,
        /// Driver rounds replayed from the checkpoint.
        replayed: u64,
        /// Recovery attempt number (1-based; >1 means earlier attempts
        /// were themselves disrupted).
        attempt: usize,
    },
}

impl TraceEvent {
    /// The event's type tag — the `"type"` field of its JSONL encoding.
    pub fn kind(&self) -> &'static str {
        self.json_values().0
    }

    /// The event as one JSON object (no trailing newline) — the JSONL
    /// wire format [`JsonlSink`] writes and [`validate_jsonl_line`]
    /// checks.
    pub fn to_json(&self) -> String {
        let (tag, fields) = self.json_fields();
        format!("{{\"type\":\"{tag}\",{fields}}}")
    }

    /// The type tag and the JSONL members `"name":value`, comma-joined:
    /// [`json_values`](Self::json_values) paired with the names of the
    /// tag's [`SCHEMA`] row.
    fn json_fields(&self) -> (&'static str, String) {
        let (tag, values) = self.json_values();
        let names = schema_row(tag).expect("every event tag has a SCHEMA row");
        debug_assert_eq!(names.len(), values.len(), "{tag}: one value per field");
        let members: Vec<String> = (names.iter().zip(values))
            .map(|((name, _), value)| format!("\"{name}\":{value}"))
            .collect();
        (tag, members.join(","))
    }

    /// The type tag and every field value rendered as JSON, in the order
    /// of the tag's [`SCHEMA`] row.
    fn json_values(&self) -> (&'static str, Vec<String>) {
        let num = |x: &dyn std::fmt::Display| x.to_string();
        match self {
            TraceEvent::Round {
                round,
                label,
                messages,
                makespan,
                sent_words,
                recv_words,
                work,
                seconds,
                capacity,
            } => (
                "round",
                vec![
                    num(round),
                    json_string(&label.to_string()),
                    num(messages),
                    json_f64(*makespan),
                    json_array(sent_words.iter().map(usize::to_string)),
                    json_array(recv_words.iter().map(usize::to_string)),
                    json_array(work.iter().map(u64::to_string)),
                    json_array(seconds.iter().map(|&x| json_f64(x))),
                    json_array(capacity.iter().map(usize::to_string)),
                ],
            ),
            TraceEvent::Violation {
                round,
                label,
                kind,
                message,
            } => (
                "violation",
                vec![
                    num(round),
                    json_string(label),
                    json_string(kind),
                    json_string(message),
                ],
            ),
            TraceEvent::WorkerRound {
                round,
                worker,
                claimed,
                stepped,
                idle_skips,
                wait_ns,
                busy_ns,
            } => (
                "worker_round",
                vec![
                    num(round),
                    num(worker),
                    num(claimed),
                    num(stepped),
                    num(idle_skips),
                    num(wait_ns),
                    num(busy_ns),
                ],
            ),
            TraceEvent::MuxRound {
                round,
                machine,
                live,
                retired,
            } => (
                "mux_round",
                vec![num(round), num(machine), num(live), num(retired)],
            ),
            TraceEvent::InstanceRetired {
                round,
                machine,
                instance,
            } => (
                "instance_retired",
                vec![num(round), num(machine), num(instance)],
            ),
            TraceEvent::JobAdmitted {
                round,
                job,
                name,
                shares,
            } => (
                "job_admitted",
                vec![num(round), num(job), json_string(name), num(shares)],
            ),
            TraceEvent::JobCompleted {
                round,
                job,
                rounds,
                failed,
            } => (
                "job_completed",
                vec![num(round), num(job), num(rounds), num(failed)],
            ),
            TraceEvent::JobQuarantined { round, job, reason } => (
                "job_quarantined",
                vec![num(round), num(job), json_string(reason)],
            ),
            TraceEvent::JobRetried {
                round,
                job,
                attempt,
            } => ("job_retried", vec![num(round), num(job), num(attempt)]),
            TraceEvent::JobFailed { round, job, error } => {
                ("job_failed", vec![num(round), num(job), json_string(error)])
            }
            TraceEvent::FaultInjected {
                round,
                kind,
                detail,
            } => (
                "fault_injected",
                vec![num(round), json_string(kind), json_string(detail)],
            ),
            TraceEvent::MachineQuarantined { round, machine } => {
                ("machine_quarantined", vec![num(round), num(machine)])
            }
            TraceEvent::RecoveryRound {
                round,
                machine,
                replayed,
                attempt,
            } => (
                "recovery_round",
                vec![num(round), num(machine), num(replayed), num(attempt)],
            ),
        }
    }
}

/// A telemetry consumer. Implementations do their own synchronization
/// (`record` takes `&self` and may be called from pool worker threads)
/// and must never panic on the recording path — a broken sink must not
/// take the engine down with it.
pub trait TraceSink: Send + Sync {
    /// Records one event. Borrowed, so a disabled or full sink can decline
    /// without the producer having paid for an allocation.
    fn record(&self, event: &TraceEvent);
}

// ---------------------------------------------------------------------------
// RingSink
// ---------------------------------------------------------------------------

struct RingInner {
    buf: VecDeque<TraceEvent>,
    capacity: Option<usize>,
    dropped: u64,
}

/// An in-memory ring-buffer sink: keeps the most recent `capacity` events
/// (or everything, when unbounded). The sink the tests and the
/// report-builder use.
pub struct RingSink {
    inner: Mutex<RingInner>,
}

impl RingSink {
    /// A ring that keeps every event (report building over full runs).
    pub fn unbounded() -> Self {
        RingSink {
            inner: Mutex::new(RingInner {
                buf: VecDeque::new(),
                capacity: None,
                dropped: 0,
            }),
        }
    }

    /// A ring keeping only the most recent `capacity` events; older events
    /// are dropped (and counted) — the crash-dump configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "ring sink needs capacity for at least one event"
        );
        RingSink {
            inner: Mutex::new(RingInner {
                buf: VecDeque::with_capacity(capacity),
                capacity: Some(capacity),
                dropped: 0,
            }),
        }
    }

    /// Events recorded so far (oldest first), cloned out.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().buf.iter().cloned().collect()
    }

    /// Drains and returns all buffered events (oldest first).
    pub fn take(&self) -> Vec<TraceEvent> {
        self.inner.lock().unwrap().buf.drain(..).collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }
}

impl TraceSink for RingSink {
    fn record(&self, event: &TraceEvent) {
        let mut inner = self.inner.lock().unwrap();
        if let Some(cap) = inner.capacity {
            while inner.buf.len() >= cap {
                inner.buf.pop_front();
                inner.dropped += 1;
            }
        }
        inner.buf.push_back(event.clone());
    }
}

// ---------------------------------------------------------------------------
// JsonlSink
// ---------------------------------------------------------------------------

/// A line-per-event JSON sink over any writer. Lines follow the schema
/// [`validate_jsonl_line`] checks (CI validates the trace
/// `mpc-trace all --jsonl` writes through this sink).
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(writer),
        }
    }

    /// Creates (truncates) `path` and writes events to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Flushes the underlying writer (also happens on drop).
    pub fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, event: &TraceEvent) {
        let line = event.to_json();
        let mut out = self.out.lock().unwrap();
        // A full disk must not panic the engine mid-round; the trace is
        // best-effort by contract.
        let _ = writeln!(out, "{line}");
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

// ---------------------------------------------------------------------------
// FanoutSink
// ---------------------------------------------------------------------------

/// Duplicates every event to each inner sink, in order — how a caller
/// composes its own sink with the report-builder's ring.
pub struct FanoutSink {
    sinks: Vec<std::sync::Arc<dyn TraceSink>>,
}

impl FanoutSink {
    /// A fanout over `sinks`.
    pub fn new(sinks: Vec<std::sync::Arc<dyn TraceSink>>) -> Self {
        FanoutSink { sinks }
    }
}

impl TraceSink for FanoutSink {
    fn record(&self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.record(event);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON helpers (the vendored offline deps include no JSON library)
// ---------------------------------------------------------------------------

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (JSON has no NaN/Infinity; those
/// degrade to large sentinels rather than corrupting the document).
pub fn json_f64(x: f64) -> String {
    if x.is_nan() {
        return "0".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "1e308" } else { "-1e308" }.to_string();
    }
    let mut s = format!("{x}");
    // `{}` on a whole f64 prints no decimal point; that is still valid
    // JSON, keep it.
    if s == "-0" {
        s = "0".to_string();
    }
    s
}

/// Joins rendered JSON values into a JSON array.
fn json_array(items: impl Iterator<Item = String>) -> String {
    format!("[{}]", items.collect::<Vec<_>>().join(","))
}

/// A minimal parsed JSON value — just enough structure for schema checks
/// and the Perfetto round-trip tests; not a general-purpose library.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (parsed as f64).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
///
/// # Errors
///
/// A human-readable description of the first syntax error.
pub fn parse_json(input: &str) -> Result<JsonValue, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// The deepest array/object nesting [`parse_json`] accepts: the parser
/// recurses once per level, so an unbounded document from outside
/// (`mpc-trace --validate FILE`) could overflow the stack. Every document
/// the repository writes nests fewer than ten levels.
const MAX_JSON_DEPTH: usize = 128;

fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    let Some(&c) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    if matches!(c, b'{' | b'[') && depth >= MAX_JSON_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
            *pos
        ));
    }
    match c {
        b'{' => parse_object(bytes, pos, depth + 1),
        b'[' => parse_array(bytes, pos, depth + 1),
        b'"' => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        b't' => parse_lit(bytes, pos, "true", JsonValue::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", JsonValue::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", JsonValue::Null),
        b'-' | b'0'..=b'9' => parse_number(bytes, pos),
        other => Err(format!("unexpected byte '{}' at {}", other as char, *pos)),
    }
}

fn parse_lit(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

/// A number by RFC 8259's grammar, `-? (0 | [1-9][0-9]*) (.[0-9]+)?
/// ([eE][+-]?[0-9]+)?`: no leading zeros, no bare `.` or exponent.
fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    // Consumes a run of digits; whether there was one.
    let digits = |pos: &mut usize| {
        let from = *pos;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    let invalid = |pos: usize| format!("invalid number at byte {pos}");
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    match bytes.get(*pos) {
        Some(b'0') => *pos += 1,
        Some(b'1'..=b'9') => {
            digits(pos);
        }
        _ => return Err(invalid(*pos)),
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        if !digits(pos) {
            return Err(invalid(*pos));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        if !digits(pos) {
            return Err(invalid(*pos));
        }
    }
    // The grammar is a subset of Rust's, so this does not fail.
    (std::str::from_utf8(&bytes[start..*pos]).ok())
        .and_then(|text| text.parse().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| invalid(start))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = (bytes.get(*pos..*pos + 4))
                            .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                            .ok_or_else(|| format!("\\u needs four hex digits at byte {}", *pos))?;
                        let code = (hex.iter()).fold(0, |code, &h| {
                            code * 16 + char::from(h).to_digit(16).expect("hex digit")
                        });
                        *pos += 4;
                        // Surrogate pairs are not needed for our own traces;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape '\\{}'", other as char)),
                }
            }
            c if c < 0x20 => return Err("raw control character in string".to_string()),
            _ => {
                // Re-assemble multi-byte UTF-8 starting at c.
                let start = *pos - 1;
                let len = utf8_len(c);
                let chunk = bytes
                    .get(start..start + len)
                    .ok_or_else(|| "truncated utf8".to_string())?;
                let s = std::str::from_utf8(chunk).map_err(|_| "bad utf8".to_string())?;
                out.push_str(s);
                *pos = start + len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(&b',') => *pos += 1,
            Some(&b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

// ---------------------------------------------------------------------------
// JSONL schema validation
// ---------------------------------------------------------------------------

/// The JSON type a schema field must have.
#[derive(Clone, Copy)]
enum Kind {
    Num,
    Str,
    Bool,
    /// An array of numbers: one of a frame's per-machine columns. All the
    /// columns of one line have the same length.
    Column,
}

use Kind::{Bool, Column, Num, Str};

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Num => "number",
            Str => "string",
            Bool => "bool",
            Column => "number array",
        }
    }
}

/// Required fields per event type, each with its JSON type — the JSONL
/// schema, and the only list of field names: [`TraceEvent::to_json`] and
/// the Perfetto instants name their values from it, and the validator
/// checks files from outside the program against it.
#[rustfmt::skip]
const SCHEMA: &[(&str, &[(&str, Kind)])] = &[
    ("round", &[("round", Num), ("label", Str), ("messages", Num), ("makespan", Num),
        ("sent_words", Column), ("recv_words", Column), ("work", Column), ("seconds", Column),
        ("capacity", Column)]),
    ("violation", &[("round", Num), ("label", Str), ("kind", Str), ("message", Str)]),
    ("worker_round", &[("round", Num), ("worker", Num), ("claimed", Num), ("stepped", Num),
        ("idle_skips", Num), ("wait_ns", Num), ("busy_ns", Num)]),
    ("mux_round", &[("round", Num), ("machine", Num), ("live", Num), ("retired", Num)]),
    ("instance_retired", &[("round", Num), ("machine", Num), ("instance", Num)]),
    ("job_admitted", &[("round", Num), ("job", Num), ("name", Str), ("shares", Num)]),
    ("job_completed", &[("round", Num), ("job", Num), ("rounds", Num), ("failed", Bool)]),
    ("job_quarantined", &[("round", Num), ("job", Num), ("reason", Str)]),
    ("job_retried", &[("round", Num), ("job", Num), ("attempt", Num)]),
    ("job_failed", &[("round", Num), ("job", Num), ("error", Str)]),
    ("fault_injected", &[("round", Num), ("kind", Str), ("detail", Str)]),
    ("machine_quarantined", &[("round", Num), ("machine", Num)]),
    ("recovery_round", &[("round", Num), ("machine", Num), ("replayed", Num), ("attempt", Num)]),
];

/// The [`SCHEMA`] row of event type `ty`.
fn schema_row(ty: &str) -> Option<&'static [(&'static str, Kind)]> {
    SCHEMA
        .iter()
        .find(|(t, _)| *t == ty)
        .map(|(_, fields)| *fields)
}

/// Validates one JSONL trace line against the event schema: it must be a
/// JSON object with a known `"type"` and every field that type requires,
/// with the right JSON types, and a frame's columns must be equally long.
/// Extra fields are allowed.
///
/// # Errors
///
/// A description of the first problem found.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    let value = parse_json(line)?;
    let ty = value
        .get("type")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "missing string field \"type\"".to_string())?;
    let Some(fields) = schema_row(ty) else {
        return Err(format!("unknown event type \"{ty}\""));
    };
    let mut columns = None;
    for &(field, kind) in fields {
        let found = (value.get(field))
            .ok_or_else(|| format!("event \"{ty}\": missing field \"{field}\""))?;
        let ok = match (kind, found) {
            (Num, JsonValue::Num(_)) | (Str, JsonValue::Str(_)) | (Bool, JsonValue::Bool(_)) => {
                true
            }
            (Column, JsonValue::Arr(items)) => items.iter().all(|x| x.as_f64().is_some()),
            _ => false,
        };
        if !ok {
            return Err(format!(
                "event \"{ty}\": field \"{field}\" is not a {}",
                kind.name()
            ));
        }
        if let JsonValue::Arr(items) = found {
            let want = *columns.get_or_insert(items.len());
            if items.len() != want {
                return Err(format!(
                    "event \"{ty}\": column \"{field}\" has {} entries, the first column {want}",
                    items.len()
                ));
            }
        }
    }
    Ok(())
}

/// Validates a whole JSONL document (blank lines are skipped); returns the
/// number of events checked.
///
/// # Errors
///
/// The first invalid line, with its 1-based line number.
pub fn validate_jsonl(body: &str) -> Result<usize, String> {
    let mut checked = 0usize;
    for (i, line) in body.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        checked += 1;
    }
    Ok(checked)
}

// ---------------------------------------------------------------------------
// Perfetto / Chrome-trace export
// ---------------------------------------------------------------------------

/// Synthetic process ids of the exported trace: simulated machine tracks
/// vs. host-time pool-worker tracks (two timelines, kept apart).
const PID_MACHINES: u64 = 1;
/// See [`PID_MACHINES`].
const PID_WORKERS: u64 = 2;
/// Thread id of the per-round span track within the machines process.
const TID_ROUNDS: u64 = 1_000_000;

/// The title and machine-process track of the instant `event` becomes in
/// [`perfetto_export`]: a machine's own track for an instance retirement,
/// the whole-round track otherwise. `None` for the events drawn as slices
/// (`Round`, `WorkerRound`) and for `MuxRound`, which is not drawn.
fn perfetto_instant(event: &TraceEvent) -> Option<(String, u64)> {
    Some(match event {
        TraceEvent::Round { .. } | TraceEvent::WorkerRound { .. } | TraceEvent::MuxRound { .. } => {
            return None
        }
        TraceEvent::Violation { kind, .. } => (format!("violation:{kind}"), TID_ROUNDS),
        TraceEvent::InstanceRetired {
            machine, instance, ..
        } => (format!("retire instance {instance}"), *machine as u64),
        TraceEvent::JobAdmitted { job, name, .. } => {
            (format!("admit job {job} ({name})"), TID_ROUNDS)
        }
        TraceEvent::JobCompleted { job, .. } => (format!("complete job {job}"), TID_ROUNDS),
        TraceEvent::JobQuarantined { job, .. } => (format!("quarantine job {job}"), TID_ROUNDS),
        TraceEvent::JobRetried { job, .. } => (format!("retry job {job}"), TID_ROUNDS),
        TraceEvent::JobFailed { job, .. } => (format!("fail job {job}"), TID_ROUNDS),
        TraceEvent::FaultInjected { kind, .. } => (format!("fault:{kind}"), TID_ROUNDS),
        TraceEvent::MachineQuarantined { machine, .. } => {
            (format!("quarantine machine {machine}"), TID_ROUNDS)
        }
        TraceEvent::RecoveryRound { machine, .. } => {
            (format!("recover machine {machine}"), TID_ROUNDS)
        }
    })
}

/// Exports events as a Chrome-trace/Perfetto JSON document (load at
/// <https://ui.perfetto.dev> or `chrome://tracing`).
///
/// Layout: process `PID_MACHINES` (1) carries one track per simulated
/// machine (slice = that machine's cost-model duration per round, on the
/// simulated timeline, µs = simulated seconds × 10⁶) plus one
/// whole-round track; process `PID_WORKERS` (2) carries one track per pool
/// worker with alternating `barrier-wait` / `round` slices on the host
/// timeline. Every other event but `MuxRound` is an instant on the
/// whole-round track (an instance retirement on its machine's track),
/// with the event's JSONL fields as its args.
pub fn perfetto_export(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let push = |line: String, out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        out.push_str(&line);
        *first = false;
    };

    // Metadata: name the two processes.
    for (pid, name) in [
        (PID_MACHINES, "cluster (simulated time)"),
        (PID_WORKERS, "worker pool (host time)"),
    ] {
        push(
            format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_string(name)
            ),
            &mut out,
            &mut first,
        );
    }
    push(
        format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_MACHINES},\
             \"tid\":{TID_ROUNDS},\"args\":{{\"name\":\"rounds\"}}}}"
        ),
        &mut out,
        &mut first,
    );

    // Simulated timeline: cumulative makespan cursor; per-round slices for
    // each machine start at the round's open. A machine track is named on
    // first use; frames list machines from 0, so the named ones are 0..this.
    let mut sim_cursor_us = 0.0f64;
    let mut named_machines = 0;
    let mut named_workers: Vec<usize> = Vec::new();
    // Host timeline per worker: cumulative wait+busy cursor.
    let mut worker_cursor_us: Vec<f64> = Vec::new();
    // Driver rounds and cluster rounds tick at (almost) the same cadence;
    // instance/mux events use the simulated cursor of the *current* round.

    for event in events {
        match event {
            TraceEvent::Round {
                round,
                label,
                messages,
                makespan,
                sent_words,
                recv_words,
                work,
                seconds,
                capacity,
            } => {
                for machine in 0..sent_words.len() {
                    if machine == named_machines {
                        named_machines += 1;
                        push(
                            format!(
                                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_MACHINES},\
                                 \"tid\":{machine},\"args\":{{\"name\":\"machine {machine}\"}}}}"
                            ),
                            &mut out,
                            &mut first,
                        );
                    }
                    let (sent, recv, cap) =
                        (sent_words[machine], recv_words[machine], capacity[machine]);
                    let headroom = cap.saturating_sub(sent.max(recv));
                    push(
                        format!(
                            "{{\"name\":\"r{round}\",\"ph\":\"X\",\"pid\":{PID_MACHINES},\
                             \"tid\":{machine},\"ts\":{},\"dur\":{},\"args\":{{\
                             \"sent_words\":{sent},\"recv_words\":{recv},\
                             \"work\":{},\"capacity\":{cap},\"headroom\":{headroom}}}}}",
                            json_f64(sim_cursor_us),
                            json_f64(seconds[machine] * 1e6),
                            work[machine]
                        ),
                        &mut out,
                        &mut first,
                    );
                }
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"X\",\"pid\":{PID_MACHINES},\
                         \"tid\":{TID_ROUNDS},\"ts\":{},\"dur\":{},\"args\":{{\
                         \"round\":{round},\"total_words\":{},\
                         \"messages\":{messages}}}}}",
                        json_string(&label.to_string()),
                        json_f64(sim_cursor_us),
                        json_f64(makespan * 1e6),
                        sent_words.iter().sum::<usize>()
                    ),
                    &mut out,
                    &mut first,
                );
                sim_cursor_us += makespan * 1e6;
            }
            TraceEvent::WorkerRound {
                round,
                worker,
                claimed,
                stepped,
                idle_skips,
                wait_ns,
                busy_ns,
            } => {
                if worker_cursor_us.len() <= *worker {
                    worker_cursor_us.resize(worker + 1, 0.0);
                }
                if !named_workers.contains(worker) {
                    named_workers.push(*worker);
                    push(
                        format!(
                            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{PID_WORKERS},\
                             \"tid\":{worker},\"args\":{{\"name\":\"worker {worker}\"}}}}"
                        ),
                        &mut out,
                        &mut first,
                    );
                }
                let wait_us = *wait_ns as f64 / 1e3;
                let busy_us = *busy_ns as f64 / 1e3;
                push(
                    format!(
                        "{{\"name\":\"barrier-wait\",\"ph\":\"X\",\"pid\":{PID_WORKERS},\
                         \"tid\":{worker},\"ts\":{},\"dur\":{},\"args\":{{\"round\":{round}}}}}",
                        json_f64(worker_cursor_us[*worker]),
                        json_f64(wait_us)
                    ),
                    &mut out,
                    &mut first,
                );
                worker_cursor_us[*worker] += wait_us;
                push(
                    format!(
                        "{{\"name\":\"r{round}\",\"ph\":\"X\",\"pid\":{PID_WORKERS},\
                         \"tid\":{worker},\"ts\":{},\"dur\":{},\"args\":{{\
                         \"claimed\":{claimed},\"stepped\":{stepped},\
                         \"idle_skips\":{idle_skips}}}}}",
                        json_f64(worker_cursor_us[*worker]),
                        json_f64(busy_us)
                    ),
                    &mut out,
                    &mut first,
                );
                worker_cursor_us[*worker] += busy_us;
            }
            _ => {
                let Some((title, tid)) = perfetto_instant(event) else {
                    continue;
                };
                let scope = if tid == TID_ROUNDS { "p" } else { "t" };
                let (_, args) = event.json_fields();
                push(
                    format!(
                        "{{\"name\":{},\"ph\":\"i\",\"s\":\"{scope}\",\"pid\":{PID_MACHINES},\
                         \"tid\":{tid},\"ts\":{},\"args\":{{{args}}}}}",
                        json_string(&title),
                        json_f64(sim_cursor_us)
                    ),
                    &mut out,
                    &mut first,
                );
            }
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Round {
                round: 1,
                label: "t.r000".into(),
                messages: 2,
                makespan: 4.0,
                sent_words: vec![3, 1],
                recv_words: vec![1, 3],
                work: vec![7, 0],
                seconds: vec![4.0, 4.0],
                capacity: vec![100, 20],
            },
            TraceEvent::Violation {
                round: 1,
                label: "t.r000".into(),
                kind: "send_overflow",
                message: "machine 1 sent 25 words".into(),
            },
            TraceEvent::WorkerRound {
                round: 0,
                worker: 0,
                claimed: 2,
                stepped: 1,
                idle_skips: 1,
                wait_ns: 1500,
                busy_ns: 9000,
            },
            TraceEvent::MuxRound {
                round: 0,
                machine: 0,
                live: 3,
                retired: 1,
            },
            TraceEvent::InstanceRetired {
                round: 0,
                machine: 0,
                instance: 2,
            },
            TraceEvent::JobAdmitted {
                round: 0,
                job: 1,
                name: "spanner".into(),
                shares: 2,
            },
            TraceEvent::JobCompleted {
                round: 4,
                job: 1,
                rounds: 4,
                failed: false,
            },
            TraceEvent::JobQuarantined {
                round: 5,
                job: 2,
                reason: "deadline".into(),
            },
            TraceEvent::JobRetried {
                round: 7,
                job: 2,
                attempt: 2,
            },
            TraceEvent::JobFailed {
                round: 9,
                job: 2,
                error: "machine 1 unrecoverable at driver round 4: retries exhausted".into(),
            },
            TraceEvent::FaultInjected {
                round: 3,
                kind: "crash",
                detail: "machine 1 crashes (scheduled round 3)".into(),
            },
            TraceEvent::MachineQuarantined {
                round: 3,
                machine: 1,
            },
            TraceEvent::RecoveryRound {
                round: 5,
                machine: 1,
                replayed: 2,
                attempt: 1,
            },
        ]
    }

    #[test]
    fn every_variant_emits_schema_valid_jsonl() {
        for event in sample_events() {
            let line = event.to_json();
            validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            // And the parsed type tag matches the variant's kind.
            let parsed = parse_json(&line).unwrap();
            assert_eq!(parsed.get("type").unwrap().as_str().unwrap(), event.kind());
        }
    }

    #[test]
    fn validator_rejects_missing_fields_and_unknown_types() {
        assert!(validate_jsonl_line("{\"type\":\"round\"}").is_err());
        assert!(validate_jsonl_line("{\"type\":\"nope\",\"round\":1}").is_err());
        assert!(validate_jsonl_line("not json").is_err());
        // Extra fields are allowed (the schema is a floor, not a ceiling).
        assert!(validate_jsonl_line(
            "{\"type\":\"machine_quarantined\",\"round\":1,\"machine\":4,\"x\":1}"
        )
        .is_ok());
        // A bool field must be present and a bool.
        let completed = "{\"type\":\"job_completed\",\"round\":4,\"job\":1,\"rounds\":4";
        assert!(validate_jsonl_line(&format!("{completed},\"failed\":false}}")).is_ok());
        assert!(validate_jsonl_line(&format!("{completed}}}")).is_err());
        assert!(validate_jsonl_line(&format!("{completed},\"failed\":1}}")).is_err());
        // A frame's columns hold numbers only, and all have one length.
        let frame = |sent: &str, seconds: &str| {
            format!(
                "{{\"type\":\"round\",\"round\":1,\"label\":\"t\",\"messages\":2,\
                 \"makespan\":4,\"sent_words\":{sent},\"recv_words\":[1,3],\"work\":[7,0],\
                 \"seconds\":{seconds},\"capacity\":[100,20]}}"
            )
        };
        assert!(validate_jsonl_line(&frame("[3,1]", "[4,4]")).is_ok());
        assert!(validate_jsonl_line(&frame("[3,\"1\"]", "[4,4]")).is_err());
        assert!(validate_jsonl_line(&frame("[3,1]", "[4]")).is_err());
        assert!(validate_jsonl_line(&frame("[3,1,0]", "[4,4]")).is_err());
        assert!(validate_jsonl_line(&frame("3", "[4,4]")).is_err());
    }

    #[test]
    fn ring_sink_caps_and_counts_drops() {
        let ring = RingSink::with_capacity(3);
        for round in 0..5 {
            ring.record(&TraceEvent::MachineQuarantined { round, machine: 1 });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let events = ring.take();
        assert!(matches!(
            events[0],
            TraceEvent::MachineQuarantined { round: 2, .. }
        ));
        assert!(ring.is_empty());
    }

    #[test]
    fn fanout_duplicates_to_every_sink() {
        let a = Arc::new(RingSink::unbounded());
        let b = Arc::new(RingSink::unbounded());
        let fan = FanoutSink::new(vec![a.clone(), b.clone()]);
        fan.record(&TraceEvent::MachineQuarantined {
            round: 0,
            machine: 1,
        });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_validating_lines() {
        let path = std::env::temp_dir().join("mpc_telemetry_jsonl_test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            for event in sample_events() {
                sink.record(&event);
            }
            sink.flush();
        }
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(validate_jsonl(&body).unwrap(), sample_events().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_parser_handles_nesting_escapes_and_errors() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"x\"\nA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\"\nA");
        assert_eq!(v.get("c").unwrap().get("d"), Some(&JsonValue::Null));
        assert!(parse_json("{\"a\":1,}").is_err());
        assert!(parse_json("[1 2]").is_err());
        assert!(parse_json("{}extra").is_err());
        // Round-trip our own escaper.
        let s = "weird \"label\"\twith\nnewlines\\";
        let parsed = parse_json(&json_string(s)).unwrap();
        assert_eq!(parsed.as_str().unwrap(), s);
    }

    #[test]
    fn json_parser_follows_the_rfc_grammar() {
        let refused = [
            r#""\u+041""#,
            r#""\u04""#,
            r#""\u00g1""#,
            r#""\u 041""#,
            "1.",
            "01",
            "-01",
            "-",
            ".5",
            "+1",
            "1e",
            "1e+",
            "1.e5",
            "--1",
            "0x10",
            "[1.]",
            "[01]",
        ];
        for text in refused {
            assert!(parse_json(text).is_err(), "{text} parsed");
        }
        let numbers = [
            ("0", 0.0),
            ("-0", 0.0),
            ("10", 10.0),
            ("-1.25", -1.25),
            ("0.5e1", 5.0),
            ("2E-2", 0.02),
            ("1e+2", 100.0),
        ];
        for (text, x) in numbers {
            assert_eq!(parse_json(text), Ok(JsonValue::Num(x)), "{text}");
        }
        let escaped = parse_json(r#""\u0041\u00E9""#).unwrap();
        assert_eq!(escaped.as_str(), Some("Aé"));
    }

    /// Random text biased towards the bytes JSON's grammar turns on, so it
    /// reaches past the first byte of the parser.
    fn fuzz_text(picks: &[u32]) -> String {
        const GRAMMAR: &[u8] = br#"{}[]":,.-+0123456789eEtrufalsn\/ "#;
        let pick = |r: u32| match r % 4 {
            0 => char::from_u32(r / 4 % 0x11_0000).unwrap_or('\u{fffd}'),
            _ => char::from(GRAMMAR[(r / 4) as usize % GRAMMAR.len()]),
        };
        picks.iter().map(|&r| pick(r)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The reader and the JSONL validator answer `Ok` or `Err` on any
        /// text, alone or as the value of an otherwise valid event.
        #[test]
        fn reader_never_panics(picks in proptest::collection::vec(proptest::any::<u32>(), 0..48)) {
            let text = fuzz_text(&picks);
            let _ = parse_json(&text);
            let _ = validate_jsonl(&text);
            let event = format!("{{\"type\":\"round\",\"round\":1,\"label\":{text}}}");
            let _ = validate_jsonl(&event);
        }

        /// `json_string` round-trips every string: control characters,
        /// quotes and backslashes, non-BMP characters.
        #[test]
        fn json_string_round_trips(picks in proptest::collection::vec(proptest::any::<u32>(), 0..32)) {
            let s: String = (picks.iter())
                .filter_map(|&r| match r % 4 {
                    0 => char::from_u32(r / 4 % 0x20),
                    1 => char::from_u32(0x1_0000 + r / 4 % 0x10_0000),
                    2 => Some(char::from(b"\"\\/ab"[(r / 4) as usize % 5])),
                    _ => char::from_u32(r / 4 % 0x11_0000),
                })
                .collect();
            proptest::prop_assert_eq!(parse_json(&json_string(&s)), Ok(JsonValue::Str(s)));
        }

        /// `json_f64` round-trips every finite `f64` bit for bit, `-0`
        /// becoming `0`.
        #[test]
        fn json_f64_round_trips(bits in proptest::any::<u64>(), small in proptest::any::<i32>()) {
            for x in [f64::from_bits(bits), f64::from(small), f64::from(small) / 1024.0] {
                if x.is_finite() {
                    let back = parse_json(&json_f64(x)).unwrap().as_f64().unwrap();
                    let want = if x == 0.0 { 0.0 } else { x };
                    proptest::prop_assert_eq!(back.to_bits(), want.to_bits(), "{}", x);
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        assert!(parse_json(&nested(MAX_JSON_DEPTH + 1)).is_err());
        let deep = "[".repeat(100_000);
        assert!(parse_json(&deep).is_err());
        let line = format!("{{\"type\":\"round\",\"round\":1,\"label\":{deep}}}\n");
        assert!(validate_jsonl(&line).is_err());
    }

    #[test]
    fn perfetto_export_is_valid_json_with_both_process_tracks() {
        let doc = perfetto_export(&sample_events());
        let parsed = parse_json(&doc).expect("perfetto export must parse");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_arr)
            .expect("traceEvents array");
        assert!(events.len() >= sample_events().len());
        // Both processes appear, machine slices carry args, and the worker
        // track shows a wait + busy pair.
        let pids: Vec<f64> = events
            .iter()
            .filter_map(|e| e.get("pid").and_then(JsonValue::as_f64))
            .collect();
        assert!(pids.contains(&(PID_MACHINES as f64)));
        assert!(pids.contains(&(PID_WORKERS as f64)));
        let waits = events
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some("barrier-wait"))
            .count();
        assert_eq!(waits, 1);
        let retire = events
            .iter()
            .find(|e| {
                e.get("name")
                    .and_then(JsonValue::as_str)
                    .is_some_and(|n| n.starts_with("retire instance"))
            })
            .expect("retirement instant event");
        assert_eq!(retire.get("ph").unwrap().as_str().unwrap(), "i");
    }
}
