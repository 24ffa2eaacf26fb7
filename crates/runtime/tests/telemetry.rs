//! The JSONL wire format as a property: every [`TraceEvent`] variant,
//! with arbitrary values, writes one line that `validate_jsonl_line`
//! accepts and `parse_json` reads back field for field — labels and
//! strings with quotes, backslashes and control characters, integers up to
//! 2⁵³, `f64`s including NaN, ±∞ and −0 (read back as `json_f64`'s
//! sentinels), and round frames of 0–16 machines. The Perfetto export
//! draws each event that is not a slice as one instant whose args are
//! those same fields.

use mpc_runtime::telemetry::{parse_json, perfetto_export, validate_jsonl_line, JsonValue};
use mpc_runtime::{RoundLabel, TraceEvent};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Arbitrary field values for the JSONL round trip, drawn from one seed.
struct Arbitrary(SmallRng);

impl Arbitrary {
    fn below(&mut self, n: u64) -> u64 {
        self.0.random_range(0..n)
    }

    /// An integer below 2⁵³ (exact in a JSON number), often an edge.
    fn int(&mut self) -> u64 {
        match self.below(4) {
            0 => 0,
            1 => (1 << 53) - 1,
            2 => self.below(1000),
            _ => self.below(1 << 53),
        }
    }

    fn size(&mut self) -> usize {
        self.int() as usize
    }

    fn real(&mut self) -> f64 {
        match self.below(8) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            4 => self.int() as f64 / 1024.0,
            _ => f64::from_bits(self.0.next_u64()),
        }
    }

    /// Text with quotes, backslashes, control and non-BMP characters.
    fn text(&mut self) -> String {
        let len = self.below(12);
        (0..len)
            .map(|_| match self.below(5) {
                0 => char::from_u32(self.below(0x20) as u32).unwrap(),
                1 => ['"', '\\', '/'][self.below(3) as usize],
                2 => char::from_u32(0x1_0000 + self.below(0x1000) as u32).unwrap(),
                _ => char::from(b'a' + self.below(26) as u8),
            })
            .collect()
    }

    fn static_text(&mut self) -> &'static str {
        [
            "send_overflow",
            "crash",
            "",
            "q\"uote",
            "back\\slash",
            "ctl\u{1}\n\t",
        ][self.below(6) as usize]
    }

    fn label(&mut self) -> RoundLabel {
        let prefix: std::sync::Arc<str> = self.text().into();
        match self.below(2) {
            0 => RoundLabel::new(prefix),
            _ => RoundLabel::with_seq(&prefix, self.int()),
        }
    }

    /// One event of variant `variant` (0–12, in declaration order).
    fn event(&mut self, variant: usize) -> TraceEvent {
        match variant {
            0 => {
                let k = self.below(17) as usize;
                TraceEvent::Round {
                    round: self.int(),
                    label: self.label(),
                    messages: self.size(),
                    makespan: self.real(),
                    sent_words: (0..k).map(|_| self.size()).collect(),
                    recv_words: (0..k).map(|_| self.size()).collect(),
                    work: (0..k).map(|_| self.int()).collect(),
                    seconds: (0..k).map(|_| self.real()).collect(),
                    capacity: (0..k).map(|_| self.size()).collect(),
                }
            }
            1 => TraceEvent::Violation {
                round: self.int(),
                label: self.text(),
                kind: self.static_text(),
                message: self.text(),
            },
            2 => TraceEvent::WorkerRound {
                round: self.int(),
                worker: self.size(),
                claimed: self.size(),
                stepped: self.size(),
                idle_skips: self.size(),
                wait_ns: self.int(),
                busy_ns: self.int(),
            },
            3 => TraceEvent::MuxRound {
                round: self.int(),
                machine: self.size(),
                live: self.size(),
                retired: self.size(),
            },
            4 => TraceEvent::InstanceRetired {
                round: self.int(),
                machine: self.size(),
                instance: self.0.next_u32(),
            },
            5 => TraceEvent::JobAdmitted {
                round: self.int(),
                job: self.int(),
                name: self.text(),
                shares: self.size(),
            },
            6 => TraceEvent::JobCompleted {
                round: self.int(),
                job: self.int(),
                rounds: self.int(),
                failed: self.below(2) == 1,
            },
            7 => TraceEvent::JobQuarantined {
                round: self.int(),
                job: self.int(),
                reason: self.text(),
            },
            8 => TraceEvent::JobRetried {
                round: self.int(),
                job: self.int(),
                attempt: self.int(),
            },
            9 => TraceEvent::JobFailed {
                round: self.int(),
                job: self.int(),
                error: self.text(),
            },
            10 => TraceEvent::FaultInjected {
                round: self.int(),
                kind: self.static_text(),
                detail: self.text(),
            },
            11 => TraceEvent::MachineQuarantined {
                round: self.int(),
                machine: self.size(),
            },
            _ => TraceEvent::RecoveryRound {
                round: self.int(),
                machine: self.size(),
                replayed: self.int(),
                attempt: self.size(),
            },
        }
    }
}

/// The object `to_json` must write for `event`, field for field: the
/// type tag first, then the fields in declaration order, with `f64`s
/// as `json_f64`'s sentinels read them back (NaN as 0, ±∞ as ±1e308).
fn expected_json(event: &TraceEvent) -> JsonValue {
    use JsonValue::{Arr, Bool, Num, Str};
    let int = |x: u64| Num(x as f64);
    let size = |x: usize| Num(x as f64);
    let real = |x: f64| {
        Num(match x {
            x if x.is_nan() => 0.0,
            f64::INFINITY => 1e308,
            f64::NEG_INFINITY => -1e308,
            x => x,
        })
    };
    let text = |s: &str| Str(s.to_string());
    let fields = match event {
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
        } => vec![
            ("round", int(*round)),
            ("label", text(&label.to_string())),
            ("messages", size(*messages)),
            ("makespan", real(*makespan)),
            (
                "sent_words",
                Arr(sent_words.iter().map(|&x| size(x)).collect()),
            ),
            (
                "recv_words",
                Arr(recv_words.iter().map(|&x| size(x)).collect()),
            ),
            ("work", Arr(work.iter().map(|&x| int(x)).collect())),
            ("seconds", Arr(seconds.iter().map(|&x| real(x)).collect())),
            ("capacity", Arr(capacity.iter().map(|&x| size(x)).collect())),
        ],
        TraceEvent::Violation {
            round,
            label,
            kind,
            message,
        } => vec![
            ("round", int(*round)),
            ("label", text(label)),
            ("kind", text(kind)),
            ("message", text(message)),
        ],
        TraceEvent::WorkerRound {
            round,
            worker,
            claimed,
            stepped,
            idle_skips,
            wait_ns,
            busy_ns,
        } => vec![
            ("round", int(*round)),
            ("worker", size(*worker)),
            ("claimed", size(*claimed)),
            ("stepped", size(*stepped)),
            ("idle_skips", size(*idle_skips)),
            ("wait_ns", int(*wait_ns)),
            ("busy_ns", int(*busy_ns)),
        ],
        TraceEvent::MuxRound {
            round,
            machine,
            live,
            retired,
        } => vec![
            ("round", int(*round)),
            ("machine", size(*machine)),
            ("live", size(*live)),
            ("retired", size(*retired)),
        ],
        TraceEvent::InstanceRetired {
            round,
            machine,
            instance,
        } => vec![
            ("round", int(*round)),
            ("machine", size(*machine)),
            ("instance", int(u64::from(*instance))),
        ],
        TraceEvent::JobAdmitted {
            round,
            job,
            name,
            shares,
        } => vec![
            ("round", int(*round)),
            ("job", int(*job)),
            ("name", text(name)),
            ("shares", size(*shares)),
        ],
        TraceEvent::JobCompleted {
            round,
            job,
            rounds,
            failed,
        } => vec![
            ("round", int(*round)),
            ("job", int(*job)),
            ("rounds", int(*rounds)),
            ("failed", Bool(*failed)),
        ],
        TraceEvent::JobQuarantined { round, job, reason } => vec![
            ("round", int(*round)),
            ("job", int(*job)),
            ("reason", text(reason)),
        ],
        TraceEvent::JobRetried {
            round,
            job,
            attempt,
        } => vec![
            ("round", int(*round)),
            ("job", int(*job)),
            ("attempt", int(*attempt)),
        ],
        TraceEvent::JobFailed { round, job, error } => vec![
            ("round", int(*round)),
            ("job", int(*job)),
            ("error", text(error)),
        ],
        TraceEvent::FaultInjected {
            round,
            kind,
            detail,
        } => vec![
            ("round", int(*round)),
            ("kind", text(kind)),
            ("detail", text(detail)),
        ],
        TraceEvent::MachineQuarantined { round, machine } => {
            vec![("round", int(*round)), ("machine", size(*machine))]
        }
        TraceEvent::RecoveryRound {
            round,
            machine,
            replayed,
            attempt,
        } => vec![
            ("round", int(*round)),
            ("machine", size(*machine)),
            ("replayed", int(*replayed)),
            ("attempt", size(*attempt)),
        ],
    };
    let tag = ("type".to_string(), text(event.kind()));
    JsonValue::Obj(
        std::iter::once(tag)
            .chain(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
            .collect(),
    )
}

/// The variants [`perfetto_export`] draws as instants, by
/// [`Arbitrary::event`] index: all but `Round`, `WorkerRound` (slices)
/// and `MuxRound` (not drawn).
const INSTANT_VARIANTS: [usize; 10] = [1, 4, 5, 6, 7, 8, 9, 10, 11, 12];

/// The title of the Perfetto instant `event` becomes.
fn instant_title(event: &TraceEvent) -> String {
    match event {
        TraceEvent::Violation { kind, .. } => format!("violation:{kind}"),
        TraceEvent::InstanceRetired { instance, .. } => format!("retire instance {instance}"),
        TraceEvent::JobAdmitted { job, name, .. } => format!("admit job {job} ({name})"),
        TraceEvent::JobCompleted { job, .. } => format!("complete job {job}"),
        TraceEvent::JobQuarantined { job, .. } => format!("quarantine job {job}"),
        TraceEvent::JobRetried { job, .. } => format!("retry job {job}"),
        TraceEvent::JobFailed { job, .. } => format!("fail job {job}"),
        TraceEvent::FaultInjected { kind, .. } => format!("fault:{kind}"),
        TraceEvent::MachineQuarantined { machine, .. } => format!("quarantine machine {machine}"),
        TraceEvent::RecoveryRound { machine, .. } => format!("recover machine {machine}"),
        other => panic!("{other:?} is not drawn as an instant"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Every variant, with arbitrary values, writes a line the validator
    /// accepts and `parse_json` reads back field for field.
    #[test]
    fn to_json_round_trips_every_variant(seed in any::<u64>()) {
        let mut arbitrary = Arbitrary(SmallRng::seed_from_u64(seed));
        let mut kinds = Vec::new();
        for variant in 0..13 {
            let event = arbitrary.event(variant);
            let line = event.to_json();
            validate_jsonl_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            prop_assert_eq!(parse_json(&line), Ok(expected_json(&event)), "{}", line);
            kinds.push(event.kind());
        }
        kinds.sort_unstable();
        kinds.dedup();
        prop_assert_eq!(kinds.len(), 13, "one event of every variant");
    }

    /// Each of the ten instant variants exports exactly one instant,
    /// titled for the event, whose args are the event's JSONL fields
    /// without `type`.
    #[test]
    fn perfetto_instants_carry_their_jsonl_fields(seed in any::<u64>()) {
        let mut arbitrary = Arbitrary(SmallRng::seed_from_u64(seed));
        for variant in INSTANT_VARIANTS {
            let event = arbitrary.event(variant);
            let doc = parse_json(&perfetto_export(std::slice::from_ref(&event))).unwrap();
            let instants: Vec<&JsonValue> = (doc.get("traceEvents").and_then(JsonValue::as_arr))
                .expect("traceEvents array")
                .iter()
                .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i"))
                .collect();
            prop_assert_eq!(instants.len(), 1, "{:?}", event);
            let title = instant_title(&event);
            prop_assert_eq!(instants[0].get("name").and_then(JsonValue::as_str), Some(&*title));
            let Ok(JsonValue::Obj(mut fields)) = parse_json(&event.to_json()) else {
                panic!("{}: not an object", event.to_json());
            };
            fields.retain(|(name, _)| name != "type");
            prop_assert_eq!(instants[0].get("args"), Some(&JsonValue::Obj(fields)));
        }
    }
}
