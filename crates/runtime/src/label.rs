//! Interned round labels: a shared prefix plus a round counter.
//!
//! The execution engine labels its exchanges `{prefix}.r{round:03}`. Doing
//! that with `format!` + `String` costs two heap allocations **per round**
//! — on the engine's hot path, at high round counts, that is measurable
//! host wall-clock (see the benchmark's `round-heavy` workload). A
//! [`RoundLabel`] splits the label into an interned [`Arc<str>`] prefix
//! (allocated once per run, cloned per round for the price of a reference
//! count) and a plain integer sequence number; the full string is only
//! ever materialized for display and error messages.

use std::fmt;
use std::sync::Arc;

/// A round label: an interned prefix, optionally followed by a round
/// counter rendered as `.r{seq:03}`.
///
/// Labels created from a plain `&str` (the legacy
/// [`Cluster::exchange`](crate::Cluster::exchange) path) carry the whole
/// string as the prefix and no sequence number; the engine's per-round
/// labels share one prefix allocation across every round of a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoundLabel {
    prefix: Arc<str>,
    seq: Option<u64>,
}

impl RoundLabel {
    /// A label with no sequence number (renders as the bare prefix).
    pub fn new(prefix: impl Into<Arc<str>>) -> Self {
        RoundLabel {
            prefix: prefix.into(),
            seq: None,
        }
    }

    /// A per-round label sharing an already-interned prefix: cloning the
    /// `Arc` is the only per-round cost.
    pub fn with_seq(prefix: &Arc<str>, seq: u64) -> Self {
        RoundLabel {
            prefix: Arc::clone(prefix),
            seq: Some(seq),
        }
    }

    /// The label's prefix (everything before the round counter).
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The round counter, if this label carries one.
    pub fn seq(&self) -> Option<u64> {
        self.seq
    }

    /// The label's first dot-separated component — the key
    /// [`round_summary`](crate::Cluster::round_summary) groups by (e.g.
    /// `"mst"` for `mst.kkt.labels` and for `mst.r007` alike).
    pub fn group(&self) -> &str {
        self.prefix.split('.').next().unwrap_or(&self.prefix)
    }

    /// Whether the rendered label would be the empty string.
    pub fn is_empty(&self) -> bool {
        self.prefix.is_empty() && self.seq.is_none()
    }

    /// Materializes the full label (allocates; display/error paths only).
    pub fn render(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for RoundLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.seq {
            Some(seq) => write!(f, "{}.r{seq:03}", self.prefix),
            None => f.write_str(&self.prefix),
        }
    }
}

impl From<&str> for RoundLabel {
    fn from(s: &str) -> Self {
        RoundLabel::new(s)
    }
}

impl From<String> for RoundLabel {
    fn from(s: String) -> Self {
        RoundLabel::new(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_like_the_legacy_format() {
        let prefix: Arc<str> = Arc::from("conn");
        assert_eq!(RoundLabel::with_seq(&prefix, 7).to_string(), "conn.r007");
        assert_eq!(RoundLabel::new("mst.sort").to_string(), "mst.sort");
    }

    #[test]
    fn group_is_the_first_component() {
        let prefix: Arc<str> = Arc::from("mst.kkt");
        assert_eq!(RoundLabel::with_seq(&prefix, 1).group(), "mst");
        assert_eq!(RoundLabel::new("spanner").group(), "spanner");
    }

    #[test]
    fn equality_is_structural() {
        let p: Arc<str> = Arc::from("a");
        assert_eq!(RoundLabel::with_seq(&p, 3), RoundLabel::with_seq(&p, 3));
        assert_ne!(RoundLabel::with_seq(&p, 3), RoundLabel::new("a.r003"));
    }

    #[test]
    fn emptiness() {
        assert!(RoundLabel::new("").is_empty());
        let p: Arc<str> = Arc::from("");
        assert!(!RoundLabel::with_seq(&p, 0).is_empty());
        assert!(!RoundLabel::new("x").is_empty());
    }
}
