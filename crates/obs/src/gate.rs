//! Gate metrics: the flat list every gated artifact carries next to its
//! human-readable payload.
//!
//! A producer ([`crate::RunManifest`] here, the bench reports in
//! `scorpio-bench`) flattens what it measured into [`Metric`]s and
//! writes them under a top-level `metrics` key with [`to_json`].
//! `scorpio_diff` pairs two such lists by [`Metric::name`] and judges
//! each pair by its [`Better`] rule, so it never needs to know a
//! payload's layout: a new gated artifact costs no comparison code.

use crate::json::{self, Value, WriteJson};

/// How a change between a baseline and a candidate value is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (PSNR, SSIM): a relative drop beyond the
    /// threshold regresses, a rise beyond it improves.
    Higher,
    /// Smaller is better (energy, time, error): the mirror of
    /// [`Better::Higher`]. With [`Metric::samples`] on both sides the
    /// change must also be statistically significant.
    Lower,
    /// Drift beyond the threshold in either direction regresses
    /// (counters, bitrate): unexpected shrinkage is as suspicious as
    /// growth.
    Either,
    /// Deterministic: any change over 1e-9 regresses (achieved ratios,
    /// block tallies).
    Exact,
    /// A pass/fail bit judged on the candidate alone: 1 passes, 0
    /// regresses.
    Contract,
}

const BETTER_NAMES: [(Better, &str); 5] = [
    (Better::Higher, "higher"),
    (Better::Lower, "lower"),
    (Better::Either, "either"),
    (Better::Exact, "exact"),
    (Better::Contract, "contract"),
];

impl Better {
    /// The JSON spelling (`"higher"`, `"lower"`, …).
    pub fn as_str(self) -> &'static str {
        BETTER_NAMES
            .iter()
            .find(|(b, _)| *b == self)
            .map(|(_, s)| *s)
            .expect("every variant is named")
    }

    /// Inverse of [`Better::as_str`].
    pub fn from_name(name: &str) -> Option<Better> {
        BETTER_NAMES
            .iter()
            .find(|(_, s)| *s == name)
            .map(|(b, _)| *b)
    }
}

/// One gated measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable identity across runs (e.g.
    /// `"sobel @ ratio 0.5 · quality(psnr_db)"`); the pairing key.
    pub name: String,
    /// Unit of [`Metric::value`]. Time units (`ns`, `us`, `ms`, `s`)
    /// mark machine-dependent metrics.
    pub unit: String,
    /// The verdict rule.
    pub better: Better,
    /// The measured value (the mean when [`Metric::samples`] is set;
    /// 1 or 0 for [`Better::Contract`]).
    pub value: f64,
    /// Repeated measurements behind `value`, when there are several.
    pub samples: Option<Vec<f64>>,
}

impl Metric {
    /// A single-valued metric.
    pub fn new(name: impl Into<String>, unit: &str, better: Better, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit: unit.to_owned(),
            better,
            value,
            samples: None,
        }
    }

    /// A [`Better::Contract`] bit.
    pub fn contract(name: impl Into<String>, ok: bool) -> Metric {
        Metric::new(name, "bool", Better::Contract, if ok { 1.0 } else { 0.0 })
    }

    /// Attaches the repeated measurements `value` summarises.
    pub fn with_samples(mut self, samples: Vec<f64>) -> Metric {
        self.samples = Some(samples);
        self
    }

    /// Reads one entry of a parsed `metrics` list (`null` values, the
    /// writer's NaN spelling, read back as NaN).
    pub fn from_value(v: &Value) -> Option<Metric> {
        let value = match v.get("value")? {
            Value::Null => f64::NAN,
            other => other.as_f64()?,
        };
        let samples = match v.get("samples") {
            Some(s) => Some(s.as_arr()?.iter().filter_map(Value::as_f64).collect()),
            None => None,
        };
        Some(Metric {
            name: v.get("name")?.as_str()?.to_owned(),
            unit: v.get("unit")?.as_str()?.to_owned(),
            better: Better::from_name(v.get("better")?.as_str()?)?,
            value,
            samples,
        })
    }
}

/// Written by hand rather than by [`json_record!`](crate::json_record):
/// `samples` is left out when it is `None`.
impl WriteJson for Metric {
    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        self.name.write_json(out);
        out.push_str(",\"unit\":");
        self.unit.write_json(out);
        out.push_str(",\"better\":");
        self.better.as_str().write_json(out);
        out.push_str(",\"value\":");
        self.value.write_json(out);
        if let Some(samples) = &self.samples {
            out.push_str(",\"samples\":");
            samples.write_json(out);
        }
        out.push('}');
    }
}

/// Writes `payload` (a record) as JSON with `metrics` appended as its
/// last key, leaving every payload byte as [`json::to_string`] writes
/// it.
pub fn to_json<T: WriteJson + ?Sized>(payload: &T, metrics: &[Metric]) -> String {
    let mut out = json::to_string(payload);
    assert_eq!(out.pop(), Some('}'), "a gated payload writes a JSON object");
    out.push_str(",\"metrics\":");
    metrics.write_json(&mut out);
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_through_the_parser() {
        let metrics = vec![
            Metric::new("a · energy_j", "J", Better::Lower, 1.5),
            Metric::new("b", "ns", Better::Lower, 2.0).with_samples(vec![1.0, 3.0]),
            Metric::contract("c · converged", false),
            Metric::new("d", "dB", Better::Higher, f64::NAN),
        ];
        let v = json::parse(&json::to_string(&metrics)).unwrap();
        let back: Vec<Metric> = v
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(Metric::from_value)
            .collect();
        assert_eq!(back.len(), 4);
        assert_eq!(back[..3], metrics[..3]);
        assert!(back[3].value.is_nan());
        for b in BETTER_NAMES.map(|(b, _)| b) {
            assert_eq!(Better::from_name(b.as_str()), Some(b));
        }
    }

    #[test]
    fn to_json_appends_metrics_after_the_payload() {
        struct P {
            x: u64,
        }
        crate::json_record!(P { x });
        let out = to_json(&P { x: 1 }, &[Metric::contract("ok", true)]);
        assert_eq!(
            out,
            r#"{"x":1,"metrics":[{"name":"ok","unit":"bool","better":"contract","value":1}]}"#
        );
    }
}
