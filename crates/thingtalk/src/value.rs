//! ThingTalk values: the rich constant language of the VAPL.
//!
//! To allow translation from natural language without contextual information,
//! ThingTalk needs a rich language of constants (§2.1): compound measures
//! ("6 feet 3 inches" → `6ft + 3in`), symbolic date edges (`start_of_week`),
//! relative dates, entities with display names, and `$undefined` slots. The
//! neural parser never performs arithmetic; normalization happens here or in
//! the runtime.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::units::Unit;

/// A symbolic edge of a calendar period, used in relative date expressions
/// like "since the start of the week".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DateEdge {
    StartOfDay,
    EndOfDay,
    StartOfWeek,
    EndOfWeek,
    StartOfMonth,
    EndOfMonth,
    StartOfYear,
    EndOfYear,
    Now,
}

impl DateEdge {
    /// The surface-syntax keyword for this edge.
    pub fn keyword(self) -> &'static str {
        match self {
            DateEdge::StartOfDay => "start_of_day",
            DateEdge::EndOfDay => "end_of_day",
            DateEdge::StartOfWeek => "start_of_week",
            DateEdge::EndOfWeek => "end_of_week",
            DateEdge::StartOfMonth => "start_of_month",
            DateEdge::EndOfMonth => "end_of_month",
            DateEdge::StartOfYear => "start_of_year",
            DateEdge::EndOfYear => "end_of_year",
            DateEdge::Now => "now",
        }
    }

    /// Resolve the edge against a reference time (milliseconds since an
    /// arbitrary epoch) assuming the reference is the current instant.
    pub fn resolve(self, now_ms: i64) -> i64 {
        const DAY: i64 = 86_400_000;
        const WEEK: i64 = 7 * DAY;
        const MONTH: i64 = 30 * DAY;
        const YEAR: i64 = 365 * DAY;
        match self {
            DateEdge::Now => now_ms,
            DateEdge::StartOfDay => now_ms - now_ms.rem_euclid(DAY),
            DateEdge::EndOfDay => now_ms - now_ms.rem_euclid(DAY) + DAY,
            DateEdge::StartOfWeek => now_ms - now_ms.rem_euclid(WEEK),
            DateEdge::EndOfWeek => now_ms - now_ms.rem_euclid(WEEK) + WEEK,
            DateEdge::StartOfMonth => now_ms - now_ms.rem_euclid(MONTH),
            DateEdge::EndOfMonth => now_ms - now_ms.rem_euclid(MONTH) + MONTH,
            DateEdge::StartOfYear => now_ms - now_ms.rem_euclid(YEAR),
            DateEdge::EndOfYear => now_ms - now_ms.rem_euclid(YEAR) + YEAR,
        }
    }

    /// Parse a keyword back into an edge.
    pub fn from_keyword(s: &str) -> Option<Self> {
        [
            DateEdge::StartOfDay,
            DateEdge::EndOfDay,
            DateEdge::StartOfWeek,
            DateEdge::EndOfWeek,
            DateEdge::StartOfMonth,
            DateEdge::EndOfMonth,
            DateEdge::StartOfYear,
            DateEdge::EndOfYear,
            DateEdge::Now,
        ]
        .into_iter()
        .find(|e| e.keyword() == s)
    }
}

/// A ThingTalk date value: either an absolute timestamp, a symbolic edge, or
/// an edge plus an offset duration ("a week ago" → `now - 7day`).
#[derive(Debug, Clone, PartialEq)]
pub enum DateValue {
    /// Absolute milliseconds since the (virtual) epoch.
    Absolute(i64),
    /// A symbolic calendar edge.
    Edge(DateEdge),
    /// An edge shifted by a signed duration in milliseconds.
    Offset {
        /// The base edge.
        base: DateEdge,
        /// The signed offset in milliseconds.
        offset_ms: i64,
    },
}

impl DateValue {
    /// Resolve to absolute milliseconds given the current virtual time.
    pub fn resolve(&self, now_ms: i64) -> i64 {
        match self {
            DateValue::Absolute(ms) => *ms,
            DateValue::Edge(edge) => edge.resolve(now_ms),
            DateValue::Offset { base, offset_ms } => base.resolve(now_ms) + offset_ms,
        }
    }
}

/// A geographic location: either a named place or explicit coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum LocationValue {
    /// A named location resolved later by the runtime ("home", "work",
    /// "palo alto").
    Named(String),
    /// Latitude/longitude coordinates.
    Coordinates {
        /// Degrees of latitude.
        latitude: f64,
        /// Degrees of longitude.
        longitude: f64,
    },
}

/// A ThingTalk constant or parameter value.
///
/// `VarRef` is how parameter passing is expressed: the value of an input
/// parameter refers to an output parameter of an earlier function in the same
/// program (Fig. 1: `picture_url = picture_url`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free-form text.
    String(String),
    /// A number.
    Number(f64),
    /// A boolean.
    Boolean(bool),
    /// A measure: an amount and a unit. Compound measures ("6 feet 3 inches")
    /// are represented as [`Value::CompoundMeasure`].
    Measure(f64, Unit),
    /// A sum of measures over the same dimension, composed additively.
    CompoundMeasure(Vec<(f64, Unit)>),
    /// A date.
    Date(DateValue),
    /// A time of day (hour, minute).
    Time(u8, u8),
    /// A location.
    Location(LocationValue),
    /// A member of an enumerated type.
    Enum(String),
    /// A monetary amount and ISO currency code.
    Currency(f64, String),
    /// A named entity: the opaque value, its entity type, and an optional
    /// human-readable display name.
    Entity {
        /// The opaque identifier.
        value: String,
        /// The entity type, e.g. `tt:username`.
        kind: String,
        /// The display name shown to the user, if known.
        display: Option<String>,
    },
    /// An array of values.
    Array(Vec<Value>),
    /// A reference to an output parameter of an earlier function in the same
    /// program (keyword parameter passing).
    VarRef(String),
    /// The event/result placeholder (`$event`): the textual rendering of the
    /// triggering result, used e.g. to tweet whatever was monitored.
    Event,
    /// A missing value to be filled by slot filling (`$?`).
    Undefined,
}

impl Value {
    /// Convenience constructor for a string value.
    pub fn string(s: impl Into<String>) -> Self {
        Value::String(s.into())
    }

    /// Convenience constructor for an entity value without a display name.
    pub fn entity(value: impl Into<String>, kind: impl Into<String>) -> Self {
        Value::Entity {
            value: value.into(),
            kind: kind.into(),
            display: None,
        }
    }

    /// Whether this value is a constant (not a variable reference, event
    /// placeholder, or undefined slot).
    pub fn is_constant(&self) -> bool {
        !matches!(self, Value::VarRef(_) | Value::Undefined | Value::Event)
    }

    /// The total amount of a measure in its base unit, if this is a (possibly
    /// compound) measure.
    pub fn measure_in_base(&self) -> Option<f64> {
        match self {
            Value::Measure(amount, unit) => Some(unit.to_base(*amount)),
            Value::CompoundMeasure(parts) => Some(parts.iter().map(|(a, u)| u.to_base(*a)).sum()),
            _ => None,
        }
    }

    /// A numeric interpretation of the value used for comparison filters and
    /// aggregation, if one exists.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            Value::Measure(..) | Value::CompoundMeasure(_) => self.measure_in_base(),
            Value::Currency(amount, _) => Some(*amount),
            Value::Date(d) => Some(d.resolve(0) as f64),
            Value::Time(h, m) => Some((*h as f64) * 60.0 + (*m as f64)),
            Value::Boolean(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// A string interpretation used for `substr` / `contains` style filters
    /// and for `$event` rendering.
    pub fn as_text(&self) -> Option<String> {
        match self {
            Value::String(s) => Some(s.clone()),
            Value::Enum(s) => Some(s.clone()),
            Value::Entity { value, display, .. } => {
                Some(display.clone().unwrap_or_else(|| value.clone()))
            }
            Value::Location(LocationValue::Named(name)) => Some(name.clone()),
            _ => None,
        }
    }

    /// Compare two values for filter evaluation. Returns `None` when the
    /// values are not comparable (different dimensions, non-numeric, …).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::String(a), Value::String(b)) => Some(a.cmp(b)),
            (Value::Enum(a), Value::Enum(b)) => Some(a.cmp(b)),
            (Value::Entity { value: a, .. }, Value::Entity { value: b, .. }) => Some(a.cmp(b)),
            _ => {
                let a = self.as_number()?;
                let b = other.as_number()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Equality for filter evaluation; entities compare equal to strings with
    /// the same text (quote-free free-form parameters).
    pub fn loosely_equals(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Entity { .. } | Value::String(_), Value::Entity { .. } | Value::String(_)) => {
                let a = self.as_text().unwrap_or_default().to_lowercase();
                let b = other.as_text().unwrap_or_default().to_lowercase();
                a == b
            }
            _ => self
                .compare(other)
                .map(|o| o == Ordering::Equal)
                .unwrap_or(self == other),
        }
    }

    /// A stable key used to canonicalize the order of operands (§2.4).
    pub fn sort_key(&self) -> String {
        self.to_string()
    }
}

// `Hash` is implemented manually because values contain `f64`s. Floats are
// hashed by bit pattern after normalizing `-0.0` to `0.0`, so every pair
// that compares equal under the derived (IEEE) `PartialEq` also hashes
// equal, as the `Hash`/`Eq` contract requires. (The reverse corner — `NaN
// != NaN` yet equal bits — only makes unequal values share a hash, which is
// always permitted.)
fn hash_f64<H: Hasher>(n: f64, state: &mut H) {
    let normalized = if n == 0.0 { 0.0 } else { n };
    normalized.to_bits().hash(state);
}
impl Hash for DateValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            DateValue::Absolute(ms) => ms.hash(state),
            DateValue::Edge(edge) => edge.hash(state),
            DateValue::Offset { base, offset_ms } => {
                base.hash(state);
                offset_ms.hash(state);
            }
        }
    }
}

impl Hash for LocationValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            LocationValue::Named(name) => name.hash(state),
            LocationValue::Coordinates {
                latitude,
                longitude,
            } => {
                hash_f64(*latitude, state);
                hash_f64(*longitude, state);
            }
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::String(s) => s.hash(state),
            Value::Number(n) => hash_f64(*n, state),
            Value::Boolean(b) => b.hash(state),
            Value::Measure(amount, unit) => {
                hash_f64(*amount, state);
                unit.hash(state);
            }
            Value::CompoundMeasure(parts) => {
                for (amount, unit) in parts {
                    hash_f64(*amount, state);
                    unit.hash(state);
                }
            }
            Value::Date(date) => date.hash(state),
            Value::Time(h, m) => (h, m).hash(state),
            Value::Location(location) => location.hash(state),
            Value::Enum(variant) => variant.hash(state),
            Value::Currency(amount, code) => {
                hash_f64(*amount, state);
                code.hash(state);
            }
            Value::Entity {
                value,
                kind,
                display,
            } => {
                value.hash(state);
                kind.hash(state);
                display.hash(state);
            }
            Value::Array(items) => items.hash(state),
            Value::VarRef(name) => name.hash(state),
            Value::Event | Value::Undefined => {}
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::String(s) => write!(f, "\"{s}\""),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Measure(amount, unit) => {
                if amount.fract() == 0.0 {
                    write!(f, "{}{unit}", *amount as i64)
                } else {
                    write!(f, "{amount}{unit}")
                }
            }
            Value::CompoundMeasure(parts) => {
                let rendered: Vec<String> = parts
                    .iter()
                    .map(|(a, u)| {
                        if a.fract() == 0.0 {
                            format!("{}{u}", *a as i64)
                        } else {
                            format!("{a}{u}")
                        }
                    })
                    .collect();
                write!(f, "{}", rendered.join(" + "))
            }
            Value::Date(DateValue::Absolute(ms)) => write!(f, "date({ms})"),
            Value::Date(DateValue::Edge(edge)) => write!(f, "{}", edge.keyword()),
            Value::Date(DateValue::Offset { base, offset_ms }) => {
                if *offset_ms >= 0 {
                    write!(f, "{} + {}ms", base.keyword(), offset_ms)
                } else {
                    write!(f, "{} - {}ms", base.keyword(), -offset_ms)
                }
            }
            Value::Time(h, m) => write!(f, "time({h:02}:{m:02})"),
            Value::Location(LocationValue::Named(name)) => write!(f, "location(\"{name}\")"),
            Value::Location(LocationValue::Coordinates {
                latitude,
                longitude,
            }) => write!(f, "location({latitude},{longitude})"),
            Value::Enum(v) => write!(f, "enum:{v}"),
            Value::Currency(amount, code) => write!(f, "{amount}{code}"),
            Value::Entity {
                value,
                kind,
                display,
            } => match display {
                Some(d) => write!(f, "\"{value}\"^^{kind}(\"{d}\")"),
                None => write!(f, "\"{value}\"^^{kind}"),
            },
            Value::Array(items) => {
                let rendered: Vec<String> = items.iter().map(|v| v.to_string()).collect();
                write!(f, "[{}]", rendered.join(", "))
            }
            Value::VarRef(name) => write!(f, "{name}"),
            Value::Event => write!(f, "$event"),
            Value::Undefined => write!(f, "$?"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compound_measure_sums_in_base_unit() {
        let v = Value::CompoundMeasure(vec![(6.0, Unit::Foot), (3.0, Unit::Inch)]);
        let meters = v.measure_in_base().unwrap();
        assert!((meters - 1.905).abs() < 1e-9);
    }

    #[test]
    fn measures_compare_across_units() {
        let a = Value::Measure(1.0, Unit::Kilometer);
        let b = Value::Measure(900.0, Unit::Meter);
        assert_eq!(a.compare(&b), Some(Ordering::Greater));
    }

    #[test]
    fn entity_and_string_loose_equality() {
        let entity = Value::Entity {
            value: "taylor swift".into(),
            kind: "com.spotify:artist".into(),
            display: Some("Taylor Swift".into()),
        };
        let s = Value::string("Taylor Swift");
        assert!(entity.loosely_equals(&s));
        assert!(!entity.loosely_equals(&Value::string("Evanescence")));
    }

    #[test]
    fn date_edges_resolve_monotonically() {
        let now = 40 * 86_400_000 + 12_345;
        assert!(DateEdge::StartOfWeek.resolve(now) <= now);
        assert!(DateEdge::EndOfWeek.resolve(now) >= now);
        assert!(DateEdge::StartOfDay.resolve(now) <= now);
        assert_eq!(DateEdge::Now.resolve(now), now);
    }

    #[test]
    fn display_forms_are_stable() {
        assert_eq!(Value::string("funny cat").to_string(), "\"funny cat\"");
        assert_eq!(Value::Number(60.0).to_string(), "60");
        assert_eq!(Value::Measure(60.0, Unit::Fahrenheit).to_string(), "60F");
        assert_eq!(
            Value::Enum("decreasing".into()).to_string(),
            "enum:decreasing"
        );
        assert_eq!(
            Value::Date(DateValue::Edge(DateEdge::StartOfWeek)).to_string(),
            "start_of_week"
        );
        assert_eq!(Value::VarRef("tweet_id".into()).to_string(), "tweet_id");
    }

    #[test]
    fn constants_vs_references() {
        assert!(Value::Number(5.0).is_constant());
        assert!(!Value::VarRef("title".into()).is_constant());
        assert!(!Value::Undefined.is_constant());
    }

    #[test]
    fn as_text_prefers_display_name() {
        let v = Value::Entity {
            value: "u123".into(),
            kind: "tt:username".into(),
            display: Some("alice".into()),
        };
        assert_eq!(v.as_text().unwrap(), "alice");
    }

    #[test]
    fn equal_floats_hash_equal() {
        use std::hash::{DefaultHasher, Hash, Hasher};
        let fingerprint = |v: &Value| {
            let mut h = DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        let pos = Value::Number(0.0);
        let neg = Value::Number(-0.0);
        assert_eq!(pos, neg);
        assert_eq!(fingerprint(&pos), fingerprint(&neg));
        let m_pos = Value::Measure(0.0, Unit::Meter);
        let m_neg = Value::Measure(-0.0, Unit::Meter);
        assert_eq!(m_pos, m_neg);
        assert_eq!(fingerprint(&m_pos), fingerprint(&m_neg));
    }

    #[test]
    fn date_edge_keyword_roundtrip() {
        for edge in [
            DateEdge::StartOfDay,
            DateEdge::EndOfWeek,
            DateEdge::StartOfYear,
            DateEdge::Now,
        ] {
            assert_eq!(DateEdge::from_keyword(edge.keyword()), Some(edge));
        }
        assert_eq!(DateEdge::from_keyword("start_of_century"), None);
    }
}
