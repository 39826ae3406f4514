//! The ThingTalk type system (Fig. 3 of the paper).
//!
//! The type system is intentionally fine grained: besides the standard
//! strings, numbers, booleans and enumerations, it natively supports the
//! object types that recur in IoT devices and web services (measures with
//! units, dates, times, locations, URLs, path names, currencies, pictures,
//! phone numbers, email addresses) as well as developer-defined *entity*
//! types, which are opaque identifiers that can be recalled by name in
//! natural language. Arrays are the only compound type.

use std::fmt;

use crate::units::BaseUnit;

/// A ThingTalk type.
///
/// # Examples
///
/// ```
/// use thingtalk::types::Type;
/// use thingtalk::units::BaseUnit;
///
/// let t = Type::Measure(BaseUnit::Byte);
/// assert!(t.is_numeric());
/// assert!(t.is_comparable());
/// assert_eq!(t.to_string(), "Measure(byte)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// Free-form text. Values of this type can be copied word-by-word from
    /// the input sentence by the pointer-generator decoder.
    String,
    /// A double-precision number.
    Number,
    /// A boolean.
    Boolean,
    /// An enumerated type with a fixed set of lowercase identifiers.
    Enum(Vec<String>),
    /// A physical measure over the given base dimension (e.g. bytes, meters).
    Measure(BaseUnit),
    /// A point in time (date, possibly with a time component).
    Date,
    /// A time of day.
    Time,
    /// A geographic location.
    Location,
    /// A monetary amount with a currency code.
    Currency,
    /// A file-system path name.
    PathName,
    /// A URL.
    Url,
    /// A picture URL (kept distinct from [`Type::Url`] so parameter passing
    /// prefers picture-producing functions, as in Fig. 1 of the paper).
    Picture,
    /// An email address.
    EmailAddress,
    /// A phone number.
    PhoneNumber,
    /// A named entity of the given entity type, e.g. `tt:username`,
    /// `com.spotify:song`. Entities are opaque identifiers with an optional
    /// human-readable display name.
    Entity(String),
    /// An ordered collection of elements of a single type.
    Array(Box<Type>),
    /// The type of `$undefined` placeholders before slot filling; also used
    /// by the typechecker as a bottom type that unifies with anything.
    Any,
}

impl Type {
    /// Whether values of this type are ordered numbers (so `<`, `>` filters
    /// and the TT+A `sum`/`avg`/`max`/`min` aggregations apply).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            Type::Number | Type::Measure(_) | Type::Currency | Type::Date | Type::Time
        )
    }

    /// Whether values of this type can appear in equality / comparison
    /// filters.
    pub fn is_comparable(&self) -> bool {
        !matches!(self, Type::Array(_) | Type::Any)
    }

    /// Whether this is a string-like type supporting `substr`, `starts_with`,
    /// `ends_with` filters.
    pub fn is_string_like(&self) -> bool {
        matches!(
            self,
            Type::String
                | Type::PathName
                | Type::Url
                | Type::Picture
                | Type::EmailAddress
                | Type::PhoneNumber
                | Type::Entity(_)
        )
    }

    /// Whether this type is an entity type.
    pub fn is_entity(&self) -> bool {
        matches!(self, Type::Entity(_))
    }

    /// Whether a value of type `other` can be assigned to a slot of this
    /// type. This is the *assignability* relation used by the typechecker:
    /// it is reflexive, allows `Any` on either side, allows entities to be
    /// filled from free-form strings (quote-free commands), and allows
    /// element-wise assignability for arrays.
    pub fn assignable_from(&self, other: &Type) -> bool {
        match (self, other) {
            (Type::Any, _) | (_, Type::Any) => true,
            (Type::Array(a), Type::Array(b)) => a.assignable_from(b),
            // Quote-free free-form parameters: any string-like slot can be
            // filled from raw text copied out of the sentence, and vice
            // versa (the runtime resolves entities after parsing).
            (t, Type::String) | (Type::String, t) if t.is_string_like() => true,
            (Type::Url, Type::Picture) | (Type::Picture, Type::Url) => true,
            (Type::Enum(a), Type::Enum(b)) => b.iter().all(|v| a.contains(v)),
            (a, b) => a == b,
        }
    }

    /// The element type if this is an array, otherwise the type itself.
    pub fn element_type(&self) -> &Type {
        match self {
            Type::Array(inner) => inner,
            other => other,
        }
    }

    /// A short token used by the NN syntax when type annotations are enabled
    /// (§2.3: "We annotate each parameter with its type").
    pub fn annotation_token(&self) -> String {
        match self {
            Type::String => "String".to_owned(),
            Type::Number => "Number".to_owned(),
            Type::Boolean => "Boolean".to_owned(),
            Type::Enum(_) => "Enum".to_owned(),
            Type::Measure(base) => format!("Measure({})", base_unit_name(*base)),
            Type::Date => "Date".to_owned(),
            Type::Time => "Time".to_owned(),
            Type::Location => "Location".to_owned(),
            Type::Currency => "Currency".to_owned(),
            Type::PathName => "PathName".to_owned(),
            Type::Url => "URL".to_owned(),
            Type::Picture => "Picture".to_owned(),
            Type::EmailAddress => "EmailAddress".to_owned(),
            Type::PhoneNumber => "PhoneNumber".to_owned(),
            Type::Entity(kind) => format!("Entity({kind})"),
            Type::Array(inner) => format!("Array({})", inner.annotation_token()),
            Type::Any => "Any".to_owned(),
        }
    }
}

fn base_unit_name(base: BaseUnit) -> &'static str {
    match base {
        BaseUnit::Byte => "byte",
        BaseUnit::Millisecond => "ms",
        BaseUnit::Meter => "m",
        BaseUnit::Celsius => "C",
        BaseUnit::Gram => "g",
        BaseUnit::MeterPerSecond => "mps",
        BaseUnit::Calorie => "cal",
        BaseUnit::BeatPerMinute => "bpm",
        BaseUnit::Pascal => "Pa",
        BaseUnit::Milliliter => "ml",
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Enum(values) => write!(f, "Enum({})", values.join(",")),
            other => f.write_str(&other.annotation_token()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_types() {
        assert!(Type::Number.is_numeric());
        assert!(Type::Measure(BaseUnit::Meter).is_numeric());
        assert!(Type::Currency.is_numeric());
        assert!(!Type::String.is_numeric());
        assert!(!Type::Boolean.is_numeric());
    }

    #[test]
    fn assignability_is_reflexive() {
        let types = [
            Type::String,
            Type::Number,
            Type::Boolean,
            Type::Date,
            Type::Measure(BaseUnit::Byte),
            Type::Entity("tt:username".into()),
            Type::Array(Box::new(Type::Number)),
        ];
        for t in &types {
            assert!(t.assignable_from(t), "{t} should be assignable from itself");
        }
    }

    #[test]
    fn entities_accept_free_form_strings() {
        let song = Type::Entity("com.spotify:song".into());
        assert!(song.assignable_from(&Type::String));
        assert!(Type::String.assignable_from(&song));
    }

    #[test]
    fn enums_are_assignable_when_subset() {
        let big = Type::Enum(vec!["asc".into(), "desc".into()]);
        let small = Type::Enum(vec!["asc".into()]);
        assert!(big.assignable_from(&small));
        assert!(!small.assignable_from(&big));
    }

    #[test]
    fn incompatible_measures_do_not_unify() {
        let bytes = Type::Measure(BaseUnit::Byte);
        let meters = Type::Measure(BaseUnit::Meter);
        assert!(!bytes.assignable_from(&meters));
    }

    #[test]
    fn array_element_type() {
        let t = Type::Array(Box::new(Type::PathName));
        assert_eq!(t.element_type(), &Type::PathName);
        assert_eq!(Type::Number.element_type(), &Type::Number);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Type::Measure(BaseUnit::Byte).to_string(), "Measure(byte)");
        assert_eq!(
            Type::Entity("tt:hashtag".into()).to_string(),
            "Entity(tt:hashtag)"
        );
        assert_eq!(
            Type::Enum(vec!["increasing".into(), "decreasing".into()]).to_string(),
            "Enum(increasing,decreasing)"
        );
    }
}
