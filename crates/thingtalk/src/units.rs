//! Measurement units supported by the ThingTalk type system.
//!
//! The paper requires a rich language for constants: "measures can be
//! represented with any legal unit, and can be composed additively (as in
//! '6 feet 3 inches')". Each unit belongs to a *base unit* family and carries
//! a conversion factor (and offset, for temperatures) to that base unit, so
//! the runtime can compare measures written in different units.

use std::fmt;
use std::str::FromStr;

use crate::error::Error;

/// The dimension a unit measures. Two [`Unit`]s are comparable iff they share
/// a base unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseUnit {
    /// Bytes (digital information).
    Byte,
    /// Milliseconds (durations).
    Millisecond,
    /// Meters (length).
    Meter,
    /// Degrees Celsius (temperature).
    Celsius,
    /// Grams (mass).
    Gram,
    /// Meters per second (speed).
    MeterPerSecond,
    /// Calories (energy).
    Calorie,
    /// Beats per minute (tempo / heart rate).
    BeatPerMinute,
    /// Pascal (pressure).
    Pascal,
    /// Milliliter (volume).
    Milliliter,
}

/// A concrete measurement unit, e.g. `KB`, `ft`, `F`.
///
/// # Examples
///
/// ```
/// use thingtalk::units::Unit;
/// let ft: Unit = "ft".parse()?;
/// let m: Unit = "m".parse()?;
/// assert_eq!(ft.base(), m.base());
/// assert!((ft.to_base(6.0) - 1.8288).abs() < 1e-9);
/// # Ok::<(), thingtalk::Error>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum Unit {
    // information
    Byte,
    Kilobyte,
    Megabyte,
    Gigabyte,
    Terabyte,
    // time
    Millisecond,
    Second,
    Minute,
    Hour,
    Day,
    Week,
    Month,
    Year,
    // length
    Millimeter,
    Centimeter,
    Meter,
    Kilometer,
    Inch,
    Foot,
    Yard,
    Mile,
    // temperature
    Celsius,
    Fahrenheit,
    Kelvin,
    // mass
    Milligram,
    Gram,
    Kilogram,
    Ounce,
    Pound,
    // speed
    MeterPerSecond,
    KilometerPerHour,
    MilePerHour,
    // energy
    Calorie,
    Kilocalorie,
    // tempo
    BeatPerMinute,
    // pressure
    Pascal,
    Hectopascal,
    Millibar,
    PoundPerSquareInch,
    // volume
    Milliliter,
    Liter,
    FluidOunce,
    Gallon,
    Cup,
}

impl Unit {
    /// All units, in a fixed order (useful for enumeration in templates and
    /// property tests).
    pub const ALL: &'static [Unit] = &[
        Unit::Byte,
        Unit::Kilobyte,
        Unit::Megabyte,
        Unit::Gigabyte,
        Unit::Terabyte,
        Unit::Millisecond,
        Unit::Second,
        Unit::Minute,
        Unit::Hour,
        Unit::Day,
        Unit::Week,
        Unit::Month,
        Unit::Year,
        Unit::Millimeter,
        Unit::Centimeter,
        Unit::Meter,
        Unit::Kilometer,
        Unit::Inch,
        Unit::Foot,
        Unit::Yard,
        Unit::Mile,
        Unit::Celsius,
        Unit::Fahrenheit,
        Unit::Kelvin,
        Unit::Milligram,
        Unit::Gram,
        Unit::Kilogram,
        Unit::Ounce,
        Unit::Pound,
        Unit::MeterPerSecond,
        Unit::KilometerPerHour,
        Unit::MilePerHour,
        Unit::Calorie,
        Unit::Kilocalorie,
        Unit::BeatPerMinute,
        Unit::Pascal,
        Unit::Hectopascal,
        Unit::Millibar,
        Unit::PoundPerSquareInch,
        Unit::Milliliter,
        Unit::Liter,
        Unit::FluidOunce,
        Unit::Gallon,
        Unit::Cup,
    ];

    /// The canonical surface-syntax spelling of the unit (as written after a
    /// number, e.g. `5KB`, `60F`, `3in`).
    pub fn symbol(self) -> &'static str {
        match self {
            Unit::Byte => "byte",
            Unit::Kilobyte => "KB",
            Unit::Megabyte => "MB",
            Unit::Gigabyte => "GB",
            Unit::Terabyte => "TB",
            Unit::Millisecond => "ms",
            Unit::Second => "s",
            Unit::Minute => "min",
            Unit::Hour => "h",
            Unit::Day => "day",
            Unit::Week => "week",
            Unit::Month => "mon",
            Unit::Year => "year",
            Unit::Millimeter => "mm",
            Unit::Centimeter => "cm",
            Unit::Meter => "m",
            Unit::Kilometer => "km",
            Unit::Inch => "in",
            Unit::Foot => "ft",
            Unit::Yard => "yd",
            Unit::Mile => "mi",
            Unit::Celsius => "C",
            Unit::Fahrenheit => "F",
            Unit::Kelvin => "K",
            Unit::Milligram => "mg",
            Unit::Gram => "g",
            Unit::Kilogram => "kg",
            Unit::Ounce => "oz",
            Unit::Pound => "lb",
            Unit::MeterPerSecond => "mps",
            Unit::KilometerPerHour => "kmph",
            Unit::MilePerHour => "mph",
            Unit::Calorie => "cal",
            Unit::Kilocalorie => "kcal",
            Unit::BeatPerMinute => "bpm",
            Unit::Pascal => "Pa",
            Unit::Hectopascal => "hPa",
            Unit::Millibar => "mbar",
            Unit::PoundPerSquareInch => "psi",
            Unit::Milliliter => "ml",
            Unit::Liter => "l",
            Unit::FluidOunce => "floz",
            Unit::Gallon => "gal",
            Unit::Cup => "cup",
        }
    }

    /// A natural-language phrase for the unit, used by the describer and the
    /// template engine ("60 degrees fahrenheit", "5 kilobytes").
    pub fn phrase(self) -> &'static str {
        match self {
            Unit::Byte => "bytes",
            Unit::Kilobyte => "kilobytes",
            Unit::Megabyte => "megabytes",
            Unit::Gigabyte => "gigabytes",
            Unit::Terabyte => "terabytes",
            Unit::Millisecond => "milliseconds",
            Unit::Second => "seconds",
            Unit::Minute => "minutes",
            Unit::Hour => "hours",
            Unit::Day => "days",
            Unit::Week => "weeks",
            Unit::Month => "months",
            Unit::Year => "years",
            Unit::Millimeter => "millimeters",
            Unit::Centimeter => "centimeters",
            Unit::Meter => "meters",
            Unit::Kilometer => "kilometers",
            Unit::Inch => "inches",
            Unit::Foot => "feet",
            Unit::Yard => "yards",
            Unit::Mile => "miles",
            Unit::Celsius => "degrees celsius",
            Unit::Fahrenheit => "degrees fahrenheit",
            Unit::Kelvin => "kelvin",
            Unit::Milligram => "milligrams",
            Unit::Gram => "grams",
            Unit::Kilogram => "kilograms",
            Unit::Ounce => "ounces",
            Unit::Pound => "pounds",
            Unit::MeterPerSecond => "meters per second",
            Unit::KilometerPerHour => "kilometers per hour",
            Unit::MilePerHour => "miles per hour",
            Unit::Calorie => "calories",
            Unit::Kilocalorie => "kilocalories",
            Unit::BeatPerMinute => "beats per minute",
            Unit::Pascal => "pascals",
            Unit::Hectopascal => "hectopascals",
            Unit::Millibar => "millibars",
            Unit::PoundPerSquareInch => "pounds per square inch",
            Unit::Milliliter => "milliliters",
            Unit::Liter => "liters",
            Unit::FluidOunce => "fluid ounces",
            Unit::Gallon => "gallons",
            Unit::Cup => "cups",
        }
    }

    /// The base unit of this unit's dimension.
    pub fn base(self) -> BaseUnit {
        match self {
            Unit::Byte | Unit::Kilobyte | Unit::Megabyte | Unit::Gigabyte | Unit::Terabyte => {
                BaseUnit::Byte
            }
            Unit::Millisecond
            | Unit::Second
            | Unit::Minute
            | Unit::Hour
            | Unit::Day
            | Unit::Week
            | Unit::Month
            | Unit::Year => BaseUnit::Millisecond,
            Unit::Millimeter
            | Unit::Centimeter
            | Unit::Meter
            | Unit::Kilometer
            | Unit::Inch
            | Unit::Foot
            | Unit::Yard
            | Unit::Mile => BaseUnit::Meter,
            Unit::Celsius | Unit::Fahrenheit | Unit::Kelvin => BaseUnit::Celsius,
            Unit::Milligram | Unit::Gram | Unit::Kilogram | Unit::Ounce | Unit::Pound => {
                BaseUnit::Gram
            }
            Unit::MeterPerSecond | Unit::KilometerPerHour | Unit::MilePerHour => {
                BaseUnit::MeterPerSecond
            }
            Unit::Calorie | Unit::Kilocalorie => BaseUnit::Calorie,
            Unit::BeatPerMinute => BaseUnit::BeatPerMinute,
            Unit::Pascal | Unit::Hectopascal | Unit::Millibar | Unit::PoundPerSquareInch => {
                BaseUnit::Pascal
            }
            Unit::Milliliter | Unit::Liter | Unit::FluidOunce | Unit::Gallon | Unit::Cup => {
                BaseUnit::Milliliter
            }
        }
    }

    /// Convert `value` expressed in this unit to the base unit of its
    /// dimension.
    pub fn to_base(self, value: f64) -> f64 {
        match self {
            Unit::Celsius => value,
            Unit::Fahrenheit => (value - 32.0) * 5.0 / 9.0,
            Unit::Kelvin => value - 273.15,
            _ => value * self.factor(),
        }
    }

    /// Convert `value` expressed in the base unit back to this unit.
    pub fn from_base(self, value: f64) -> f64 {
        match self {
            Unit::Celsius => value,
            Unit::Fahrenheit => value * 9.0 / 5.0 + 32.0,
            Unit::Kelvin => value + 273.15,
            _ => value / self.factor(),
        }
    }

    fn factor(self) -> f64 {
        match self {
            Unit::Byte => 1.0,
            Unit::Kilobyte => 1e3,
            Unit::Megabyte => 1e6,
            Unit::Gigabyte => 1e9,
            Unit::Terabyte => 1e12,
            Unit::Millisecond => 1.0,
            Unit::Second => 1e3,
            Unit::Minute => 60e3,
            Unit::Hour => 3_600e3,
            Unit::Day => 86_400e3,
            Unit::Week => 604_800e3,
            Unit::Month => 2_592_000e3,
            Unit::Year => 31_536_000e3,
            Unit::Millimeter => 1e-3,
            Unit::Centimeter => 1e-2,
            Unit::Meter => 1.0,
            Unit::Kilometer => 1e3,
            Unit::Inch => 0.0254,
            Unit::Foot => 0.3048,
            Unit::Yard => 0.9144,
            Unit::Mile => 1609.344,
            Unit::Celsius | Unit::Fahrenheit | Unit::Kelvin => 1.0,
            Unit::Milligram => 1e-3,
            Unit::Gram => 1.0,
            Unit::Kilogram => 1e3,
            Unit::Ounce => 28.349_523_125,
            Unit::Pound => 453.592_37,
            Unit::MeterPerSecond => 1.0,
            Unit::KilometerPerHour => 1.0 / 3.6,
            Unit::MilePerHour => 0.447_04,
            Unit::Calorie => 1.0,
            Unit::Kilocalorie => 1e3,
            Unit::BeatPerMinute => 1.0,
            Unit::Pascal => 1.0,
            Unit::Hectopascal => 100.0,
            Unit::Millibar => 100.0,
            Unit::PoundPerSquareInch => 6894.757,
            Unit::Milliliter => 1.0,
            Unit::Liter => 1e3,
            Unit::FluidOunce => 29.5735,
            Unit::Gallon => 3785.41,
            Unit::Cup => 236.588,
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

impl FromStr for Unit {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        for unit in Unit::ALL {
            if unit.symbol() == s {
                return Ok(*unit);
            }
        }
        // Accept a few common aliases used in natural language and in the
        // original Thingpedia manifests.
        let alias = match s {
            "bytes" | "B" => Some(Unit::Byte),
            "kB" | "kb" => Some(Unit::Kilobyte),
            "sec" => Some(Unit::Second),
            "minute" | "minutes" => Some(Unit::Minute),
            "hour" | "hours" | "hr" => Some(Unit::Hour),
            "days" => Some(Unit::Day),
            "weeks" => Some(Unit::Week),
            "month" | "months" => Some(Unit::Month),
            "years" => Some(Unit::Year),
            "meters" => Some(Unit::Meter),
            "feet" => Some(Unit::Foot),
            "inches" => Some(Unit::Inch),
            "miles" => Some(Unit::Mile),
            "celsius" => Some(Unit::Celsius),
            "fahrenheit" => Some(Unit::Fahrenheit),
            "defaultTemperature" => Some(Unit::Celsius),
            _ => None,
        };
        alias.ok_or_else(|| Error::Unit {
            message: format!("unknown unit `{s}`"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip_all_units() {
        for unit in Unit::ALL {
            let parsed: Unit = unit.symbol().parse().expect("symbol should parse");
            assert_eq!(parsed, *unit);
        }
    }

    #[test]
    fn unknown_unit_is_an_error() {
        assert!("parsec".parse::<Unit>().is_err());
    }

    #[test]
    fn feet_and_inches_convert_to_meters() {
        let six_feet_three = Unit::Foot.to_base(6.0) + Unit::Inch.to_base(3.0);
        assert!((six_feet_three - 1.9050).abs() < 1e-9);
    }

    #[test]
    fn temperature_conversion_has_offset() {
        assert!((Unit::Fahrenheit.to_base(60.0) - 15.555_555).abs() < 1e-3);
        assert!((Unit::Fahrenheit.from_base(Unit::Fahrenheit.to_base(60.0)) - 60.0).abs() < 1e-9);
        assert!((Unit::Kelvin.to_base(273.15)).abs() < 1e-9);
    }

    #[test]
    fn base_roundtrip_is_identity() {
        for unit in Unit::ALL {
            let v = 42.5;
            let rt = unit.from_base(unit.to_base(v));
            assert!((rt - v).abs() < 1e-6, "roundtrip failed for {unit}");
        }
    }

    #[test]
    fn comparable_units_share_base() {
        assert_eq!(Unit::Kilobyte.base(), Unit::Gigabyte.base());
        assert_ne!(Unit::Kilobyte.base(), Unit::Meter.base());
    }
}
