//! Stream tuples (Definition 1 of the paper).

use sns_error::SnsError;
use sns_tensor::Coord;

/// One timestamped element of a multi-aspect data stream:
/// `(e = (i₁,…,i_{M−1}, v), t)`.
///
/// `coords` holds the `M−1` categorical indices (the time mode is *not*
/// part of the tuple — it is derived from `time` by the window model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamTuple {
    /// Categorical indices `i₁,…,i_{M−1}`.
    pub coords: Coord,
    /// Numerical value `v` (e.g. a trip count or purchase quantity).
    pub value: f64,
    /// Timestamp `t` in stream ticks (e.g. seconds).
    pub time: u64,
}

impl StreamTuple {
    /// Creates a tuple.
    pub fn new(coords: impl Into<Coord>, value: f64, time: u64) -> Self {
        StreamTuple { coords: coords.into(), value, time }
    }

    /// Rejects NaN and ±∞ values with [`SnsError::NonFiniteValue`]. Both
    /// window models call this before any mutation.
    pub fn check_finite(&self) -> Result<(), SnsError> {
        if self.value.is_finite() {
            Ok(())
        } else {
            Err(SnsError::NonFiniteValue { time: self.time, bits: self.value.to_bits() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let t = StreamTuple::new([1u32, 2], 3.0, 99);
        assert_eq!(t.coords.as_slice(), &[1, 2]);
        assert_eq!(t.value, 3.0);
        assert_eq!(t.time, 99);
    }

    #[test]
    fn non_finite_values_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let e = StreamTuple::new([0u32], bad, 7).check_finite().unwrap_err();
            assert_eq!(e, SnsError::NonFiniteValue { time: 7, bits: bad.to_bits() });
        }
        for ok in [0.0, -1.0, 1e300, f64::MIN_POSITIVE / 2.0] {
            assert!(StreamTuple::new([0u32], ok, 7).check_finite().is_ok());
        }
    }

    #[test]
    fn tuple_is_copy_and_small() {
        // Processed millions of times; keep it register-friendly.
        assert!(std::mem::size_of::<StreamTuple>() <= 48);
        let t = StreamTuple::new([0u32], 1.0, 0);
        let u = t; // Copy
        assert_eq!(t, u);
    }
}
