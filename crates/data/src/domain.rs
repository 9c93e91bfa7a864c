//! Mixed-radix codec between attribute-value tuples and joint-domain codes.
//!
//! RR-Joint (Protocol 2) and RR-Clusters (Section 4) treat the Cartesian
//! product of several attributes as one big categorical attribute.  The
//! [`JointDomain`] maps a tuple of per-attribute category codes to a single
//! index in `0 .. Π|A_j|` and back, so the single-attribute randomization
//! and estimation machinery of `mdrr-core` applies unchanged to clusters of
//! any width.
//!
//! The encoding is the usual mixed-radix positional system: the first
//! attribute in the domain varies slowest.

use crate::error::DataError;
use serde::{Deserialize, Serialize};

/// A mixed-radix codec over a fixed, ordered list of attribute
/// cardinalities.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JointDomain {
    cardinalities: Vec<usize>,
    /// `strides[i]` is the weight of attribute `i` in the code.
    strides: Vec<usize>,
    size: usize,
}

impl JointDomain {
    /// Builds the codec for the given attribute cardinalities, in order.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if the list is empty, any
    /// cardinality is zero, or the product overflows `usize`.
    pub fn new(cardinalities: &[usize]) -> Result<Self, DataError> {
        if cardinalities.is_empty() {
            return Err(DataError::invalid(
                "cardinalities",
                "joint domain needs at least one attribute",
            ));
        }
        if cardinalities.contains(&0) {
            return Err(DataError::invalid(
                "cardinalities",
                "every attribute must have at least one category",
            ));
        }
        let mut size = 1usize;
        for &c in cardinalities {
            size = size.checked_mul(c).ok_or_else(|| {
                DataError::invalid("cardinalities", "joint domain size overflows usize")
            })?;
        }
        // First attribute varies slowest: stride of attribute i is the
        // product of the cardinalities of all later attributes.
        let mut strides = vec![1usize; cardinalities.len()];
        for i in (0..cardinalities.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * cardinalities[i + 1];
        }
        Ok(JointDomain {
            cardinalities: cardinalities.to_vec(),
            strides,
            size,
        })
    }

    /// Number of attributes in the domain.
    pub fn arity(&self) -> usize {
        self.cardinalities.len()
    }

    /// Cardinalities of the attributes, in order.
    pub fn cardinalities(&self) -> &[usize] {
        &self.cardinalities
    }

    /// Total number of value combinations `Π |A_j|`.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The mixed-radix weight of each attribute in the joint code, in
    /// attribute order (`encode(values) = Σ values[i] · strides()[i]`).
    /// Exposed so batched encoders can fuse the encoding into their hot
    /// loops after validating each column once.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Encodes a tuple of per-attribute category codes into a joint code.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if the tuple has the wrong
    /// arity or a code is out of range.
    pub fn encode(&self, values: &[u32]) -> Result<usize, DataError> {
        if values.len() != self.cardinalities.len() {
            return Err(DataError::invalid(
                "values",
                format!(
                    "expected {} values, got {}",
                    self.cardinalities.len(),
                    values.len()
                ),
            ));
        }
        let mut code = 0usize;
        for ((&v, &card), &stride) in values.iter().zip(&self.cardinalities).zip(&self.strides) {
            if v as usize >= card {
                return Err(DataError::invalid(
                    "values",
                    format!("code {v} out of range for cardinality {card}"),
                ));
            }
            code += v as usize * stride;
        }
        Ok(code)
    }

    /// Decodes a joint code back into per-attribute category codes.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `code >= size()`.
    pub fn decode(&self, code: usize) -> Result<Vec<u32>, DataError> {
        if code >= self.size {
            return Err(DataError::invalid(
                "code",
                format!("joint code {code} out of range (domain size {})", self.size),
            ));
        }
        let mut rest = code;
        let mut out = Vec::with_capacity(self.cardinalities.len());
        for &stride in &self.strides {
            out.push((rest / stride) as u32);
            rest %= stride;
        }
        Ok(out)
    }

    /// Iterator over all value combinations of the domain, in code order.
    ///
    /// Intended for small domains (query generation, RR-Joint on clusters);
    /// the full Adult joint domain of 1 814 400 combinations is still fine,
    /// but callers should check [`JointDomain::size`] before materialising.
    #[expect(
        clippy::expect_used,
        reason = "code ranges over 0..size and decode only errors on code >= size, so the expect is unreachable by construction"
    )]
    pub fn iter(&self) -> impl Iterator<Item = Vec<u32>> + '_ {
        (0..self.size).map(move |code| self.decode(code).expect("code < size is always decodable"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_invalid_construction() {
        assert!(JointDomain::new(&[]).is_err());
        assert!(JointDomain::new(&[3, 0, 2]).is_err());
        assert!(JointDomain::new(&[usize::MAX, 2]).is_err());
    }

    #[test]
    fn size_and_arity() {
        let d = JointDomain::new(&[9, 16, 7]).unwrap();
        assert_eq!(d.arity(), 3);
        assert_eq!(d.size(), 9 * 16 * 7);
        assert_eq!(d.cardinalities(), &[9, 16, 7]);
    }

    #[test]
    fn adult_joint_domain_size_matches_paper() {
        // The paper reports 1 814 400 combinations for the 8 categorical
        // Adult attributes.
        let d = JointDomain::new(&[9, 16, 7, 15, 6, 5, 2, 2]).unwrap();
        assert_eq!(d.size(), 1_814_400);
    }

    #[test]
    fn encode_decode_roundtrip_small_domain() {
        let d = JointDomain::new(&[3, 4, 2]).unwrap();
        for code in 0..d.size() {
            let tuple = d.decode(code).unwrap();
            assert_eq!(d.encode(&tuple).unwrap(), code);
        }
    }

    #[test]
    fn first_attribute_varies_slowest() {
        let d = JointDomain::new(&[2, 3]).unwrap();
        assert_eq!(d.encode(&[0, 0]).unwrap(), 0);
        assert_eq!(d.encode(&[0, 2]).unwrap(), 2);
        assert_eq!(d.encode(&[1, 0]).unwrap(), 3);
        assert_eq!(d.decode(5).unwrap(), vec![1, 2]);
    }

    #[test]
    fn encode_validates_inputs() {
        let d = JointDomain::new(&[2, 3]).unwrap();
        assert!(d.encode(&[0]).is_err());
        assert!(d.encode(&[2, 0]).is_err());
        assert!(d.encode(&[0, 3]).is_err());
        assert!(d.decode(6).is_err());
    }

    #[test]
    fn iterator_enumerates_all_combinations_in_order() {
        let d = JointDomain::new(&[2, 2]).unwrap();
        let all: Vec<Vec<u32>> = d.iter().collect();
        assert_eq!(all, vec![vec![0, 0], vec![0, 1], vec![1, 0], vec![1, 1]]);
    }

    #[test]
    fn single_attribute_domain_is_identity() {
        let d = JointDomain::new(&[5]).unwrap();
        for v in 0..5u32 {
            assert_eq!(d.encode(&[v]).unwrap(), v as usize);
            assert_eq!(d.decode(v as usize).unwrap(), vec![v]);
        }
    }
}
