//! Attribute and schema definitions for categorical microdata.
//!
//! Randomized response operates on categorical attributes (the paper assumes
//! numerical attributes have been discretized, Section 4).  An
//! [`Attribute`] carries its name, its ordered list of category labels and a
//! [`AttributeKind`] flag; the kind decides which dependence measure the
//! clustering algorithm uses for a pair of attributes (|Pearson correlation|
//! for two ordinal attributes, Cramér's V otherwise — Expressions (8)/(9)).

use crate::error::DataError;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Whether an attribute's categories have a meaningful order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Categories have a natural order (e.g. education level, income band).
    Ordinal,
    /// Categories have no order (e.g. occupation, race).
    Nominal,
}

/// A single categorical attribute: a name, a kind and its category labels.
///
/// The category *code* of a value is its index in the label list; datasets
/// store codes, not labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    name: String,
    kind: AttributeKind,
    categories: Vec<String>,
}

impl Attribute {
    /// Creates an attribute from a name, kind and category labels.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidCategory`] if there are no categories or
    /// if two categories share a label.
    pub fn new(
        name: impl Into<String>,
        kind: AttributeKind,
        categories: Vec<String>,
    ) -> Result<Self, DataError> {
        let name = name.into();
        if categories.is_empty() {
            return Err(DataError::InvalidCategory {
                attribute: name,
                message: "attribute must have at least one category".to_string(),
            });
        }
        let mut seen = BTreeMap::new();
        for (i, c) in categories.iter().enumerate() {
            if let Some(prev) = seen.insert(c.as_str(), i) {
                return Err(DataError::InvalidCategory {
                    attribute: name,
                    message: format!("duplicate category label `{c}` at positions {prev} and {i}"),
                });
            }
        }
        Ok(Attribute {
            name,
            kind,
            categories,
        })
    }

    /// Creates a nominal attribute whose categories are `"0", "1", …,
    /// "cardinality-1"`.  Convenient for synthetic experiments where labels
    /// do not matter.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `cardinality == 0`.
    pub fn indexed(name: impl Into<String>, cardinality: usize) -> Result<Self, DataError> {
        if cardinality == 0 {
            return Err(DataError::invalid(
                "cardinality",
                "attribute cardinality must be positive",
            ));
        }
        let categories = (0..cardinality).map(|i| i.to_string()).collect();
        Attribute::new(name, AttributeKind::Nominal, categories)
    }

    /// Attribute name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether the attribute is ordinal or nominal.
    pub fn kind(&self) -> AttributeKind {
        self.kind
    }

    /// Number of categories (`r_j` in the paper).
    pub fn cardinality(&self) -> usize {
        self.categories.len()
    }

    /// Category labels, in code order.
    pub fn categories(&self) -> &[String] {
        &self.categories
    }

    /// Label of a category code.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidCategory`] if the code is out of range.
    pub fn label(&self, code: u32) -> Result<&str, DataError> {
        self.categories
            .get(code as usize)
            .map(String::as_str)
            .ok_or_else(|| DataError::InvalidCategory {
                attribute: self.name.clone(),
                message: format!(
                    "code {code} out of range (cardinality {})",
                    self.cardinality()
                ),
            })
    }

    /// Code of a category label.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidCategory`] if the label is unknown.
    pub fn code(&self, label: &str) -> Result<u32, DataError> {
        self.categories
            .iter()
            .position(|c| c == label)
            .map(|i| i as u32)
            .ok_or_else(|| DataError::InvalidCategory {
                attribute: self.name.clone(),
                message: format!("unknown category label `{label}`"),
            })
    }

    /// Whether `code` is a valid category code for this attribute.
    pub fn contains_code(&self, code: u32) -> bool {
        (code as usize) < self.categories.len()
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({:?}, {} categories)",
            self.name,
            self.kind,
            self.cardinality()
        )
    }
}

/// An ordered collection of attributes describing a categorical microdata
/// set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from a list of attributes.
    ///
    /// # Errors
    /// Returns [`DataError::SchemaMismatch`] if the schema is empty or two
    /// attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self, DataError> {
        if attributes.is_empty() {
            return Err(DataError::SchemaMismatch {
                message: "schema must contain at least one attribute".to_string(),
            });
        }
        let mut seen = BTreeMap::new();
        for (i, a) in attributes.iter().enumerate() {
            if let Some(prev) = seen.insert(a.name(), i) {
                return Err(DataError::SchemaMismatch {
                    message: format!(
                        "duplicate attribute name `{}` at positions {prev} and {i}",
                        a.name()
                    ),
                });
            }
        }
        Ok(Schema { attributes })
    }

    /// Number of attributes (`m` in the paper).
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.  Always `false` for a schema
    /// built through [`Schema::new`], but kept for API completeness.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    /// The attributes, in order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Attribute at position `index`.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] if out of range.
    pub fn attribute(&self, index: usize) -> Result<&Attribute, DataError> {
        self.attributes
            .get(index)
            .ok_or(DataError::AttributeIndexOutOfRange {
                index,
                len: self.attributes.len(),
            })
    }

    /// Position of the attribute named `name`.
    ///
    /// # Errors
    /// Returns [`DataError::UnknownAttribute`] if no attribute has that name.
    pub fn index_of(&self, name: &str) -> Result<usize, DataError> {
        self.attributes
            .iter()
            .position(|a| a.name() == name)
            .ok_or_else(|| DataError::UnknownAttribute {
                name: name.to_string(),
            })
    }

    /// Cardinalities of all attributes, in order (`|A_1|, …, |A_m|`).
    pub fn cardinalities(&self) -> Vec<usize> {
        self.attributes.iter().map(Attribute::cardinality).collect()
    }

    /// Size of the full joint domain `|A_1| × … × |A_m|`, or `None` if the
    /// product overflows `usize` (the paper's Adult joint domain of
    /// 1 814 400 combinations fits easily, but guarding the overflow keeps
    /// the API honest for wider schemas).
    pub fn joint_domain_size(&self) -> Option<usize> {
        self.attributes
            .iter()
            .try_fold(1usize, |acc, a| acc.checked_mul(a.cardinality()))
    }

    /// Validates that `record` is a legal record for this schema: correct
    /// arity and every code within its attribute's cardinality.
    ///
    /// # Errors
    /// Returns [`DataError::RecordArityMismatch`] or
    /// [`DataError::InvalidCategory`] accordingly.
    pub fn validate_record(&self, record: &[u32]) -> Result<(), DataError> {
        if record.len() != self.attributes.len() {
            return Err(DataError::RecordArityMismatch {
                got: record.len(),
                expected: self.attributes.len(),
            });
        }
        for (value, attribute) in record.iter().zip(self.attributes.iter()) {
            if !attribute.contains_code(*value) {
                return Err(DataError::InvalidCategory {
                    attribute: attribute.name().to_string(),
                    message: format!(
                        "code {value} out of range (cardinality {})",
                        attribute.cardinality()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Builds a sub-schema containing only the attributes at `indices`
    /// (in the given order).
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn project(&self, indices: &[usize]) -> Result<Schema, DataError> {
        let mut attrs = Vec::with_capacity(indices.len());
        for &i in indices {
            attrs.push(self.attribute(i)?.clone());
        }
        Schema::new(attrs)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Schema with {} attributes:", self.len())?;
        for a in &self.attributes {
            writeln!(f, "  - {a}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            Attribute::new(
                "Sex",
                AttributeKind::Nominal,
                vec!["Male".into(), "Female".into()],
            )
            .unwrap(),
            Attribute::new(
                "Education",
                AttributeKind::Ordinal,
                vec!["Primary".into(), "Secondary".into(), "Tertiary".into()],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn attribute_basics() {
        let a =
            Attribute::new("Sex", AttributeKind::Nominal, vec!["M".into(), "F".into()]).unwrap();
        assert_eq!(a.name(), "Sex");
        assert_eq!(a.cardinality(), 2);
        assert_eq!(a.kind(), AttributeKind::Nominal);
        assert_eq!(a.label(0).unwrap(), "M");
        assert_eq!(a.code("F").unwrap(), 1);
        assert!(a.contains_code(1));
        assert!(!a.contains_code(2));
        assert!(a.label(2).is_err());
        assert!(a.code("X").is_err());
    }

    #[test]
    fn attribute_rejects_empty_and_duplicates() {
        assert!(Attribute::new("A", AttributeKind::Nominal, vec![]).is_err());
        assert!(Attribute::new("A", AttributeKind::Nominal, vec!["x".into(), "x".into()]).is_err());
    }

    #[test]
    fn indexed_attribute_generates_labels() {
        let a = Attribute::indexed("A", 4).unwrap();
        assert_eq!(a.cardinality(), 4);
        assert_eq!(a.label(3).unwrap(), "3");
        assert!(Attribute::indexed("A", 0).is_err());
    }

    #[test]
    fn schema_lookup() {
        let s = sample_schema();
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert_eq!(s.index_of("Education").unwrap(), 1);
        assert!(s.index_of("Income").is_err());
        assert_eq!(s.attribute(0).unwrap().name(), "Sex");
        assert!(s.attribute(7).is_err());
        assert_eq!(s.cardinalities(), vec![2, 3]);
        assert_eq!(s.joint_domain_size(), Some(6));
    }

    #[test]
    fn schema_rejects_empty_and_duplicate_names() {
        assert!(Schema::new(vec![]).is_err());
        let a = Attribute::indexed("A", 2).unwrap();
        assert!(Schema::new(vec![a.clone(), a]).is_err());
    }

    #[test]
    fn record_validation() {
        let s = sample_schema();
        assert!(s.validate_record(&[1, 2]).is_ok());
        assert!(matches!(
            s.validate_record(&[1]),
            Err(DataError::RecordArityMismatch { .. })
        ));
        assert!(matches!(
            s.validate_record(&[2, 0]),
            Err(DataError::InvalidCategory { .. })
        ));
    }

    #[test]
    fn schema_projection() {
        let s = sample_schema();
        let p = s.project(&[1]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.attribute(0).unwrap().name(), "Education");
        assert!(s.project(&[5]).is_err());
    }

    #[test]
    fn display_is_informative() {
        let s = sample_schema();
        let text = format!("{s}");
        assert!(text.contains("Sex"));
        assert!(text.contains("Education"));
        assert!(text.contains("2 attributes"));
    }

    #[test]
    fn joint_domain_size_overflow_is_none() {
        // 64 attributes with cardinality 2^16 overflow usize on any platform
        // we care about (2^1024 combinations).
        let attrs: Vec<Attribute> = (0..64)
            .map(|i| Attribute::indexed(format!("A{i}"), 1 << 16).unwrap())
            .collect();
        let s = Schema::new(attrs).unwrap();
        assert_eq!(s.joint_domain_size(), None);
    }
}
