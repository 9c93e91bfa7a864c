//! Categorical microdata sets.
//!
//! A [`Dataset`] is an `n × m` table of category codes together with its
//! [`Schema`].  Storage is column-major (`columns[j][i]` is the code of
//! record `i` for attribute `j`) because every protocol in the paper either
//! works attribute-by-attribute (RR-Independent, dependence estimation) or
//! cluster-by-cluster (RR-Clusters), so column access dominates.
//!
//! The type also provides the frequency-counting primitives the estimators
//! need: marginal counts/distributions per attribute, joint counts over an
//! arbitrary subset of attributes (via the mixed-radix [`JointDomain`]),
//! and count queries over value combinations — the workload of the paper's
//! Section 6.5.

use crate::domain::JointDomain;
use crate::error::DataError;
use crate::schema::Schema;
use crate::view::RecordsView;
use serde::{Deserialize, Serialize};

/// An `n`-record categorical microdata set over a fixed schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    schema: Schema,
    /// Column-major storage: `columns[j][i]` is record `i`'s code for
    /// attribute `j`.  All columns have the same length.
    columns: Vec<Vec<u32>>,
}

impl Dataset {
    /// Creates an empty dataset over `schema`.
    pub fn empty(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.len()];
        Dataset { schema, columns }
    }

    /// Builds a dataset from row-major records, validating every record
    /// against the schema.
    ///
    /// # Errors
    /// Returns the first validation error encountered.
    pub fn from_records(schema: Schema, records: &[Vec<u32>]) -> Result<Self, DataError> {
        let mut ds = Dataset::empty(schema);
        for r in records {
            ds.push_record(r)?;
        }
        Ok(ds)
    }

    /// Builds a dataset directly from column-major data.
    ///
    /// # Errors
    /// Returns [`DataError::SchemaMismatch`] if the number of columns does
    /// not match the schema or columns have differing lengths, and
    /// [`DataError::InvalidCategory`] if a code is out of range.
    pub fn from_columns(schema: Schema, columns: Vec<Vec<u32>>) -> Result<Self, DataError> {
        if columns.len() != schema.len() {
            return Err(DataError::SchemaMismatch {
                message: format!(
                    "{} columns provided but the schema has {} attributes",
                    columns.len(),
                    schema.len()
                ),
            });
        }
        let n = columns.first().map(Vec::len).unwrap_or(0);
        for (j, col) in columns.iter().enumerate() {
            if col.len() != n {
                return Err(DataError::SchemaMismatch {
                    message: format!("column {j} has {} values but column 0 has {n}", col.len()),
                });
            }
            let attribute = schema.attribute(j)?;
            if let Some(&bad) = col.iter().find(|&&v| !attribute.contains_code(v)) {
                return Err(DataError::InvalidCategory {
                    attribute: attribute.name().to_string(),
                    message: format!(
                        "code {bad} out of range (cardinality {})",
                        attribute.cardinality()
                    ),
                });
            }
        }
        Ok(Dataset { schema, columns })
    }

    /// Appends a record (row of codes).
    ///
    /// # Errors
    /// Returns a validation error if the record does not fit the schema.
    pub fn push_record(&mut self, record: &[u32]) -> Result<(), DataError> {
        self.schema.validate_record(record)?;
        for (col, &v) in self.columns.iter_mut().zip(record.iter()) {
            col.push(v);
        }
        Ok(())
    }

    /// The schema of the dataset.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of records (`n` in the paper).
    pub fn n_records(&self) -> usize {
        self.columns.first().map(Vec::len).unwrap_or(0)
    }

    /// Number of attributes (`m` in the paper).
    pub fn n_attributes(&self) -> usize {
        self.schema.len()
    }

    /// Whether the dataset holds no records.
    pub fn is_empty(&self) -> bool {
        self.n_records() == 0
    }

    /// The column of codes for attribute `index`.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn column(&self, index: usize) -> Result<&[u32], DataError> {
        self.columns
            .get(index)
            .map(Vec::as_slice)
            .ok_or(DataError::AttributeIndexOutOfRange {
                index,
                len: self.columns.len(),
            })
    }

    /// The record at position `i` as a row of codes.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `i >= n_records()`.
    pub fn record(&self, i: usize) -> Result<Vec<u32>, DataError> {
        if i >= self.n_records() {
            return Err(DataError::invalid(
                "record",
                format!(
                    "record index {i} out of range ({} records)",
                    self.n_records()
                ),
            ));
        }
        Ok(self.columns.iter().map(|c| c[i]).collect())
    }

    /// The whole dataset as a borrowed columnar [`RecordsView`] — the
    /// zero-copy input of the batched protocol encoders.
    #[expect(
        clippy::expect_used,
        reason = "dataset columns are equal-length by construction"
    )]
    pub fn view(&self) -> RecordsView<'_> {
        let columns: Vec<&[u32]> = self.columns.iter().map(Vec::as_slice).collect();
        RecordsView::new(columns).expect("dataset columns are equal-length by construction")
    }

    /// Iterator over columnar chunk views of at most `chunk_size` records,
    /// never materializing row-major records (each chunk is a set of
    /// column sub-slices; no copying at all).  The last chunk may be
    /// shorter; an empty dataset yields no chunks.
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `chunk_size == 0`.
    #[expect(
        clippy::expect_used,
        reason = "chunk ranges are in bounds by construction"
    )]
    pub fn column_chunks(
        &self,
        chunk_size: usize,
    ) -> Result<impl Iterator<Item = RecordsView<'_>> + '_, DataError> {
        if chunk_size == 0 {
            return Err(DataError::invalid("chunk_size", "must be positive"));
        }
        let n = self.n_records();
        let view = self.view();
        Ok((0..n).step_by(chunk_size).map(move |start| {
            let end = (start + chunk_size).min(n);
            view.slice(start..end)
                .expect("chunk ranges are in bounds by construction")
        }))
    }

    /// Absolute counts of each category of attribute `index`.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn marginal_counts(&self, index: usize) -> Result<Vec<u64>, DataError> {
        let attribute = self.schema.attribute(index)?;
        let mut counts = vec![0u64; attribute.cardinality()];
        for &v in self.column(index)? {
            counts[v as usize] += 1;
        }
        Ok(counts)
    }

    /// Relative frequencies of each category of attribute `index`
    /// (the empirical `λ̂_j` / `π_j` vector).  Uniform over the categories
    /// when the dataset is empty.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn marginal_distribution(&self, index: usize) -> Result<Vec<f64>, DataError> {
        let counts = self.marginal_counts(index)?;
        let n = self.n_records();
        if n == 0 {
            let r = counts.len();
            return Ok(vec![1.0 / r as f64; r]);
        }
        Ok(counts.into_iter().map(|c| c as f64 / n as f64).collect())
    }

    /// Joint domain codec over the attributes at `indices` (in that order).
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index or
    /// an overflow error for absurdly large domains.
    pub fn joint_domain(&self, indices: &[usize]) -> Result<JointDomain, DataError> {
        let mut cards = Vec::with_capacity(indices.len());
        for &i in indices {
            cards.push(self.schema.attribute(i)?.cardinality());
        }
        JointDomain::new(&cards)
    }

    /// Column of joint codes over the attributes at `indices`: record `i`
    /// maps to `domain.encode([record[i][j] for j in indices])`.
    ///
    /// This is the "view a cluster of attributes as one attribute"
    /// operation that RR-Joint and RR-Clusters rely on.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn joint_codes(&self, indices: &[usize]) -> Result<(JointDomain, Vec<u32>), DataError> {
        let domain = self.joint_domain(indices)?;
        let cols: Vec<&[u32]> = indices
            .iter()
            .map(|&i| self.column(i))
            .collect::<Result<_, _>>()?;
        let n = self.n_records();
        let mut codes = Vec::with_capacity(n);
        let mut tuple = vec![0u32; indices.len()];
        for i in 0..n {
            for (t, col) in tuple.iter_mut().zip(cols.iter()) {
                *t = col[i];
            }
            let code = domain.encode(&tuple)?;
            codes.push(code as u32);
        }
        Ok((domain, codes))
    }

    /// Absolute counts over the joint domain of the attributes at `indices`.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn joint_counts(&self, indices: &[usize]) -> Result<(JointDomain, Vec<u64>), DataError> {
        let (domain, codes) = self.joint_codes(indices)?;
        let mut counts = vec![0u64; domain.size()];
        for c in codes {
            counts[c as usize] += 1;
        }
        Ok((domain, counts))
    }

    /// Relative frequencies over the joint domain of the attributes at
    /// `indices`.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn joint_distribution(
        &self,
        indices: &[usize],
    ) -> Result<(JointDomain, Vec<f64>), DataError> {
        let (domain, counts) = self.joint_counts(indices)?;
        let n = self.n_records();
        let dist = if n == 0 {
            vec![1.0 / domain.size() as f64; domain.size()]
        } else {
            counts.into_iter().map(|c| c as f64 / n as f64).collect()
        };
        Ok((domain, dist))
    }

    /// Number of records matching every `(attribute index, code)` constraint
    /// in `assignment`.  This is the ground-truth side of the count queries
    /// used in the evaluation (Section 6.5, `X_S`).
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] or
    /// [`DataError::InvalidCategory`] for bad constraints.
    pub fn count_matching(&self, assignment: &[(usize, u32)]) -> Result<u64, DataError> {
        let mut cols = Vec::with_capacity(assignment.len());
        for &(idx, code) in assignment {
            let attribute = self.schema.attribute(idx)?;
            if !attribute.contains_code(code) {
                return Err(DataError::InvalidCategory {
                    attribute: attribute.name().to_string(),
                    message: format!(
                        "code {code} out of range (cardinality {})",
                        attribute.cardinality()
                    ),
                });
            }
            cols.push((self.column(idx)?, code));
        }
        let n = self.n_records();
        let mut count = 0u64;
        for i in 0..n {
            if cols.iter().all(|(col, code)| col[i] == *code) {
                count += 1;
            }
        }
        Ok(count)
    }

    /// Concatenates two datasets over the same schema (used to build the
    /// paper's Adult6 = Adult repeated 6 times).
    ///
    /// # Errors
    /// Returns [`DataError::SchemaMismatch`] if the schemas differ.
    pub fn concat(&self, other: &Dataset) -> Result<Dataset, DataError> {
        if self.schema != other.schema {
            return Err(DataError::SchemaMismatch {
                message: "cannot concatenate datasets with different schemas".to_string(),
            });
        }
        let mut columns = self.columns.clone();
        for (col, other_col) in columns.iter_mut().zip(other.columns.iter()) {
            col.extend_from_slice(other_col);
        }
        Ok(Dataset {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// The dataset repeated `times` times (Adult6 is `adult.repeat(6)`).
    ///
    /// # Errors
    /// Returns [`DataError::InvalidParameter`] if `times == 0`.
    pub fn repeat(&self, times: usize) -> Result<Dataset, DataError> {
        if times == 0 {
            return Err(DataError::invalid(
                "times",
                "repetition count must be positive",
            ));
        }
        let columns = self
            .columns
            .iter()
            .map(|col| {
                let mut out = Vec::with_capacity(col.len() * times);
                for _ in 0..times {
                    out.extend_from_slice(col);
                }
                out
            })
            .collect();
        Ok(Dataset {
            schema: self.schema.clone(),
            columns,
        })
    }

    /// Projects the dataset onto the attributes at `indices` (in that
    /// order), keeping all records.
    ///
    /// # Errors
    /// Returns [`DataError::AttributeIndexOutOfRange`] for a bad index.
    pub fn project(&self, indices: &[usize]) -> Result<Dataset, DataError> {
        let schema = self.schema.project(indices)?;
        let mut columns = Vec::with_capacity(indices.len());
        for &i in indices {
            columns.push(self.column(i)?.to_vec());
        }
        Ok(Dataset { schema, columns })
    }

    /// Keeps only the first `n` records (or all of them if `n` exceeds the
    /// record count).  Useful for scaled-down experiment runs.
    pub fn truncate(&self, n: usize) -> Dataset {
        let columns = self
            .columns
            .iter()
            .map(|col| col.iter().take(n).copied().collect())
            .collect();
        Dataset {
            schema: self.schema.clone(),
            columns,
        }
    }

    /// Replaces the column of attribute `index` with `values` (same length
    /// as the dataset).  This is how protocols materialise randomized
    /// datasets column by column.
    ///
    /// # Errors
    /// * [`DataError::AttributeIndexOutOfRange`] for a bad index;
    /// * [`DataError::SchemaMismatch`] for a length mismatch;
    /// * [`DataError::InvalidCategory`] for an out-of-range code.
    pub fn replace_column(&mut self, index: usize, values: Vec<u32>) -> Result<(), DataError> {
        let attribute = self.schema.attribute(index)?.clone();
        if values.len() != self.n_records() {
            return Err(DataError::SchemaMismatch {
                message: format!(
                    "replacement column has {} values but the dataset has {} records",
                    values.len(),
                    self.n_records()
                ),
            });
        }
        if let Some(&bad) = values.iter().find(|&&v| !attribute.contains_code(v)) {
            return Err(DataError::InvalidCategory {
                attribute: attribute.name().to_string(),
                message: format!(
                    "code {bad} out of range (cardinality {})",
                    attribute.cardinality()
                ),
            });
        }
        self.columns[index] = values;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, AttributeKind};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("A", AttributeKind::Nominal, vec!["a0".into(), "a1".into()]).unwrap(),
            Attribute::new(
                "B",
                AttributeKind::Ordinal,
                vec!["b0".into(), "b1".into(), "b2".into()],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    fn sample() -> Dataset {
        Dataset::from_records(
            schema(),
            &[vec![0, 0], vec![0, 1], vec![1, 2], vec![1, 2], vec![0, 2]],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_basic_accessors() {
        let ds = sample();
        assert_eq!(ds.n_records(), 5);
        assert_eq!(ds.n_attributes(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.record(2).unwrap(), vec![1, 2]);
        assert!(ds.record(5).is_err());
        assert_eq!(ds.column(0).unwrap(), &[0, 0, 1, 1, 0]);
        assert!(ds.column(2).is_err());
        assert_eq!(ds.record(4).unwrap(), vec![0, 2]);
    }

    #[test]
    fn push_record_validates() {
        let mut ds = Dataset::empty(schema());
        assert!(ds.push_record(&[0, 1]).is_ok());
        assert!(ds.push_record(&[0]).is_err());
        assert!(ds.push_record(&[2, 0]).is_err());
        assert_eq!(ds.n_records(), 1);
    }

    #[test]
    fn from_columns_validates() {
        let ok = Dataset::from_columns(schema(), vec![vec![0, 1], vec![2, 0]]).unwrap();
        assert_eq!(ok.n_records(), 2);
        assert!(Dataset::from_columns(schema(), vec![vec![0, 1]]).is_err());
        assert!(Dataset::from_columns(schema(), vec![vec![0, 1], vec![2]]).is_err());
        assert!(Dataset::from_columns(schema(), vec![vec![0, 9], vec![2, 0]]).is_err());
    }

    #[test]
    fn marginal_counts_and_distribution() {
        let ds = sample();
        assert_eq!(ds.marginal_counts(0).unwrap(), vec![3, 2]);
        assert_eq!(ds.marginal_counts(1).unwrap(), vec![1, 1, 3]);
        let dist = ds.marginal_distribution(1).unwrap();
        assert!((dist[2] - 0.6).abs() < 1e-12);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset_distribution_is_uniform() {
        let ds = Dataset::empty(schema());
        let dist = ds.marginal_distribution(1).unwrap();
        assert_eq!(dist, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn joint_counts_and_codes() {
        let ds = sample();
        let (domain, counts) = ds.joint_counts(&[0, 1]).unwrap();
        assert_eq!(domain.size(), 6);
        // Records: (0,0) (0,1) (1,2) (1,2) (0,2)
        assert_eq!(counts[domain.encode(&[0, 0]).unwrap()], 1);
        assert_eq!(counts[domain.encode(&[0, 1]).unwrap()], 1);
        assert_eq!(counts[domain.encode(&[1, 2]).unwrap()], 2);
        assert_eq!(counts[domain.encode(&[0, 2]).unwrap()], 1);
        assert_eq!(counts.iter().sum::<u64>(), 5);

        let (_, dist) = ds.joint_distribution(&[0, 1]).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_codes_respect_attribute_order() {
        let ds = sample();
        let (d_ab, codes_ab) = ds.joint_codes(&[0, 1]).unwrap();
        let (d_ba, codes_ba) = ds.joint_codes(&[1, 0]).unwrap();
        assert_eq!(d_ab.size(), d_ba.size());
        // Record 0 is (A=0, B=0): code 0 under both orders.
        assert_eq!(codes_ab[0], 0);
        assert_eq!(codes_ba[0], 0);
        // Record 2 is (A=1, B=2): code 1*3+2=5 under [A,B], 2*2+1=5 under [B,A].
        assert_eq!(codes_ab[2], 5);
        assert_eq!(codes_ba[2], 5);
    }

    #[test]
    fn count_matching_queries() {
        let ds = sample();
        assert_eq!(ds.count_matching(&[(0, 1)]).unwrap(), 2);
        assert_eq!(ds.count_matching(&[(1, 2)]).unwrap(), 3);
        assert_eq!(ds.count_matching(&[(0, 1), (1, 2)]).unwrap(), 2);
        assert_eq!(ds.count_matching(&[(0, 0), (1, 2)]).unwrap(), 1);
        assert_eq!(ds.count_matching(&[]).unwrap(), 5);
        assert!(ds.count_matching(&[(9, 0)]).is_err());
        assert!(ds.count_matching(&[(0, 9)]).is_err());
    }

    #[test]
    fn concat_and_repeat() {
        let ds = sample();
        let doubled = ds.concat(&ds).unwrap();
        assert_eq!(doubled.n_records(), 10);
        assert_eq!(doubled.marginal_counts(0).unwrap(), vec![6, 4]);

        let six = ds.repeat(6).unwrap();
        assert_eq!(six.n_records(), 30);
        assert_eq!(six.marginal_counts(1).unwrap(), vec![6, 6, 18]);
        assert!(ds.repeat(0).is_err());

        let other_schema = Schema::new(vec![Attribute::indexed("X", 2).unwrap()]).unwrap();
        let other = Dataset::empty(other_schema);
        assert!(ds.concat(&other).is_err());
    }

    #[test]
    fn repeat_preserves_distribution() {
        let ds = sample();
        let six = ds.repeat(6).unwrap();
        assert_eq!(
            ds.marginal_distribution(0).unwrap(),
            six.marginal_distribution(0).unwrap()
        );
        assert_eq!(
            ds.joint_distribution(&[0, 1]).unwrap().1,
            six.joint_distribution(&[0, 1]).unwrap().1
        );
    }

    #[test]
    fn projection_and_truncation() {
        let ds = sample();
        let p = ds.project(&[1]).unwrap();
        assert_eq!(p.n_attributes(), 1);
        assert_eq!(p.column(0).unwrap(), ds.column(1).unwrap());
        assert!(ds.project(&[4]).is_err());

        let t = ds.truncate(2);
        assert_eq!(t.n_records(), 2);
        let t_all = ds.truncate(100);
        assert_eq!(t_all.n_records(), 5);
    }

    #[test]
    fn replace_column_validates() {
        let mut ds = sample();
        ds.replace_column(0, vec![1, 1, 1, 1, 1]).unwrap();
        assert_eq!(ds.marginal_counts(0).unwrap(), vec![0, 5]);
        assert!(ds.replace_column(0, vec![0, 0]).is_err());
        assert!(ds.replace_column(0, vec![7, 0, 0, 0, 0]).is_err());
        assert!(ds.replace_column(9, vec![0, 0, 0, 0, 0]).is_err());
    }
}
