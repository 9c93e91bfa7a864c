//! Minimal CSV import/export for categorical microdata.
//!
//! The paper evaluates on the UCI Adult data set.  This repository ships a
//! synthetic generator with the same schema ([`crate::adult`]), but the CSV
//! loader below lets users drop in the real file (or any other categorical
//! CSV) without extra dependencies.  Only the features needed for
//! categorical microdata are implemented: comma separation, a header row
//! with attribute names, values without embedded commas or quotes, and
//! optional surrounding whitespace.

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::schema::{Attribute, AttributeKind, Schema};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Writes a dataset as CSV with a header row of attribute names and one row
/// of category *labels* per record.
///
/// # Errors
/// Propagates I/O errors and label-lookup failures (the latter cannot occur
/// for datasets built through the validated constructors).
pub fn write_csv<W: Write>(dataset: &Dataset, writer: &mut W) -> Result<(), DataError> {
    let schema = dataset.schema();
    let header: Vec<&str> = schema.attributes().iter().map(Attribute::name).collect();
    writeln!(writer, "{}", header.join(",")).map_err(DataError::from)?;
    // Read rows through the columnar view into one reused buffer instead of
    // allocating a fresh record Vec per row.
    let view = dataset.view();
    let mut row = Vec::with_capacity(view.n_attributes());
    let mut labels: Vec<&str> = Vec::with_capacity(view.n_attributes());
    for i in 0..view.n_records() {
        view.read_record(i, &mut row)?;
        labels.clear();
        for (j, &code) in row.iter().enumerate() {
            labels.push(schema.attribute(j)?.label(code)?);
        }
        writeln!(writer, "{}", labels.join(",")).map_err(DataError::from)?;
    }
    Ok(())
}

/// Reads a CSV with a header row into a dataset over a *known* schema.
/// Column order must match the schema; values are matched against category
/// labels.
///
/// # Errors
/// Returns [`DataError::Parse`] for malformed rows, header mismatches or
/// unknown category labels, plus I/O errors.
pub fn read_csv<R: Read>(schema: Schema, reader: R) -> Result<Dataset, DataError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header_line = match lines.next() {
        Some(line) => line.map_err(DataError::from)?,
        None => {
            return Err(DataError::Parse {
                line: 1,
                message: "missing header row".to_string(),
            })
        }
    };
    let header: Vec<String> = split_row(&header_line);
    let expected: Vec<&str> = schema.attributes().iter().map(Attribute::name).collect();
    if header.len() != expected.len() || header.iter().zip(&expected).any(|(h, e)| h != e) {
        return Err(DataError::Parse {
            line: 1,
            message: format!("header {header:?} does not match schema attributes {expected:?}"),
        });
    }

    let mut dataset = Dataset::empty(schema);
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line.map_err(DataError::from)?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_row(&line);
        if fields.len() != dataset.schema().len() {
            return Err(DataError::Parse {
                line: line_no,
                message: format!(
                    "expected {} fields, got {}",
                    dataset.schema().len(),
                    fields.len()
                ),
            });
        }
        let mut record = Vec::with_capacity(fields.len());
        for (j, field) in fields.iter().enumerate() {
            let attribute = dataset.schema().attribute(j)?;
            let code = attribute.code(field).map_err(|_| DataError::Parse {
                line: line_no,
                message: format!(
                    "unknown label `{field}` for attribute `{}`",
                    attribute.name()
                ),
            })?;
            record.push(code);
        }
        dataset.push_record(&record)?;
    }
    Ok(dataset)
}

/// Reads a CSV with a header row, inferring the schema from the data: every
/// column becomes a nominal attribute whose categories are the distinct
/// labels in order of first appearance.
///
/// # Errors
/// Returns [`DataError::Parse`] for malformed rows, plus I/O errors.
pub fn read_csv_infer_schema<R: Read>(reader: R) -> Result<Dataset, DataError> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines();
    let header_line = match lines.next() {
        Some(line) => line.map_err(DataError::from)?,
        None => {
            return Err(DataError::Parse {
                line: 1,
                message: "missing header row".to_string(),
            })
        }
    };
    let names = split_row(&header_line);
    if names.is_empty() {
        return Err(DataError::Parse {
            line: 1,
            message: "empty header row".to_string(),
        });
    }

    // First pass: collect rows and per-column category labels.
    let mut categories: Vec<Vec<String>> = vec![Vec::new(); names.len()];
    let mut rows: Vec<Vec<u32>> = Vec::new();
    for (i, line) in lines.enumerate() {
        let line_no = i + 2;
        let line = line.map_err(DataError::from)?;
        if line.trim().is_empty() {
            continue;
        }
        let fields = split_row(&line);
        if fields.len() != names.len() {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("expected {} fields, got {}", names.len(), fields.len()),
            });
        }
        let mut row = Vec::with_capacity(fields.len());
        for (j, field) in fields.iter().enumerate() {
            let code = match categories[j].iter().position(|c| c == field) {
                Some(pos) => pos as u32,
                None => {
                    categories[j].push(field.clone());
                    (categories[j].len() - 1) as u32
                }
            };
            row.push(code);
        }
        rows.push(row);
    }

    let attributes: Result<Vec<Attribute>, DataError> = names
        .iter()
        .zip(categories)
        .map(|(name, cats)| {
            let cats = if cats.is_empty() {
                vec!["<empty>".to_string()]
            } else {
                cats
            };
            Attribute::new(name.clone(), AttributeKind::Nominal, cats)
        })
        .collect();
    let schema = Schema::new(attributes?)?;
    Dataset::from_records(schema, &rows)
}

/// Reads a CSV file from disk against a known schema.
///
/// # Errors
/// Same conditions as [`read_csv`].
pub fn read_csv_path(schema: Schema, path: impl AsRef<Path>) -> Result<Dataset, DataError> {
    let file = std::fs::File::open(path).map_err(DataError::from)?;
    read_csv(schema, file)
}

fn split_row(line: &str) -> Vec<String> {
    line.split(',').map(|f| f.trim().to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new(
                "Sex",
                AttributeKind::Nominal,
                vec!["Male".into(), "Female".into()],
            )
            .unwrap(),
            Attribute::new(
                "Income",
                AttributeKind::Ordinal,
                vec!["<=50K".into(), ">50K".into()],
            )
            .unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn roundtrip_through_csv() {
        let ds = Dataset::from_records(schema(), &[vec![0, 0], vec![1, 1], vec![0, 1]]).unwrap();
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.starts_with("Sex,Income\n"));
        assert!(text.contains("Female,>50K"));

        let back = read_csv(schema(), buf.as_slice()).unwrap();
        assert_eq!(back, ds);
    }

    #[test]
    fn read_rejects_bad_header() {
        let data = "Sex,Age\nMale,23\n";
        assert!(matches!(
            read_csv(schema(), data.as_bytes()),
            Err(DataError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn read_rejects_bad_arity_and_labels() {
        let missing_field = "Sex,Income\nMale\n";
        assert!(matches!(
            read_csv(schema(), missing_field.as_bytes()),
            Err(DataError::Parse { line: 2, .. })
        ));
        let bad_label = "Sex,Income\nMale,Unknown\n";
        assert!(matches!(
            read_csv(schema(), bad_label.as_bytes()),
            Err(DataError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn read_skips_blank_lines_and_trims_whitespace() {
        let data = "Sex,Income\n Male , <=50K \n\nFemale,>50K\n";
        let ds = read_csv(schema(), data.as_bytes()).unwrap();
        assert_eq!(ds.n_records(), 2);
        assert_eq!(ds.record(0).unwrap(), vec![0, 0]);
        assert_eq!(ds.record(1).unwrap(), vec![1, 1]);
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(read_csv(schema(), "".as_bytes()).is_err());
        assert!(read_csv_infer_schema("".as_bytes()).is_err());
    }

    #[test]
    fn infer_schema_builds_categories_in_order_of_appearance() {
        let data = "City,Pet\nParis,Cat\nRome,Dog\nParis,Dog\n";
        let ds = read_csv_infer_schema(data.as_bytes()).unwrap();
        assert_eq!(ds.n_records(), 3);
        assert_eq!(
            ds.schema().attribute(0).unwrap().categories(),
            &["Paris", "Rome"]
        );
        assert_eq!(
            ds.schema().attribute(1).unwrap().categories(),
            &["Cat", "Dog"]
        );
        assert_eq!(ds.record(2).unwrap(), vec![0, 1]);
    }

    #[test]
    fn infer_schema_rejects_ragged_rows() {
        let data = "A,B\nx,y\nz\n";
        assert!(matches!(
            read_csv_infer_schema(data.as_bytes()),
            Err(DataError::Parse { line: 3, .. })
        ));
    }

    #[test]
    fn path_roundtrip() {
        let ds = Dataset::from_records(schema(), &[vec![0, 1], vec![1, 0]]).unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("mdrr_csv_roundtrip_test.csv");
        write_csv(&ds, &mut std::fs::File::create(&path).unwrap()).unwrap();
        let back = read_csv_path(schema(), &path).unwrap();
        assert_eq!(back, ds);
        let _ = std::fs::remove_file(&path);
    }
}
