//! Attribute schema — the "Type" column of Table III.

use serde::{Deserialize, Serialize};

/// Kind of an attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Real-valued.
    Numeric,
    /// Categorical with a fixed label set; values are stored as the
    /// label index.
    Nominal(Vec<String>),
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (e.g. `"Airport From"`).
    pub name: String,
    /// Kind.
    pub kind: AttributeKind,
}

impl Attribute {
    /// A numeric attribute.
    pub fn numeric(name: &str) -> Attribute {
        Attribute {
            name: name.to_string(),
            kind: AttributeKind::Numeric,
        }
    }

    /// A nominal attribute with the given labels.
    pub fn nominal(name: &str, labels: &[&str]) -> Attribute {
        Attribute {
            name: name.to_string(),
            kind: AttributeKind::Nominal(labels.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// A binary attribute (`{0, 1}` nominal — Table III's "Binary").
    pub fn binary(name: &str) -> Attribute {
        Attribute::nominal(name, &["0", "1"])
    }

    /// Whether numeric.
    pub fn is_numeric(&self) -> bool {
        matches!(self.kind, AttributeKind::Numeric)
    }

    /// Number of nominal labels (0 for numeric).
    pub fn cardinality(&self) -> usize {
        match &self.kind {
            AttributeKind::Numeric => 0,
            AttributeKind::Nominal(l) => l.len(),
        }
    }

    /// Type name as Table III prints it.
    pub fn type_name(&self) -> &'static str {
        match &self.kind {
            AttributeKind::Numeric => "Numeric",
            AttributeKind::Nominal(l) if l.len() == 2 && l[0] == "0" && l[1] == "1" => "Binary",
            AttributeKind::Nominal(_) => "Nominal",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_cardinality() {
        let n = Attribute::numeric("Flight");
        assert!(n.is_numeric());
        assert_eq!(n.cardinality(), 0);
        let a = Attribute::nominal("Airline", &["AA", "UA"]);
        assert_eq!(a.cardinality(), 2);
    }

    #[test]
    fn type_names_match_table3() {
        assert_eq!(Attribute::numeric("Time").type_name(), "Numeric");
        assert_eq!(
            Attribute::nominal("Airline", &["a", "b", "c"]).type_name(),
            "Nominal"
        );
        assert_eq!(Attribute::binary("Delay").type_name(), "Binary");
    }
}
