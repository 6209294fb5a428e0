//! Runtime values of the VM.

/// A heap reference (index into the interpreter's heap).
pub type Ref = u32;

/// A stack/locals/heap slot value.
///
/// Like the JVM, the VM is typed at the *instruction* level (the compiler
/// picks `IAdd` vs `DAdd`); `Value` carries the dynamic representation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit int (also used for `byte`/`short` after widening).
    Int(i32),
    /// 64-bit long.
    Long(i64),
    /// 32-bit float.
    Float(f32),
    /// 64-bit double.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// UTF-16 code unit (`char`).
    Char(u16),
    /// Reference into the heap.
    Obj(Ref),
    /// `null`.
    Null,
}

impl Value {
    /// As `i32`, widening char/bool as the JVM does.
    pub fn as_int(&self) -> Option<i32> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Char(c) => Some(*c as i32),
            Value::Bool(b) => Some(*b as i32),
            _ => None,
        }
    }

    /// As `i64` (accepts int-like values).
    pub fn as_long(&self) -> Option<i64> {
        match self {
            Value::Long(v) => Some(*v),
            _ => self.as_int().map(i64::from),
        }
    }

    /// As `f64` (accepts every numeric).
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(v) => Some(*v),
            Value::Float(v) => Some(*v as f64),
            Value::Long(v) => Some(*v as f64),
            _ => self.as_int().map(f64::from),
        }
    }

    /// As `f32`.
    pub fn as_float(&self) -> Option<f32> {
        match self {
            Value::Float(v) => Some(*v),
            _ => self.as_double().map(|d| d as f32),
        }
    }

    /// As boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            Value::Int(v) => Some(*v != 0),
            _ => None,
        }
    }

    /// Java-style `toString` rendering of a primitive, appended to `out`,
    /// for println and concatenation. Returns `false` (writing nothing)
    /// for heap references, which the interpreter renders since it can
    /// see the heap.
    pub fn render_primitive_to(&self, out: &mut String) -> bool {
        use std::fmt::Write as _;
        match self {
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Long(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => format_float_to(*v as f64, out),
            Value::Double(v) => format_float_to(*v, out),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Char(c) => out.push(char::from_u32(*c as u32).unwrap_or('?')),
            Value::Null => out.push_str("null"),
            Value::Obj(_) => return false,
        }
        true
    }
}

/// Render a double roughly the way Java does (`5.0`, not `5`), appended
/// to `out`.
pub fn format_float_to(v: f64, out: &mut String) {
    use std::fmt::Write as _;
    if v.is_nan() {
        out.push_str("NaN");
    } else if v.is_infinite() {
        if v > 0.0 {
            out.push_str("Infinity");
        } else {
            out.push_str("-Infinity");
        }
    } else if v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_widenings() {
        assert_eq!(Value::Char(65).as_int(), Some(65));
        assert_eq!(Value::Bool(true).as_int(), Some(1));
        assert_eq!(Value::Int(7).as_long(), Some(7));
        assert_eq!(Value::Int(7).as_double(), Some(7.0));
        assert_eq!(Value::Float(2.5).as_double(), Some(2.5));
        assert_eq!(Value::Long(1 << 40).as_double(), Some((1u64 << 40) as f64));
    }

    #[test]
    fn non_numeric_conversions_fail() {
        assert_eq!(Value::Null.as_int(), None);
        assert_eq!(Value::Obj(3).as_double(), None);
        assert_eq!(Value::Double(1.0).as_bool(), None);
    }

    fn render(v: Value) -> Option<String> {
        let mut out = String::new();
        v.render_primitive_to(&mut out).then_some(out)
    }

    fn format_float(v: f64) -> String {
        let mut out = String::new();
        format_float_to(v, &mut out);
        out
    }

    #[test]
    fn render_matches_java_conventions() {
        assert_eq!(render(Value::Double(5.0)).unwrap(), "5.0");
        assert_eq!(render(Value::Double(2.5)).unwrap(), "2.5");
        assert_eq!(render(Value::Int(-3)).unwrap(), "-3");
        assert_eq!(render(Value::Bool(false)).unwrap(), "false");
        assert_eq!(render(Value::Char(65)).unwrap(), "A");
        assert_eq!(render(Value::Null).unwrap(), "null");
        assert!(render(Value::Obj(0)).is_none());
    }

    #[test]
    fn format_float_edge_cases() {
        assert_eq!(format_float(f64::NAN), "NaN");
        assert_eq!(format_float(f64::INFINITY), "Infinity");
        assert_eq!(format_float(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(format_float(0.0), "0.0");
    }
}
