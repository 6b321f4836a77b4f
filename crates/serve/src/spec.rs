//! The minimal declarative spec format shared by job payloads and
//! sweep specs.
//!
//! A deliberate TOML subset — flat `key = value` lines, `#` comments,
//! blank lines, optional double quotes around a value — parsed with
//! zero dependencies into an *ordered* list of entries. Sweep axes put
//! several comma-separated values on one line:
//!
//! ```text
//! # three axes, 2 x 2 x 3 = 12 points
//! words  = 256, 1024
//! spares = 2, 8
//! process = CDA.5u3m1p, mos.6u3m1pHP, CDA.7u3m1p
//! ```
//!
//! Order matters twice: the entry order fixes the axis nesting of a
//! sweep expansion (first key varies slowest), and re-encoding a parsed
//! spec reproduces a canonical form used as the single-flight dedup
//! key. Every syntax problem is a typed [`SpecError`] carrying the
//! 1-based line number.

/// A parsed spec: ordered `(key, values)` entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    entries: Vec<(String, Vec<String>)>,
}

/// A syntax or structural error in a spec, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// A non-comment line has no `=` separator.
    MissingEquals {
        /// 1-based line number.
        line: usize,
    },
    /// The text left of `=` is empty or not a bare key.
    BadKey {
        /// 1-based line number.
        line: usize,
        /// The offending key text.
        key: String,
    },
    /// The value list is empty (`key =` or `key = a,,b`).
    EmptyValue {
        /// 1-based line number.
        line: usize,
        /// The key whose value is empty.
        key: String,
    },
    /// The same key appears twice.
    DuplicateKey {
        /// 1-based line number of the second occurrence.
        line: usize,
        /// The duplicated key.
        key: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::MissingEquals { line } => {
                write!(f, "line {line}: expected `key = value`")
            }
            SpecError::BadKey { line, key } => {
                write!(
                    f,
                    "line {line}: bad key {key:?} (lowercase letters, digits, `-` and `_` only)"
                )
            }
            SpecError::EmptyValue { line, key } => {
                write!(f, "line {line}: key {key:?} has an empty value")
            }
            SpecError::DuplicateKey { line, key } => {
                write!(f, "line {line}: key {key:?} given twice")
            }
        }
    }
}

impl std::error::Error for SpecError {}

fn valid_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-' || c == '_')
}

/// Strips one level of surrounding double quotes, if present.
fn unquote(v: &str) -> &str {
    v.strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .unwrap_or(v)
}

impl Spec {
    /// Parses a spec text.
    ///
    /// # Errors
    ///
    /// The first [`SpecError`] encountered, top to bottom.
    pub fn parse(text: &str) -> Result<Spec, SpecError> {
        let mut entries: Vec<(String, Vec<String>)> = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(SpecError::MissingEquals { line });
            };
            let key = key.trim();
            if !valid_key(key) {
                return Err(SpecError::BadKey {
                    line,
                    key: key.to_owned(),
                });
            }
            if entries.iter().any(|(k, _)| k == key) {
                return Err(SpecError::DuplicateKey {
                    line,
                    key: key.to_owned(),
                });
            }
            let values: Vec<String> = value
                .split(',')
                .map(|v| unquote(v.trim()).to_owned())
                .collect();
            if values.iter().any(String::is_empty) {
                return Err(SpecError::EmptyValue {
                    line,
                    key: key.to_owned(),
                });
            }
            entries.push((key.to_owned(), values));
        }
        Ok(Spec { entries })
    }

    /// The ordered entries.
    pub fn entries(&self) -> &[(String, Vec<String>)] {
        &self.entries
    }

    /// All values of `key`, if present.
    pub fn values(&self, key: &str) -> Option<&[String]> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_slice())
    }

    /// The value of `key`, required to be single-valued.
    ///
    /// # Errors
    ///
    /// A message naming the key when it is absent or an axis.
    pub fn scalar(&self, key: &str) -> Result<&str, String> {
        match self.values(key) {
            Some([one]) => Ok(one),
            Some(many) => Err(format!(
                "key {key:?} must have one value, got {}",
                many.len()
            )),
            None => Err(format!("missing required key {key:?}")),
        }
    }

    /// Like [`Spec::scalar`] but optional.
    ///
    /// # Errors
    ///
    /// A message naming the key when it is present with several values.
    pub fn scalar_opt(&self, key: &str) -> Result<Option<&str>, String> {
        match self.values(key) {
            None => Ok(None),
            Some([one]) => Ok(Some(one)),
            Some(many) => Err(format!(
                "key {key:?} must have one value, got {}",
                many.len()
            )),
        }
    }

    /// The first key not in `allowed`, for strict consumers that
    /// reject unknown keys instead of silently ignoring a typo.
    pub fn unknown_key(&self, allowed: &[&str]) -> Option<&str> {
        self.entries
            .iter()
            .map(|(k, _)| k.as_str())
            .find(|k| !allowed.contains(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_blanks_quotes_and_axes() {
        let spec =
            Spec::parse("# a sweep\n\nwords = 256, 1024  # two sizes\nprocess = \"CDA.7u3m1p\"\n")
                .unwrap();
        assert_eq!(spec.values("words").unwrap(), ["256", "1024"]);
        assert_eq!(spec.scalar("process").unwrap(), "CDA.7u3m1p");
        assert_eq!(spec.entries().len(), 2);
    }

    #[test]
    fn entry_order_is_preserved() {
        let spec = Spec::parse("b = 1\na = 2\n").unwrap();
        let keys: Vec<&str> = spec.entries().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a"]);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        assert_eq!(
            Spec::parse("a = 1\nnonsense\n").unwrap_err(),
            SpecError::MissingEquals { line: 2 }
        );
        assert_eq!(
            Spec::parse("BAD = 1\n").unwrap_err(),
            SpecError::BadKey {
                line: 1,
                key: "BAD".into()
            }
        );
        assert_eq!(
            Spec::parse("a = 1,,2\n").unwrap_err(),
            SpecError::EmptyValue {
                line: 1,
                key: "a".into()
            }
        );
        assert_eq!(
            Spec::parse("a = 1\na = 2\n").unwrap_err(),
            SpecError::DuplicateKey {
                line: 2,
                key: "a".into()
            }
        );
        assert_eq!(
            Spec::parse("a =\n").unwrap_err(),
            SpecError::EmptyValue {
                line: 1,
                key: "a".into()
            }
        );
    }

    #[test]
    fn scalar_rejects_axes_and_absence() {
        let spec = Spec::parse("axis = 1, 2\n").unwrap();
        assert!(spec.scalar("axis").is_err());
        assert!(spec.scalar("gone").is_err());
        assert_eq!(spec.scalar_opt("gone").unwrap(), None);
        assert!(spec.scalar_opt("axis").is_err());
    }

    #[test]
    fn unknown_keys_are_reported() {
        let spec = Spec::parse("words = 1\ntypo = 2\n").unwrap();
        assert_eq!(spec.unknown_key(&["words"]), Some("typo"));
        assert_eq!(spec.unknown_key(&["words", "typo"]), None);
    }
}
