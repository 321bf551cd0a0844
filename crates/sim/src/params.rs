#![doc = include_str!("architecture.md")]

use pnoc_noc::suggest::nearest_name;
use std::collections::BTreeMap;

/// A typed architecture-parameter value: what a validated parameter resolves
/// to, and what a [`ParamSpec`] declares as its default.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An integer parameter (radix, wavelength counts, cycle counts, ...).
    Int(i64),
    /// A floating-point parameter (scale factors, rates, ...).
    Float(f64),
    /// One label out of a declared closed set (allocation policies, ...).
    Choice(String),
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Rust's float Display is the shortest representation that
            // parses back to the same bits, so rendered specs round-trip.
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Choice(v) => f.write_str(v),
        }
    }
}

/// The kind (type + admissible range) of one declared parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamKind {
    /// An integer in `min..=max`.
    Int {
        /// Smallest admissible value.
        min: i64,
        /// Largest admissible value.
        max: i64,
    },
    /// A finite float in `min..=max`.
    Float {
        /// Smallest admissible value.
        min: f64,
        /// Largest admissible value.
        max: f64,
    },
    /// One of a closed set of labels.
    Enum {
        /// The admissible labels, in declaration order.
        choices: Vec<String>,
    },
}

impl ParamKind {
    /// Short kind label used in schema listings (`int`, `float`, `enum`).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ParamKind::Int { .. } => "int",
            ParamKind::Float { .. } => "float",
            ParamKind::Enum { .. } => "enum",
        }
    }

    /// Human-readable admissible range (`2..=64`, `0.5..=4`,
    /// `proportional|paper-max`), used in listings and error messages.
    #[must_use]
    pub fn bounds_label(&self) -> String {
        match self {
            ParamKind::Int { min, max } => format!("{min}..={max}"),
            ParamKind::Float { min, max } => format!("{min}..={max}"),
            ParamKind::Enum { choices } => choices.join("|"),
        }
    }
}

/// One declared parameter of an architecture: name, kind (with bounds),
/// default value and a one-line doc string.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSpec {
    /// Parameter name, the key in `name{key=value,...}` specs.
    pub name: String,
    /// Kind and admissible range.
    pub kind: ParamKind,
    /// Value used when a spec does not set the parameter.
    pub default: ParamValue,
    /// One-line description shown by `repro --describe-arch`.
    pub doc: String,
}

/// The declared parameter space of one architecture: an ordered list of
/// [`ParamSpec`]s, built fluently by the architecture's
/// [`ArchitectureBuilder::param_schema`](crate::registry::ArchitectureBuilder::param_schema).
///
/// ```
/// use pnoc_sim::params::ParamSchema;
///
/// let schema = ParamSchema::new()
///     .int("radix", 16, 2, 512, "clusters sharing the crossbar")
///     .choice("policy", "proportional", &["proportional", "paper-max"], "allocation policy");
/// assert_eq!(schema.len(), 2);
/// assert_eq!(schema.names(), vec!["policy".to_string(), "radix".to_string()]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ParamSchema {
    params: Vec<ParamSpec>,
}

impl ParamSchema {
    /// Creates an empty schema (an architecture with no tunable parameters).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn push(mut self, spec: ParamSpec) -> Self {
        assert!(
            !spec.name.is_empty()
                && spec
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-'),
            "parameter name '{}' must be non-empty [a-zA-Z0-9_-]",
            spec.name
        );
        assert!(
            self.get(&spec.name).is_none(),
            "parameter '{}' declared twice",
            spec.name
        );
        self.params.push(spec);
        self
    }

    /// Declares an integer parameter with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if the default lies outside `min..=max`, the bounds are
    /// inverted, the name is empty/invalid, or the name is already declared.
    #[must_use]
    pub fn int(self, name: &str, default: i64, min: i64, max: i64, doc: &str) -> Self {
        assert!(min <= max, "parameter '{name}': min {min} > max {max}");
        assert!(
            (min..=max).contains(&default),
            "parameter '{name}': default {default} outside {min}..={max}"
        );
        self.push(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Int { min, max },
            default: ParamValue::Int(default),
            doc: doc.to_string(),
        })
    }

    /// Declares a float parameter with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics on non-finite or inverted bounds, a default outside them, or a
    /// duplicate/invalid name.
    #[must_use]
    pub fn float(self, name: &str, default: f64, min: f64, max: f64, doc: &str) -> Self {
        assert!(
            min.is_finite() && max.is_finite() && min <= max,
            "parameter '{name}': bounds must be finite with min <= max"
        );
        assert!(
            default.is_finite() && (min..=max).contains(&default),
            "parameter '{name}': default {default} outside {min}..={max}"
        );
        self.push(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Float { min, max },
            default: ParamValue::Float(default),
            doc: doc.to_string(),
        })
    }

    /// Declares an enum parameter over a closed set of labels.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty, the default is not one of them, or the
    /// name is duplicate/invalid.
    #[must_use]
    pub fn choice(self, name: &str, default: &str, choices: &[&str], doc: &str) -> Self {
        assert!(!choices.is_empty(), "parameter '{name}': empty choice set");
        assert!(
            choices.contains(&default),
            "parameter '{name}': default '{default}' not among {choices:?}"
        );
        self.push(ParamSpec {
            name: name.to_string(),
            kind: ParamKind::Enum {
                choices: choices.iter().map(|c| c.to_string()).collect(),
            },
            default: ParamValue::Choice(default.to_string()),
            doc: doc.to_string(),
        })
    }

    /// The declared parameter of the given name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ParamSpec> {
        self.params.iter().find(|p| p.name == name)
    }

    /// Declared parameter names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.params.iter().map(|p| p.name.clone()).collect();
        names.sort();
        names
    }

    /// The declared parameters, in declaration order.
    #[must_use]
    pub fn specs(&self) -> &[ParamSpec] {
        &self.params
    }

    /// Number of declared parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the schema declares no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Parses and bounds-checks one raw value against one declared parameter.
    fn parse_value(
        &self,
        architecture: &str,
        spec: &ParamSpec,
        raw: &str,
    ) -> Result<ParamValue, ArchParamError> {
        let invalid = |expected: &str| ArchParamError::InvalidValue {
            architecture: architecture.to_string(),
            key: spec.name.clone(),
            value: raw.to_string(),
            expected: expected.to_string(),
        };
        let out_of_bounds = || ArchParamError::OutOfBounds {
            architecture: architecture.to_string(),
            key: spec.name.clone(),
            value: raw.to_string(),
            bounds: spec.kind.bounds_label(),
        };
        match &spec.kind {
            ParamKind::Int { min, max } => {
                let value: i64 = raw.trim().parse().map_err(|_| invalid("an integer"))?;
                if !(*min..=*max).contains(&value) {
                    return Err(out_of_bounds());
                }
                Ok(ParamValue::Int(value))
            }
            ParamKind::Float { min, max } => {
                let value: f64 = raw.trim().parse().map_err(|_| invalid("a number"))?;
                if !value.is_finite() || !(*min..=*max).contains(&value) {
                    return Err(out_of_bounds());
                }
                Ok(ParamValue::Float(value))
            }
            ParamKind::Enum { choices } => {
                let value = raw.trim();
                if !choices.iter().any(|c| c == value) {
                    return Err(ArchParamError::UnknownChoice {
                        architecture: architecture.to_string(),
                        key: spec.name.clone(),
                        value: value.to_string(),
                        choices: choices.clone(),
                    });
                }
                Ok(ParamValue::Choice(value.to_string()))
            }
        }
    }

    /// Validates raw `key=value` overrides against this schema and returns
    /// the fully resolved parameter set: every declared parameter present,
    /// overrides parsed and bounds-checked, the rest at their defaults.
    ///
    /// # Errors
    ///
    /// * [`ArchParamError::UnknownParameter`] for a key the schema does not
    ///   declare (the message lists the declared keys and suggests the
    ///   nearest one),
    /// * [`ArchParamError::InvalidValue`] for a value that does not parse as
    ///   the declared kind,
    /// * [`ArchParamError::OutOfBounds`] / [`ArchParamError::UnknownChoice`]
    ///   for a parsed value outside the declared bounds or choice set.
    pub fn validate(
        &self,
        architecture: &str,
        params: &ArchParams,
    ) -> Result<ResolvedParams, ArchParamError> {
        for key in params.keys() {
            if self.get(key).is_none() {
                return Err(ArchParamError::UnknownParameter {
                    architecture: architecture.to_string(),
                    key: key.to_string(),
                    known: self.names(),
                });
            }
        }
        let mut values = BTreeMap::new();
        for spec in &self.params {
            let value = match params.get(&spec.name) {
                Some(raw) => self.parse_value(architecture, spec, raw)?,
                None => spec.default.clone(),
            };
            values.insert(spec.name.clone(), value);
        }
        Ok(ResolvedParams { values })
    }
}

/// The one definition of the canonical `{key=value,...}` text form, shared
/// by [`ArchParams::render`] and [`ResolvedParams::canonical`] so the spec
/// text and the batch engine's deduplication key can never drift apart.
/// Empty input renders as the empty string.
fn render_braced<K: std::fmt::Display, V: std::fmt::Display>(
    entries: impl Iterator<Item = (K, V)>,
) -> String {
    let body: Vec<String> = entries.map(|(k, v)| format!("{k}={v}")).collect();
    if body.is_empty() {
        return String::new();
    }
    format!("{{{}}}", body.join(","))
}

/// Raw, unvalidated architecture-parameter overrides: an ordered
/// `key → value-string` map, the wire/spec-string representation of the
/// parameters. Typing and bounds-checking happen against a [`ParamSchema`]
/// at resolve time (see [`ParamSchema::validate`]).
///
/// The canonical text form is `{key=value,...}` with keys in sorted order;
/// [`ArchParams::parse`] and [`ArchParams::render`] are inverses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ArchParams {
    entries: BTreeMap<String, String>,
}

impl ArchParams {
    /// Creates an empty override set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fluently sets one override (replacing any previous value of the key).
    #[must_use]
    pub fn set(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.insert(key, value);
        self
    }

    /// Sets one override in place (replacing any previous value of the key).
    pub fn insert(&mut self, key: impl Into<String>, value: impl ToString) {
        self.entries.insert(key.into(), value.to_string());
    }

    /// The raw override for `key`, if set.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// The override keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Iterates `(key, value)` pairs in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of overrides.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no overrides are set.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the canonical `{key=value,...}` text form (the empty string
    /// when no overrides are set), the inverse of [`ArchParams::parse`].
    #[must_use]
    pub fn render(&self) -> String {
        render_braced(self.entries.iter())
    }

    /// Parses a `{key=value,...}` block (or the empty string, meaning no
    /// overrides). The inverse of [`ArchParams::render`].
    ///
    /// # Errors
    ///
    /// Returns [`ArchParamError::Malformed`] on missing/unbalanced braces,
    /// empty keys or values, a missing `=`, or a duplicated key.
    pub fn parse(text: &str) -> Result<Self, ArchParamError> {
        let malformed = |reason: &str| ArchParamError::Malformed {
            input: text.to_string(),
            reason: reason.to_string(),
        };
        if text.is_empty() {
            return Ok(Self::new());
        }
        let body = text
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| malformed("parameters must be enclosed in braces: {key=value,...}"))?;
        if body.contains(['{', '}']) {
            return Err(malformed("nested braces are not allowed"));
        }
        let mut params = Self::new();
        if body.is_empty() {
            return Ok(params);
        }
        for pair in body.split(',') {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| malformed("each parameter must be key=value"))?;
            let (key, value) = (key.trim(), value.trim());
            if key.is_empty() || value.is_empty() {
                return Err(malformed("parameter keys and values must be non-empty"));
            }
            if params.get(key).is_some() {
                return Err(malformed(&format!("parameter '{key}' is set twice")));
            }
            params.insert(key, value);
        }
        Ok(params)
    }

    /// Splits a full `name{key=value,...}` architecture spec into the bare
    /// registry name and its parameter overrides (`"firefly"` →
    /// `("firefly", {})`, `"firefly{radix=8}"` → `("firefly", {radix=8})`).
    ///
    /// # Errors
    ///
    /// Returns [`ArchParamError::Malformed`] on an empty name or a malformed
    /// parameter block (see [`ArchParams::parse`]).
    pub fn split_spec(text: &str) -> Result<(String, Self), ArchParamError> {
        let (name, block) = match text.find('{') {
            Some(brace) => (&text[..brace], &text[brace..]),
            None => (text, ""),
        };
        if name.is_empty() {
            return Err(ArchParamError::Malformed {
                input: text.to_string(),
                reason: "architecture spec needs a name before '{'".to_string(),
            });
        }
        Ok((name.to_string(), Self::parse(block)?))
    }

    /// Renders a full `name{key=value,...}` architecture spec (just the bare
    /// name when no overrides are set), the inverse of
    /// [`ArchParams::split_spec`].
    #[must_use]
    pub fn render_spec(&self, name: &str) -> String {
        format!("{name}{}", self.render())
    }
}

impl std::fmt::Display for ArchParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// A schema-validated, fully resolved parameter set: every parameter the
/// architecture declares, either at its override or its default value.
/// Produced by [`ParamSchema::validate`]; consumed by
/// [`ArchitectureBuilder::build`](crate::registry::ArchitectureBuilder::build).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResolvedParams {
    values: BTreeMap<String, ParamValue>,
}

impl ResolvedParams {
    /// An empty parameter set (what an empty schema validates to).
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// The resolved value of `key`, if the schema declared it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.values.get(key)
    }

    /// The resolved integer parameter `key`.
    ///
    /// # Panics
    ///
    /// Panics when the schema did not declare `key` as an int — a builder
    /// bug, not a user input error (user input is validated earlier).
    #[must_use]
    pub fn int(&self, key: &str) -> i64 {
        match self.values.get(key) {
            Some(ParamValue::Int(v)) => *v,
            other => panic!("parameter '{key}' is not a resolved int (got {other:?})"),
        }
    }

    /// The resolved float parameter `key`.
    ///
    /// # Panics
    ///
    /// Panics when the schema did not declare `key` as a float.
    #[must_use]
    pub fn float(&self, key: &str) -> f64 {
        match self.values.get(key) {
            Some(ParamValue::Float(v)) => *v,
            other => panic!("parameter '{key}' is not a resolved float (got {other:?})"),
        }
    }

    /// The resolved enum parameter `key`.
    ///
    /// # Panics
    ///
    /// Panics when the schema did not declare `key` as an enum.
    #[must_use]
    pub fn choice(&self, key: &str) -> &str {
        match self.values.get(key) {
            Some(ParamValue::Choice(v)) => v,
            other => panic!("parameter '{key}' is not a resolved enum (got {other:?})"),
        }
    }

    /// Number of resolved parameters (= the schema size).
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the architecture declares no parameters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The canonical `{key=value,...}` rendering of the **full** resolved
    /// set (empty string for an empty schema). Because defaults are filled
    /// in, two specs that resolve to the same effective parameters render
    /// identically — this is the parameter component of the batch engine's
    /// deduplication key, so `firefly` and `firefly{radix=16}` (the default)
    /// share one simulation.
    #[must_use]
    pub fn canonical(&self) -> String {
        render_braced(self.values.iter())
    }
}

/// Why architecture parameters failed to parse or validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ArchParamError {
    /// The `name{key=value,...}` text itself is malformed.
    Malformed {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: String,
    },
    /// A key the architecture's schema does not declare.
    UnknownParameter {
        /// The architecture whose schema was consulted.
        architecture: String,
        /// The unknown key.
        key: String,
        /// Every declared key, sorted.
        known: Vec<String>,
    },
    /// A value that does not parse as the declared kind.
    InvalidValue {
        /// The architecture whose schema was consulted.
        architecture: String,
        /// The offending key.
        key: String,
        /// The raw value.
        value: String,
        /// What the kind expected (e.g. "an integer").
        expected: String,
    },
    /// A parsed value outside the declared bounds.
    OutOfBounds {
        /// The architecture whose schema was consulted.
        architecture: String,
        /// The offending key.
        key: String,
        /// The raw value.
        value: String,
        /// The declared admissible range.
        bounds: String,
    },
    /// An enum value outside the declared choice set.
    UnknownChoice {
        /// The architecture whose schema was consulted.
        architecture: String,
        /// The offending key.
        key: String,
        /// The raw value.
        value: String,
        /// The declared labels.
        choices: Vec<String>,
    },
}

impl ArchParamError {
    /// The declared name closest to the offending key or choice, when the
    /// error is an unknown key/choice and a declared name is within typo
    /// distance (same metric as the registry's "did you mean").
    #[must_use]
    pub fn suggestion(&self) -> Option<&str> {
        match self {
            ArchParamError::UnknownParameter { key, known, .. } => {
                nearest_name(key, known.iter().map(String::as_str))
            }
            ArchParamError::UnknownChoice { value, choices, .. } => {
                nearest_name(value, choices.iter().map(String::as_str))
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for ArchParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArchParamError::Malformed { input, reason } => {
                write!(f, "cannot parse architecture spec '{input}': {reason}")
            }
            ArchParamError::UnknownParameter {
                architecture,
                key,
                known,
            } => {
                write!(
                    f,
                    "unknown parameter '{key}' for architecture '{architecture}'; declared: [{}]",
                    known.join(", ")
                )?;
                if let Some(suggestion) = self.suggestion() {
                    write!(f, " — did you mean '{suggestion}'?")?;
                }
                Ok(())
            }
            ArchParamError::InvalidValue {
                architecture,
                key,
                value,
                expected,
            } => write!(
                f,
                "parameter '{key}' of architecture '{architecture}': '{value}' is not {expected}"
            ),
            ArchParamError::OutOfBounds {
                architecture,
                key,
                value,
                bounds,
            } => write!(
                f,
                "parameter '{key}' of architecture '{architecture}': \
                 {value} is outside the admissible range {bounds}"
            ),
            ArchParamError::UnknownChoice {
                architecture,
                key,
                value,
                choices,
            } => {
                write!(
                    f,
                    "parameter '{key}' of architecture '{architecture}': \
                     unknown choice '{value}'; declared: [{}]",
                    choices.join(", ")
                )?;
                if let Some(suggestion) = self.suggestion() {
                    write!(f, " — did you mean '{suggestion}'?")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ArchParamError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> ParamSchema {
        ParamSchema::new()
            .int("radix", 16, 2, 512, "clusters sharing the crossbar")
            .float("scale", 1.0, 0.25, 4.0, "load scale factor")
            .choice(
                "policy",
                "proportional",
                &["proportional", "paper-max"],
                "allocation policy",
            )
    }

    #[test]
    fn schema_declares_and_lists_params() {
        let s = schema();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(
            s.names(),
            vec![
                "policy".to_string(),
                "radix".to_string(),
                "scale".to_string()
            ]
        );
        let radix = s.get("radix").expect("declared");
        assert_eq!(radix.kind.label(), "int");
        assert_eq!(radix.kind.bounds_label(), "2..=512");
        assert_eq!(radix.default, ParamValue::Int(16));
        assert_eq!(
            s.get("policy").unwrap().kind.bounds_label(),
            "proportional|paper-max"
        );
        assert!(s.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "declared twice")]
    fn schema_rejects_duplicate_names() {
        let _ = ParamSchema::new()
            .int("radix", 16, 2, 64, "a")
            .int("radix", 8, 2, 64, "b");
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn schema_rejects_default_outside_bounds() {
        let _ = ParamSchema::new().int("radix", 1, 2, 64, "bad default");
    }

    #[test]
    fn params_parse_and_render_are_inverses() {
        for text in ["", "{radix=8}", "{policy=paper-max,radix=8,scale=1.5}"] {
            let parsed = ArchParams::parse(text).expect("well-formed");
            assert_eq!(parsed.render(), text, "canonical text must round-trip");
            assert_eq!(ArchParams::parse(&parsed.render()).unwrap(), parsed);
        }
        // Non-canonical order and whitespace normalise to the canonical form.
        let messy = ArchParams::parse("{scale=1.5, radix=8}").expect("well-formed");
        assert_eq!(messy.render(), "{radix=8,scale=1.5}");
        assert_eq!(messy.get("radix"), Some("8"));
        assert_eq!(messy.len(), 2);
    }

    #[test]
    fn malformed_param_blocks_are_rejected() {
        for bad in [
            "radix=8",
            "{radix=8",
            "radix=8}",
            "{radix}",
            "{=8}",
            "{radix=}",
            "{radix=8,radix=9}",
            "{radix={8}}",
            "{,}",
        ] {
            let error = ArchParams::parse(bad).expect_err(bad);
            assert!(
                matches!(error, ArchParamError::Malformed { .. }),
                "'{bad}' should be malformed, got {error:?}"
            );
            assert!(error.to_string().contains("cannot parse"), "{error}");
        }
    }

    #[test]
    fn specs_split_and_render() {
        let (name, params) = ArchParams::split_spec("firefly{radix=8}").unwrap();
        assert_eq!(name, "firefly");
        assert_eq!(params.get("radix"), Some("8"));
        assert_eq!(params.render_spec("firefly"), "firefly{radix=8}");

        let (name, params) = ArchParams::split_spec("firefly").unwrap();
        assert_eq!(name, "firefly");
        assert!(params.is_empty());
        assert_eq!(params.render_spec("firefly"), "firefly");

        assert!(ArchParams::split_spec("{radix=8}").is_err());
        assert!(ArchParams::split_spec("firefly{radix=8").is_err());
    }

    #[test]
    fn validation_fills_defaults_and_applies_overrides() {
        let resolved = schema()
            .validate("test-arch", &ArchParams::new().set("radix", 8))
            .expect("valid override");
        assert_eq!(resolved.int("radix"), 8);
        assert!((resolved.float("scale") - 1.0).abs() < 1e-12);
        assert_eq!(resolved.choice("policy"), "proportional");
        assert_eq!(resolved.len(), 3);
        assert_eq!(
            resolved.canonical(),
            "{policy=proportional,radix=8,scale=1}"
        );
        // Defaults-only resolves to the same canonical set as explicitly
        // passing the default values.
        let defaults = schema().validate("test-arch", &ArchParams::new()).unwrap();
        let explicit = schema()
            .validate("test-arch", &ArchParams::new().set("radix", 16))
            .unwrap();
        assert_eq!(defaults.canonical(), explicit.canonical());
    }

    #[test]
    fn unknown_parameter_lists_catalogue_and_suggests_nearest() {
        let error = schema()
            .validate("test-arch", &ArchParams::new().set("radx", 8))
            .expect_err("'radx' is not declared");
        assert_eq!(error.suggestion(), Some("radix"));
        let message = error.to_string();
        assert!(
            message.contains("unknown parameter 'radx' for architecture 'test-arch'"),
            "{message}"
        );
        assert!(message.contains("[policy, radix, scale]"), "{message}");
        assert!(message.contains("did you mean 'radix'?"), "{message}");

        // A nonsense key still lists the catalogue, without a suggestion.
        let error = schema()
            .validate("test-arch", &ArchParams::new().set("warp-factor", 9))
            .expect_err("not declared");
        assert_eq!(error.suggestion(), None);
        assert!(!error.to_string().contains("did you mean"));
    }

    #[test]
    fn out_of_bounds_and_invalid_values_render_the_bounds() {
        let error = schema()
            .validate("test-arch", &ArchParams::new().set("radix", 1))
            .expect_err("below min");
        assert!(
            matches!(error, ArchParamError::OutOfBounds { .. }),
            "{error:?}"
        );
        assert!(error.to_string().contains("2..=512"), "{error}");

        let error = schema()
            .validate("test-arch", &ArchParams::new().set("scale", "100"))
            .expect_err("above max");
        assert!(error.to_string().contains("0.25..=4"), "{error}");

        let error = schema()
            .validate("test-arch", &ArchParams::new().set("radix", "eight"))
            .expect_err("not an integer");
        assert!(
            matches!(error, ArchParamError::InvalidValue { .. }),
            "{error:?}"
        );
        assert!(error.to_string().contains("not an integer"), "{error}");

        let error = schema()
            .validate("test-arch", &ArchParams::new().set("scale", "NaN"))
            .expect_err("not finite");
        assert!(matches!(error, ArchParamError::OutOfBounds { .. }));
    }

    #[test]
    fn unknown_choice_suggests_the_nearest_label() {
        let error = schema()
            .validate("test-arch", &ArchParams::new().set("policy", "paper-maxx"))
            .expect_err("unknown label");
        assert_eq!(error.suggestion(), Some("paper-max"));
        let message = error.to_string();
        assert!(message.contains("[proportional, paper-max]"), "{message}");
        assert!(message.contains("did you mean 'paper-max'?"), "{message}");
    }

    #[test]
    fn float_values_round_trip_through_display() {
        let resolved = schema()
            .validate("test-arch", &ArchParams::new().set("scale", 0.3))
            .unwrap();
        let rendered = resolved.canonical();
        // Re-parsing the canonical rendering recovers the exact same value.
        let params = ArchParams::parse(
            &rendered
                .replace("policy=proportional,", "")
                .replace("radix=16,", ""),
        )
        .unwrap();
        let again = schema().validate("test-arch", &params).unwrap();
        assert_eq!(again.float("scale").to_bits(), 0.3f64.to_bits());
    }
}
