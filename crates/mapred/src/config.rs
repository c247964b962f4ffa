//! Job configuration, mirroring Hadoop's string-typed `Configuration`
//! object that mappers and reducers read in their `setup` methods (the
//! paper's Algorithms 1–5 all start with `setup(Configuration conf)`).

use std::collections::BTreeMap;

/// String-keyed job configuration with typed getters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobConfig {
    entries: BTreeMap<String, String>,
}

impl JobConfig {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets `key` to the string form of `value` (builder style).
    pub fn set(mut self, key: &str, value: impl ToString) -> Self {
        self.entries.insert(key.to_string(), value.to_string());
        self
    }

    /// In-place variant of [`Self::set`].
    pub fn put(&mut self, key: &str, value: impl ToString) {
        self.entries.insert(key.to_string(), value.to_string());
    }

    /// Raw string value of `key`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(String::as_str)
    }

    /// `key` parsed as `f64`; `None` when absent or malformed.
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key)?.parse().ok()
    }

    /// `key` parsed as `i64`; `None` when absent or malformed.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key)?.parse().ok()
    }

    /// `key` parsed as `usize`; `None` when absent or malformed.
    pub fn get_usize(&self, key: &str) -> Option<usize> {
        self.get(key)?.parse().ok()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the configuration is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_typed_get() {
        let c = JobConfig::new()
            .set("k", 11)
            .set("convergence.delta", 0.5)
            .set("distance", "haversine")
            .set("verbose", true);
        assert_eq!(c.get_i64("k"), Some(11));
        assert_eq!(c.get_usize("k"), Some(11));
        assert_eq!(c.get_f64("convergence.delta"), Some(0.5));
        assert_eq!(c.get("distance"), Some("haversine"));
        assert_eq!(c.get("verbose"), Some("true"));
    }

    #[test]
    fn missing_and_malformed() {
        let c = JobConfig::new().set("x", "abc");
        assert_eq!(c.get("y"), None);
        assert_eq!(c.get_f64("x"), None);
        assert_eq!(c.get_i64("x"), None);
    }

    #[test]
    fn overwrite_and_iterate() {
        let mut c = JobConfig::new().set("a", 1);
        c.put("a", 2);
        c.put("b", 3);
        assert_eq!(c.get_i64("a"), Some(2));
        assert_eq!(c.len(), 2);
        let keys: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
        assert!(!c.is_empty());
        assert!(JobConfig::new().is_empty());
    }
}
