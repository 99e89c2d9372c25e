//! Cheaply clonable interned names.
//!
//! Hot paths tag anomalies and monitor observations with entity names
//! (task, signal, channel, platoon member). Carrying those as `String`
//! puts a heap allocation on every anomaly an escalation storm raises.
//! [`Name`] wraps `Arc<str>`: construction allocates once, every subsequent
//! clone is a reference-count bump, and equality/hashing go through the
//! underlying string so it behaves like `String` at every call site.
//!
//! The most frequent record of all, the scheduler's job record, carries no
//! name: it refers to its task by index, because even a reference-count
//! bump and drop per job shows at 100 Hz per vehicle.

use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply clonable name (an interned string).
///
/// `Name` compares, hashes and orders exactly like the `str` it wraps, so
/// it can key a `HashMap` looked up by `&str` (via `Borrow<str>`) and be
/// compared against string literals directly.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Arc<str>);

impl Name {
    /// Creates a name from anything stringy. Allocates once; clones of the
    /// result never allocate.
    pub fn new(s: impl Into<Arc<str>>) -> Self {
        Name(s.into())
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Default for Name {
    fn default() -> Self {
        Name(Arc::from(""))
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl AsRef<str> for Name {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Name(Arc::from(s))
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Self {
        Name(Arc::from(s.as_str()))
    }
}

impl From<Arc<str>> for Name {
    fn from(s: Arc<str>) -> Self {
        Name(s)
    }
}

impl From<&Name> for Name {
    fn from(s: &Name) -> Self {
        s.clone()
    }
}

impl From<Name> for String {
    fn from(n: Name) -> Self {
        n.0.as_ref().to_owned()
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other.as_str()
    }
}

impl PartialEq<Name> for str {
    fn eq(&self, other: &Name) -> bool {
        self == other.as_str()
    }
}

impl PartialEq<Name> for &str {
    fn eq(&self, other: &Name) -> bool {
        *self == other.as_str()
    }
}

impl PartialEq<Name> for String {
    fn eq(&self, other: &Name) -> bool {
        self.as_str() == other.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn compares_like_a_string() {
        let n = Name::from("acc_ctl");
        assert_eq!(n, "acc_ctl");
        assert_eq!("acc_ctl", n);
        assert_eq!(n, String::from("acc_ctl"));
        assert_ne!(n, "radar");
        assert_eq!(n.to_string(), "acc_ctl");
        assert_eq!(format!("{n:?}"), "\"acc_ctl\"");
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = Name::from("perception");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
    }

    #[test]
    fn keys_a_map_looked_up_by_str() {
        let mut m: HashMap<Name, u32> = HashMap::new();
        m.insert("radar_drv".into(), 7);
        assert_eq!(m.get("radar_drv"), Some(&7));
        assert_eq!(m.get("nope"), None);
    }

    #[test]
    fn derefs_to_str_methods() {
        let n = Name::from("brake_rear_ctl");
        assert!(n.contains("brake_rear"));
        assert!(n.starts_with("brake"));
        assert_eq!(n.len(), 14);
    }
}
