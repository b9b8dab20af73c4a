//! Versioned package registry.

use std::collections::BTreeMap;
use std::fmt;
use vine_core::{Result, VineError};

/// A semantic-ish version: major.minor.patch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u32, pub u32, pub u32);

impl Version {
    pub fn parse(s: &str) -> Result<Version> {
        let mut parts = s.split('.');
        let mut next = |what: &str| -> Result<u32> {
            parts
                .next()
                .ok_or_else(|| VineError::Dependency(format!("version '{s}' missing {what}")))?
                .parse()
                .map_err(|_| VineError::Dependency(format!("bad version component in '{s}'")))
        };
        let v = Version(next("major")?, next("minor")?, next("patch")?);
        if parts.next().is_some() {
            return Err(VineError::Dependency(format!(
                "version '{s}' has too many components"
            )));
        }
        Ok(v)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.0, self.1, self.2)
    }
}

impl fmt::Debug for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// A version constraint. The paper notes users may provide dependency
/// specifications "with or without versions specified"; `Any` covers the
/// without case.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Constraint {
    Any,
    Exact(Version),
    AtLeast(Version),
}

impl Constraint {
    pub fn satisfied_by(&self, v: Version) -> bool {
        match self {
            Constraint::Any => true,
            Constraint::Exact(want) => v == *want,
            Constraint::AtLeast(min) => v >= *min,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Any => write!(f, "*"),
            Constraint::Exact(v) => write!(f, "=={v}"),
            Constraint::AtLeast(v) => write!(f, ">={v}"),
        }
    }
}

/// One dependency requirement: a package name plus a constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Requirement {
    pub name: String,
    pub constraint: Constraint,
}

impl Requirement {
    pub fn any(name: impl Into<String>) -> Requirement {
        Requirement {
            name: name.into(),
            constraint: Constraint::Any,
        }
    }

    pub fn exact(name: impl Into<String>, v: Version) -> Requirement {
        Requirement {
            name: name.into(),
            constraint: Constraint::Exact(v),
        }
    }

    pub fn at_least(name: impl Into<String>, v: Version) -> Requirement {
        Requirement {
            name: name.into(),
            constraint: Constraint::AtLeast(v),
        }
    }
}

impl fmt::Display for Requirement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.name, self.constraint)
    }
}

/// One installable package version.
#[derive(Clone, Debug, PartialEq)]
pub struct PackageSpec {
    pub name: String,
    pub version: Version,
    pub deps: Vec<Requirement>,
    /// Size on disk once installed.
    pub unpacked_bytes: u64,
    /// Contribution to a packed environment archive.
    pub packed_bytes: u64,
    /// Number of files the package installs (drives metadata-IOPS costs of
    /// importing over a shared filesystem).
    pub file_count: u32,
    /// vine-lang module this package provides, if any (many packages are
    /// pure transitive dependencies providing none).
    pub provides_module: Option<String>,
}

impl PackageSpec {
    pub fn new(name: impl Into<String>, version: Version) -> PackageSpec {
        let name = name.into();
        PackageSpec {
            provides_module: Some(name.clone()),
            name,
            version,
            deps: Vec::new(),
            unpacked_bytes: 1 << 20,
            packed_bytes: 256 << 10,
            file_count: 50,
        }
    }

    pub fn with_deps(mut self, deps: Vec<Requirement>) -> PackageSpec {
        self.deps = deps;
        self
    }

    pub fn with_sizes(mut self, packed: u64, unpacked: u64, files: u32) -> PackageSpec {
        self.packed_bytes = packed;
        self.unpacked_bytes = unpacked;
        self.file_count = files;
        self
    }

    pub fn no_module(mut self) -> PackageSpec {
        self.provides_module = None;
        self
    }
}

/// All known packages, all versions.
#[derive(Clone, Debug, Default)]
pub struct PackageRegistry {
    packages: BTreeMap<String, BTreeMap<Version, PackageSpec>>,
}

impl PackageRegistry {
    pub fn new() -> PackageRegistry {
        PackageRegistry::default()
    }

    pub fn add(&mut self, spec: PackageSpec) {
        self.packages
            .entry(spec.name.clone())
            .or_default()
            .insert(spec.version, spec);
    }

    pub fn versions_of(&self, name: &str) -> impl Iterator<Item = &PackageSpec> {
        self.packages.get(name).into_iter().flat_map(|m| m.values())
    }

    /// The highest version of `name` satisfying all of `constraints`.
    pub fn best_match(&self, name: &str, constraints: &[Constraint]) -> Option<&PackageSpec> {
        self.packages
            .get(name)?
            .values()
            .rev()
            .find(|spec| constraints.iter().all(|c| c.satisfied_by(spec.version)))
    }

    pub fn get(&self, name: &str, version: Version) -> Option<&PackageSpec> {
        self.packages.get(name)?.get(&version)
    }

    pub fn contains(&self, name: &str) -> bool {
        self.packages.contains_key(name)
    }

    pub fn package_count(&self) -> usize {
        self.packages.values().map(|m| m.len()).sum()
    }

    /// Every vine-lang module name some version of some package provides.
    /// Pre-flight analysis unions this with the native module registry to
    /// decide whether an `import` can ever be satisfied.
    pub fn provided_modules(&self) -> impl Iterator<Item = &str> {
        self.packages
            .values()
            .flat_map(|m| m.values())
            .filter_map(|spec| spec.provides_module.as_deref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    #[test]
    fn version_parse_and_order() {
        assert_eq!(v("1.2.3"), Version(1, 2, 3));
        assert!(v("1.10.0") > v("1.9.9"));
        assert!(v("2.0.0") > v("1.99.99"));
        assert!(Version::parse("1.2").is_err());
        assert!(Version::parse("1.2.3.4").is_err());
        assert!(Version::parse("a.b.c").is_err());
        assert_eq!(v("1.2.3").to_string(), "1.2.3");
    }

    #[test]
    fn constraint_satisfaction() {
        assert!(Constraint::Any.satisfied_by(v("0.0.1")));
        assert!(Constraint::Exact(v("1.2.3")).satisfied_by(v("1.2.3")));
        assert!(!Constraint::Exact(v("1.2.3")).satisfied_by(v("1.2.4")));
        assert!(Constraint::AtLeast(v("1.2.3")).satisfied_by(v("1.2.3")));
        assert!(Constraint::AtLeast(v("1.2.3")).satisfied_by(v("2.0.0")));
        assert!(!Constraint::AtLeast(v("1.2.3")).satisfied_by(v("1.2.2")));
    }

    #[test]
    fn best_match_prefers_highest_satisfying() {
        let mut reg = PackageRegistry::new();
        for ver in ["1.0.0", "1.5.0", "2.0.0"] {
            reg.add(PackageSpec::new("numpy", v(ver)));
        }
        assert_eq!(reg.best_match("numpy", &[]).unwrap().version, v("2.0.0"));
        assert_eq!(
            reg.best_match("numpy", &[Constraint::AtLeast(v("1.2.0"))])
                .unwrap()
                .version,
            v("2.0.0")
        );
        assert_eq!(
            reg.best_match(
                "numpy",
                &[
                    Constraint::AtLeast(v("1.2.0")),
                    Constraint::Exact(v("1.5.0"))
                ]
            )
            .unwrap()
            .version,
            v("1.5.0")
        );
        assert!(reg
            .best_match("numpy", &[Constraint::AtLeast(v("3.0.0"))])
            .is_none());
        assert!(reg.best_match("pandas", &[]).is_none());
    }

    #[test]
    fn registry_counts() {
        let mut reg = PackageRegistry::new();
        reg.add(PackageSpec::new("a", v("1.0.0")));
        reg.add(PackageSpec::new("a", v("2.0.0")));
        reg.add(PackageSpec::new("b", v("1.0.0")));
        // re-adding same version replaces, not duplicates
        reg.add(PackageSpec::new("b", v("1.0.0")));
        assert_eq!(reg.package_count(), 3);
        assert!(reg.contains("a"));
        assert!(!reg.contains("c"));
    }

    #[test]
    fn provided_modules_skips_moduleless_packages() {
        let mut reg = PackageRegistry::new();
        reg.add(PackageSpec::new("numpyish", v("1.0.0")));
        reg.add(PackageSpec::new("libfoo", v("1.0.0")).no_module());
        let mods: Vec<&str> = reg.provided_modules().collect();
        assert_eq!(mods, vec!["numpyish"]);
    }

    #[test]
    fn requirement_display() {
        assert_eq!(Requirement::any("x").to_string(), "x*");
        assert_eq!(Requirement::exact("x", v("1.0.0")).to_string(), "x==1.0.0");
        assert_eq!(
            Requirement::at_least("x", v("1.0.0")).to_string(),
            "x>=1.0.0"
        );
    }
}
