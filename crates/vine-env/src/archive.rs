//! Environment archives: the conda-pack tarball analogue.
//!
//! An archive is a content-addressed manifest of a resolved environment.
//! Its `packed_bytes` is what the distribute mechanism moves over the
//! network; its `unpacked_bytes` is what a worker's unpack step writes to
//! local disk (at ~200 MB/s per the paper's Table 5 worker overhead); its
//! `file_count` drives the metadata-operation cost of L1's shared-FS
//! imports.

use crate::registry::Version;
use crate::resolve::Resolution;
use vine_core::ids::ContentHash;

/// A packed environment: identity, contents and exact sizes.
#[derive(Clone, Debug, PartialEq)]
pub struct EnvironmentArchive {
    pub name: String,
    /// (package, version) pairs in install order.
    pub packages: Vec<(String, Version)>,
    pub packed_bytes: u64,
    pub unpacked_bytes: u64,
    pub file_count: u64,
    /// Modules the activated environment provides to vine-lang.
    pub provided_modules: Vec<String>,
    /// Content digest over the full manifest: archives with identical
    /// contents are the *same file* to the data plane, so a worker that
    /// already caches one environment never re-fetches an identical one
    /// built elsewhere.
    pub hash: ContentHash,
}

/// Pack a resolution into an archive (conda-pack).
pub fn pack(name: impl Into<String>, resolution: &Resolution) -> EnvironmentArchive {
    let name = name.into();
    let packages: Vec<(String, Version)> = resolution
        .packages
        .iter()
        .map(|p| (p.name.clone(), p.version))
        .collect();

    // digest covers package identities and sizes — not the archive name, so
    // two libraries that resolve the same environment share one cached copy
    let mut h = ContentHash::of_str("env-archive-v1");
    for p in &resolution.packages {
        h = h.combine(ContentHash::of_str(&format!(
            "{}@{}:{}:{}:{}",
            p.name, p.version, p.packed_bytes, p.unpacked_bytes, p.file_count
        )));
    }

    EnvironmentArchive {
        name,
        packages,
        packed_bytes: resolution.packed_bytes(),
        unpacked_bytes: resolution.unpacked_bytes(),
        file_count: resolution.file_count(),
        provided_modules: resolution
            .provided_modules()
            .into_iter()
            .map(str::to_string)
            .collect(),
        hash: h,
    }
}

impl EnvironmentArchive {
    /// Does the activated environment provide this vine-lang module?
    pub fn provides(&self, module: &str) -> bool {
        self.provided_modules.iter().any(|m| m == module)
    }

    pub fn package_count(&self) -> usize {
        self.packages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{PackageRegistry, PackageSpec, Requirement};
    use crate::resolve::resolve;

    fn v(s: &str) -> Version {
        Version::parse(s).unwrap()
    }

    fn make_resolution(extra_pkg: bool) -> Resolution {
        let mut reg = PackageRegistry::new();
        reg.add(
            PackageSpec::new("nn", v("1.0.0"))
                .with_sizes(1000, 5000, 20)
                .with_deps(vec![Requirement::any("blas")]),
        );
        reg.add(
            PackageSpec::new("blas", v("3.0.0"))
                .with_sizes(500, 2000, 10)
                .no_module(),
        );
        if extra_pkg {
            reg.add(PackageSpec::new("extra", v("1.0.0")));
        }
        let mut reqs = vec![Requirement::any("nn")];
        if extra_pkg {
            reqs.push(Requirement::any("extra"));
        }
        resolve(&reg, &reqs).unwrap()
    }

    #[test]
    fn pack_accumulates_sizes() {
        let archive = pack("lnni-env", &make_resolution(false));
        assert_eq!(archive.packed_bytes, 1500);
        assert_eq!(archive.unpacked_bytes, 7000);
        assert_eq!(archive.file_count, 30);
        assert_eq!(archive.package_count(), 2);
        assert!(archive.provides("nn"));
        assert!(!archive.provides("blas")); // no_module
    }

    #[test]
    fn identical_contents_share_identity_despite_name() {
        let a = pack("env-a", &make_resolution(false));
        let b = pack("env-b", &make_resolution(false));
        assert_eq!(a.hash, b.hash);
        let c = pack("env-a", &make_resolution(true));
        assert_ne!(a.hash, c.hash);
    }

    #[test]
    fn install_order_preserved() {
        let archive = pack("env", &make_resolution(false));
        let names: Vec<&str> = archive.packages.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["blas", "nn"]);
    }
}
