//! Function context descriptors — the output of the **discover** mechanism.
//!
//! Paper §2.2.1: "The context includes four distinct elements: the function
//! code itself, the code's dependencies, input data, and arbitrary
//! environment setup." This module defines the portable representation of
//! those four elements that the manager packages, the transfer layer
//! broadcasts (§2.2.2), and the worker's library process retains (§2.2.3).

use crate::ids::{ContentHash, FileId};
use crate::resources::Resources;
use crate::task::ExecMode;

/// Where a file can be fetched from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileSource {
    /// Staged from the manager node (and, if `peer_transfer`, from peers).
    /// This is the path the paper's L2/L3 levels use.
    Manager,
    /// Pulled from the cluster's shared filesystem on every access, the
    /// paper's L1 baseline ("all tasks are instructed to pull all data and
    /// software dependencies from the local Panasas ActiveStor 16 shared
    /// file system", §4.2).
    SharedFs,
}

/// A reference to one immutable file: the unit of data the distribute
/// mechanism moves and the worker cache retains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileRef {
    pub id: FileId,
    /// Content digest; the cache key for dedup and the safety basis for
    /// peer-to-peer transfer (§2.2.2).
    pub hash: ContentHash,
    /// Human-readable name, for traces and sandboxes.
    pub name: String,
    pub size_bytes: u64,
    /// May the worker keep this file in its local cache after the task that
    /// brought it completes? (TaskVine `cache=True`.)
    pub cache: bool,
    /// May workers exchange this file among themselves? (TaskVine
    /// `peer_transfer=True`.)
    pub peer_transfer: bool,
    pub source: FileSource,
    /// Size after unpacking, for packed environments (0 = not packed).
    /// The paper's LNNI environment is 572 MB packed, 3.1 GB unpacked
    /// (Table 5 discussion).
    pub unpacked_bytes: u64,
}

impl FileRef {
    pub fn new(id: FileId, name: impl Into<String>, content_hash: ContentHash, size: u64) -> Self {
        FileRef {
            id,
            hash: content_hash,
            name: name.into(),
            size_bytes: size,
            cache: true,
            peer_transfer: true,
            source: FileSource::Manager,
            unpacked_bytes: 0,
        }
    }

    pub fn from_shared_fs(mut self) -> Self {
        self.source = FileSource::SharedFs;
        self
    }

    pub fn uncached(mut self) -> Self {
        self.cache = false;
        self.peer_transfer = false;
        self
    }

    pub fn packed(mut self, unpacked_bytes: u64) -> Self {
        self.unpacked_bytes = unpacked_bytes;
        self
    }

    /// Bytes this file occupies on a worker's disk once materialized
    /// (unpacked if packed, raw otherwise).
    pub fn materialized_bytes(&self) -> u64 {
        if self.unpacked_bytes > 0 {
            self.unpacked_bytes
        } else {
            self.size_bytes
        }
    }
}

/// Function code in one of the two forms the discover mechanism produces
/// (§3.2): source text extracted by inspection, or a serialized code object
/// (the paper uses cloudpickle; we use the `vine-lang` serializer).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodeArtifact {
    /// Source extracted from the defining module; the worker re-parses it
    /// and binds the function by name.
    Source { name: String, text: String },
    /// Serialized code object for functions with no recoverable source
    /// (lambdas, dynamically generated functions); the worker deserializes
    /// and reconstructs the object.
    Serialized { name: String, blob: Vec<u8> },
}

impl CodeArtifact {
    pub fn name(&self) -> &str {
        match self {
            CodeArtifact::Source { name, .. } | CodeArtifact::Serialized { name, .. } => name,
        }
    }
}

/// The arbitrary environment-setup element: an executable object run once
/// on the worker before any invocation; whatever state it builds (globals,
/// loaded models, open datasets) is what invocations reuse (§2.1.3, Fig 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetupSpec {
    /// Name of the setup function; its code must be included in the context
    /// code artifacts.
    pub function: String,
    /// Serialized arguments passed to the setup function (paper Fig 5,
    /// `context_args=[y]`).
    pub args_blob: Vec<u8>,
}

/// The complete discovered context of a function (or a co-packaged set of
/// functions): everything a worker needs *besides* per-invocation arguments.
/// Element 1, the function code, ships with the library's install (its
/// source and serialized functions), not here.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ContextSpec {
    /// Element 2 — software dependencies, packaged as an environment
    /// archive (the Poncho/conda-pack tarball analogue).
    pub environment: Option<FileRef>,
    /// Element 3 — shareable input data, bound to the context so concurrent
    /// invocations on a worker share one copy (data-to-invocation binding).
    pub data: Vec<FileRef>,
    /// Element 4 — arbitrary environment setup.
    pub setup: Option<SetupSpec>,
}

impl ContextSpec {
    /// All files the distribute mechanism must move for this context.
    pub fn files(&self) -> impl Iterator<Item = &FileRef> {
        self.environment.iter().chain(self.data.iter())
    }

    /// A stable digest of the whole context, used to deduplicate identical
    /// contexts on a worker (invocation-to-context binding, §2.2.1).
    pub fn digest(&self) -> ContentHash {
        let mut h = ContentHash::of_str("context");
        for f in self.files() {
            h = h.combine(f.hash);
        }
        if let Some(s) = &self.setup {
            h = h.combine(ContentHash::of_str(&s.function));
            h = h.combine(ContentHash::of_bytes(&s.args_blob));
        }
        h
    }
}

/// A *library*: the deployable unit that hosts one function context on a
/// worker as a daemon and serves invocations (§3.4). Created by
/// `Manager::create_library_from_functions` in the paper's API (Fig 5).
#[derive(Clone, Debug, PartialEq)]
pub struct LibrarySpec {
    /// Library name; invocations address functions as (library, function).
    pub name: String,
    /// Names of the functions this library can execute.
    pub functions: Vec<String>,
    pub context: ContextSpec,
    /// Resources the library owns on a worker. Defaults to the whole worker
    /// ("a library by default takes all resources of a worker", §3.5.2);
    /// `None` means whole-worker.
    pub resources: Option<Resources>,
    /// Concurrent invocation slots ("a library has a logical type of
    /// resource called invocation slots", §3.5.2). `None` derives slots from
    /// library resources / per-invocation resources.
    pub slots: Option<u32>,
    /// Default execution option for invocations (§3.4 step 4).
    pub exec_mode: ExecMode,
}

impl LibrarySpec {
    pub fn new(name: impl Into<String>) -> Self {
        LibrarySpec {
            name: name.into(),
            functions: Vec::new(),
            context: ContextSpec::default(),
            resources: None,
            slots: None,
            exec_mode: ExecMode::Direct,
        }
    }

    pub fn hosts_function(&self, function: &str) -> bool {
        self.functions.iter().any(|f| f == function)
    }

    /// The **function-context digest** the shard router hashes onto the
    /// shard ring: library identity plus everything the context retains.
    /// Invocations of the same library land on the same shard, so a hot
    /// function's library instances concentrate where its context already
    /// lives instead of being rebuilt on every shard.
    pub fn routing_digest(&self) -> ContentHash {
        ContentHash::of_str(&self.name).combine(self.context.digest())
    }

    /// Resolve the slot count for a worker of the given capacity and a
    /// per-invocation allocation.
    pub fn resolve_slots(&self, worker: &Resources, per_invocation: &Resources) -> u32 {
        if let Some(s) = self.slots {
            return s.max(1);
        }
        let lib_res = self.resources.unwrap_or(*worker);
        lib_res.divide_by(per_invocation).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(id: u64, name: &str, content: &str, size: u64) -> FileRef {
        FileRef::new(FileId(id), name, ContentHash::of_str(content), size)
    }

    #[test]
    fn context_digest_changes_with_any_element() {
        let base = ContextSpec {
            environment: Some(file(1, "env.tar", "envdata", 100)),
            data: vec![file(2, "data.bin", "dataset", 200)],
            setup: Some(SetupSpec {
                function: "setup".into(),
                args_blob: vec![1, 2, 3],
            }),
        };
        let d0 = base.digest();

        let mut changed = base.clone();
        changed.data[0].hash = ContentHash::of_str("other");
        assert_ne!(changed.digest(), d0);

        let mut changed = base.clone();
        changed.setup.as_mut().unwrap().args_blob = vec![9];
        assert_ne!(changed.digest(), d0);

        // unchanged clone digests identically
        assert_eq!(base.clone().digest(), d0);
    }

    #[test]
    fn packed_file_materializes_to_unpacked_size() {
        let f = file(1, "env.tar", "x", 572).packed(3100);
        assert_eq!(f.materialized_bytes(), 3100);
        let g = file(2, "plain.bin", "y", 10);
        assert_eq!(g.materialized_bytes(), 10);
    }

    #[test]
    fn library_slot_resolution() {
        let mut lib = LibrarySpec::new("lib");
        let worker = Resources::paper_worker();
        let invoc = Resources::lnni_invocation();

        // whole-worker library, derived slots: 16 (paper §4.2)
        assert_eq!(lib.resolve_slots(&worker, &invoc), 16);

        // explicit slot override wins
        lib.slots = Some(8);
        assert_eq!(lib.resolve_slots(&worker, &invoc), 8);

        // partial-worker library: 4 cores / 1 slot strategy (§3.5.2)
        lib.slots = None;
        lib.resources = Some(Resources::new(4, 8 * 1024, 8 * 1024));
        assert_eq!(
            lib.resolve_slots(&worker, &Resources::new(4, 8 * 1024, 8 * 1024)),
            1
        );
    }

    #[test]
    fn hosts_function_lookup() {
        let mut lib = LibrarySpec::new("lib");
        lib.functions = vec!["infer".into(), "train".into()];
        assert!(lib.hosts_function("infer"));
        assert!(!lib.hosts_function("simulate"));
    }

    #[test]
    fn shared_fs_and_uncached_builders() {
        let f = file(1, "a", "a", 1).from_shared_fs().uncached();
        assert_eq!(f.source, FileSource::SharedFs);
        assert!(!f.cache);
        assert!(!f.peer_transfer);
    }
}
